//! The packed record store behind every replayed stream: any canonical
//! record sequence replays exactly, a delta one past its field's edge
//! escapes to the side table and one at the edge does not, a rewind
//! resets the delta state, and sources over one store are independent.

use std::sync::Arc;

use cpusim::trace::{PackedTrace, TRACE_ADDR_LIMIT};
use cpusim::{Instr, InstrSource, TraceSource};
use proptest::prelude::*;

const TOP: u64 = TRACE_ADDR_LIMIT - 1;
/// Largest pc jump (beyond the sequential `+ 4`) a packed word holds.
const PC_MAX: u64 = (1 << 20) - 1;
/// Largest address step a packed word holds.
const ADDR_MAX: u64 = (1 << 39) - 1;

/// A value below 2^48 drawn near 0, anywhere, or near the top, so that
/// consecutive records both fit and overflow the delta fields.
fn value() -> impl Strategy<Value = u64> {
    (0u8..3, 0..TRACE_ADDR_LIMIT).prop_map(|(mode, v)| match mode {
        0 => v % (1 << 22),
        1 => v,
        _ => TOP - v % (1 << 22),
    })
}

/// One canonical record (fields the kind cannot express are zeroed by the
/// constructors).
fn instr() -> impl Strategy<Value = Instr> {
    (0u8..4, value(), value(), any::<bool>()).prop_map(|(kind, pc, addr, flag)| match kind {
        0 => Instr::alu(pc),
        1 => Instr::load(pc, addr).with_dep_prev_load(flag),
        2 => Instr::store(pc, addr),
        _ => Instr::branch(pc, flag),
    })
}

fn pack(records: &[Instr]) -> Arc<PackedTrace> {
    Arc::new(records.iter().copied().collect())
}

/// The first `n` records a fresh replay of `trace` yields.
fn replay(trace: &Arc<PackedTrace>, n: usize) -> Vec<Instr> {
    let mut src = TraceSource::new(Arc::clone(trace)).expect("non-empty");
    (0..n).map(|_| src.next_instr()).collect()
}

/// Packs `records`, checks one pass replays them exactly, and returns how
/// many were escaped.
fn escapes(records: &[Instr]) -> usize {
    let trace = pack(records);
    assert_eq!(replay(&trace, records.len()), records, "round trip");
    trace.escapes()
}

proptest! {
    #[test]
    fn canonical_records_round_trip(records in proptest::collection::vec(instr(), 1..300)) {
        let trace = pack(&records);
        prop_assert_eq!(trace.len(), records.len());
        prop_assert_eq!(
            trace.record_bytes(),
            8 * records.len() + std::mem::size_of::<Instr>() * trace.escapes()
        );
        prop_assert_eq!(replay(&trace, records.len()), records);
    }

    #[test]
    fn pushing_one_at_a_time_equals_collecting(records in proptest::collection::vec(instr(), 1..100)) {
        let mut pushed = PackedTrace::new();
        for &r in &records {
            pushed.push(r);
        }
        let pushed = Arc::new(pushed);
        prop_assert_eq!(pushed.escapes(), pack(&records).escapes());
        prop_assert_eq!(replay(&pushed, records.len()), records);
    }
}

#[test]
fn pc_and_addr_at_0_and_at_2_pow_48_minus_1() {
    // The first record is packed against pc 0 + 4 - 4 and address 0.
    assert_eq!(escapes(&[Instr::load(0, 0)]), 0);
    assert_eq!(escapes(&[Instr::store(0, TOP)]), 1);
    assert_eq!(escapes(&[Instr::alu(TOP)]), 1);
    assert_eq!(
        escapes(&[Instr::load(TOP, TOP).with_dep_prev_load(true)]),
        1
    );
    // From the top back to 0, and an escaped record moves the state: the
    // record after it packs against it.
    assert_eq!(
        escapes(&[
            Instr::load(TOP, TOP),
            Instr::branch(0, true),
            Instr::store(4, TOP - 64),
            Instr::alu(8),
            Instr::load(12, 0),
        ]),
        3
    );
}

#[test]
fn pc_jumps_at_the_field_edge_pack_and_one_past_escape() {
    let base = 1 << 30;
    let next = base + 4;
    for (target, want) in [
        (next + PC_MAX, 0),
        (next + PC_MAX + 1, 1),
        (next - PC_MAX - 1, 0),
        (next - PC_MAX - 2, 1),
    ] {
        let records = [Instr::alu(base), Instr::branch(target, false)];
        // The first record jumps from 0 to 2^30 and escapes too.
        assert_eq!(escapes(&records), 1 + want, "jump to {target:#x}");
    }
}

#[test]
fn address_steps_at_the_field_edge_pack_and_one_past_escape() {
    // Up from 0: the first memory record steps from address 0.
    assert_eq!(escapes(&[Instr::load(0, ADDR_MAX)]), 0);
    assert_eq!(escapes(&[Instr::load(0, ADDR_MAX + 1)]), 1);
    // Down: climb to 2^40 - 2 in two full steps, then step down.
    let high = 2 * ADDR_MAX;
    for (target, want) in [(high - ADDR_MAX - 1, 0), (high - ADDR_MAX - 2, 1)] {
        let records = [
            Instr::store(0, ADDR_MAX),
            Instr::alu(4),
            Instr::load(8, high),
            Instr::branch(12, true),
            Instr::store(16, target),
        ];
        assert_eq!(escapes(&records), want, "step to {target:#x}");
    }
}

#[test]
fn a_two_pass_replay_returns_the_input_twice() {
    // Deltas against state the first pass leaves behind would differ from
    // those against the start: this only replays if a rewind resets it.
    let records = [
        Instr::load(0x400, 0x1000),
        Instr::alu(0x404),
        Instr::store(0x9000, 0x2000_0000),
        Instr::load(TOP - 8, TOP).with_dep_prev_load(true),
        Instr::branch(0x40c, true),
        Instr::load(0x410, 0x1040),
    ];
    let trace = pack(&records);
    assert!(trace.escapes() > 0);
    let mut src = TraceSource::new(Arc::clone(&trace)).expect("non-empty");
    for lap in 0..2 {
        assert_eq!(src.wraps(), lap);
        let pass: Vec<Instr> = (0..records.len()).map(|_| src.next_instr()).collect();
        assert_eq!(pass, records, "pass {lap}");
    }
    assert_eq!(src.wraps(), 2);
}

#[test]
fn sources_over_one_store_are_independent() {
    let records: Vec<Instr> = (0..50u64)
        .map(|i| match i % 3 {
            0 => Instr::load(0x400 + 4 * i, 0x1000 + 64 * i * i),
            1 => Instr::alu(0x400 + 4 * i),
            _ => Instr::store(0x400 + 4 * i, 0x8000 - 8 * i),
        })
        .collect();
    let trace = pack(&records);
    let mut ahead = TraceSource::new(Arc::clone(&trace)).expect("non-empty");
    for _ in 0..17 {
        ahead.next_instr();
    }
    let mut fresh = TraceSource::new(Arc::clone(&trace)).expect("non-empty");
    let mut copy = ahead.clone();
    for (i, want) in records.iter().enumerate() {
        assert_eq!(fresh.next_instr(), *want, "fresh at {i}");
    }
    for (i, want) in records.iter().enumerate().skip(17) {
        assert_eq!(ahead.next_instr(), *want, "ahead at {i}");
        assert_eq!(copy.next_instr(), *want, "copy at {i}");
    }
    assert_eq!(ahead.wraps(), 1);
    assert_eq!(fresh.wraps(), 1);
}

#[test]
fn an_empty_store_is_not_a_source() {
    assert!(TraceSource::new(Arc::new(PackedTrace::new())).is_err());
}
