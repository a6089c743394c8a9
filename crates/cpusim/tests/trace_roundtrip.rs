//! Property tests for the `.ctrace` trace-file format: any canonical
//! instruction stream survives a write→parse round trip bit-identically
//! (both encodings), and malformed inputs come back as errors, never
//! panics.

use cpusim::trace::{
    decode_trace, encode_trace, format_trace_text, parse_trace, parse_trace_text, TraceError,
    TRACE_ADDR_LIMIT, TRACE_MAGIC, TRACE_RECORD_BYTES,
};
use cpusim::{Instr, InstrKind};
use proptest::prelude::*;

/// Strategy: one canonical instruction (fields meaningless for the kind
/// are zeroed, exactly as the [`Instr`] constructors produce them; `pc`
/// and `addr` below [`TRACE_ADDR_LIMIT`], as the format requires).
fn instr() -> impl Strategy<Value = Instr> {
    (
        0u8..4,
        0..TRACE_ADDR_LIMIT,
        0..TRACE_ADDR_LIMIT,
        any::<bool>(),
    )
        .prop_map(|(kind, pc, addr, flag)| match kind {
            0 => Instr::alu(pc),
            1 => Instr::load(pc, addr).with_dep_prev_load(flag),
            2 => Instr::store(pc, addr),
            _ => Instr::branch(pc, flag),
        })
}

fn stream() -> impl Strategy<Value = Vec<Instr>> {
    proptest::collection::vec(instr(), 1..200)
}

proptest! {
    #[test]
    fn binary_roundtrip_preserves_every_instr(instrs in stream()) {
        let bytes = encode_trace(&instrs);
        prop_assert_eq!(parse_trace(&bytes).expect("well-formed binary"), instrs);
    }

    #[test]
    fn text_roundtrip_preserves_every_instr(instrs in stream()) {
        let text = format_trace_text(&instrs);
        prop_assert_eq!(parse_trace(text.as_bytes()).expect("well-formed text"), instrs);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic(instrs in stream(), cut in 1usize..TRACE_RECORD_BYTES) {
        let mut bytes = encode_trace(&instrs);
        bytes.truncate(bytes.len() - cut);
        prop_assert_eq!(
            decode_trace(&bytes).expect_err("cut mid-record"),
            TraceError::Truncated { record: instrs.len() - 1 }
        );
    }

    #[test]
    fn bad_kind_tags_are_an_error(instrs in stream(), tag in 4u8..255, at in any::<usize>()) {
        let at = at % instrs.len();
        let mut bytes = encode_trace(&instrs);
        bytes[TRACE_MAGIC.len() + at * TRACE_RECORD_BYTES] = tag;
        prop_assert_eq!(
            decode_trace(&bytes).expect_err("bad tag"),
            TraceError::BadKind { record: at, tag }
        );
    }

    #[test]
    fn arbitrary_text_never_panics(bytes in proptest::collection::vec(0u8..96, 0..400)) {
        // Printable ASCII + newlines. Any outcome is fine; the parser must
        // just not panic, and a successful parse must yield only canonical
        // records.
        let text: String = bytes
            .iter()
            .map(|&b| if b == 95 { '\n' } else { (b + 32) as char })
            .collect();
        if let Ok(instrs) = parse_trace_text(&text) {
            for i in instrs {
                if i.kind() == InstrKind::Alu || i.kind() == InstrKind::Branch {
                    prop_assert_eq!(i.addr(), 0);
                }
            }
        }
    }
}

/// Parses one load record with the given `pc` and `addr` in both
/// encodings.
fn parse_load_both(pc: u64, addr: u64) -> [Result<Vec<Instr>, TraceError>; 2] {
    let mut bytes = TRACE_MAGIC.to_vec();
    bytes.push(1); // Load
    bytes.push(0);
    bytes.extend_from_slice(&pc.to_le_bytes());
    bytes.extend_from_slice(&addr.to_le_bytes());
    let text = format!("A 0x10\nL {pc:#x} {addr:#x}\n");
    [parse_trace(&bytes), parse_trace(text.as_bytes())]
}

#[test]
fn pc_and_addr_just_below_2_pow_48_are_accepted() {
    let top = TRACE_ADDR_LIMIT - 1;
    assert_eq!(TRACE_ADDR_LIMIT, 1 << 48);
    let [binary, text] = parse_load_both(top, top);
    assert_eq!(binary.expect("binary"), vec![Instr::load(top, top)]);
    assert_eq!(
        text.expect("text"),
        vec![Instr::alu(0x10), Instr::load(top, top)]
    );
}

#[test]
fn pc_or_addr_at_2_pow_48_is_rejected_in_both_encodings() {
    for (field, pc, addr) in [
        ("pc", TRACE_ADDR_LIMIT, 0x40),
        ("addr", 0x400, TRACE_ADDR_LIMIT),
    ] {
        let [binary, text] = parse_load_both(pc, addr);
        assert_eq!(
            binary.expect_err("binary"),
            TraceError::OutOfRange {
                record: 0,
                field,
                value: TRACE_ADDR_LIMIT
            }
        );
        match text.expect_err("text") {
            TraceError::BadLine { line: 2, reason } => {
                assert!(reason.starts_with(field), "{reason}")
            }
            other => panic!("expected a line-2 error, got {other:?}"),
        }
    }
}
