//! Every synthetic stream packs at one word per instruction: the first
//! 2^17 instructions of each of the 19 models, at both seeds
//! `stream_digest.rs` pins, need no escape record and replay exactly.

use std::sync::Arc;

use cpusim::{InstrSource, PackedTrace, TraceSource};
use workloads::{Benchmark, SyntheticSource};

const INSTRS: usize = 1 << 17;
const SEEDS: [u64; 2] = [0x5EED, 0x5EED ^ (1 << 32)];

#[test]
fn synthetic_streams_pack_without_escapes() {
    for b in Benchmark::ALL {
        for seed in SEEDS {
            let mut gen = SyntheticSource::new(b.model(), seed);
            let trace: PackedTrace = (0..INSTRS).map(|_| gen.next_instr()).collect();
            assert_eq!(trace.escapes(), 0, "{} at {seed:#x}", b.name());
            assert_eq!(trace.record_bytes(), 8 * INSTRS);
            let mut again = SyntheticSource::new(b.model(), seed);
            let mut replay = TraceSource::new(Arc::new(trace)).expect("non-empty");
            for n in 0..INSTRS {
                assert_eq!(
                    replay.next_instr(),
                    again.next_instr(),
                    "{} at {seed:#x}, record {n}",
                    b.name()
                );
            }
        }
    }
}
