//! Pins every synthetic instruction stream bit for bit.
//!
//! For each of the 19 benchmark models at two seeds, the first 1M
//! instructions of `SyntheticSource` are folded into an FNV-1a hash over
//! kind, pc, addr, taken and dep. The digests below were recorded before
//! the generator's hot path was rewritten branch-free; any change to the
//! draws, their order or their float rounding moves them.

use cpusim::{InstrKind, InstrSource};
use workloads::{Benchmark, SyntheticSource};

const INSTRS: usize = 1_000_000;
const SEEDS: [u64; 2] = [0x5EED, 0x5EED ^ (1 << 32)];

/// `(benchmark, [digest at SEEDS[0], digest at SEEDS[1]])`.
const DIGESTS: [(&str, [u64; 2]); 19] = [
    ("astar", [0x89d0cad6e89327a1, 0x9478dc38a0bb0740]),
    ("bzip2", [0x0ed8f5392ce696a6, 0x98be754b6782adba]),
    ("calculix", [0x29cb7275a477ee5a, 0x721d2d386d97ce22]),
    ("dealII", [0x3a6f8777b44ffee4, 0xc5e61bc19eb37e9e]),
    ("gcc", [0xcc67d3de22a366a1, 0x921c0c0db11d91ad]),
    ("gobmk", [0x7a845ebcf151c9cf, 0xbbdb2f6920b8d863]),
    ("gromacs", [0x7d6d24b4b75904d1, 0x81d7da267573b3b8]),
    ("h264ref", [0xd540c2778d499d37, 0xa0a6855ce199a4dd]),
    ("lbm", [0x56ffb389235491a9, 0x05124c6e142d4748]),
    ("libquantum", [0x9a84eb27f6233cd7, 0x885b2e13d274f8ac]),
    ("mcf", [0xbb57d7d90e51f8f7, 0xd3e7aa838d02e45e]),
    ("milc", [0x27818440f288abe9, 0x79862070495dbbb4]),
    ("namd", [0x455bbd89647fdec2, 0xfe83cb442f7def02]),
    ("omnetpp", [0xfc8a1ef9c2b07893, 0xa0bb41d8e3a94e99]),
    ("perlbench", [0x83590e5ad836ca11, 0x579783e6d0fb9840]),
    ("povray", [0x29ccfe4f03c1a382, 0xb6c06be67f15ddcf]),
    ("sjeng", [0x299727c303c2291e, 0x40480bb66fc50b0d]),
    ("soplex", [0x3f2c4ef2b43bf10c, 0xcbf795e1c088bfa1]),
    ("xalan", [0xb9873927e8565d62, 0xcc355d3d4fc38625]),
];

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

fn stream_digest(b: Benchmark, seed: u64) -> u64 {
    let mut src = SyntheticSource::new(b.model(), seed);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for _ in 0..INSTRS {
        let i = src.next_instr();
        let kind = match i.kind() {
            InstrKind::Alu => 0,
            InstrKind::Load => 1,
            InstrKind::Store => 2,
            InstrKind::Branch => 3,
        };
        h = fnv(h, kind);
        h = fnv(h, i.pc());
        h = fnv(h, i.addr());
        h = fnv(h, i.taken() as u64 | (i.dep_prev_load() as u64) << 1);
    }
    h
}

fn check_seed(slot: usize) {
    let actual: Vec<(&str, u64)> = Benchmark::ALL
        .iter()
        .map(|&b| (b.name(), stream_digest(b, SEEDS[slot])))
        .collect();
    let expected: Vec<(&str, u64)> = DIGESTS.iter().map(|&(n, d)| (n, d[slot])).collect();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(n, d)| format!("    {n}: {d:#018x}"))
        .collect();
    assert_eq!(
        actual,
        expected,
        "stream digests moved at seed {:#x}; actual:\n{}",
        SEEDS[slot],
        rendered.join("\n")
    );
}

#[test]
fn synthetic_streams_match_recorded_digests_seed0() {
    check_seed(0);
}

#[test]
fn synthetic_streams_match_recorded_digests_seed1() {
    check_seed(1);
}
