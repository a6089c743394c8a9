//! Hot-path kernels: the per-access storage layer that dominates simulation
//! runtime.
//!
//! Two kernels bracket the flattened-arena work (see BENCH_5.json for the
//! recorded before/after trajectory):
//!
//! * `llc_access_stream_2core_16way` — end-to-end demand-access throughput
//!   through `PartitionedLlc::access` (permission masks, set find/touch,
//!   UMON observation, victim/fill) backed by the banked-DRAM stub;
//! * `cacheset_touch_find_16way` — the set-storage primitive alone (the
//!   production [`memsim::SetArena`]): masked find/touch on hits,
//!   victim/fill on misses, alternating full and half way masks;
//! * `cacheset_reference_16way` — the same op stream through the reference
//!   `CacheSet`, so the flattening stays *measured*, not asserted.
//!
//! Two more bracket the event-driven stepping work (PR 6):
//!
//! * `core_step_event_driven_4core` — four cores with a mixed synthetic
//!   stream driven by the wake-list `SystemStepper` against a fixed-latency
//!   LLC double, measured per 1000 retired instructions on core 0;
//! * `core_step_reference_4core` — the identical system under the per-cycle
//!   reference stepper, so the wake-list speedup stays *measured*.
//!
//! Four more cover the per-instruction layers in front of the LLC:
//!
//! * `synthetic_gen_soplex` — a 1000-instruction block from the `soplex`
//!   model's `SyntheticSource` (kind draw, weighted component draw, address
//!   and PC generation);
//! * `trace_replay` — a 1000-instruction block replayed by a `TraceSource`
//!   over 131,072 records recorded from the same model into a
//!   `PackedTrace`, the shape of one `stream8` member in perfbench (so the
//!   unpacking cost shows);
//! * `trace_pack` — packing those 131,072 records into a fresh
//!   `PackedTrace`, the encoder cost `stream8` pays per member at set-up
//!   (one iteration packs the whole recording, not 1000 records);
//! * `l1_access_4way_mixed` — 1000 demand accesses to a 32 KB 4-way L1
//!   `Cache`: mostly hits in a hot window, plus cold misses and writes
//!   (dirty victims).
//!
//! Run with `cargo bench -p bench --bench hotpath`. The numbers are
//! ns per 1000 operations (each `iter` performs 1000 accesses).

use std::sync::Arc;

use coop_core::{LlcConfig, PartitionedLlc, PolicyRegistry, PolicySpec, SchemeKind};
use cpusim::{
    Core, CoreConfig, EpochControl, Instr, InstrSource, LlcPort, PackedTrace, StepperKind,
    SystemStepper, TraceSource,
};
use criterion::{criterion_group, criterion_main, Criterion};
use memsim::{Cache, CacheGeometry, CacheSet, Dram, DramConfig, SetArena, WayMask};
use simkit::types::{CoreId, Cycle, LineAddr};
use workloads::{Benchmark, SyntheticSource};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

fn bench_hotpath(c: &mut Criterion) {
    // Kernel 1: end-to-end demand accesses through the partitioned LLC.
    // ~7/8 of the stream walks a hot window (hits after warm-up), the rest
    // streams cold lines (misses, victims, fills, DRAM timing).
    c.bench_function("llc_access_stream_2core_16way", |b| {
        let cfg = LlcConfig {
            geom: CacheGeometry::new(4 << 20, 16, 64),
            hit_latency: 20,
            mshrs: 128,
            scheme: SchemeKind::Cooperative,
            epoch_cycles: 5_000_000,
            threshold: 0.03,
            umon_shift: 4,
            seed: 0xC0FFEE,
            transition_timeout_epochs: 1,
        };
        let policy = PolicyRegistry::core()
            .build("cooperative", &PolicySpec::for_llc(&cfg, 2))
            .expect("registered");
        let mut llc = PartitionedLlc::for_policy(cfg, 2, policy.as_ref());
        let mut dram = Dram::new(DramConfig::default());
        let mut now = 0u64;
        let mut state = 0x5EED_0BAD_u64;
        let mut burst = |llc: &mut PartitionedLlc, dram: &mut Dram| {
            let mut last = Cycle(0);
            for _ in 0..1000 {
                let r = lcg(&mut state);
                let core = CoreId((r & 1) as u8);
                let byte = if r & 0b1110 != 0 {
                    (r >> 4) % (512 * 64)
                } else {
                    ((r >> 4) % (64 << 20)) | (1 << 30)
                };
                now += 2;
                last = llc.access(
                    Cycle(now),
                    core,
                    LineAddr::from_byte_addr(core, byte, 64),
                    r & 0x10 != 0,
                    dram,
                );
            }
            last
        };
        // Warm the hot window and the host's own caches so the timing loop
        // (and its batch-size calibration) measures steady state.
        for _ in 0..50 {
            burst(&mut llc, &mut dram);
        }
        b.iter(|| burst(&mut llc, &mut dram))
    });

    // Kernel 2: the production set-storage primitive alone (one 16-way set
    // of a SetArena).
    c.bench_function("cacheset_touch_find_16way", |b| {
        let mut arena = SetArena::new(1, 16);
        let masks = [WayMask::all(16), WayMask(0x00FF)];
        let mut state = 0xFEED_u64;
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..1000usize {
                let tag = lcg(&mut state) % 24;
                let mask = masks[i & 1];
                match arena.find(0, tag, mask) {
                    Some(w) => {
                        arena.touch(0, w);
                        hits += 1;
                    }
                    None => {
                        let v = arena.victim(0, mask).expect("non-empty mask");
                        arena.fill(0, v, tag, CoreId((i & 1) as u8), tag & 1 == 1);
                    }
                }
            }
            hits
        })
    });

    // Kernels 4/5: system stepping — four cores with a mixed instruction
    // stream (ALU / loads over a 1 MB footprint / stores / branches) against
    // a fixed-latency LLC double, under each stepper. Each iteration runs
    // until every core retires 1000 more instructions (4000 total); the
    // system persists across iterations so the timing loop measures steady
    // state.
    for kind in [StepperKind::EventDriven, StepperKind::Reference] {
        let name = match kind {
            StepperKind::EventDriven => "core_step_event_driven_4core",
            StepperKind::Reference => "core_step_reference_4core",
        };
        c.bench_function(name, |b| {
            struct Mix {
                state: u64,
            }
            impl InstrSource for Mix {
                fn next_instr(&mut self) -> Instr {
                    let r = lcg(&mut self.state);
                    match r % 8 {
                        0..=2 => Instr::alu((r >> 3) % 1024),
                        3 | 4 => Instr::load((r >> 3) % 4096, (r >> 8) % (1 << 20)),
                        5 => Instr::store((r >> 3) % 4096, (r >> 8) % (1 << 18)),
                        _ => Instr::branch((r >> 3) % 2048, r & 1 == 0),
                    }
                }
            }
            struct FlatLlc;
            impl LlcPort for FlatLlc {
                fn access(&mut self, now: Cycle, _: CoreId, line: LineAddr, _: bool) -> Cycle {
                    now + 180 + (line.raw() % 3) * 60
                }
                fn writeback(&mut self, _: Cycle, _: CoreId, _: LineAddr) {}
            }
            let mut cores: Vec<Core> = (0..4)
                .map(|i| {
                    Core::new(
                        CoreId(i as u8),
                        CoreConfig::default(),
                        Box::new(Mix {
                            state: 0x5EED ^ ((i as u64 + 1) << 32),
                        }) as Box<dyn InstrSource + Send>,
                    )
                })
                .collect();
            let mut llc = FlatLlc;
            let mut stepper = SystemStepper::new(kind, 5_000_000);
            b.iter(|| {
                let targets: Vec<u64> = cores.iter().map(|c| c.retired() + 1000).collect();
                stepper.run(
                    &mut cores,
                    &mut llc,
                    &targets,
                    Cycle(u64::MAX),
                    |_, _, _| EpochControl::Continue,
                )
            })
        });
    }

    // Kernel 6: synthetic instruction generation, one 1000-instruction
    // block per iteration from a persistent generator.
    c.bench_function("synthetic_gen_soplex", |b| {
        let mut src = SyntheticSource::new(Benchmark::Soplex.model(), 0x5EED);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                let i = src.next_instr();
                acc = acc.wrapping_add(i.pc() ^ i.addr() ^ i.taken() as u64);
            }
            acc
        })
    });

    // Kernel 6b: replay of a packed recording, one 1000-instruction block
    // per iteration, wrapping around the recording like a perfbench
    // `stream8` member.
    let mut gen = SyntheticSource::new(Benchmark::Soplex.model(), 0x5EED);
    let records: Vec<Instr> = (0..131_072).map(|_| gen.next_instr()).collect();
    c.bench_function("trace_replay", |b| {
        let packed: PackedTrace = records.iter().copied().collect();
        let mut src = TraceSource::new(Arc::new(packed)).expect("non-empty");
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                let i = src.next_instr();
                acc = acc.wrapping_add(i.pc() ^ i.addr() ^ i.taken() as u64);
            }
            acc
        })
    });

    // Kernel 6c: packing the same recording, whole, per iteration.
    c.bench_function("trace_pack", |b| {
        b.iter(|| records.iter().copied().collect::<PackedTrace>().len())
    });

    // Kernel 7: the private L1 path. ~7/8 of the accesses walk a 24 KB hot
    // window (hits once warm), the rest stream cold lines over 16 MB
    // (misses evicting LRU lines); a quarter are writes, so victims are
    // often dirty.
    c.bench_function("l1_access_4way_mixed", |b| {
        let mut l1 = Cache::new(CacheGeometry::new(32 << 10, 4, 64));
        let mut state = 0x11_u64;
        let mut burst = |l1: &mut Cache| {
            let mut hits = 0u64;
            for _ in 0..1000 {
                let r = lcg(&mut state);
                let byte = if r & 0b111 != 0 {
                    (r >> 5) % (24 << 10)
                } else {
                    (r >> 5) % (16 << 20)
                };
                let write = (r >> 3) & 0b11 == 0;
                hits += l1
                    .access(LineAddr::from_byte_addr(CoreId(0), byte, 64), write)
                    .hit as u64;
            }
            hits
        };
        for _ in 0..50 {
            burst(&mut l1);
        }
        b.iter(|| burst(&mut l1))
    });

    // Kernel 3: the identical op stream through the reference CacheSet.
    c.bench_function("cacheset_reference_16way", |b| {
        let mut set = CacheSet::new(16);
        let masks = [WayMask::all(16), WayMask(0x00FF)];
        let mut state = 0xFEED_u64;
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..1000usize {
                let tag = lcg(&mut state) % 24;
                let mask = masks[i & 1];
                match set.find(tag, mask) {
                    Some(w) => {
                        set.touch(w);
                        hits += 1;
                    }
                    None => {
                        let v = set.victim(mask).expect("non-empty mask");
                        set.fill(v, tag, CoreId((i & 1) as u8), tag & 1 == 1);
                    }
                }
            }
            hits
        })
    });
}

criterion_group! {
    name = hotpath;
    config = Criterion::default().sample_size(40);
    targets = bench_hotpath
}
criterion_main!(hotpath);
