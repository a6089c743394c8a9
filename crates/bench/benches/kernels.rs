//! Criterion kernels for the simulator's per-access and per-epoch costs,
//! one `criterion_group!` per cost class. Whole runs are timed by
//! perfbench, not here.
//!
//! Run with `cargo bench -p bench --bench kernels` (add `-- --test` to run
//! each kernel once). The per-access kernels report ns per 1000
//! operations (each `iter` performs 1000 of them).
//!
//! `hotpath` — the per-access storage layer that dominates simulation
//! runtime, and the per-instruction layers in front of it (see
//! BENCH_5.json for the flattened-arena before/after trajectory):
//!
//! * `llc_access_stream_2core_16way` — end-to-end demand-access throughput
//!   through `PartitionedLlc::access` (permission masks, set find/touch,
//!   UMON observation, victim/fill) backed by the banked-DRAM stub;
//! * `cacheset_touch_find_16way` — the set-storage primitive alone (the
//!   production [`memsim::SetArena`]): masked find/touch on hits,
//!   victim/fill on misses, alternating full and half way masks;
//! * `cacheset_reference_16way` — the same op stream through the reference
//!   `CacheSet`, so the flattening stays *measured*, not asserted;
//! * `core_step_event_driven_4core` — four cores with a mixed synthetic
//!   stream driven by the wake-list `SystemStepper` against a fixed-latency
//!   LLC double, measured per 1000 retired instructions on core 0;
//! * `core_step_reference_4core` — the identical system under the per-cycle
//!   reference stepper, so the wake-list speedup stays *measured*;
//! * `synthetic_gen_soplex` — a 1000-instruction block from the `soplex`
//!   model's `SyntheticSource` (kind draw, weighted component draw, address
//!   and PC generation);
//! * `weighted_index_sample` — 1000 component draws from a
//!   `simkit::WeightedIndex` over the `soplex` model's component weights,
//!   the cut-table count behind the generator's component pick;
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
//! `tables` — the allocation kernels behind the paper's tables (1, 3, 4):
//!
//! * `lookahead_allocate_4core_16way` — the threshold look-ahead allocator
//!   on four 16-way miss curves;
//! * `umon_observe_1k` — 1000 UMON observations (the per-access
//!   monitoring cost).
//!
//! `takeover` — the protocol behind the analysis figures (11-16):
//!
//! * `takeover_mark_4096_sets` — the takeover bit-vector protocol (mark +
//!   completion check) over 4096 sets, the per-access cost cooperative
//!   takeover adds during transitions.
//!
//! `policy` — the `PartitionPolicy` epoch path. Every epoch decision goes
//! through a `Box<dyn PartitionPolicy>`; these kernels show the dynamic
//! dispatch adds no measurable cost versus calling the concrete policy
//! directly (the look-ahead over four 16-way miss curves dominates the
//! vtable hop by orders of magnitude):
//!
//! * `policy_epoch_4core_direct` — the decision through the concrete type;
//! * `policy_dispatch_epoch_4core` — the same decision through the box.
//!
//! `dvfs` — the coordinated controller (`coop-dvfs`), one kernel per preset
//! plus model fitting. The minimizer runs once per epoch per system, so its
//! cost must stay negligible against an epoch (80 k–5 M cycles). All curve
//! lookups are precomputed when the models are fitted — the minimizer's hot
//! path is pure arithmetic over the candidate tables. The `cbp` preset's
//! extra axes (8 bandwidth units × 5 prefetch degrees vs 5 V/f points) must
//! keep its decision within an order of magnitude of the `dvfs` one:
//!
//! * `dvfs_minimize_4core_16way_5freq` — the `dvfs` preset's minimizer;
//! * `cbp_decision_4core` — the `cbp` preset's minimizer;
//! * `dvfs_fit_model_16way` — fitting one core's model (curve anchoring +
//!   calibration), the other per-epoch cost.

use std::sync::Arc;

use coop_core::policy::{CooperativePolicy, EpochObservations, PartitionPolicy};
use coop_core::{LlcConfig, MissCurve, PartitionedLlc, PolicyRegistry, PolicySpec, SchemeKind};
use coop_dvfs::{minimize, CorePerfModel, DvfsConfig, EpochObservation};
use cpusim::{
    Core, CoreConfig, EpochControl, Instr, InstrSource, LlcPort, PackedTrace, StepperKind,
    SystemStepper, TraceSource,
};
use criterion::{criterion_group, criterion_main, Criterion};
use memsim::{Cache, CacheGeometry, CacheSet, Dram, DramConfig, SetArena, WayMask};
use simkit::types::{CoreId, Cycle, LineAddr};
use simkit::{DetRng, WeightedIndex};
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

    // Kernel 6a: the generator's component pick alone, 1000 draws per
    // iteration.
    c.bench_function("weighted_index_sample", |b| {
        let weights: Vec<f64> = Benchmark::Soplex
            .model()
            .components
            .iter()
            .map(|c| c.weight)
            .collect();
        let pick = WeightedIndex::new(&weights);
        let mut rng = DetRng::from_seed(0x5EED);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1000 {
                acc = acc.wrapping_add(pick.sample(&mut rng));
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

fn bench_tables(c: &mut Criterion) {
    // Kernel 1: the threshold look-ahead allocator on realistic curves.
    let curves: Vec<coop_core::MissCurve> = (0..4)
        .map(|i| {
            let values: Vec<f64> = (0..=16)
                .map(|w| 10_000.0 / (1.0 + w as f64 * (1.0 + i as f64)))
                .collect();
            coop_core::MissCurve::new(values.clone(), values[0])
        })
        .collect();
    c.bench_function("lookahead_allocate_4core_16way", |b| {
        b.iter(|| coop_core::allocate(std::hint::black_box(&curves), 16, 0.05))
    });

    // Kernel 2: UMON observation (the per-access monitoring cost).
    c.bench_function("umon_observe_1k", |b| {
        let mut umon = coop_core::UtilityMonitor::new(4096, 8, 4);
        let mut tag = 0u64;
        b.iter(|| {
            for _ in 0..1000 {
                tag = tag.wrapping_mul(6364136223846793005).wrapping_add(1);
                umon.observe((tag >> 7) as usize & 4095, tag >> 20);
            }
        })
    });
}

fn bench_takeover(c: &mut Criterion) {
    // Kernel: the takeover bit-vector protocol (mark + completion check),
    // the per-access cost cooperative takeover adds during transitions.
    c.bench_function("takeover_mark_4096_sets", |b| {
        b.iter(|| {
            let mut st = coop_core::takeover::TakeoverState::new(4096, 2);
            st.begin(vec![coop_core::takeover::Transition {
                way: 3,
                donor: CoreId(1),
                recipient: Some(CoreId(0)),
                started: Cycle(0),
                epoch: 0,
            }]);
            for s in 0..4096 {
                st.mark(
                    Cycle(s as u64),
                    CoreId(1),
                    s,
                    coop_core::TakeoverEventKind::DonorHit,
                );
            }
            st
        })
    });
}

/// Four heterogeneous 16-way miss curves (one streamer, one cache-hungry,
/// two in between) and the matching observations.
fn four_core_observations() -> EpochObservations {
    let curves: Vec<MissCurve> = (0..4)
        .map(|i| {
            let values: Vec<f64> = (0..=16)
                .map(|w| 50_000.0 / (1.0 + w as f64 * (0.2 + i as f64)))
                .collect();
            let accesses = values[0] * 2.0;
            MissCurve::new(values, accesses)
        })
        .collect();
    EpochObservations {
        now: Cycle(5_000_000),
        epoch_index: 7,
        total_ways: 16,
        curves,
        cur_ways: vec![4; 4],
        misses: vec![20_000, 10_000, 6_000, 5_000],
        retired: vec![400_000, 800_000, 900_000, 950_000],
        dram_lines: Vec::new(),
        bw_delayed: Vec::new(),
        bw_delay_cycles: Vec::new(),
        prefetches: Vec::new(),
        prefetch_useful: Vec::new(),
    }
}

fn bench_policy(c: &mut Criterion) {
    let obs = four_core_observations();

    // Kernel 1: the epoch decision through the concrete type.
    let mut direct = CooperativePolicy { threshold: 0.03 };
    c.bench_function("policy_epoch_4core_direct", |b| {
        b.iter(|| direct.on_epoch(std::hint::black_box(&obs)))
    });

    // Kernel 2: the identical decision through `Box<dyn PartitionPolicy>`,
    // exactly as the system loop dispatches it.
    let mut boxed: Box<dyn PartitionPolicy> = Box::new(CooperativePolicy { threshold: 0.03 });
    c.bench_function("policy_dispatch_epoch_4core", |b| {
        b.iter(|| boxed.on_epoch(std::hint::black_box(&obs)))
    });
}

/// Fitted models for a 4-core, 16-way system with heterogeneous miss
/// curves (one streamer, one cache-hungry, two in between) and prefetch
/// accuracies (one covered streamer, one low-accuracy core, two in
/// between).
fn four_core_models(cfg: &DvfsConfig) -> Vec<CorePerfModel> {
    (0..4)
        .map(|i| {
            let values: Vec<f64> = (0..=16)
                .map(|w| 50_000.0 / (1.0 + w as f64 * (0.2 + i as f64)))
                .collect();
            let accesses = values[0] * 2.0;
            let curve = coop_core::MissCurve::new(values, accesses);
            let obs = EpochObservation {
                instrs: 400_000,
                ref_cycles: 1_000_000,
                misses: 20_000 / (i as u64 + 1),
                cur_ways: 4,
                cur_ratio: 1.0,
                ..EpochObservation::default()
            };
            let mut m = CorePerfModel::fit(&curve, &obs, &cfg.perf, &cfg.mem, 16);
            m.accuracy = 0.9 - 0.2 * i as f64;
            m.lines_per_miss = 1.0 + 0.1 * i as f64;
            m.observed_lines_per_ns = 0.05 * (i + 1) as f64 * cfg.mem.peak_lines_per_ns;
            m
        })
        .collect()
}

fn bench_coordinator(c: &mut Criterion) {
    // The per-epoch joint minimizer at the paper's largest configuration:
    // 4 cores, 16 ways, and either 5 operating points (`dvfs`) or 8
    // bandwidth units × degrees 0..=4 (`cbp`).
    let dvfs = DvfsConfig::paper_default(0.10);
    assert_eq!(dvfs.table.len(), 5, "the kernel name promises 5 V/f points");
    let models = four_core_models(&dvfs);
    c.bench_function("dvfs_minimize_4core_16way_5freq", |b| {
        b.iter(|| minimize(std::hint::black_box(&models), &dvfs, 16))
    });
    let cbp = DvfsConfig::cbp_default(0.10);
    assert_eq!(
        cbp.mem.bw_units, 8,
        "the kernel exercises 8 bandwidth units"
    );
    let models = four_core_models(&cbp);
    c.bench_function("cbp_decision_4core", |b| {
        b.iter(|| minimize(std::hint::black_box(&models), &cbp, 16))
    });

    // Model fitting (curve anchoring + calibration), the other per-epoch
    // cost.
    let values: Vec<f64> = (0..=16).map(|w| 50_000.0 / (1.0 + w as f64)).collect();
    let accesses = values[0] * 2.0;
    let curve = coop_core::MissCurve::new(values, accesses);
    let obs = EpochObservation {
        instrs: 400_000,
        ref_cycles: 1_000_000,
        misses: 10_000,
        cur_ways: 4,
        cur_ratio: 1.25,
        ..EpochObservation::default()
    };
    c.bench_function("dvfs_fit_model_16way", |b| {
        b.iter(|| {
            CorePerfModel::fit(
                std::hint::black_box(&curve),
                &obs,
                &dvfs.perf,
                &dvfs.mem,
                16,
            )
        })
    });
}

criterion_group! {
    name = hotpath;
    config = Criterion::default().sample_size(40);
    targets = bench_hotpath
}
criterion_group! {
    name = tables;
    config = Criterion::default().sample_size(20);
    targets = bench_tables
}
criterion_group! {
    name = takeover;
    config = Criterion::default().sample_size(10);
    targets = bench_takeover
}
criterion_group! {
    name = policy;
    config = Criterion::default().sample_size(50);
    targets = bench_policy
}
criterion_group! {
    name = dvfs;
    config = Criterion::default().sample_size(50);
    targets = bench_coordinator
}
criterion_main!(hotpath, tables, takeover, policy, dvfs);
