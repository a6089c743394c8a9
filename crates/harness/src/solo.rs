//! Per-workload solo baselines, memoized process-wide.
//!
//! Weighted speedup needs `IPC_alone` (each application running alone in the
//! full LLC); Table 3 needs solo MPKI; the Dynamic CPE scheme needs solo
//! per-epoch miss curves as its profile. All three come from one solo run
//! per (workload name, LLC geometry, scale), cached for the life of the
//! process so the group sweeps don't re-run them. Any
//! [`workloads::WorkloadFactory`] can be baselined — synthetic models and
//! trace files go through the same path.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use coop_core::{LlcConfig, MissCurve, SchemeKind};
use workloads::{ResolvedWorkload, WorkloadFactory};

use crate::scale::SimScale;
use crate::system::System;

/// Results of one solo run.
#[derive(Debug, Clone)]
pub struct SoloResult {
    /// IPC of the application alone in the full cache.
    pub ipc: f64,
    /// Solo LLC misses per kilo-instruction (Table 3's metric).
    pub mpki: f64,
    /// Solo LLC accesses per kilo-instruction.
    pub apki: f64,
    /// LLC demand accesses simulated in the solo measurement window.
    pub accesses: u64,
    /// Per-epoch UMON miss curves (the Dynamic CPE profile).
    pub epoch_curves: Vec<MissCurve>,
}

type Key = (String, u64, usize, &'static str);

/// One baseline's cache slot: filled exactly once, however many threads
/// ask for it at the same time.
type Slot = Arc<OnceLock<Arc<SoloResult>>>;

fn cache() -> &'static Mutex<BTreeMap<Key, Slot>> {
    static CACHE: OnceLock<Mutex<BTreeMap<Key, Slot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The solo LLC configuration for an `n`-core system's baselines: the
/// system's own geometry, run under UCP so the utility monitor stays
/// active (with one core the allocation is the whole cache, identical to
/// an unmanaged run).
pub fn solo_llc(cores: usize) -> LlcConfig {
    LlcConfig::for_cores(cores, SchemeKind::Ucp)
}

/// Runs (or fetches from cache) the solo baseline for one workload
/// factory in the cache geometry of `llc` at `scale`.
pub fn solo_result_for(
    factory: &Arc<dyn WorkloadFactory>,
    llc: LlcConfig,
    scale: SimScale,
) -> Arc<SoloResult> {
    solo_result_tracked(factory, llc, scale).0
}

/// Like [`solo_result_for`], but also reports whether the result was
/// simulated by *this* call (`true`) or served from the process-wide cache
/// (`false`). The perf accounting uses the flag so accesses-per-second
/// lines never count cached work whose compute time they did not pay.
/// Concurrent calls for one baseline simulate it once: the others wait
/// for it and report `false`.
pub fn solo_result_tracked(
    factory: &Arc<dyn WorkloadFactory>,
    llc: LlcConfig,
    scale: SimScale,
) -> (Arc<SoloResult>, bool) {
    let key: Key = (
        factory.name().to_string(),
        llc.geom.size_bytes(),
        llc.geom.ways(),
        scale.name,
    );
    let slot = Arc::clone(
        cache()
            .lock()
            .expect("poisoned solo cache")
            .entry(key)
            .or_default(),
    );
    let mut computed = false;
    let result = slot.get_or_init(|| {
        computed = true;
        let run = System::builder()
            .workload_resolved(ResolvedWorkload::single(Arc::clone(factory)))
            .policy("ucp")
            .llc(llc)
            .scale(scale)
            .build()
            .run();
        Arc::new(SoloResult {
            ipc: run.ipc[0],
            mpki: run.mpki[0],
            apki: run.apki[0],
            accesses: run.accesses[0],
            epoch_curves: run.epoch_curves,
        })
    });
    (Arc::clone(result), computed)
}

/// Solo IPCs for a whole workload (in member/core order).
pub fn ipc_alone_for(workload: &ResolvedWorkload, llc: LlcConfig, scale: SimScale) -> Vec<f64> {
    workload
        .members
        .iter()
        .map(|m| solo_result_for(m, llc, scale).ipc)
        .collect()
}

/// The Dynamic CPE profile for a workload: per core, the solo per-epoch
/// curves.
pub fn cpe_profile_for(
    workload: &ResolvedWorkload,
    llc: LlcConfig,
    scale: SimScale,
) -> coop_core::cpe::CpeProfile {
    coop_core::cpe::CpeProfile {
        curves: workload
            .members
            .iter()
            .map(|m| solo_result_for(m, llc, scale).epoch_curves.clone())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Benchmark, SyntheticWorkload};

    fn quick() -> SimScale {
        SimScale {
            name: "solo-test",
            warmup_instrs: 80_000,
            instrs_per_app: 150_000,
            epoch_cycles: 40_000,
            max_cycles: 40_000_000,
        }
    }

    /// The solo baseline of one synthetic benchmark.
    fn solo_result(benchmark: Benchmark, llc: LlcConfig, scale: SimScale) -> Arc<SoloResult> {
        let factory: Arc<dyn WorkloadFactory> = Arc::new(SyntheticWorkload::new(benchmark));
        solo_result_for(&factory, llc, scale)
    }

    #[test]
    fn cache_returns_same_arc() {
        let a = solo_result(Benchmark::Namd, solo_llc(2), quick());
        let b = solo_result(Benchmark::Namd, solo_llc(2), quick());
        assert!(Arc::ptr_eq(&a, &b), "second lookup is a cache hit");
    }

    #[test]
    fn concurrent_requests_simulate_a_baseline_once() {
        let factory: Arc<dyn WorkloadFactory> = Arc::new(SyntheticWorkload::new(Benchmark::Gcc));
        // A scale of its own, so no other test has cached this baseline.
        let scale = SimScale {
            name: "solo-once-test",
            ..quick()
        };
        let computed: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| s.spawn(|| solo_result_tracked(&factory, solo_llc(2), scale).1))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ran"))
                .collect()
        });
        assert_eq!(computed.iter().filter(|&&c| c).count(), 1, "{computed:?}");
    }

    #[test]
    fn streaming_beats_hot_in_mpki() {
        let lbm = solo_result(Benchmark::Lbm, solo_llc(2), quick());
        let namd = solo_result(Benchmark::Namd, solo_llc(2), quick());
        assert!(
            lbm.mpki > namd.mpki * 4.0,
            "lbm {} vs namd {}",
            lbm.mpki,
            namd.mpki
        );
    }

    #[test]
    fn group_helpers_align_with_members() {
        let workload = ResolvedWorkload::from_benchmarks(&[Benchmark::Milc, Benchmark::Povray]);
        let ipcs = ipc_alone_for(&workload, solo_llc(2), quick());
        assert_eq!(ipcs.len(), 2);
        let prof = cpe_profile_for(&workload, solo_llc(2), quick());
        assert_eq!(prof.curves.len(), 2);
        assert!(!prof.curves[0].is_empty());
    }
}
