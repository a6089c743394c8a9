//! `calibrate` — prints solo IPC / LLC MPKI / APKI for all 19 benchmark
//! models against their paper targets (the tool used to calibrate
//! `workloads::spec`). Scale via `COOP_SCALE` (default tiny; Table 3 is
//! validated at `small`).

// The CLI reports wall time per benchmark; allowlisted here and in
// simlint's path allowlist.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;

use harness::{solo, SimScale};
use workloads::{Benchmark, SyntheticWorkload, WorkloadFactory};

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: calibrate\n\
             prints solo IPC / LLC MPKI / APKI for all 19 benchmark models\n\
             against their paper targets; scale via COOP_SCALE=tiny|small|medium|paper"
        );
        return;
    }
    let scale = SimScale::from_env_or(SimScale::tiny()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "scale {} warm={} instrs={}",
        scale.name, scale.warmup_instrs, scale.instrs_per_app
    );
    let t0 = std::time::Instant::now();
    for b in Benchmark::ALL {
        let factory: Arc<dyn WorkloadFactory> = Arc::new(SyntheticWorkload::new(b));
        let r = solo::solo_result_for(&factory, solo::solo_llc(2), scale);
        println!(
            "{:11} ipc={:5.2} mpki={:6.2} (paper {:5.2}) apki={:6.1}",
            b.name(),
            r.ipc,
            r.mpki,
            b.paper_mpki(),
            r.apki
        );
    }
    println!("elapsed {:.1}s", t0.elapsed().as_secs_f64());
}
