//! Demonstrates the cooperative-takeover protocol (paper Figures 3-4) on a
//! tiny cache, printing every RAP/WAP change and takeover-bit event.
//!
//! ```text
//! cargo run --release --example takeover_trace
//! ```

use coop_partitioning::coop_core::takeover::Transition;
use coop_partitioning::coop_core::{
    LlcConfig, PartitionedLlc, PolicyRegistry, PolicySpec, SchemeKind,
};
use coop_partitioning::memsim::{CacheGeometry, Dram, DramConfig};
use coop_partitioning::simkit::types::{CoreId, Cycle, LineAddr};

fn permissions(llc: &PartitionedLlc, ways: usize) -> String {
    use coop_partitioning::coop_core::rapwap::AccessMode;
    (0..ways)
        .map(|w| {
            let m0 = llc.permissions().mode(w, CoreId(0));
            let m1 = llc.permissions().mode(w, CoreId(1));
            let code = |m: AccessMode| match m {
                AccessMode::ReadWrite => "RW",
                AccessMode::ReadOnly => "R-",
                AccessMode::None => "--",
            };
            format!("way{w}[c0:{} c1:{}]", code(m0), code(m1))
        })
        .collect::<Vec<_>>()
        .join("  ")
}

fn main() {
    // 4 sets x 4 ways so the whole protocol is visible at a glance.
    let cfg = LlcConfig {
        geom: CacheGeometry::new(1024, 4, 64),
        hit_latency: 15,
        mshrs: 16,
        scheme: SchemeKind::Cooperative,
        epoch_cycles: 1_000_000,
        threshold: 0.03,
        umon_shift: 0,
        seed: 42,
        transition_timeout_epochs: 1,
    };
    let policy = PolicyRegistry::core()
        .build("cooperative", &PolicySpec::for_llc(&cfg, 2))
        .expect("registered");
    let mut llc = PartitionedLlc::for_policy(cfg, 2, policy.as_ref());
    let mut dram = Dram::new(DramConfig::default());
    let line = |core: u8, set: u64| LineAddr::from_byte_addr(CoreId(core), set * 64, 64);

    println!("initial fair split (2 ways each):");
    println!("  {}", permissions(&llc, 4));

    // Each core dirties two lines in every set (filling both of its ways).
    let mut now = Cycle(0);
    for set in 0..4 {
        for core in 0..2u8 {
            llc.access(now, CoreId(core), line(core, set), true, &mut dram);
            llc.access(now + 1, CoreId(core), line(core, set + 4), true, &mut dram);
            now += 2;
        }
    }

    // Hand-start the Figure 4 scenario: core 1 donates way 2 to core 0.
    llc.begin_transition_for_demo(
        now,
        Transition {
            way: 2,
            donor: CoreId(1),
            recipient: Some(CoreId(0)),
            started: now,
            epoch: 0,
        },
    );
    println!("\ntransition started: core1 donates way 2 to core 0");
    println!("  {}", permissions(&llc, 4));

    // Figure 4's access sequence: both cores touch the sets; each first
    // touch flushes the donor's dirty line in way 2 and records the set.
    let accesses: [(u8, u64, &str); 4] = [
        (1, 2, "core1 read set c (donor hit: flush + mark)"),
        (0, 1, "core0 write set b (recipient miss: flush + mark)"),
        (0, 3, "core0 read set d (recipient: mark, clean line)"),
        (1, 0, "core1 read set a (donor miss: final mark)"),
    ];
    for (core, set, what) in accesses {
        now += 10;
        llc.access(now, CoreId(core), line(core, set), false, &mut dram);
        let marked: Vec<u64> = (0..4)
            .filter(|&s| llc.takeover().bit(CoreId(1), s as usize))
            .collect();
        println!("\n{what}");
        println!("  takeover bits set for donor core1: {marked:?}");
        println!("  {}", permissions(&llc, 4));
    }

    let events = llc.takeover().event_counts();
    println!("\ntransfer complete: core 0 fully owns way 2");
    println!(
        "events: recipient-miss {} recipient-hit {} donor-miss {} donor-hit {}",
        events[0], events[1], events[2], events[3]
    );
    println!("durations: {:?} cycles", llc.takeover().durations());
    println!(
        "lines flushed back to memory: {}",
        llc.stats().flush_lines.get()
    );
}
