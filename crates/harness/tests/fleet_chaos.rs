//! Chaos-engine end-to-end property: under *any* seeded fault schedule
//! (worker kills, hangs, NDJSON corruption, torn cell-file writes), a
//! fleet run either completes with figures bit-identical to the
//! single-process golden, or fails leaving a store that a chaos-free
//! `--resume` completes bit-identically — and `repro fsck` can always
//! audit (and `--repair` restore) the store to a resumable state.
//!
//! Alongside the property, deterministic regression cases pin each
//! degradation path by name: hand-corrupted cells are quarantined on
//! resume, `fsck --repair` survives a three-way corruption, a targeted
//! permanent failure salvages partial figures stamped `N/M cells,
//! partial`, `FLEET_RUN_DEADLINE_MS` abandons cleanly, and total
//! worker-spawn failure falls back to in-process execution.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// Small sweep (5 cells: 2 solos + 3 policy cells) for the fault paths
/// that only need *a* store, and the per-profile schedule property.
const SMALL: [&str; 7] = [
    "fig5",
    "--scale",
    "quick",
    "--group",
    "G2-1",
    "--policy",
    "ucp,cooperative",
];

/// Two-core-count sweep (12 cells) for the partial-salvage case, which
/// needs one group complete and another not.
const FULL: [&str; 7] = [
    "fig5_10",
    "--scale",
    "quick",
    "--group",
    "G2-1,G4-1",
    "--policy",
    "ucp,cooperative",
];

const FULL_FIGURES: [&str; 6] = [
    "figure5.json",
    "figure6.json",
    "figure7.json",
    "figure8.json",
    "figure9.json",
    "figure10.json",
];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet_chaos_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn repro(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(REPRO);
    cmd.args(args);
    // Chaos must reach exactly the invocations that ask for it, whatever
    // the ambient environment; timeouts are compressed so injected hangs
    // cost seconds, not the production stall budget (2 s still spans 20
    // of a worker's 100 ms heartbeats).
    cmd.env_remove("FLEET_CHAOS")
        .env_remove("FLEET_RUN_DEADLINE_MS");
    cmd.env("FLEET_BACKOFF_MS", "10")
        .env("FLEET_STALL_TIMEOUT_MS", "2000");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("repro runs")
}

/// Golden single-process figure5.json for the SMALL config (simulated
/// once per test binary).
fn golden_small() -> &'static String {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let dir = tmp("golden_small");
        let out = repro(
            &[&SMALL[..], &["--json", dir.to_str().unwrap()]].concat(),
            &[],
        );
        assert!(
            out.status.success(),
            "golden SMALL run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let fig = std::fs::read_to_string(dir.join("figure5.json")).expect("golden figure");
        std::fs::remove_dir_all(&dir).ok();
        fig
    })
}

/// Golden single-process figures for the FULL config.
fn golden_full() -> &'static Vec<String> {
    static GOLDEN: OnceLock<Vec<String>> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let dir = tmp("golden_full");
        let out = repro(
            &[&FULL[..], &["--json", dir.to_str().unwrap()]].concat(),
            &[],
        );
        assert!(
            out.status.success(),
            "golden FULL run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let figs = FULL_FIGURES
            .iter()
            .map(|f| std::fs::read_to_string(dir.join(f)).expect("golden figure"))
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        figs
    })
}

/// The cell files of a store, sorted (quarantine subdirectory excluded).
fn cell_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir.join("cells"))
        .expect("cells dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
        .collect();
    out.sort();
    out
}

/// Any (seed, profile) schedule: complete bit-identical, or fail with
/// a store a chaos-free resume completes bit-identically; the store
/// always audits clean, at worst after `fsck --repair`.
///
/// Exercised over a seed per fault profile rather than through the
/// vendored proptest stub: each case forks several `repro` processes,
/// so a handful of named schedules is the whole budget — and external
/// processes give shrinking nothing to bite on anyway. Widen the seed
/// list here when hunting; every schedule is reproducible from its
/// `FLEET_CHAOS` spec alone.
#[test]
fn any_chaos_schedule_completes_or_resumes_bit_identically() {
    for (seed, profile) in [
        (11u64, "kill"),
        (409, "corrupt"),
        (733, "torn"),
        (997, "mixed"),
    ] {
        let spec = format!("{seed}:{profile}");
        let dir = tmp(&format!("prop_{seed}_{profile}"));
        let dir_s = dir.to_str().unwrap();

        let run = repro(
            &[&SMALL[..], &["--workers", "2", "--json", dir_s]].concat(),
            &[("FLEET_CHAOS", &spec)],
        );
        if !run.status.success() {
            // The injected faults won; the durable cells must carry a
            // chaos-free resume to the same bits.
            let resumed = repro(
                &[&SMALL[..], &["--workers", "2", "--resume", "--json", dir_s]].concat(),
                &[],
            );
            assert!(
                resumed.status.success(),
                "chaos {spec} left an unresumable store:\nrun: {}\nresume: {}",
                String::from_utf8_lossy(&run.stderr),
                String::from_utf8_lossy(&resumed.stderr)
            );
        }
        let fig = std::fs::read_to_string(dir.join("figure5.json")).expect("figure exists");
        assert_eq!(
            &fig,
            golden_small(),
            "chaos {spec} diverged from the single-process figure"
        );

        // Chaos may have left scars (quarantined cells, torn temp files);
        // the audit must either pass outright or be repairable.
        let audit = repro(&["fsck", dir_s], &[]);
        if !audit.status.success() {
            let repair = repro(&["fsck", "--repair", dir_s], &[]);
            assert!(
                repair.status.success(),
                "fsck --repair failed after chaos {spec}:\n{}{}",
                String::from_utf8_lossy(&repair.stdout),
                String::from_utf8_lossy(&repair.stderr)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Hand-corrupted cells: a truncated cell file is quarantined on resume
/// and transparently recomputed (bit-identical figures), and a three-way
/// corruption (truncated cell + bit-flipped cell + torn temp file) is
/// reported by `fsck` and restored to a resumable store by `--repair`.
#[test]
fn corrupt_cells_are_quarantined_and_fsck_repairs_the_store() {
    let dir = tmp("integrity");
    let dir_s = dir.to_str().unwrap();

    let run = repro(
        &[&SMALL[..], &["--workers", "2", "--json", dir_s]].concat(),
        &[],
    );
    assert!(
        run.status.success(),
        "clean fleet run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    // Truncate one cell file to half its bytes (a torn write at rest).
    let victims = cell_files(&dir);
    assert!(victims.len() >= 3, "SMALL config stores at least 3 cells");
    let text = std::fs::read_to_string(&victims[0]).unwrap();
    std::fs::write(&victims[0], &text[..text.len() / 2]).unwrap();

    let resumed = repro(
        &[&SMALL[..], &["--workers", "2", "--resume", "--json", dir_s]].concat(),
        &[],
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        resumed.status.success(),
        "resume over a truncated cell failed:\n{stderr}"
    );
    assert!(
        stderr.contains("quarantined"),
        "the corrupt cell was quarantined, not silently merged:\n{stderr}"
    );
    let quarantine = dir.join("cells").join("quarantine");
    assert!(
        quarantine
            .read_dir()
            .map(|mut d| d.next().is_some())
            .unwrap_or(false),
        "quarantine directory holds the damaged file"
    );
    let fig = std::fs::read_to_string(dir.join("figure5.json")).unwrap();
    assert_eq!(
        &fig,
        golden_small(),
        "recomputed cell changed the merged figure"
    );

    // Three-way corruption: truncate one cell, flip a byte in another,
    // leave a torn temp file as a crash mid-write would.
    let victims = cell_files(&dir);
    let text = std::fs::read_to_string(&victims[0]).unwrap();
    std::fs::write(&victims[0], &text[..text.len() / 2]).unwrap();
    let mut bytes = std::fs::read(&victims[1]).unwrap();
    let mid = bytes.len() / 2;
    let flip = (mid..bytes.len())
        .find(|&i| bytes[i].is_ascii_alphanumeric())
        .expect("an alphanumeric byte to flip");
    bytes[flip] ^= 0x02;
    std::fs::write(&victims[1], &bytes).unwrap();
    std::fs::write(victims[2].with_extension("json.tmp"), "{\"spec").unwrap();

    let audit = repro(&["fsck", dir_s], &[]);
    assert!(
        !audit.status.success(),
        "audit mode must exit nonzero on a damaged store"
    );
    let stdout = String::from_utf8_lossy(&audit.stdout);
    assert!(
        stdout.contains("issue") && stdout.contains("[cell]") && stdout.contains("[tmp]"),
        "audit names the inconsistencies:\n{stdout}"
    );

    let repair = repro(&["fsck", "--repair", dir_s], &[]);
    assert!(
        repair.status.success(),
        "fsck --repair failed:\n{}{}",
        String::from_utf8_lossy(&repair.stdout),
        String::from_utf8_lossy(&repair.stderr)
    );
    let audit2 = repro(&["fsck", dir_s], &[]);
    assert!(
        audit2.status.success(),
        "store audits clean after repair:\n{}",
        String::from_utf8_lossy(&audit2.stdout)
    );

    // And the repaired store resumes to the same bits.
    let resumed = repro(
        &[&SMALL[..], &["--workers", "2", "--resume", "--json", dir_s]].concat(),
        &[],
    );
    assert!(
        resumed.status.success(),
        "resume after repair failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let fig = std::fs::read_to_string(dir.join("figure5.json")).unwrap();
    assert_eq!(&fig, golden_small(), "repair + resume diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// A permanently failing shard cannot finish the 4-core group, but the
/// 2-core group's figures are salvaged, stamped `N/M cells, partial`,
/// and the run exits nonzero; a chaos-free resume then completes the
/// full figure set bit-identically.
#[test]
fn permanent_failure_salvages_partial_figures() {
    let dir = tmp("partial");
    let dir_s = dir.to_str().unwrap();

    // One cell per shard (12 cells → 12 shards): cell 5 is the first
    // G4-1 solo baseline, so killing shard 5 forever starves exactly the
    // 4-core group while the 2-core group completes.
    let run = repro(
        &[
            &FULL[..],
            &["--workers", "2", "--shards", "12", "--json", dir_s],
        ]
        .concat(),
        &[("FLEET_CHAOS", "0:shard:5:panic")],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        !run.status.success(),
        "a partial run must exit nonzero:\n{stderr}"
    );
    assert!(
        stderr.contains("11/12 cells, partial"),
        "coverage is stated explicitly:\n{stderr}"
    );
    let fig5 = std::fs::read_to_string(dir.join("figure5.json"))
        .expect("the covered 2-core figure was salvaged");
    assert!(
        fig5.contains("cells, partial"),
        "the salvaged figure carries the partial stamp:\n{fig5}"
    );
    assert!(
        !dir.join("figure8.json").exists(),
        "the starved 4-core figure must not be fabricated"
    );

    let resumed = repro(
        &[&FULL[..], &["--workers", "2", "--resume", "--json", dir_s]].concat(),
        &[],
    );
    assert!(
        resumed.status.success(),
        "resume after partial salvage failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let figs: Vec<String> = FULL_FIGURES
        .iter()
        .map(|f| std::fs::read_to_string(dir.join(f)).expect("figure"))
        .collect();
    assert_eq!(
        &figs,
        golden_full(),
        "completed run diverged from the single-process figures"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `FLEET_RUN_DEADLINE_MS` abandons the run cleanly (named on stderr,
/// nonzero exit) and leaves a resumable store. Also pins the loud env
/// fallback: a malformed fleet env var is named and ignored, never
/// silently swallowed.
#[test]
fn run_deadline_abandons_cleanly_and_resume_completes() {
    let dir = tmp("deadline");
    let dir_s = dir.to_str().unwrap();

    let run = repro(
        &[&SMALL[..], &["--workers", "2", "--json", dir_s]].concat(),
        &[("FLEET_RUN_DEADLINE_MS", "1"), ("FLEET_BACKOFF_MS", "ten")],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "an expired deadline fails the run");
    assert!(
        stderr.contains("run deadline"),
        "the deadline is named as the cause:\n{stderr}"
    );
    assert!(
        stderr.contains("ignoring FLEET_BACKOFF_MS='ten'"),
        "a malformed env override is named and ignored:\n{stderr}"
    );

    let resumed = repro(
        &[&SMALL[..], &["--workers", "2", "--resume", "--json", dir_s]].concat(),
        &[],
    );
    assert!(
        resumed.status.success(),
        "resume after deadline failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let fig = std::fs::read_to_string(dir.join("figure5.json")).unwrap();
    assert_eq!(&fig, golden_small(), "deadline + resume diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Total worker-spawn failure (seed 23 fires `orchestrator.spawn_fail`
/// on every early spawn attempt) degrades to in-process execution: the
/// run completes, says so, and the figures are still bit-identical.
#[test]
fn total_spawn_failure_falls_back_to_in_process_execution() {
    let dir = tmp("spawn");
    let dir_s = dir.to_str().unwrap();

    let run = repro(
        &[&SMALL[..], &["--workers", "2", "--json", dir_s]].concat(),
        &[("FLEET_CHAOS", "23:spawn")],
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        run.status.success(),
        "in-process fallback did not complete the run:\n{stderr}"
    );
    assert!(
        stderr.contains("falling back to in-process"),
        "the degradation is announced:\n{stderr}"
    );
    let fig = std::fs::read_to_string(dir.join("figure5.json")).unwrap();
    assert_eq!(&fig, golden_small(), "in-process fallback diverged");
    std::fs::remove_dir_all(&dir).ok();
}
