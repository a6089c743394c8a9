//! End-to-end fleet smoke over the real `repro` binary: run a sweep as a
//! worker fleet, kill a worker with the fault-injection hook, resume, and
//! require the merged figures to be byte-identical to a single-process
//! run. Also pins the bounded-retry path (a fault that fires once must
//! not fail the run), the refusal paths (incompatible manifest, done
//! results without `--resume`), that plain `--json` runs share a
//! directory without making it a store, that a verified cell file alone marks
//! its cell finished, and that a store resumes from any launch directory.
//!
//! The sweeps are restricted to G2-1/G4-1 so the whole file stays fast in
//! debug CI; `scripts/fleet_smoke.sh` runs the unrestricted release
//! version of the same scenario.

use std::path::{Path, PathBuf};
use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const TARGET_ARGS: [&str; 5] = ["fig5_10", "--scale", "quick", "--group", "G2-1,G4-1"];
const FIGURES: [&str; 6] = [
    "figure5.json",
    "figure6.json",
    "figure7.json",
    "figure8.json",
    "figure9.json",
    "figure10.json",
];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet_e2e_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn repro(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(REPRO);
    cmd.args(TARGET_ARGS).args(args);
    // Keep the fault hooks' reach limited to the invocations that ask
    // for them, whatever the ambient environment.
    cmd.env_remove("FLEET_CHAOS");
    cmd.env("FLEET_BACKOFF_MS", "10");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("repro runs")
}

fn read_figures(dir: &Path) -> Vec<String> {
    FIGURES
        .iter()
        .map(|f| {
            std::fs::read_to_string(dir.join(f))
                .unwrap_or_else(|e| panic!("{} missing in {}: {e}", f, dir.display()))
        })
        .collect()
}

#[test]
fn killed_fleet_resumes_bit_identical_to_single_process() {
    let golden_dir = tmp("golden");
    let fleet_dir = tmp("fleet");
    let once_dir = tmp("once");

    // Golden: single-process run writing figures and nothing else.
    let golden = repro(&["--json", golden_dir.to_str().unwrap()], &[]);
    assert!(
        golden.status.success(),
        "golden run failed: {}",
        String::from_utf8_lossy(&golden.stderr)
    );
    let golden_figs = read_figures(&golden_dir);
    assert!(
        !golden_dir.join("manifest.json").exists() && !golden_dir.join("cells").exists(),
        "single-process --json runs record no manifest and no store"
    );

    // Fleet run with a persistent targeted fault killing every worker
    // that takes shard 0: bounded retries exhaust, the run reports
    // failure, and the other shards' cells stay durable.
    let failed = repro(
        &["--workers", "2", "--json", fleet_dir.to_str().unwrap()],
        &[("FLEET_CHAOS", "0:shard:0:panic")],
    );
    assert!(
        !failed.status.success(),
        "a permanently failing shard must fail the run"
    );
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(
        stderr.contains("FAILED") && stderr.contains("--resume"),
        "failure report names the failed cells and the resume path:\n{stderr}"
    );
    let stored = std::fs::read_dir(fleet_dir.join("cells"))
        .expect("cells dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert!(stored > 0, "finished cells were stored before the failure");

    // Rerunning without --resume refuses: the directory holds results.
    let refused = repro(
        &["--workers", "2", "--json", fleet_dir.to_str().unwrap()],
        &[],
    );
    assert!(!refused.status.success());
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("--resume"),
        "refusal explains how to continue"
    );

    // A different configuration refuses against the stored manifest.
    let incompatible = Command::new(REPRO)
        .args(["fig5_10", "--scale", "tiny", "--group", "G2-1,G4-1"])
        .args([
            "--workers",
            "2",
            "--resume",
            "--json",
            fleet_dir.to_str().unwrap(),
        ])
        .env_remove("FLEET_CHAOS")
        .output()
        .expect("repro runs");
    assert!(!incompatible.status.success());
    assert!(
        String::from_utf8_lossy(&incompatible.stderr).contains("incompatible"),
        "manifest mismatch is reported"
    );

    // Resume without the fault: only the missing cells rerun, and the
    // merged figures match the single-process run byte for byte.
    let resumed = repro(
        &[
            "--workers",
            "2",
            "--resume",
            "--json",
            fleet_dir.to_str().unwrap(),
        ],
        &[],
    );
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resumed"),
        "resume reports the prior cells it skipped:\n{stderr}"
    );
    assert_eq!(
        read_figures(&fleet_dir),
        golden_figs,
        "killed+resumed fleet output diverged from the single-process run"
    );

    // A fault that fires exactly once is absorbed by the retry budget:
    // one invocation, nonzero worker deaths, still bit-identical.
    let marker = once_dir.join("fired.marker");
    std::fs::create_dir_all(&once_dir).unwrap();
    let plan = format!("0:shard:1:panic1:once={}", marker.to_str().unwrap());
    let once = repro(
        &["--workers", "2", "--json", once_dir.to_str().unwrap()],
        &[("FLEET_CHAOS", &plan)],
    );
    let stderr = String::from_utf8_lossy(&once.stderr);
    assert!(
        once.status.success(),
        "retry did not absorb a one-shot fault:\n{stderr}"
    );
    assert!(marker.exists(), "the one-shot fault actually fired");
    assert!(
        stderr.contains("worker deaths") && !stderr.contains("0 worker deaths"),
        "the death was counted:\n{stderr}"
    );
    assert_eq!(
        read_figures(&once_dir),
        golden_figs,
        "mid-shard worker death changed the merged output"
    );

    for d in [&golden_dir, &fleet_dir, &once_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// A `--group` filter that leaves one core count of the sweep without
/// groups: the fleet skips that core count as the single-process run
/// does, exits 0, and writes the same figures byte for byte.
#[test]
fn fleet_skips_a_core_count_the_group_filter_empties() {
    let single_dir = tmp("g2_1_single");
    let fleet_dir = tmp("g2_1_fleet");
    let run = |dir: &Path, extra: &[&str]| {
        let out = Command::new(REPRO)
            .args(["fig5_10", "--scale", "quick", "--group", "G2-1"])
            .args(extra)
            .args(["--json", dir.to_str().unwrap()])
            .env_remove("FLEET_CHAOS")
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "{extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&single_dir, &[]);
    run(&fleet_dir, &["--workers", "2"]);
    for f in ["figure5.json", "figure6.json", "figure7.json"] {
        let read = |dir: &Path| {
            std::fs::read_to_string(dir.join(f))
                .unwrap_or_else(|e| panic!("{f} missing in {}: {e}", dir.display()))
        };
        assert_eq!(read(&fleet_dir), read(&single_dir), "{f} diverged");
    }
    for dir in [&single_dir, &fleet_dir] {
        assert!(
            !dir.join("figure8.json").exists(),
            "the four-core sweep is skipped"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A plain `--json` directory is only an output directory: another
/// fleet-capable run writes into it beside the first, and a `--workers`
/// run then makes it a store.
#[test]
fn plain_json_runs_share_a_directory() {
    let dir = tmp("shared");
    let run = |args: &[&str]| {
        let out = Command::new(REPRO)
            .args(args)
            .args(["--scale", "quick", "--group", "G2-1"])
            .args(["--json", dir.to_str().unwrap()])
            .env_remove("FLEET_CHAOS")
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "{args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&["fig5"]);
    run(&["fig6"]);
    for f in ["figure5.json", "figure6.json"] {
        assert!(dir.join(f).exists(), "{f} written");
    }
    run(&["fig5", "--workers", "2"]);
    assert!(
        dir.join("manifest.json").exists(),
        "the fleet run made a store"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A verified cell file is the one record that its cell finished: with
/// any other completion record gone, or damaged as a crash would leave
/// it, `--resume` skips every cell and recomputes none.
#[test]
fn verified_cells_without_a_completion_record_count_as_done() {
    let dir = tmp("record");
    let dir_s = dir.to_str().unwrap();
    let run = |extra: &[&str]| {
        let out = Command::new(REPRO)
            .args(["fig5_10", "--scale", "quick", "--group", "G2-1"])
            .args(["--workers", "2"])
            .args(extra)
            .args(["--json", dir_s])
            .env_remove("FLEET_CHAOS")
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(out.status.success(), "{extra:?} failed:\n{stderr}");
        stderr
    };
    run(&[]);
    let figure = std::fs::read_to_string(dir.join("figure5.json")).expect("figure5");
    let cells = std::fs::read_dir(dir.join("cells"))
        .expect("cells dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert!(cells > 0, "the run stored its cells");
    let all_resumed = format!("{cells}/{cells} cells done ({cells} resumed, 0 computed)");

    // Stores written before the cell file became the only record also
    // kept a journal of completions; removing it loses nothing.
    let journal = dir.join("journal.jsonl");
    std::fs::remove_file(&journal).ok();
    let stderr = run(&["--resume"]);
    assert!(
        stderr.contains(&all_resumed),
        "want '{all_resumed}':\n{stderr}"
    );

    // A torn journal left beside the cells is ignored just the same.
    std::fs::write(&journal, "{\"cell\":\"torn").expect("journal");
    let stderr = run(&["--resume"]);
    assert!(
        stderr.contains(&all_resumed),
        "want '{all_resumed}':\n{stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("figure5.json")).expect("figure5"),
        figure,
        "a resume over stored cells rewrites the same figure"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The manifest's code version names the binary, not the directory it was
/// launched from: a store written from inside the checkout resumes under
/// the same binary launched from anywhere else.
#[test]
fn resume_from_outside_the_checkout_accepts_its_own_store() {
    let dir = tmp("cwd");
    let elsewhere = tmp("cwd_elsewhere");
    std::fs::create_dir_all(&elsewhere).expect("elsewhere");
    let run = |cwd: &Path, extra: &[&str]| {
        let out = Command::new(REPRO)
            .args(["fig5", "--scale", "quick", "--group", "G2-1"])
            .args(["--workers", "2"])
            .args(extra)
            .args(["--json", dir.to_str().unwrap()])
            .current_dir(cwd)
            .env_remove("FLEET_CHAOS")
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "{extra:?} from {} failed:\n{}",
            cwd.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(Path::new(env!("CARGO_MANIFEST_DIR")), &[]);
    run(&elsewhere, &["--resume"]);
    for d in [&dir, &elsewhere] {
        std::fs::remove_dir_all(d).ok();
    }
}
