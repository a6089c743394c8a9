//! Smoke tests: the `repro` binary compiles (guaranteed by cargo building
//! it for `CARGO_BIN_EXE_repro`), answers `--help`, and completes real
//! runs — its experiments and its `inspect` subcommand — with exit
//! status 0, while bad input exits 2 with one line.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

/// `repro inspect` with `args`.
fn inspect(args: &[&str]) -> Output {
    let mut all = vec!["inspect"];
    all.extend_from_slice(args);
    run(env!("CARGO_BIN_EXE_repro"), &all)
}

fn assert_ok(what: &str, out: &Output) {
    assert!(
        out.status.success(),
        "{what} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn repro_help_exits_zero() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["--help"]);
    assert_ok("repro --help", &out);
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage"), "help text missing: {text}");
}

#[test]
fn repro_renders_the_static_tables() {
    // table1 (hardware overhead) and table4 (workload groups) are computed
    // from configuration alone, so this is an instant real run.
    for table in ["table1", "table4"] {
        let out = run(env!("CARGO_BIN_EXE_repro"), &[table]);
        assert_ok(&format!("repro {table}"), &out);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(!text.trim().is_empty(), "repro {table} printed nothing");
    }
}

#[test]
fn repro_rejects_unknown_experiments() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["figNaN"]);
    assert!(!out.status.success(), "unknown experiment must not exit 0");
}

#[test]
fn inspect_help_exits_zero() {
    let out = inspect(&["--help"]);
    assert_ok("repro inspect --help", &out);
}

#[test]
fn inspect_two_epoch_run_exits_zero() {
    let out = inspect(&["--epochs", "2", "--policy", "cp"]);
    assert_ok("repro inspect --epochs 2", &out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("e0") && text.contains("alloc="),
        "per-epoch report missing: {text}"
    );
}

#[test]
fn inspect_prints_curves_only_when_asked() {
    for (args, printed) in [
        (&["--epochs", "1"][..], false),
        (&["--epochs", "1", "--curves"], true),
    ] {
        let out = inspect(args);
        assert_ok(&format!("repro inspect {}", args.join(" ")), &out);
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(text.contains("curve:"), printed, "{args:?}: {text}");
    }
}

#[test]
fn inspect_dvfs_run_reports_frequencies() {
    let out = inspect(&["--epochs", "3", "--policy", "dvfs", "--slacks", "0.15"]);
    assert_ok("repro inspect --policy dvfs", &out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("coordinated DVFS enabled, QoS slack 0.15"),
        "missing banner: {text}"
    );
    assert!(
        text.contains("ghz=") && text.contains("alloc="),
        "per-epoch DVFS report missing: {text}"
    );
}

fn fixture_spec() -> String {
    format!(
        "trace:{}/tests/fixtures/stream_hot.ctrace",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn inspect_trace_workload_run_exits_zero() {
    let out = inspect(&[&fixture_spec(), "--epochs", "2"]);
    assert_ok("repro inspect trace:...", &out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("stream_hot.ctrace") && text.contains("e0"),
        "trace epoch report missing: {text}"
    );
}

#[test]
fn inspect_rejects_unknown_workloads_listing_registered_specs() {
    let out = inspect(&["not-a-workload"]);
    assert!(!out.status.success(), "unknown workload must not exit 0");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("not-a-workload") && text.contains("G2-1") && text.contains("soplex"),
        "error must list registered specs: {text}"
    );
}

#[test]
fn repro_rejects_unknown_groups_listing_registered_ones() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["fig5", "--group", "G9-1"]);
    assert!(!out.status.success(), "unknown group must not exit 0");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("G9-1") && text.contains("G2-1") && text.contains("G8-6"),
        "error must list registered groups: {text}"
    );
}

/// In process, each sweep part is one run and prints one `perf:` line,
/// on its first figure, however many figures it renders.
#[test]
fn repro_prints_one_perf_line_per_sweep_part() {
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["fig5_10", "--scale", "tiny", "--group", "G2-1,G4-1"],
    );
    assert_ok("repro fig5_10 --group G2-1,G4-1", &out);
    let text = String::from_utf8_lossy(&out.stdout);
    let perf: Vec<&str> = text.lines().filter(|l| l.starts_with("perf:")).collect();
    assert_eq!(perf.len(), 2, "one perf line per core count:\n{text}");
}

#[test]
fn repro_json_writes_machine_readable_tables() {
    let dir = std::env::temp_dir().join(format!("repro-json-{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["table4", "--json", dir_s, "--csv", dir_s],
    );
    assert_ok("repro table4 --json", &out);
    let json = std::fs::read_to_string(dir.join("table4.json")).expect("json written");
    assert!(json.starts_with("{\"id\":\"Table 4\""), "{json}");
    assert!(
        json.contains("\"headers\":") && json.contains("\"rows\":"),
        "{json}"
    );
    assert!(json.contains("\"notes\":"), "{json}");
    assert!(dir.join("table4.csv").exists(), "csv twin still written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_rejects_bad_slacks() {
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["dvfs_energy", "--slacks", "1.5"],
    );
    assert_eq!(out.status.code(), Some(2), "slack > 1 must be rejected");
}

/// Asserts a usage error: exit code 2 with a one-line message, no panic.
fn assert_usage_error(what: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{what}: one line, got {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn repro_rejects_bad_flag_values_with_exit_2() {
    for args in [
        &["fig5", "--scale", "huge"][..],
        &["fig5", "--workers", "two"],
        &["fig5", "--workers", "0"],
        &["fig5", "--shards", "x"],
        &["sample", "--sample", "many"],
        &["sample", "--seed", "-1"],
        &["dvfs_energy", "--slacks", "0.1,abc"],
        &["fig5", "--scale"],
        &["fig8", "--group", "G2-1"],
        &["table1", "--shards", "3"],
        &["fig5", "--resume"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_repro"), args);
        assert_usage_error(&args.join(" "), &out);
    }
}

/// An output directory that cannot be created is bad input: it fails
/// before the sweep runs, with one line and exit 2, for either flag.
#[test]
fn repro_rejects_an_uncreatable_output_dir_before_running() {
    let file = std::env::temp_dir().join(format!("repro-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, b"a regular file").expect("write temp file");
    let under_file = file.join("out");
    let dir = under_file.to_str().expect("utf-8 temp path");
    for flag in ["--json", "--csv"] {
        let out = run(
            env!("CARGO_BIN_EXE_repro"),
            &["fig5", "--scale", "quick", flag, dir],
        );
        assert_usage_error(&format!("repro fig5 {flag} <file>/out"), &out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot create output directory"),
            "{stderr}"
        );
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn inspect_rejects_malformed_epochs_and_slack() {
    // `--curves` takes no value, so a value glued to it is an unknown flag.
    for (args, flag, value) in [
        (&["--epochs", "many"][..], "--epochs", "many"),
        (&["--slacks", "ten%"], "--slacks", "ten%"),
        (&["--curves=yes"], "--curves", "yes"),
    ] {
        let out = inspect(args);
        assert_usage_error(&format!("repro inspect {}", args.join(" ")), &out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag) && stderr.contains(value), "{stderr}");
    }
}
