//! Smoke test: the `quickstart` example runs end to end at tiny scale and
//! exits 0. (Compilation of all four examples is already enforced — `cargo
//! test` builds every example target of this package.)

use std::path::PathBuf;
use std::process::Command;

/// Locates a built example binary next to this test's own executable
/// (`target/<profile>/deps/<test>` -> `target/<profile>/examples/<name>`).
fn example_bin(name: &str) -> PathBuf {
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop(); // the test binary's file name
    if p.ends_with("deps") {
        p.pop();
    }
    p.push("examples");
    p.push(name);
    p
}

#[test]
fn quickstart_example_runs_at_tiny_scale() {
    let bin = example_bin("quickstart");
    assert!(
        bin.exists(),
        "{} not built; cargo builds examples before running tests",
        bin.display()
    );
    let out = Command::new(&bin).output().expect("spawn quickstart");
    assert!(
        out.status.success(),
        "quickstart exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "per-core results:",
        "weighted speedup vs solo:",
        "takeover:",
    ] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }
}
