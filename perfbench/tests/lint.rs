//! The benchmark's sources pass the repository's own determinism and
//! layering lint (`simlint`), as if they sat in the root crate: wall-clock
//! reads only where a reasoned `simlint: allow(wall-clock)` says why.

use std::path::Path;

#[test]
fn sources_are_simlint_clean() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<_> = std::fs::read_dir(&src)
        .expect("src/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    let mut findings = Vec::new();
    for path in files {
        let name = path.file_name().expect("file name").to_string_lossy();
        let source = std::fs::read_to_string(&path).expect("source is readable");
        for d in simlint::analyze::lint_source(&format!("perfbench/src/{name}"), &source) {
            findings.push(d.render());
        }
    }
    assert!(
        findings.is_empty(),
        "simlint findings:\n{}",
        findings.join("\n")
    );
}
