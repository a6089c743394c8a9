//! The durable results store behind `--json DIR`.
//!
//! Layout:
//!
//! ```text
//! DIR/manifest.json          store manifest: format, code version, cell IDs
//! DIR/cells/<id>.json        one finished cell: {"payload": ..., "spec": ..., "sum": ...}
//! DIR/cells/quarantine/      cell files that failed verification (kept for forensics)
//! DIR/<experiment>.json      merged experiment outputs (written by repro)
//! ```
//!
//! The per-cell file is the durable unit and the only record that a cell
//! finished: a crash after N cells keeps N results, and a rerun verifies
//! the file of every cell it needs and computes only the ones that are
//! missing or fail. One rule decides reuse: a cell file that verifies, in
//! a store whose manifest has this run's store format and code version,
//! is finished for any target, since its cell ID already fixes the
//! workload, policy setting, core count and scale. The manifest keeps the
//! sorted union of the cell IDs of every run that used the store, so
//! [`fsck`] can count expected and missing cells and flag a file no run
//! asked for.
//!
//! Every cell file embeds a `"sum"`: the FNV-1a content checksum of its
//! own canonical render minus that field (see [`crate::cell::content_sum`];
//! the JSON layer keeps keys in document order and numbers as raw tokens,
//! so parse → render is byte-stable and a checksum taken at write time
//! verifies bit-exactly at read time). Verification runs on every
//! resume/merge read: a corrupt cell is **quarantined** to
//! `cells/quarantine/` and recomputed, never silently merged.
//! [`fsck`] audits manifest ↔ cell-file consistency offline and (with
//! repair) quarantines bad cells and removes torn temp files.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use simkit::json::{self, Value};

use crate::cell::{content_sum, CellSpec};
use crate::chaos::{ChaosEngine, Site};

/// Results-store format version (bump when the cell payload layout
/// changes incompatibly). Format 2 added content checksums to cell files;
/// format-1 stores are refused (their cells carry no integrity
/// information, so resuming onto them would reintroduce the blind-trust
/// hole this format closed). Format 3 writes object keys in insertion
/// order where format 2 sorted them, so the bytes each checksum covers
/// changed; format-2 files still verify (their checksums cover their own
/// key order), but a run refuses a format-2 store. Stores of formats 2
/// and 3 written before the cell file became the only completion record
/// also hold a completion journal; nothing reads it.
pub const STORE_FORMAT: u64 = 3;

/// The store manifest: what a cell file must match to be reused. A cell
/// ID already fixes the workload, policy setting, core count and scale,
/// so a verified cell file is finished for any target once the store's
/// format and code version match this run's.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Store format version.
    pub format: u64,
    /// Code version: crate version plus a hash of the binary (see
    /// [`crate::version_string`]).
    pub version: String,
    /// Sorted IDs of every cell a run on this store asked for.
    pub cell_ids: Vec<String>,
}

impl Manifest {
    /// A manifest of this store format and `version` over `cells` (IDs are
    /// sorted for stability).
    pub fn new(version: &str, cells: &[CellSpec]) -> Manifest {
        let mut cell_ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        cell_ids.sort();
        cell_ids.dedup();
        Manifest {
            format: STORE_FORMAT,
            version: version.to_string(),
            cell_ids,
        }
    }

    /// Joins the manifest of the store this run found: refused when
    /// [`Manifest::compatible_with`] refuses it, and otherwise adds its
    /// cell IDs, so the manifest names every cell any run on the store
    /// asked for (sorted, each once).
    pub fn join(&mut self, earlier: &Manifest) -> Result<(), String> {
        self.compatible_with(earlier)?;
        self.cell_ids.extend(earlier.cell_ids.iter().cloned());
        self.cell_ids.sort();
        self.cell_ids.dedup();
        Ok(())
    }

    /// Serializes the manifest.
    pub fn to_value(&self) -> Value {
        json::obj(vec![
            ("format", json::num_u64(self.format)),
            ("version", json::str(&self.version)),
            ("cells", json::arr_str(&self.cell_ids)),
        ])
    }

    /// Parses a manifest. Keys it does not ask for are ignored, so the
    /// manifests of earlier builds, which also recorded the target and
    /// its filters, still parse.
    pub fn from_value(v: &Value) -> Result<Manifest, String> {
        let field = |e: String| format!("manifest: {e}");
        Ok(Manifest {
            format: v.req("format").map_err(field)?,
            version: v.req("version").map_err(field)?,
            cell_ids: v.req("cells").map_err(field)?,
        })
    }

    /// Checks that the cell files of a store written under `existing` can
    /// serve this run: the store format and the code version must match.
    /// A mismatch names the field, so the user knows to pick a fresh
    /// directory.
    pub fn compatible_with(&self, existing: &Manifest) -> Result<(), String> {
        let mismatch = |what: &str, old: &str, new: &str| {
            Err(format!(
                "results dir was written by an incompatible run: {what} was '{old}', this run has '{new}'"
            ))
        };
        if existing.format != self.format {
            return mismatch(
                "store format",
                &existing.format.to_string(),
                &self.format.to_string(),
            );
        }
        if existing.version != self.version {
            return mismatch("code version", &existing.version, &self.version);
        }
        Ok(())
    }
}

/// The on-disk store rooted at one `--json DIR`.
#[derive(Debug, Clone)]
pub struct ResultsStore {
    dir: PathBuf,
    /// Armed chaos engine: the cell write path consults it to inject torn
    /// cell files (deterministically, keyed by cell ID and per-cell write
    /// count). `None` in production.
    chaos: Option<Arc<ChaosEngine>>,
}

/// Store I/O errors, tagged with the path involved.
#[derive(Debug)]
pub struct StoreError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "results store: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

fn store_err(path: &Path, what: &str, e: impl std::fmt::Display) -> StoreError {
    StoreError {
        message: format!("{what} {}: {e}", path.display()),
    }
}

impl ResultsStore {
    /// Opens (creating directories as needed) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultsStore, StoreError> {
        let dir = dir.into();
        let cells = dir.join("cells");
        std::fs::create_dir_all(&cells).map_err(|e| store_err(&cells, "create", e))?;
        Ok(ResultsStore { dir, chaos: None })
    }

    /// Arms fault injection on this store's write paths (builder-style;
    /// the orchestrating process installs the engine it read from
    /// `FLEET_CHAOS`).
    pub fn with_chaos(mut self, chaos: Option<Arc<ChaosEngine>>) -> ResultsStore {
        self.chaos = chaos;
        self
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn cell_path(&self, cell_id: &str) -> PathBuf {
        self.dir.join("cells").join(format!("{cell_id}.json"))
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("cells").join("quarantine")
    }

    /// Writes the manifest (one line and a newline) atomically, through a
    /// temp file and a rename like a cell file, since every run onto the
    /// store rewrites it.
    pub fn write_manifest(&self, m: &Manifest) -> Result<(), StoreError> {
        let mut text = m.to_value().render();
        text.push('\n');
        write_atomic(&self.manifest_path(), &text)
    }

    /// Reads the manifest, if one exists.
    pub fn read_manifest(&self) -> Result<Option<Manifest>, StoreError> {
        let path = self.manifest_path();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(store_err(&path, "read", e)),
        };
        let v = json::parse(&text).map_err(|e| store_err(&path, "parse", e))?;
        Manifest::from_value(&v)
            .map(Some)
            .map_err(|e| store_err(&path, "parse", e))
    }

    /// Persists one finished cell (spec + opaque payload + content
    /// checksum). The file is written atomically (tmp + rename) so a crash
    /// mid-write never leaves a torn result that a resume would trust;
    /// once it verifies, the cell counts as finished.
    pub fn write_cell(&self, spec: &CellSpec, payload: &Value) -> Result<(), StoreError> {
        let id = spec.id();
        let doc = seal(json::obj(vec![
            ("spec", spec.to_value()),
            ("payload", payload.clone()),
        ]));
        let path = self.cell_path(&id);
        let mut text = doc.render();
        text.push('\n');
        if let Some(ch) = &self.chaos {
            if ch.fires_counted(Site::TornCellWrite, &id) {
                // A torn write lands directly at the final path —
                // modelling media/kernel faults the tmp+rename dance
                // cannot see — and is what verification must catch.
                let cut = (text.len() / 2).max(1);
                return std::fs::write(&path, &text.as_bytes()[..cut])
                    .map_err(|e| store_err(&path, "write", e));
            }
        }
        write_atomic(&path, &text)
    }

    /// Integrity state of one cell file.
    pub fn verify_cell(&self, cell_id: &str) -> CellHealth {
        let path = self.cell_path(cell_id);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CellHealth::Missing,
            Err(e) => return CellHealth::Corrupt(format!("unreadable: {e}")),
        };
        match check_cell_text(cell_id, &text) {
            Ok(_) => CellHealth::Valid,
            Err(why) => CellHealth::Corrupt(why),
        }
    }

    /// Moves a corrupt cell file to `cells/quarantine/` (kept for
    /// forensics; its absence from `cells/` is what triggers recompute).
    pub fn quarantine_cell(&self, cell_id: &str, why: &str) -> Result<PathBuf, StoreError> {
        let to = self.quarantine_file(&format!("{cell_id}.json"))?;
        eprintln!(
            "# store: quarantined corrupt cell {cell_id} ({why}) → {}",
            to.display()
        );
        Ok(to)
    }

    /// Moves `cells/<name>` into `cells/quarantine/`, bytes unchanged.
    fn quarantine_file(&self, name: &str) -> Result<PathBuf, StoreError> {
        let qdir = self.quarantine_dir();
        std::fs::create_dir_all(&qdir).map_err(|e| store_err(&qdir, "create", e))?;
        let from = self.dir.join("cells").join(name);
        let to = qdir.join(name);
        std::fs::rename(&from, &to).map_err(|e| store_err(&from, "quarantine", e))?;
        Ok(to)
    }

    /// Verifies the file of every cell in `cell_ids`, quarantining the
    /// corrupt ones. A cell whose file verifies is finished: resume, the
    /// fleet's skip set and the post-run integrity pass all ask this one
    /// question.
    pub fn verify_cells(&self, cell_ids: &[String]) -> Result<CellAudit, StoreError> {
        let mut audit = CellAudit::default();
        for id in cell_ids {
            match self.verify_cell(id) {
                CellHealth::Valid => audit.valid.push(id.clone()),
                CellHealth::Missing => {}
                CellHealth::Corrupt(why) => {
                    self.quarantine_cell(id, &why)?;
                    audit.quarantined.push((id.clone(), why));
                }
            }
        }
        Ok(audit)
    }

    /// Loads one finished cell's payload, verifying its checksum — a
    /// corrupt cell is an error here, never silently merged.
    pub fn read_cell(&self, cell_id: &str) -> Result<(CellSpec, Value), StoreError> {
        let path = self.cell_path(cell_id);
        let text = std::fs::read_to_string(&path).map_err(|e| store_err(&path, "read", e))?;
        check_cell_text(cell_id, &text).map_err(|e| store_err(&path, "verify", e))
    }
}

/// Writes `text` to `path` through `<path>.tmp` and a rename, so a crash
/// mid-write never leaves a torn file at `path`.
fn write_atomic(path: &Path, text: &str) -> Result<(), StoreError> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text).map_err(|e| store_err(&tmp, "write", e))?;
    std::fs::rename(&tmp, path).map_err(|e| store_err(path, "rename", e))
}

/// What [`ResultsStore::verify_cells`] found, in input order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellAudit {
    /// IDs of the cells whose files verify: the finished cells.
    pub valid: Vec<String>,
    /// `(cell_id, reason)` for each cell quarantined as corrupt.
    pub quarantined: Vec<(String, String)>,
}

/// Integrity state of one cell file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellHealth {
    /// Present, parses, checksum and spec hash match.
    Valid,
    /// No file (not computed yet, or already quarantined).
    Missing,
    /// Present but failing verification, with the reason.
    Corrupt(String),
}

/// Appends a `"sum"` field to an object: the content checksum of the
/// object *without* that field, which is exactly what verification
/// recomputes.
fn seal(v: Value) -> Value {
    let sum = content_sum(&v);
    match v {
        Value::Obj(mut fields) => {
            fields.push(("sum".to_string(), json::str(sum)));
            Value::Obj(fields)
        }
        other => other,
    }
}

/// Splits a sealed object back into (content-without-sum, claimed sum).
/// The other keys keep their order, wherever `"sum"` sat among them.
fn unseal(v: Value) -> Result<(Value, String), String> {
    let Value::Obj(mut fields) = v else {
        return Err("not an object".to_string());
    };
    let at = fields
        .iter()
        .position(|(k, _)| k == "sum")
        .ok_or("missing checksum")?;
    match fields.remove(at).1 {
        Value::Str(sum) => Ok((Value::Obj(fields), sum)),
        _ => Err("missing checksum".to_string()),
    }
}

/// Full verification of one cell file's text: parses, checks the embedded
/// checksum against the canonical render, and checks the spec hashes to
/// the ID the file is stored under. Returns the verified (spec, payload).
fn check_cell_text(cell_id: &str, text: &str) -> Result<(CellSpec, Value), String> {
    let v = json::parse(text).map_err(|e| format!("parse: {e}"))?;
    let (content, claimed) = unseal(v)?;
    let actual = content_sum(&content);
    if claimed != actual {
        return Err(format!(
            "checksum mismatch (file says {claimed}, content is {actual})"
        ));
    }
    let spec = CellSpec::from_value(content.req("spec")?).map_err(|_| "bad spec")?;
    if spec.id() != cell_id {
        return Err(format!(
            "spec hashes to {} but file is stored as {cell_id}",
            spec.id()
        ));
    }
    let payload: &Value = content.req("payload")?;
    Ok((spec, payload.clone()))
}

/// One inconsistency `fsck` found.
#[derive(Debug, Clone)]
pub struct FsckIssue {
    /// Issue class: `manifest`, `cell`, `tmp`.
    pub kind: &'static str,
    /// Human-readable description naming the file/line involved.
    pub detail: String,
}

/// What an [`fsck`] pass found (and, with repair, did).
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Inconsistencies found (empty = clean).
    pub issues: Vec<FsckIssue>,
    /// Repair actions taken (empty when not repairing or nothing to do).
    pub repairs: Vec<String>,
    /// Cells the manifest expects.
    pub cells_expected: usize,
    /// Cell files that verified.
    pub cells_valid: usize,
    /// Manifest cells with no file at all — not corruption, just not yet
    /// computed (`--resume` picks them up).
    pub cells_missing: usize,
    /// Files already sitting in `cells/quarantine/`.
    pub quarantined: usize,
}

impl FsckReport {
    /// True when no inconsistencies were found.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fsck: {expected} cells expected · {valid} valid · {missing} not yet computed · {q} quarantined\n",
            expected = self.cells_expected,
            valid = self.cells_valid,
            missing = self.cells_missing,
            q = self.quarantined,
        ));
        for i in &self.issues {
            out.push_str(&format!("fsck: ISSUE [{}] {}\n", i.kind, i.detail));
        }
        for r in &self.repairs {
            out.push_str(&format!("fsck: repaired: {r}\n"));
        }
        out.push_str(&if self.issues.is_empty() {
            "fsck: clean\n".to_string()
        } else {
            format!("fsck: {} issue(s)\n", self.issues.len())
        });
        out
    }
}

/// Audits manifest ↔ cell-file consistency of the store at `dir`: every
/// cell file must parse, verify its checksum, hash to its filename and
/// appear in the manifest, and torn `.json.tmp` leftovers are flagged.
/// With `repair`, corrupt, unknown and stray files are quarantined and tmp
/// files removed, leaving a store `--resume` completes.
pub fn fsck(dir: &Path, repair: bool) -> Result<FsckReport, StoreError> {
    let store = ResultsStore::open(dir)?;
    let mut r = FsckReport::default();

    // Manifest: without one there is nothing to audit against.
    let manifest = match store.read_manifest() {
        Ok(Some(m)) => m,
        Ok(None) => {
            r.issues.push(FsckIssue {
                kind: "manifest",
                detail: format!(
                    "{} has no manifest.json (not a results store?)",
                    dir.display()
                ),
            });
            return Ok(r);
        }
        Err(e) => {
            r.issues.push(FsckIssue {
                kind: "manifest",
                detail: format!("manifest.json unreadable: {e}"),
            });
            return Ok(r);
        }
    };
    r.cells_expected = manifest.cell_ids.len();

    // Cell files: verify each, quarantining on repair.
    let cells_dir = dir.join("cells");
    let mut valid_ids: Vec<String> = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cells_dir)
        .map_err(|e| store_err(&cells_dir, "read", e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if name.ends_with(".json.tmp") {
            r.issues.push(FsckIssue {
                kind: "tmp",
                detail: format!("torn temp file cells/{name} (crash mid-write)"),
            });
            if repair {
                std::fs::remove_file(&path).map_err(|e| store_err(&path, "remove", e))?;
                r.repairs.push(format!("removed cells/{name}"));
            }
            continue;
        }
        let Some(id) = name.strip_suffix(".json") else {
            r.issues.push(FsckIssue {
                kind: "cell",
                detail: format!("stray file cells/{name}"),
            });
            if repair {
                let to = store.quarantine_file(&name)?;
                r.repairs
                    .push(format!("quarantined cells/{name} → {}", to.display()));
            }
            continue;
        };
        let problem = match store.verify_cell(id) {
            CellHealth::Valid => {
                if manifest.cell_ids.contains(&id.to_string()) {
                    valid_ids.push(id.to_string());
                    continue;
                }
                "valid but not in the manifest (wrong run?)".to_string()
            }
            CellHealth::Corrupt(why) => why,
            CellHealth::Missing => continue, // raced away; nothing to audit
        };
        r.issues.push(FsckIssue {
            kind: "cell",
            detail: format!("cells/{name}: {problem}"),
        });
        if repair {
            let to = store.quarantine_cell(id, &problem)?;
            r.repairs
                .push(format!("quarantined cells/{name} → {}", to.display()));
        }
    }
    r.cells_valid = valid_ids.len();
    r.cells_missing = manifest
        .cell_ids
        .iter()
        .filter(|id| !valid_ids.contains(id))
        .count();

    let qdir = cells_dir.join("quarantine");
    r.quarantined = std::fs::read_dir(&qdir)
        .map(|it| it.filter_map(|e| e.ok()).count())
        .unwrap_or(0);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fleet-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn manifest(cells: &[CellSpec]) -> Manifest {
        Manifest::new("v-test", cells)
    }

    #[test]
    fn manifest_roundtrips() {
        let cells = vec![
            CellSpec::sweep("G2-1", "cooperative", 2, "quick"),
            CellSpec::solo("namd", 2, "quick"),
        ];
        let m = manifest(&cells);
        let back = Manifest::from_value(&json::parse(&m.to_value().render()).expect("json"))
            .expect("manifest");
        assert_eq!(back, m);
        // An earlier build's manifest also named its target and filters.
        let old = r#"{"experiment":"fig5","scale":"quick","policies":["fair"],"groups":[],"version":"v-test","cells":["ab"],"format":3}"#;
        let back = Manifest::from_value(&json::parse(old).expect("json")).expect("manifest");
        assert_eq!((back.format, back.cell_ids), (3, vec!["ab".to_string()]));
    }

    #[test]
    fn incompatible_manifests_name_the_field() {
        let m = manifest(&[CellSpec::sweep("G2-1", "cooperative", 2, "quick")]);
        let mut other = m.clone();
        other.format = 2;
        let msg = m.compatible_with(&other).expect_err("format differs");
        assert!(msg.contains("store format was '2'"), "{msg}");
        let mut other = m.clone();
        other.version = "v-older".to_string();
        let msg = m.compatible_with(&other).expect_err("version differs");
        assert!(msg.contains("code version was 'v-older'"), "{msg}");
        assert!(m.clone().join(&other).is_err(), "joining checks first");
        // Another cell set is no reason to refuse: the IDs decide reuse.
        let other = manifest(&[CellSpec::sweep("G4-1", "ucp", 4, "small")]);
        assert!(m.compatible_with(&other).is_ok());
    }

    #[test]
    fn runs_with_different_cells_leave_their_union() {
        let dir = tmpdir("union");
        let store = ResultsStore::open(&dir).expect("open");
        let a = CellSpec::sweep("G2-1", "ucp", 2, "quick");
        let b = CellSpec::sweep("G2-2", "ucp", 2, "quick");
        let c = CellSpec::solo("namd", 2, "quick");
        // Each run joins the manifest it finds, then writes its cells.
        for run in [vec![a.clone(), b.clone()], vec![b.clone(), c.clone()]] {
            let mut m = manifest(&run);
            if let Some(earlier) = store.read_manifest().expect("read") {
                m.join(&earlier).expect("same build");
            }
            store.write_manifest(&m).expect("write");
            for s in &run {
                write_one(&store, s);
            }
        }
        let mut union = ids(&[&a, &b, &c]);
        union.sort();
        let m = store.read_manifest().expect("read").expect("present");
        assert_eq!(m.cell_ids, union);
        assert!(
            !dir.join("manifest.json.tmp").exists(),
            "renamed into place"
        );
        let report = fsck(&dir, false).expect("fsck");
        assert!(report.clean(), "{}", report.render());
        assert_eq!((report.cells_expected, report.cells_valid), (3, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn ids(specs: &[&CellSpec]) -> Vec<String> {
        specs.iter().map(|s| s.id()).collect()
    }

    #[test]
    fn cells_survive_reopen() {
        let dir = tmpdir("reopen");
        let store = ResultsStore::open(&dir).expect("open");
        let spec = CellSpec::sweep("G2-1", "ucp", 2, "quick");
        let payload = json::obj(vec![("ipc", json::arr_f64(&[1.25, 0.5]))]);
        store.write_cell(&spec, &payload).expect("write");
        // Reopen as a resume would.
        let store = ResultsStore::open(&dir).expect("reopen");
        let audit = store.verify_cells(&ids(&[&spec])).expect("verify");
        assert_eq!(audit.valid, vec![spec.id()]);
        assert!(audit.quarantined.is_empty());
        let (back_spec, back_payload) = store.read_cell(&spec.id()).expect("read");
        assert_eq!(back_spec, spec);
        assert_eq!(back_payload, payload);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_verified_file_is_the_only_completion_record() {
        let dir = tmpdir("record");
        let store = ResultsStore::open(&dir).expect("open");
        let a = CellSpec::sweep("G2-1", "ucp", 2, "quick");
        let b = CellSpec::sweep("G2-2", "ucp", 2, "quick");
        let c = CellSpec::sweep("G2-3", "ucp", 2, "quick");
        for s in [&a, &b, &c] {
            write_one(&store, s);
        }
        let files = std::fs::read_dir(&dir).expect("store dir").count();
        assert_eq!(files, 1, "cell files are the only completion record");
        // Corrupt b, remove c's file: answers come back in input order.
        let b_path = dir.join("cells").join(format!("{}.json", b.id()));
        let text = std::fs::read_to_string(&b_path).expect("read");
        std::fs::write(&b_path, text.replace("1.25", "1.35")).expect("flip");
        std::fs::remove_file(dir.join("cells").join(format!("{}.json", c.id())))
            .expect("remove cell file");
        let audit = store.verify_cells(&ids(&[&c, &b, &a])).expect("verify");
        assert_eq!(audit.valid, vec![a.id()]);
        assert_eq!(audit.quarantined.len(), 1);
        assert_eq!(audit.quarantined[0].0, b.id());
        assert!(audit.quarantined[0].1.contains("checksum"), "{audit:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_reads_as_none() {
        let dir = tmpdir("nomanifest");
        let store = ResultsStore::open(&dir).expect("open");
        assert!(store.read_manifest().expect("read").is_none());
        store.write_manifest(&manifest(&[])).expect("write");
        assert!(store.read_manifest().expect("read").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn write_one(store: &ResultsStore, spec: &CellSpec) {
        store
            .write_cell(spec, &json::obj(vec![("ipc", json::arr_f64(&[1.25, 0.5]))]))
            .expect("write");
    }

    #[test]
    fn bit_flips_fail_verification_and_resume_quarantines() {
        let dir = tmpdir("bitflip");
        let store = ResultsStore::open(&dir).expect("open");
        let spec = CellSpec::sweep("G2-1", "ucp", 2, "quick");
        write_one(&store, &spec);
        assert_eq!(store.verify_cell(&spec.id()), CellHealth::Valid);
        assert!(store.read_cell(&spec.id()).is_ok());

        // Flip one payload digit in place: still valid JSON, wrong sum.
        let path = dir.join("cells").join(format!("{}.json", spec.id()));
        let text = std::fs::read_to_string(&path).expect("read");
        let flipped = text.replace("1.25", "1.35");
        assert_ne!(flipped, text);
        std::fs::write(&path, flipped).expect("rewrite");
        assert!(matches!(
            store.verify_cell(&spec.id()),
            CellHealth::Corrupt(_)
        ));
        assert!(
            store.read_cell(&spec.id()).is_err(),
            "corrupt cells never merge"
        );

        // The resume path quarantines it and reports the cell not done.
        let audit = store.verify_cells(&ids(&[&spec])).expect("verify");
        assert!(audit.valid.is_empty());
        assert_eq!(audit.quarantined.len(), 1);
        assert_eq!(store.verify_cell(&spec.id()), CellHealth::Missing);
        assert!(dir
            .join("cells")
            .join("quarantine")
            .join(format!("{}.json", spec.id()))
            .exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_filename_mismatch_is_corrupt() {
        let dir = tmpdir("idmismatch");
        let store = ResultsStore::open(&dir).expect("open");
        let spec = CellSpec::sweep("G2-1", "ucp", 2, "quick");
        write_one(&store, &spec);
        // A valid cell file stored under the wrong name must not verify:
        // its payload answers a different question than the ID asks.
        let text = std::fs::read_to_string(dir.join("cells").join(format!("{}.json", spec.id())))
            .expect("read");
        let other = CellSpec::sweep("G2-2", "ucp", 2, "quick");
        let wrong = dir.join("cells").join(format!("{}.json", other.id()));
        std::fs::write(&wrong, text).expect("write");
        match store.verify_cell(&other.id()) {
            CellHealth::Corrupt(why) => assert!(why.contains("stored as"), "{why}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_and_repairs_a_three_way_corruption() {
        let dir = tmpdir("fsck");
        let store = ResultsStore::open(&dir).expect("open");
        let a = CellSpec::sweep("G2-1", "ucp", 2, "quick");
        let b = CellSpec::sweep("G2-2", "ucp", 2, "quick");
        let c = CellSpec::sweep("G2-3", "ucp", 2, "quick");
        store
            .write_manifest(&manifest(&[a.clone(), b.clone(), c.clone()]))
            .expect("manifest");
        for s in [&a, &b, &c] {
            write_one(&store, s);
        }
        let report = fsck(&dir, false).expect("fsck");
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.cells_valid, 3);

        // Acceptance scenario: a truncated cell, a bit-flipped cell and a
        // torn temp file left by a crash mid-write — all three reported.
        let a_path = dir.join("cells").join(format!("{}.json", a.id()));
        let text = std::fs::read_to_string(&a_path).expect("read");
        std::fs::write(&a_path, &text.as_bytes()[..text.len() / 2]).expect("truncate");
        let b_path = dir.join("cells").join(format!("{}.json", b.id()));
        let text = std::fs::read_to_string(&b_path).expect("read");
        std::fs::write(&b_path, text.replace("1.25", "1.35")).expect("flip");
        std::fs::write(
            dir.join("cells").join(format!("{}.json.tmp", a.id())),
            b"{\"sp",
        )
        .expect("tmp");

        let report = fsck(&dir, false).expect("fsck");
        assert!(!report.clean());
        let mut kinds: Vec<&str> = report.issues.iter().map(|i| i.kind).collect();
        kinds.sort_unstable();
        assert_eq!(kinds, ["cell", "cell", "tmp"], "{}", report.render());
        assert!(report.repairs.is_empty(), "audit mode must not write");

        // Repair: quarantine the two bad cells, remove the temp file.
        let report = fsck(&dir, true).expect("fsck --repair");
        assert_eq!(report.repairs.len(), 3, "{}", report.render());
        let report = fsck(&dir, false).expect("fsck after repair");
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.cells_valid, 1);
        assert_eq!(report.cells_missing, 2);
        assert_eq!(report.quarantined, 2);
        // The repaired store is resumable: exactly c is done.
        let done = store
            .verify_cells(&ids(&[&a, &b, &c]))
            .expect("verify")
            .valid;
        assert_eq!(done, vec![c.id()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_flags_tmp_leftovers_and_unknown_cells() {
        let dir = tmpdir("fscktmp");
        let store = ResultsStore::open(&dir).expect("open");
        let a = CellSpec::sweep("G2-1", "ucp", 2, "quick");
        store
            .write_manifest(&manifest(std::slice::from_ref(&a)))
            .expect("manifest");
        write_one(&store, &a);
        // A torn temp file, a valid-but-foreign cell file and a stray file.
        std::fs::write(dir.join("cells").join("deadbeef.json.tmp"), b"{\"par").expect("tmp");
        let foreign = CellSpec::sweep("G4-1", "ucp", 4, "quick");
        write_one(&store, &foreign);
        std::fs::write(dir.join("cells").join("notes.txt"), b"scratch").expect("stray");
        let report = fsck(&dir, false).expect("fsck");
        assert!(!report.clean());
        assert!(report.issues.iter().any(|i| i.kind == "tmp"));
        assert!(report
            .issues
            .iter()
            .any(|i| i.kind == "cell" && i.detail.contains("not in the manifest")));
        assert!(report
            .issues
            .iter()
            .any(|i| i.kind == "cell" && i.detail.contains("stray file cells/notes.txt")));
        let report = fsck(&dir, true).expect("repair");
        assert_eq!(report.repairs.len(), 3, "{}", report.render());
        let recheck = fsck(&dir, false).expect("recheck");
        assert!(recheck.clean(), "{}", recheck.render());
        // The stray file is kept, bytes unchanged, beside the foreign cell.
        let kept = dir.join("cells").join("quarantine").join("notes.txt");
        assert_eq!(std::fs::read(kept).expect("kept"), b"scratch");
        assert_eq!(recheck.quarantined, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Format 2 rendered every object with sorted keys. The cell below is
    /// verbatim format-2 output; it must still verify, since `fsck` and
    /// salvage read whatever a store holds.
    #[test]
    fn format_2_sorted_key_files_still_verify() {
        let dir = tmpdir("format2");
        let store = ResultsStore::open(&dir).expect("open");
        let spec = CellSpec::sweep("G2-1", "ucp", 2, "quick");
        store
            .write_manifest(&manifest(std::slice::from_ref(&spec)))
            .expect("manifest");
        let cell = r#"{"payload":{"counts":{"data_reads":12,"total_cycles":80000},"ipc":[1.25,0.5],"policy":"ucp"},"spec":{"cores":2,"kind":"sweep","policy":"ucp","scale":"quick","workload":"G2-1"},"sum":"2c82a33daa59c42b"}"#;
        assert_eq!(spec.id(), "fbfbb21172a6a52b");
        std::fs::write(dir.join("cells").join(format!("{}.json", spec.id())), cell).expect("cell");

        let (back, payload) = store.read_cell(&spec.id()).expect("format-2 cell verifies");
        assert_eq!(back, spec);
        assert_eq!(payload.req::<Vec<f64>>("ipc"), Ok(vec![1.25, 0.5]));
        let done = store.verify_cells(&ids(&[&spec])).expect("verify").valid;
        assert_eq!(done, vec![spec.id()]);
        let report = fsck(&dir, false).expect("fsck");
        assert!(report.clean(), "{}", report.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_torn_writes_are_caught_by_resume() {
        let chaos = Arc::new(ChaosEngine::parse("11:torn").expect("chaos"));
        let dir = tmpdir("chaostorn");
        let store = ResultsStore::open(&dir)
            .expect("open")
            .with_chaos(Some(Arc::clone(&chaos)));
        // Write cells until the schedule tears one; the clean reopened
        // store must quarantine exactly the torn ones.
        let specs: Vec<CellSpec> = (0..24)
            .map(|i| CellSpec::sweep(&format!("G2-{i}"), "ucp", 2, "quick"))
            .collect();
        for s in &specs {
            write_one(&store, s);
        }
        let clean = ResultsStore::open(&dir).expect("reopen");
        let all: Vec<String> = specs.iter().map(|s| s.id()).collect();
        let CellAudit {
            valid: done,
            quarantined,
        } = clean.verify_cells(&all).expect("verify");
        assert!(
            done.len() < specs.len(),
            "the torn profile tore something in 24 writes"
        );
        assert!(!done.is_empty(), "and not everything");
        assert_eq!(done.len() + quarantined.len(), specs.len());
        for id in &done {
            assert!(clean.read_cell(id).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
