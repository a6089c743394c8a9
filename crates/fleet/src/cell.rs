//! Sweep cells: the independent unit of fleet work.
//!
//! A cell names one simulation the harness knows how to run — a
//! (workload, policy setting, scale) combination, or a solo baseline —
//! without referencing any harness type, so the fleet layer stays a pure
//! orchestration substrate. Cells carry *stable content-hashed IDs*: the
//! same cell always hashes to the same ID across processes, machines and
//! runs and targets, which is what makes reuse (a verified file under a
//! cell's ID is that cell finished) and retry (re-issue the same cell)
//! coherent.

use simkit::json::{self, Value};
use simkit::rng::fnv1a;

/// What kind of simulation a cell asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CellKind {
    /// A full (workload × policy) sweep cell.
    Sweep,
    /// A solo baseline: one member alone in the `cores`-way system's LLC
    /// geometry (IPC-alone / MPKI / CPE-profile source).
    Solo,
}

impl CellKind {
    fn as_str(self) -> &'static str {
        match self {
            CellKind::Sweep => "sweep",
            CellKind::Solo => "solo",
        }
    }

    fn from_str(s: &str) -> Option<CellKind> {
        match s {
            "sweep" => Some(CellKind::Sweep),
            "solo" => Some(CellKind::Solo),
            _ => None,
        }
    }
}

/// One unit of fleet work.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Sweep cell or solo baseline.
    pub kind: CellKind,
    /// Workload spec (group name, ad-hoc mix, `trace:` path) for sweep
    /// cells; the single member name for solo cells.
    pub workload: String,
    /// Policy setting (sweep cells): a registry name, optionally with one
    /// `@KEY=VALUE` knob such as `cooperative@t=0.05`, which the harness
    /// parses. Solo baselines run the fixed solo configuration and keep
    /// this empty.
    pub policy: String,
    /// System core count: the workload's arity for sweep cells, and the
    /// LLC-geometry selector for solo cells.
    pub cores: usize,
    /// Scale preset name.
    pub scale: String,
}

impl CellSpec {
    /// A sweep cell.
    pub fn sweep(workload: &str, policy: &str, cores: usize, scale: &str) -> CellSpec {
        CellSpec {
            kind: CellKind::Sweep,
            workload: workload.to_string(),
            policy: policy.to_string(),
            cores,
            scale: scale.to_string(),
        }
    }

    /// A solo-baseline cell.
    pub fn solo(member: &str, cores: usize, scale: &str) -> CellSpec {
        CellSpec {
            kind: CellKind::Solo,
            workload: member.to_string(),
            policy: String::new(),
            cores,
            scale: scale.to_string(),
        }
    }

    /// The canonical text the ID hashes (also a readable debug label).
    pub fn canonical(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.kind.as_str(),
            self.workload,
            self.policy,
            self.cores,
            self.scale
        )
    }

    /// Stable content-hashed cell ID (16 hex digits of FNV-1a over the
    /// canonical form).
    pub fn id(&self) -> String {
        format!("{:016x}", fnv1a(self.canonical().as_bytes()))
    }

    /// Serializes the spec for the protocol and the store.
    pub fn to_value(&self) -> Value {
        json::obj(vec![
            ("kind", json::str(self.kind.as_str())),
            ("workload", json::str(&self.workload)),
            ("policy", json::str(&self.policy)),
            ("cores", json::num_u64(self.cores as u64)),
            ("scale", json::str(&self.scale)),
        ])
    }

    /// Reads a spec back from JSON.
    pub fn from_value(v: &Value) -> Result<CellSpec, String> {
        let field = |e: String| format!("cell spec: {e}");
        let kind: &str = v.req("kind").map_err(field)?;
        Ok(CellSpec {
            kind: CellKind::from_str(kind).ok_or_else(|| format!("bad cell kind '{kind}'"))?,
            workload: v.req("workload").map_err(field)?,
            policy: v.req("policy").map_err(field)?,
            cores: v.req("cores").map_err(field)?,
            scale: v.req("scale").map_err(field)?,
        })
    }
}

/// Content checksum of a JSON value: 16 hex digits of FNV-1a over its
/// canonical render. The JSON layer keeps object keys in the order they
/// were written (or parsed) and numbers as raw tokens, so parse → render
/// is byte-stable and a checksum taken at write time verifies bit-exactly
/// at read time. Used by the store (cell files) and the
/// protocol (`cell_done` payloads).
pub fn content_sum(v: &Value) -> String {
    format!("{:016x}", fnv1a(v.render().as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_content_addressed() {
        let a = CellSpec::sweep("G2-1", "cooperative", 2, "quick");
        let b = CellSpec::sweep("G2-1", "cooperative", 2, "quick");
        let c = CellSpec::sweep("G2-1", "ucp", 2, "quick");
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_eq!(a.id().len(), 16);
        // Pinned: a changed hash silently orphans every stored result.
        assert_eq!(
            a.id(),
            format!("{:016x}", fnv1a(b"sweep|G2-1|cooperative|2|quick"))
        );
    }

    #[test]
    fn specs_roundtrip_through_json() {
        for spec in [
            CellSpec::sweep("lbm,namd,mcf", "dvfs", 3, "small"),
            CellSpec::solo("soplex", 4, "quick"),
        ] {
            let text = spec.to_value().render();
            let back = CellSpec::from_value(&json::parse(&text).expect("json")).expect("spec");
            assert_eq!(back, spec);
            assert_eq!(back.id(), spec.id());
        }
    }

    #[test]
    fn malformed_specs_error() {
        let v =
            json::parse(r#"{"kind":"nope","workload":"x","policy":"","cores":2,"scale":"quick"}"#)
                .expect("json");
        assert!(CellSpec::from_value(&v).is_err());
        let v = json::parse(r#"{"workload":"x"}"#).expect("json");
        assert!(CellSpec::from_value(&v).unwrap_err().contains("kind"));
    }
}
