//! The paper's workload groupings (Table 4).

use crate::spec::Benchmark;

/// A named multiprogrammed workload group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadGroup {
    /// Group name as in Table 4 (e.g. "G2-1").
    pub name: String,
    /// The benchmarks, one per core (index = core id).
    pub benchmarks: Vec<Benchmark>,
}

impl WorkloadGroup {
    fn new(name: &str, benchmarks: &[Benchmark]) -> WorkloadGroup {
        WorkloadGroup {
            name: name.to_string(),
            benchmarks: benchmarks.to_vec(),
        }
    }

    /// Number of cores this group occupies.
    pub fn cores(&self) -> usize {
        self.benchmarks.len()
    }
}

impl std::fmt::Display for WorkloadGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (", self.name)?;
        for (i, b) in self.benchmarks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, ")")
    }
}

/// Table 4's 14 two-application workloads.
pub fn two_core_groups() -> Vec<WorkloadGroup> {
    use Benchmark::*;
    vec![
        WorkloadGroup::new("G2-1", &[Soplex, Namd]),
        WorkloadGroup::new("G2-2", &[Soplex, Milc]),
        WorkloadGroup::new("G2-3", &[Gobmk, H264ref]),
        WorkloadGroup::new("G2-4", &[Lbm, Povray]),
        WorkloadGroup::new("G2-5", &[Gobmk, Perlbench]),
        WorkloadGroup::new("G2-6", &[Lbm, Bzip2]),
        WorkloadGroup::new("G2-7", &[Lbm, Astar]),
        WorkloadGroup::new("G2-8", &[Lbm, Soplex]),
        WorkloadGroup::new("G2-9", &[Soplex, DealII]),
        WorkloadGroup::new("G2-10", &[Sjeng, Calculix]),
        WorkloadGroup::new("G2-11", &[Sjeng, Xalan]),
        WorkloadGroup::new("G2-12", &[Soplex, Gcc]),
        WorkloadGroup::new("G2-13", &[Sjeng, Povray]),
        WorkloadGroup::new("G2-14", &[Gobmk, Omnetpp]),
    ]
}

/// Table 4's 14 four-application workloads.
pub fn four_core_groups() -> Vec<WorkloadGroup> {
    use Benchmark::*;
    vec![
        WorkloadGroup::new("G4-1", &[Gobmk, Gcc, Perlbench, Xalan]),
        WorkloadGroup::new("G4-2", &[Sjeng, Lbm, Calculix, Omnetpp]),
        WorkloadGroup::new("G4-3", &[DealII, Sjeng, Soplex, Namd]),
        WorkloadGroup::new("G4-4", &[Soplex, Sjeng, H264ref, Astar]),
        WorkloadGroup::new("G4-5", &[Lbm, Libquantum, Gromacs, Mcf]),
        WorkloadGroup::new("G4-6", &[Gobmk, Libquantum, Namd, Perlbench]),
        WorkloadGroup::new("G4-7", &[Lbm, Sjeng, Povray, Omnetpp]),
        WorkloadGroup::new("G4-8", &[Lbm, Soplex, H264ref, DealII]),
        WorkloadGroup::new("G4-9", &[Lbm, Xalan, Milc, Soplex]),
        WorkloadGroup::new("G4-10", &[Sjeng, Povray, Milc, Gobmk]),
        WorkloadGroup::new("G4-11", &[Gobmk, Libquantum, H264ref, Gromacs]),
        WorkloadGroup::new("G4-12", &[Soplex, Astar, Omnetpp, Milc]),
        WorkloadGroup::new("G4-13", &[Soplex, Gcc, Libquantum, Xalan]),
        WorkloadGroup::new("G4-14", &[Soplex, Bzip2, Astar, Milc]),
    ]
}

/// Eight-core extension groups (beyond the paper, which stops at four
/// cores; the takeover bit-vector and permission-file structures support
/// eight). Built from the same 19 models following the paper's Section 3.2
/// recipe: every group carries at least one high-MPKI (> 5) application,
/// and the mixes span streaming-heavy, medium working-set, code-footprint
/// and mostly-cache-friendly compositions.
pub fn eight_core_groups() -> Vec<WorkloadGroup> {
    use Benchmark::*;
    vec![
        WorkloadGroup::new(
            "G8-1",
            &[Lbm, Soplex, Gobmk, Sjeng, Namd, Povray, Gromacs, Omnetpp],
        ),
        WorkloadGroup::new(
            "G8-2",
            &[Soplex, Gcc, Astar, Bzip2, Mcf, Perlbench, H264ref, DealII],
        ),
        WorkloadGroup::new(
            "G8-3",
            &[
                Lbm, Libquantum, Milc, Calculix, Xalan, Namd, Povray, Gromacs,
            ],
        ),
        WorkloadGroup::new(
            "G8-4",
            &[Gobmk, Sjeng, Perlbench, Xalan, Gcc, Omnetpp, H264ref, Namd],
        ),
        WorkloadGroup::new(
            "G8-5",
            &[Lbm, Soplex, Mcf, Libquantum, Astar, Bzip2, Gcc, Calculix],
        ),
        WorkloadGroup::new(
            "G8-6",
            &[Sjeng, Gobmk, Milc, DealII, Povray, Omnetpp, Gromacs, Namd],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_groups_each() {
        assert_eq!(two_core_groups().len(), 14);
        assert_eq!(four_core_groups().len(), 14);
    }

    #[test]
    fn eight_core_groups_are_well_formed() {
        let groups = eight_core_groups();
        assert_eq!(groups.len(), 6);
        for g in &groups {
            assert_eq!(g.cores(), 8, "{}", g.name);
            assert!(g.name.starts_with("G8-"), "{}", g.name);
            assert!(
                g.benchmarks.iter().any(|b| b.paper_mpki() > 5.0),
                "{} lacks a high-MPKI member",
                g.name
            );
            // No duplicate applications within a group.
            let mut seen = g.benchmarks.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 8, "{} repeats a benchmark", g.name);
        }
    }

    #[test]
    fn group_arities() {
        assert!(two_core_groups().iter().all(|g| g.cores() == 2));
        assert!(four_core_groups().iter().all(|g| g.cores() == 4));
    }

    #[test]
    fn every_two_core_group_has_a_high_mpki_member() {
        // Paper Section 3.2: at least one MPKI > 5 program per 2-core group.
        for g in two_core_groups() {
            assert!(
                g.benchmarks.iter().any(|b| b.paper_mpki() > 5.0),
                "{} lacks a high-MPKI member",
                g.name
            );
        }
    }

    #[test]
    fn every_four_core_group_has_a_high_member() {
        // Paper Section 3.2 claims one high + one medium per 4-core group,
        // but Table 4 itself violates the medium rule (e.g. G4-3 is
        // dealII/sjeng/soplex/namd). We reproduce the table verbatim and
        // check only the high-MPKI property, which does hold everywhere.
        for g in four_core_groups() {
            assert!(
                g.benchmarks.iter().any(|b| b.paper_mpki() > 5.0),
                "{} lacks high",
                g.name
            );
        }
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(two_core_groups()[0].name, "G2-1");
        assert_eq!(four_core_groups()[13].name, "G4-14");
        let g = &two_core_groups()[7];
        assert_eq!(g.to_string(), "G2-8 (lbm, soplex)");
    }
}
