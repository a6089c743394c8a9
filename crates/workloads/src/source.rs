//! The workload-source abstraction: anything that can stream instructions
//! into a core, behind one factory trait.
//!
//! A [`WorkloadFactory`] is a *named, reusable recipe* for one core's
//! instruction stream — instantiating it any number of times (with
//! different seeds) yields independent [`WorkloadSource`]s. The two
//! built-in factories are [`SyntheticWorkload`] (one of the 19 generative
//! SPEC models) and [`TraceWorkload`] (a recorded stream, such as a
//! `.ctrace` file, replayed from its packed records with
//! rewind-on-exhaustion). Downstream crates add new workload kinds by
//! implementing the trait and registering the factory in a
//! [`crate::WorkloadRegistry`] — no harness edits required, mirroring how
//! `PartitionPolicy` objects plug into the policy registry.
//!
//! A factory hands out a stream in two forms. [`WorkloadFactory::source`]
//! boxes it behind a trait object, which is all a plug-in implements.
//! [`WorkloadFactory::stream`] returns a [`StreamSource`], the closed enum
//! the simulator's cores run on: the built-in factories override it with
//! their concrete generators, so the per-instruction call is a match
//! instead of a virtual call, and any other factory falls back to its
//! boxed source.

use std::sync::Arc;

use cpusim::trace::{PackedTrace, TraceSource};
use cpusim::{Instr, InstrSource};

use crate::generator::SyntheticSource;
use crate::spec::Benchmark;

/// A ready-to-run instruction stream for one core.
pub type WorkloadSource = Box<dyn InstrSource + Send>;

/// A ready-to-run instruction stream for one core, statically dispatched
/// for the built-in kinds.
///
/// The generator is held inline, not boxed: there is one stream per core
/// and the core reads it on every dispatch, so its size costs nothing and
/// a pointer chase would.
#[allow(clippy::large_enum_variant)]
pub enum StreamSource {
    /// A synthetic SPEC model's generator.
    Synthetic(SyntheticSource),
    /// A replay of packed records: a `.ctrace` file or a recording.
    Trace(TraceSource),
    /// Any other source, behind a trait object.
    Boxed(WorkloadSource),
}

impl std::fmt::Debug for StreamSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamSource::Synthetic(s) => f.debug_tuple("Synthetic").field(s).finish(),
            StreamSource::Trace(t) => f.debug_tuple("Trace").field(t).finish(),
            StreamSource::Boxed(_) => f.write_str("Boxed(..)"),
        }
    }
}

impl InstrSource for StreamSource {
    #[inline]
    fn next_instr(&mut self) -> Instr {
        match self {
            StreamSource::Synthetic(s) => s.next_instr(),
            StreamSource::Trace(t) => t.next_instr(),
            StreamSource::Boxed(b) => b.next_instr(),
        }
    }
}

/// A named recipe producing per-core instruction streams.
pub trait WorkloadFactory: Send + Sync {
    /// Registry key / display name (e.g. `"soplex"`, `"trace:foo.ctrace"`).
    fn name(&self) -> &str;

    /// One-line description for listings.
    fn summary(&self) -> String;

    /// Instantiates a fresh stream. `seed` decorrelates random components
    /// across cores while keeping runs reproducible; deterministic sources
    /// (e.g. traces) may ignore it.
    fn source(&self, seed: u64) -> WorkloadSource;

    /// The same stream as [`WorkloadFactory::source`] at `seed`, as a
    /// [`StreamSource`]. The default boxes [`WorkloadFactory::source`];
    /// factories with a concrete built-in source override it.
    fn stream(&self, seed: u64) -> StreamSource {
        StreamSource::Boxed(self.source(seed))
    }
}

/// Factory for one of the 19 synthetic SPEC CPU2006 benchmark models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticWorkload {
    benchmark: Benchmark,
}

impl SyntheticWorkload {
    /// Wraps a benchmark model.
    pub fn new(benchmark: Benchmark) -> SyntheticWorkload {
        SyntheticWorkload { benchmark }
    }

    /// The benchmark behind this factory.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }
}

impl WorkloadFactory for SyntheticWorkload {
    fn name(&self) -> &str {
        self.benchmark.name()
    }

    fn summary(&self) -> String {
        format!(
            "synthetic SPEC model (paper MPKI {:.2})",
            self.benchmark.paper_mpki()
        )
    }

    fn source(&self, seed: u64) -> WorkloadSource {
        Box::new(SyntheticSource::new(self.benchmark.model(), seed))
    }

    fn stream(&self, seed: u64) -> StreamSource {
        StreamSource::Synthetic(SyntheticSource::new(self.benchmark.model(), seed))
    }
}

/// Factory replaying a recorded instruction stream, such as a `.ctrace`
/// file (see `cpusim::trace` for the file format and the packed store).
/// The packed records are shared across instances; each source rewinds to
/// the first record on exhaustion, so the stream is infinite.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: String,
    trace: Arc<PackedTrace>,
}

impl TraceWorkload {
    /// Packs a record sequence under `name` (conventionally
    /// `"trace:<path>"`); the `Vec` is dropped once packed.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence — validate with
    /// `cpusim::trace::parse_trace` first, which rejects empty traces.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> TraceWorkload {
        TraceWorkload::packed(name, instrs.into_iter().collect())
    }

    /// Wraps an already-packed store under `name`, such as one
    /// `cpusim::trace::load_trace` filled.
    ///
    /// # Panics
    ///
    /// Panics on an empty store.
    pub fn packed(name: impl Into<String>, trace: PackedTrace) -> TraceWorkload {
        assert!(!trace.is_empty(), "a trace workload needs >= 1 record");
        TraceWorkload {
            name: name.into(),
            trace: Arc::new(trace),
        }
    }

    /// Records in one pass of the trace.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Always false: construction rejects empty traces.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A fresh replay from the first record.
    fn replay(&self) -> TraceSource {
        TraceSource::new(Arc::clone(&self.trace)).expect("non-empty by construction")
    }
}

impl WorkloadFactory for TraceWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn summary(&self) -> String {
        format!("trace replay, {} records/pass (rewinds)", self.trace.len())
    }

    fn source(&self, _seed: u64) -> WorkloadSource {
        Box::new(self.replay())
    }

    fn stream(&self, _seed: u64) -> StreamSource {
        StreamSource::Trace(self.replay())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_factory_matches_direct_construction() {
        let f = SyntheticWorkload::new(Benchmark::Soplex);
        assert_eq!(f.name(), "soplex");
        assert_eq!(f.benchmark(), Benchmark::Soplex);
        let mut via_factory = f.source(0x5EED);
        let mut direct = SyntheticSource::new(Benchmark::Soplex.model(), 0x5EED);
        for _ in 0..500 {
            assert_eq!(via_factory.next_instr(), direct.next_instr());
        }
    }

    #[test]
    fn trace_factory_replays_and_rewinds() {
        let records = vec![Instr::load(0x400, 0x1000), Instr::alu(0x404)];
        let f = TraceWorkload::new("trace:mini", records.clone());
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert!(f.summary().contains("2 records"));
        let mut src = f.source(123);
        for _ in 0..3 {
            assert_eq!(src.next_instr(), records[0]);
            assert_eq!(src.next_instr(), records[1]);
        }
    }

    #[test]
    #[should_panic]
    fn empty_trace_factory_panics() {
        TraceWorkload::new("trace:empty", Vec::new());
    }
}
