//! # simkit — simulation kernel
//!
//! Foundation types shared by every crate in the Cooperative Partitioning
//! reproduction: strongly-typed cycles and core identifiers, deterministic
//! seeded random-number streams, statistics primitives (counters,
//! bucketed time series), plain-text table rendering used by the
//! experiment harness, and the one JSON layer ([`json`]: objects in
//! insertion order, numbers as lossless raw tokens) that every
//! machine-readable output and the fleet's protocol and store go through.
//!
//! The simulator is fully deterministic: all randomness flows through
//! [`rng::DetRng`] streams derived from a root seed, so the same configuration
//! always produces bit-identical results.
//!
//! ```
//! use simkit::types::{CoreId, Cycle};
//!
//! let c = Cycle(100);
//! assert_eq!(c + 15, Cycle(115));
//! assert_eq!(CoreId(1).index(), 1);
//! ```

pub mod json;
pub mod rng;
pub mod stats;
pub mod table;
pub mod types;

pub use rng::{Bernoulli, DetRng, UniformBelow, WeightedIndex};
pub use stats::{geometric_mean, quantile, Counter, TimeSeries};
pub use types::{CoreId, Cycle};
