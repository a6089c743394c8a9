//! The process-wide cell memo: every in-process run, filled at most once
//! per key through a `OnceLock` slot (concurrent requests for a key
//! simulate it once) and `Arc`-shared, so grids that share cells simulate
//! them once. Only `fleet_run::run_cells_local` stores sweep cells; a
//! fleet worker shares its solo baselines only.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// What a memo entry is keyed by; each kind of key holds one payload type.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Key {
    /// A sweep cell's `RunResult`, by the cell's ID.
    Cell(String),
    /// A `SoloResult` by member name, LLC bytes, LLC ways and scale name:
    /// the solo functions take an LLC configuration and may baseline
    /// members the registry does not know (a recorded stream, say).
    Solo(String, u64, usize, &'static str),
}

type Slot = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// The payload under `key`, from `compute` unless the process holds it;
/// the flag is `true` when this call computed it.
pub(crate) fn fetch<T: Any + Send + Sync>(key: Key, compute: impl FnOnce() -> T) -> (Arc<T>, bool) {
    static MEMO: Mutex<BTreeMap<Key, Slot>> = Mutex::new(BTreeMap::new());
    // Unlocked while computing, so different keys compute concurrently.
    let slot = Arc::clone(
        MEMO.lock()
            .expect("a thread panicked holding the cell memo")
            .entry(key)
            .or_default(),
    );
    let mut computed = false;
    let payload = slot.get_or_init(|| {
        computed = true;
        Arc::new(compute())
    });
    let payload = Arc::clone(payload)
        .downcast()
        .expect("each kind of key holds one payload type");
    (payload, computed)
}
