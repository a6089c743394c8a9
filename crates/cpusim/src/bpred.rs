//! Gshare branch predictor with a branch target buffer.
//!
//! Matches the paper's front end: gshare direction prediction plus a
//! 1024-entry 4-way BTB; a wrong direction or a taken branch that misses in
//! the BTB costs the (minimum) 10-cycle redirect penalty applied by the core.

use simkit::Counter;

/// Direction/target prediction statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct BranchStats {
    /// Branches observed.
    pub branches: Counter,
    /// Redirects (direction mispredictions or BTB misses on taken branches).
    pub mispredictions: Counter,
}

impl BranchStats {
    /// Mispredictions per observed branch (not per kilo-instruction).
    pub fn mispredict_ratio(&self) -> f64 {
        let b = self.branches.get();
        if b == 0 {
            0.0
        } else {
            self.mispredictions.get() as f64 / b as f64
        }
    }
}

/// The 2-bit saturating counter's next state, indexed by
/// `(counter << 1) | taken`: a table load instead of a branch on the
/// (random) outcome.
const NEXT_COUNTER: [u8; 8] = [0, 1, 0, 2, 1, 3, 2, 3];

/// Gshare predictor: global history XOR PC indexing a table of 2-bit
/// saturating counters, plus a 4-way set-associative BTB.
///
/// The PHT packs four 2-bit counters per byte (the paper's 4096-entry table
/// is 1 KiB), keeping the whole direction table L1-resident on the host.
#[derive(Debug, Clone)]
pub struct Gshare {
    history: u64,
    history_bits: u32,
    /// Packed PHT: counter `i` lives in bits `(i % 4) * 2 ..` of byte `i / 4`.
    pht: Vec<u8>,
    /// Number of 2-bit counters (a power of two; `pht.len() * 4`).
    pht_entries: usize,
    btb_tags: Vec<u64>, // [set * assoc + way]
    btb_sets: usize,
    btb_assoc: usize,
    btb_next: Vec<u8>, // round-robin fill pointer per set
    stats: BranchStats,
}

impl Gshare {
    /// Creates a predictor with `pht_bits` of gshare index (table size
    /// `2^pht_bits`) and a `btb_entries`-entry, `btb_assoc`-way BTB.
    ///
    /// # Panics
    ///
    /// Panics if `btb_entries` is not divisible by `btb_assoc`.
    pub fn new(pht_bits: u32, btb_entries: usize, btb_assoc: usize) -> Gshare {
        assert!(btb_assoc > 0 && btb_entries.is_multiple_of(btb_assoc));
        let btb_sets = btb_entries / btb_assoc;
        let pht_entries = 1usize << pht_bits;
        Gshare {
            history: 0,
            history_bits: pht_bits.min(16),
            // All counters start weakly taken (0b10 in every 2-bit lane).
            pht: vec![0b1010_1010; pht_entries.div_ceil(4)],
            pht_entries,
            btb_tags: vec![u64::MAX; btb_entries],
            btb_sets,
            btb_assoc,
            btb_next: vec![0; btb_sets],
            stats: BranchStats::default(),
        }
    }

    /// The paper's configuration: 4096-entry PHT, 1024-entry 4-way BTB.
    pub fn paper_default() -> Gshare {
        Gshare::new(12, 1024, 4)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BranchStats {
        &self.stats
    }

    /// Observes a branch: predicts, updates state, and reports whether the
    /// front end must redirect (misprediction).
    pub fn observe(&mut self, pc: u64, taken: bool) -> bool {
        self.stats.branches.inc();
        let mask = (self.pht_entries - 1) as u64;
        let idx = (((pc >> 2) ^ self.history) & mask) as usize;
        let shift = (idx & 3) * 2;
        let byte = &mut self.pht[idx >> 2];
        let ctr = (*byte >> shift) & 0b11;
        let predicted_taken = ctr >= 2;
        // 2-bit saturating update within the packed lane.
        let updated = NEXT_COUNTER[((ctr << 1) | taken as u8) as usize];
        *byte = (*byte & !(0b11 << shift)) | (updated << shift);
        // Global history update.
        self.history = ((self.history << 1) | taken as u64) & ((1 << self.history_bits) - 1);

        let dir_wrong = predicted_taken != taken;
        let target_unknown = taken && !self.btb_lookup_insert(pc);
        let mispredict = dir_wrong || target_unknown;
        self.stats.mispredictions.add(mispredict as u64);
        mispredict
    }

    /// Returns true on BTB hit; inserts the branch on a miss.
    fn btb_lookup_insert(&mut self, pc: u64) -> bool {
        let set = ((pc >> 2) as usize) & (self.btb_sets - 1);
        let base = set * self.btb_assoc;
        let tag = pc >> 2;
        // OR every way's compare, then branch once on the set-wide result.
        let hit = self.btb_tags[base..base + self.btb_assoc]
            .iter()
            .fold(false, |hit, &t| hit | (t == tag));
        if hit {
            return true;
        }
        let way = self.btb_next[set] as usize % self.btb_assoc;
        self.btb_tags[base + way] = tag;
        self.btb_next[set] = self.btb_next[set].wrapping_add(1);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_table_is_the_saturating_update() {
        for ctr in 0u8..4 {
            for taken in [false, true] {
                let arithmetic = if taken {
                    (ctr + 1).min(3)
                } else {
                    ctr.saturating_sub(1)
                };
                assert_eq!(
                    NEXT_COUNTER[((ctr << 1) | taken as u8) as usize],
                    arithmetic,
                    "counter {ctr}, taken {taken}"
                );
            }
        }
    }

    #[test]
    fn learns_always_taken_branch() {
        let mut g = Gshare::paper_default();
        // Warm up: first observation may mispredict (BTB cold).
        for _ in 0..8 {
            g.observe(0x400, true);
        }
        let before = g.stats().mispredictions.get();
        for _ in 0..100 {
            g.observe(0x400, true);
        }
        assert_eq!(
            g.stats().mispredictions.get(),
            before,
            "steady always-taken branch should be perfectly predicted"
        );
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut g = Gshare::paper_default();
        for i in 0..64 {
            g.observe(0x800, i % 2 == 0);
        }
        let before = g.stats().mispredictions.get();
        for i in 0..100 {
            g.observe(0x800, i % 2 == 0);
        }
        let new = g.stats().mispredictions.get() - before;
        assert!(new <= 5, "history should capture alternation, got {new}");
    }

    #[test]
    fn random_branches_mispredict_often() {
        let mut g = Gshare::paper_default();
        let mut x = 0x12345678u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            g.observe(0x900 + ((x >> 60) << 2), (x >> 33) & 1 == 1);
        }
        let rate = g.stats().mispredict_ratio();
        assert!(rate > 0.25, "random outcomes should hurt: rate={rate}");
    }

    #[test]
    fn not_taken_branches_never_need_btb() {
        let mut g = Gshare::new(4, 8, 4);
        // Saturate toward not-taken first.
        for _ in 0..4 {
            g.observe(0x100, false);
        }
        let before = g.stats().mispredictions.get();
        for _ in 0..50 {
            g.observe(0x100, false);
        }
        assert_eq!(g.stats().mispredictions.get(), before);
    }

    #[test]
    fn btb_capacity_evictions_cause_redirects() {
        let mut g = Gshare::new(12, 8, 4); // tiny BTB: 2 sets x 4 ways
                                           // 16 distinct always-taken branches thrash the BTB.
        for round in 0..20 {
            for b in 0..16u64 {
                g.observe(0x1000 + b * 8, true);
            }
            if round == 0 {
                // after warmup direction is learned; later redirects are BTB.
            }
        }
        assert!(g.stats().mispredictions.get() > 16, "BTB thrash must show");
    }
}
