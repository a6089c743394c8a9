//! RAP/WAP access-permission registers (paper Section 2.2, Figure 3).
//!
//! Every LLC way carries a read-access-permission (RAP) register and a
//! write-access-permission (WAP) register, each holding one bit per core:
//!
//! * RAP set + WAP set — the core fully owns the way;
//! * RAP set + WAP clear — read-only: the core is *donating* the way;
//! * both clear — no access; a way with no bits set in either register for
//!   any core can be power-gated.
//!
//! Invariants (checked by [`PermissionFile::check_invariants`]):
//! at most one core has write permission to a way at any time; outside a
//! transition at most one core has read permission; during a transition
//! exactly two cores can read (the donor read-only, the recipient
//! read+write).

use memsim::WayMask;
use simkit::types::CoreId;

/// A core's mode of access to one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// RAP and WAP set.
    ReadWrite,
    /// Only RAP set (donor during a transition).
    ReadOnly,
    /// Neither set.
    None,
}

/// The RAP/WAP register file: one pair of per-core bit vectors per way.
///
/// Beside the per-way registers, the file maintains the *transposed* view —
/// one way-mask per core for each of read and write permission — updated
/// incrementally on every grant/revoke. The per-access probe path reads
/// those masks in O(1) instead of re-deriving them from the registers on
/// every demand access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermissionFile {
    /// `rap[way]` bit `c` = core `c` may read the way.
    rap: Vec<u8>,
    /// `wap[way]` bit `c` = core `c` may write the way.
    wap: Vec<u8>,
    /// Transposed RAP: `read_masks[c]` bit `w` = core `c` may read way `w`.
    read_masks: [u64; 8],
    /// Transposed WAP.
    write_masks: [u64; 8],
    cores: usize,
}

impl PermissionFile {
    /// Creates a file for `ways` ways and `cores` cores, all permissions
    /// clear (every way unowned/off).
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds 8 (register width) or is zero.
    pub fn new(ways: usize, cores: usize) -> PermissionFile {
        assert!((1..=8).contains(&cores));
        PermissionFile {
            rap: vec![0; ways],
            wap: vec![0; ways],
            read_masks: [0; 8],
            write_masks: [0; 8],
            cores,
        }
    }

    /// Number of ways covered.
    pub fn ways(&self) -> usize {
        self.rap.len()
    }

    /// Number of cores covered.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Grants full (read+write) access to `core` on `way`.
    pub fn grant_full(&mut self, way: usize, core: CoreId) {
        self.rap[way] |= core.bit();
        self.wap[way] |= core.bit();
        self.read_masks[core.index()] |= 1 << way;
        self.write_masks[core.index()] |= 1 << way;
    }

    /// Revokes write permission (the donor's state during takeover).
    pub fn revoke_write(&mut self, way: usize, core: CoreId) {
        self.wap[way] &= !core.bit();
        self.write_masks[core.index()] &= !(1u64 << way);
    }

    /// Revokes read permission (completes a takeover).
    pub fn revoke_read(&mut self, way: usize, core: CoreId) {
        self.rap[way] &= !core.bit();
        self.read_masks[core.index()] &= !(1u64 << way);
    }

    /// Clears both registers for all cores on `way` (before gating it).
    pub fn clear_way(&mut self, way: usize) {
        self.rap[way] = 0;
        self.wap[way] = 0;
        for c in 0..self.cores {
            self.read_masks[c] &= !(1u64 << way);
            self.write_masks[c] &= !(1u64 << way);
        }
    }

    /// `core`'s access mode on `way`.
    pub fn mode(&self, way: usize, core: CoreId) -> AccessMode {
        let r = self.rap[way] & core.bit() != 0;
        let w = self.wap[way] & core.bit() != 0;
        match (r, w) {
            (true, true) => AccessMode::ReadWrite,
            (true, false) => AccessMode::ReadOnly,
            // WAP without RAP is never produced by the protocol; treat as
            // no access defensively.
            _ => AccessMode::None,
        }
    }

    /// Mask of ways `core` may read (its tag-probe mask — the source of the
    /// scheme's dynamic energy savings). O(1): maintained incrementally.
    #[inline]
    pub fn read_mask(&self, core: CoreId) -> WayMask {
        WayMask(self.read_masks[core.index()])
    }

    /// Mask of ways `core` may write (its fill/victim mask). O(1).
    #[inline]
    pub fn write_mask(&self, core: CoreId) -> WayMask {
        WayMask(self.write_masks[core.index()])
    }

    /// The single full owner of `way`, if any.
    pub fn full_owner(&self, way: usize) -> Option<CoreId> {
        let both = self.rap[way] & self.wap[way];
        (both != 0).then(|| CoreId(both.trailing_zeros() as u8))
    }

    /// True when no core can access `way` (it may be power-gated).
    pub fn is_unowned(&self, way: usize) -> bool {
        self.rap[way] == 0 && self.wap[way] == 0
    }

    /// The way's donor during a transition: a core with read-only access
    /// while another holds read+write.
    pub fn donor_of(&self, way: usize) -> Option<CoreId> {
        let readers = self.rap[way];
        let writers = self.wap[way];
        let read_only = readers & !writers;
        (read_only != 0 && writers != 0).then(|| CoreId(read_only.trailing_zeros() as u8))
    }

    /// Checks the paper's permission invariants, returning a description of
    /// the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for way in 0..self.ways() {
            let writers = self.wap[way].count_ones();
            if writers > 1 {
                return Err(format!("way {way}: {writers} cores hold write permission"));
            }
            let readers = self.rap[way].count_ones();
            if readers > 2 {
                return Err(format!("way {way}: {readers} cores hold read permission"));
            }
            if readers == 2 && writers == 0 {
                return Err(format!("way {way}: two readers but no writer"));
            }
            if self.wap[way] & !self.rap[way] != 0 {
                return Err(format!("way {way}: write permission without read"));
            }
        }
        // The transposed per-core masks must agree with the registers.
        for c in 0..self.cores {
            let bit = CoreId(c as u8).bit();
            let mut r = 0u64;
            let mut w = 0u64;
            for way in 0..self.ways() {
                if self.rap[way] & bit != 0 {
                    r |= 1 << way;
                }
                if self.wap[way] & bit != 0 {
                    w |= 1 << way;
                }
            }
            if r != self.read_masks[c] || w != self.write_masks[c] {
                return Err(format!("core {c}: transposed permission masks out of sync"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_transition_sequence() {
        // Figure 3: 4 ways, 2 cores; way 2 moves from core 1 to core 0.
        let mut p = PermissionFile::new(4, 2);
        p.grant_full(0, CoreId(0));
        p.grant_full(1, CoreId(0));
        p.grant_full(2, CoreId(1));
        p.grant_full(3, CoreId(1));
        assert!(p.check_invariants().is_ok());
        assert_eq!(p.full_owner(2), Some(CoreId(1)));

        // Transition begins: core 0 gains R+W, core 1 loses W.
        p.grant_full(2, CoreId(0));
        p.revoke_write(2, CoreId(1));
        assert!(p.check_invariants().is_ok());
        assert_eq!(p.mode(2, CoreId(1)), AccessMode::ReadOnly);
        assert_eq!(p.mode(2, CoreId(0)), AccessMode::ReadWrite);
        assert_eq!(p.donor_of(2), Some(CoreId(1)));
        assert_eq!(p.full_owner(2), Some(CoreId(0)));

        // Transition ends: core 1 loses R too.
        p.revoke_read(2, CoreId(1));
        assert!(p.check_invariants().is_ok());
        assert_eq!(p.mode(2, CoreId(1)), AccessMode::None);
        assert_eq!(p.donor_of(2), None);
        assert_eq!(p.read_mask(CoreId(0)).count(), 3);
        assert_eq!(p.read_mask(CoreId(1)).count(), 1);
    }

    #[test]
    fn masks_reflect_registers() {
        let mut p = PermissionFile::new(8, 2);
        for w in 0..4 {
            p.grant_full(w, CoreId(0));
        }
        for w in 4..6 {
            p.grant_full(w, CoreId(1));
        }
        assert_eq!(p.read_mask(CoreId(0)), WayMask(0b0000_1111));
        assert_eq!(p.write_mask(CoreId(1)), WayMask(0b0011_0000));
        assert!(p.is_unowned(6) && p.is_unowned(7));
    }

    #[test]
    fn invariants_catch_double_writers() {
        let mut p = PermissionFile::new(2, 2);
        p.grant_full(0, CoreId(0));
        p.grant_full(0, CoreId(1)); // illegal: two writers
        assert!(p.check_invariants().is_err());
    }

    #[test]
    fn clear_way_prepares_gating() {
        let mut p = PermissionFile::new(2, 2);
        p.grant_full(1, CoreId(1));
        p.clear_way(1);
        assert!(p.is_unowned(1));
        assert_eq!(p.mode(1, CoreId(1)), AccessMode::None);
    }
}
