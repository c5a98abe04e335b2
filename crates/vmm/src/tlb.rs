//! A set-associative TLB model.
//!
//! The paper names increased TLB pressure as one of its two overhead sources
//! (each object gets its own virtual page, so the working set in *pages*
//! grows even though the working set in *bytes* does not). The simulator
//! models a classic set-associative, LRU-replaced TLB; the Table 1/3
//! harnesses read its hit/miss counters to reproduce the paper's overhead
//! decomposition, and the ablation bench sweeps its geometry (the paper's
//! §6 future work proposes architectural TLB changes).

use crate::lru::RecencySets;

/// Geometry of the simulated TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total number of entries. Must be a multiple of `ways`.
    pub entries: usize,
    /// Associativity. `entries / ways` sets are indexed by VPN low bits.
    pub ways: usize,
}

impl TlbConfig {
    /// A 64-entry 4-way TLB, typical of the paper's era (Pentium 4 / Xeon
    /// D-TLB was 64-entry fully associative; 4-way is a close, cheaper
    /// stand-in).
    pub const fn default_config() -> TlbConfig {
        TlbConfig { entries: 64, ways: 4 }
    }
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig::default_config()
    }
}

/// A set-associative, LRU-replaced translation lookaside buffer.
///
/// The TLB caches *translations only*; protection changes and unmappings
/// must invalidate affected entries (the machine does this on `mprotect` /
/// `munmap`, mirroring the TLB shootdown the real kernel performs).
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    sets: RecencySets,
}

impl Tlb {
    /// Creates a TLB with the given geometry.
    ///
    /// # Panics
    /// Panics if `entries` is zero, `ways` is zero, or `entries` is not a
    /// multiple of `ways`.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.entries > 0 && config.ways > 0, "TLB must be non-empty");
        assert!(
            config.entries.is_multiple_of(config.ways),
            "TLB entries must be a multiple of ways"
        );
        Tlb { config, sets: RecencySets::new(config.entries / config.ways, config.ways) }
    }

    /// Looks up `vpn`, updating LRU state and counters. Returns `true` on a
    /// hit. On a miss the entry is filled (replacing the LRU way).
    #[inline]
    pub fn access(&mut self, vpn: u64) -> bool {
        self.sets.access(vpn)
    }

    /// Invalidates the entry for `vpn` if cached (TLB shootdown for one
    /// page, as after `mprotect`/`munmap`).
    pub fn invalidate(&mut self, vpn: u64) {
        self.sets.invalidate(vpn);
    }

    /// Invalidates everything (full flush).
    pub fn flush(&mut self) {
        self.sets.flush();
    }

    /// Number of lookups that hit.
    pub fn hits(&self) -> u64 {
        self.sets.hits()
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.sets.misses()
    }

    /// The TLB geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }
}

impl Default for Tlb {
    fn default() -> Tlb {
        Tlb::new(TlbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut tlb = Tlb::default();
        assert!(!tlb.access(42));
        assert!(tlb.access(42));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        // 4 entries, 2 ways => 2 sets. VPNs 0,2,4 all land in set 0.
        let mut tlb = Tlb::new(TlbConfig { entries: 4, ways: 2 });
        tlb.access(0);
        tlb.access(2);
        tlb.access(0); // refresh 0; 2 becomes LRU
        tlb.access(4); // evicts 2
        assert!(tlb.access(0), "0 should survive");
        assert!(!tlb.access(2), "2 should have been evicted");
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut tlb = Tlb::default();
        tlb.access(7);
        tlb.invalidate(7);
        assert!(!tlb.access(7));
    }

    #[test]
    fn flush_clears_everything() {
        let mut tlb = Tlb::default();
        for v in 0..16 {
            tlb.access(v);
        }
        tlb.flush();
        assert!(!tlb.access(3));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut tlb = Tlb::new(TlbConfig { entries: 4, ways: 2 });
        // Set 0: vpn 0,2; set 1: vpn 1,3. Filling set 1 must not evict set 0.
        tlb.access(0);
        tlb.access(1);
        tlb.access(3);
        tlb.access(5);
        assert!(tlb.access(0));
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig { entries: 6, ways: 4 });
    }

    #[test]
    fn more_pages_than_entries_thrash() {
        // Working set of 128 distinct pages through a 64-entry TLB with a
        // cyclic scan never hits — the pathology the paper's scheme induces
        // for allocation-intensive code (one object per page).
        let mut tlb = Tlb::new(TlbConfig { entries: 64, ways: 4 });
        let mut hits = 0;
        for round in 0..4 {
            for v in 0..128u64 {
                if tlb.access(v * 16) && round > 0 {
                    hits += 1;
                }
            }
        }
        assert_eq!(tlb.hits(), hits);
        assert_eq!(hits, 0, "cyclic scan over 2x capacity should never hit");
    }
}
