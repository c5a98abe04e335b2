//! A physically-indexed L1 data-cache model.
//!
//! One of the paper's practical strengths (§1, §3.1) is that the detector
//! does **not** change cache behaviour: multiple objects stay contiguous in
//! the *physical* page, so a physically-indexed cache sees the same layout
//! as the unprotected program. In contrast, Electric Fence's
//! object-per-physical-page layout destroys spatial locality. Modelling the
//! cache by *physical* line address lets the benchmarks demonstrate both
//! effects honestly.

use crate::lru::RecencySets;

/// Geometry of the simulated L1 data cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache line size in bytes (power of two).
    pub line_size: usize,
    /// Total number of lines. Must be a multiple of `ways`.
    pub lines: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// 16 KiB, 64-byte lines, 4-way — close to the paper-era Xeon L1D.
    pub const fn default_config() -> CacheConfig {
        CacheConfig { line_size: 64, lines: 256, ways: 4 }
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::default_config()
    }
}

/// A set-associative, LRU-replaced, physically-indexed data cache.
///
/// Accesses are keyed by *physical* byte address: `(frame, offset)` pairs
/// flattened by the machine. Aliased virtual pages therefore share cache
/// lines, exactly as on real physically-indexed hardware.
#[derive(Clone, Debug)]
pub struct L1Cache {
    config: CacheConfig,
    /// `log2(line_size)`, precomputed so the hot path shifts instead of
    /// dividing.
    line_shift: u32,
    sets: RecencySets,
}

impl L1Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sizes, `lines` not a
    /// multiple of `ways`, or `line_size` not a power of two).
    pub fn new(config: CacheConfig) -> L1Cache {
        assert!(config.line_size.is_power_of_two(), "line size must be a power of two");
        assert!(config.lines > 0 && config.ways > 0, "cache must be non-empty");
        assert!(config.lines.is_multiple_of(config.ways), "lines must be a multiple of ways");
        L1Cache {
            config,
            line_shift: config.line_size.trailing_zeros(),
            sets: RecencySets::new(config.lines / config.ways, config.ways),
        }
    }

    /// Looks up the line containing physical byte `paddr`; returns `true`
    /// on a hit and fills the line on a miss.
    #[inline]
    pub fn access(&mut self, paddr: u64) -> bool {
        self.sets.access(paddr >> self.line_shift)
    }

    /// Number of accesses that hit.
    pub fn hits(&self) -> u64 {
        self.sets.hits()
    }

    /// Number of accesses that missed.
    pub fn misses(&self) -> u64 {
        self.sets.misses()
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }
}

impl Default for L1Cache {
    fn default() -> L1Cache {
        L1Cache::new(CacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_line_hits() {
        let mut c = L1Cache::default();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1008), "same 64B line");
        assert!(!c.access(0x1040), "next line misses");
    }

    #[test]
    fn aliased_physical_address_shares_lines() {
        // The machine passes physical addresses, so "two virtual views" of
        // the same physical byte are literally the same key — a hit.
        let mut c = L1Cache::default();
        c.access(0x8000);
        assert!(c.access(0x8000));
    }

    #[test]
    fn sequential_scan_mostly_hits() {
        // 64-byte lines => 1 miss per 64 sequential bytes.
        let mut c = L1Cache::default();
        for b in 0..4096u64 {
            c.access(b);
        }
        assert_eq!(c.misses(), 64);
        assert_eq!(c.hits(), 4096 - 64);
    }

    #[test]
    fn strided_page_scan_thrashes() {
        // One access per 4 KiB page (Electric Fence layout) gets no reuse.
        let mut c = L1Cache::default();
        for p in 0..512u64 {
            c.access(p * 4096);
        }
        assert_eq!(c.hits(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = L1Cache::new(CacheConfig { line_size: 48, lines: 8, ways: 2 });
    }
}
