//! Reference models for the TLB and L1 differential test: the original
//! timestamp-LRU [`Tlb`] and [`L1Cache`], kept verbatim apart from their
//! names. Each entry carries the tick of its last touch; a miss fills the
//! first invalid way of the set, else the way with the smallest stamp.
//!
//! [`differential_against_stamp_lru`] drives these and the recency-ordered
//! models through identical seeded streams — repeats of the previous key,
//! random keys, invalidations and flushes — over the default, ablation and
//! corner-case geometries, and asserts the same hit/miss result on every
//! access.

#![cfg(test)]

use crate::cache::{CacheConfig, L1Cache};
use crate::tlb::{Tlb, TlbConfig};
use dangle_testkit::SeededRng;

const VALID: u64 = 1 << 63;

#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    key: u64,
    stamp: u64,
}

const INVALID: TlbEntry = TlbEntry { key: 0, stamp: 0 };

/// The timestamp-LRU TLB.
struct StampTlb {
    config: TlbConfig,
    sets: Vec<TlbEntry>,
    num_sets: usize,
    set_mask: Option<usize>,
    last_idx: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl StampTlb {
    fn new(config: TlbConfig) -> StampTlb {
        let num_sets = config.entries / config.ways;
        StampTlb {
            config,
            sets: vec![INVALID; config.entries],
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            last_idx: 0,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_range(&self, vpn: u64) -> (usize, usize) {
        let set = match self.set_mask {
            Some(mask) => vpn as usize & mask,
            None => (vpn as usize) % self.num_sets,
        };
        let start = set * self.config.ways;
        (start, start + self.config.ways)
    }

    fn access(&mut self, vpn: u64) -> bool {
        self.tick += 1;
        let key = vpn | VALID;
        if self.sets[self.last_idx].key == key {
            self.sets[self.last_idx].stamp = self.tick;
            self.hits += 1;
            return true;
        }
        let (start, end) = self.set_range(vpn);
        let ways = &mut self.sets[start..end];
        let mut victim = 0usize;
        let mut best = u64::MAX;
        let mut have_invalid = false;
        for (i, e) in ways.iter_mut().enumerate() {
            if e.key == key {
                e.stamp = self.tick;
                self.hits += 1;
                self.last_idx = start + i;
                return true;
            }
            if !have_invalid {
                if e.key == 0 {
                    have_invalid = true;
                    victim = i;
                } else if e.stamp < best {
                    best = e.stamp;
                    victim = i;
                }
            }
        }
        self.misses += 1;
        ways[victim] = TlbEntry { key, stamp: self.tick };
        self.last_idx = start + victim;
        false
    }

    fn invalidate(&mut self, vpn: u64) {
        let key = vpn | VALID;
        let (start, end) = self.set_range(vpn);
        for e in &mut self.sets[start..end] {
            if e.key == key {
                *e = INVALID;
            }
        }
    }

    fn flush(&mut self) {
        for e in &mut self.sets {
            *e = INVALID;
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    key: u64,
    stamp: u64,
}

const INVALID_LINE: Line = Line { key: 0, stamp: 0 };

/// The timestamp-LRU L1 cache.
struct StampL1Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    line_shift: u32,
    num_sets: usize,
    set_mask: Option<usize>,
    last_idx: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl StampL1Cache {
    fn new(config: CacheConfig) -> StampL1Cache {
        let num_sets = config.lines / config.ways;
        StampL1Cache {
            config,
            lines: vec![INVALID_LINE; config.lines],
            line_shift: config.line_size.trailing_zeros(),
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            last_idx: 0,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, paddr: u64) -> bool {
        self.tick += 1;
        let line_addr = paddr >> self.line_shift;
        let key = line_addr | VALID;
        if self.lines[self.last_idx].key == key {
            self.lines[self.last_idx].stamp = self.tick;
            self.hits += 1;
            return true;
        }
        let set = match self.set_mask {
            Some(mask) => line_addr as usize & mask,
            None => (line_addr as usize) % self.num_sets,
        };
        let start = set * self.config.ways;
        let ways = &mut self.lines[start..start + self.config.ways];
        let mut victim = 0usize;
        let mut best = u64::MAX;
        let mut have_invalid = false;
        for (i, e) in ways.iter_mut().enumerate() {
            if e.key == key {
                e.stamp = self.tick;
                self.hits += 1;
                self.last_idx = start + i;
                return true;
            }
            if !have_invalid {
                if e.key == 0 {
                    have_invalid = true;
                    victim = i;
                } else if e.stamp < best {
                    best = e.stamp;
                    victim = i;
                }
            }
        }
        self.misses += 1;
        ways[victim] = Line { key, stamp: self.tick };
        self.last_idx = start + victim;
        false
    }
}

/// One step of a differential stream.
enum Step {
    Access(u64),
    Invalidate(u64),
    Flush,
}

/// A seeded stream over `span` distinct keys: 30% repeat the previous key;
/// with `shootdowns`, 3% invalidate the previous key, 3% a random one and
/// 1% flush; the rest look up a random key.
fn stream(seed: u64, len: usize, span: u64, shootdowns: bool) -> Vec<Step> {
    let mut rng = SeededRng::mixed(seed);
    let mut prev = 0;
    (0..len)
        .map(|_| match rng.below(100) {
            0..30 => Step::Access(prev),
            30..33 if shootdowns => Step::Invalidate(prev),
            33..36 if shootdowns => Step::Invalidate(rng.below(span)),
            36 if shootdowns => Step::Flush,
            _ => {
                prev = rng.below(span);
                Step::Access(prev)
            }
        })
        .collect()
}

const TLB_GEOMETRIES: [(usize, usize); 7] =
    [(64, 4), (16, 4), (256, 4), (1024, 4), (48, 4), (8, 1), (8, 8)];

const CACHE_GEOMETRIES: [(usize, usize); 4] = [(256, 4), (48, 4), (8, 1), (8, 8)];

#[test]
fn differential_against_stamp_lru() {
    const LEN: usize = 40_000;
    for (g, &(entries, ways)) in TLB_GEOMETRIES.iter().enumerate() {
        let config = TlbConfig { entries, ways };
        let mut new = Tlb::new(config);
        let mut old = StampTlb::new(config);
        // Twice the capacity keeps both hits and capacity misses common.
        for (i, step) in stream(g as u64, LEN, 2 * entries as u64, true).into_iter().enumerate() {
            match step {
                Step::Access(vpn) => {
                    assert_eq!(new.access(vpn), old.access(vpn), "TLB {entries}x{ways}: step {i}");
                }
                Step::Invalidate(vpn) => {
                    new.invalidate(vpn);
                    old.invalidate(vpn);
                }
                Step::Flush => {
                    new.flush();
                    old.flush();
                }
            }
        }
        assert_eq!((new.hits(), new.misses()), (old.hits, old.misses), "TLB {entries}x{ways}");
        assert!(old.hits > 0 && old.misses > 0, "TLB {entries}x{ways}: degenerate stream");
    }
    for (g, &(lines, ways)) in CACHE_GEOMETRIES.iter().enumerate() {
        let config = CacheConfig { line_size: 64, lines, ways };
        let mut new = L1Cache::new(config);
        let mut old = StampL1Cache::new(config);
        // Byte addresses over twice the capacity in lines, any offset.
        for (i, step) in
            stream(100 + g as u64, LEN, 2 * 64 * lines as u64, false).into_iter().enumerate()
        {
            let Step::Access(paddr) = step else { unreachable!("no shootdowns in an L1 stream") };
            assert_eq!(new.access(paddr), old.access(paddr), "L1 {lines}x{ways}: step {i}");
        }
        assert_eq!((new.hits(), new.misses()), (old.hits, old.misses), "L1 {lines}x{ways}");
        assert!(old.hits > 0 && old.misses > 0, "L1 {lines}x{ways}: degenerate stream");
    }
}
