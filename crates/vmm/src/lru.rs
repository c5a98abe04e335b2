//! Exact-LRU set-associative lookup, shared by the TLB and L1 models.
//!
//! Each set keeps its keys in recency order, most recent first, so the LRU
//! way is always the last one and replacement needs no timestamps. A hit
//! moves its key to the front; a miss shifts the set down one way and
//! inserts at the front, pushing out the last way. Invalid ways (key 0)
//! sit after every valid way of their set, so a miss into a set that still
//! has room consumes an invalid way and evicts nothing — the set
//! membership after every operation is that of timestamp LRU with "first
//! invalid way, else least recently used" replacement.

/// Set in every stored key; the low bits are the caller's tag. Folding
/// validity into the key lets tag 0 (VPN 0, physical line 0) be cached
/// while an all-zero word still means "invalid way".
const VALID: u64 = 1 << 63;

/// `num_sets` sets of `ways` keys each, recency-ordered within each set.
#[derive(Clone, Debug)]
pub(crate) struct RecencySets {
    /// Set `s` occupies `keys[s * ways..(s + 1) * ways]`, most recent
    /// first; a key is `tag | VALID`, or 0 for an invalid way.
    keys: Vec<u64>,
    ways: usize,
    num_sets: usize,
    /// `num_sets - 1` when `num_sets` is a power of two (the common
    /// geometry), letting the set index be a mask instead of a division.
    set_mask: Option<usize>,
    /// Key of the previous access, or 0 once a flush or an invalidation
    /// removed it. It is at the front of its set, so a repeat is a hit
    /// that leaves every set's order unchanged.
    last: u64,
    hits: u64,
    misses: u64,
}

impl RecencySets {
    /// `num_sets` empty sets of `ways` ways. Callers check the geometry.
    pub(crate) fn new(num_sets: usize, ways: usize) -> RecencySets {
        debug_assert!(num_sets > 0 && ways > 0);
        RecencySets {
            keys: vec![0; num_sets * ways],
            ways,
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            last: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_mut(&mut self, tag: u64) -> &mut [u64] {
        let set = match self.set_mask {
            Some(mask) => tag as usize & mask,
            None => (tag as usize) % self.num_sets,
        };
        let start = set * self.ways;
        &mut self.keys[start..start + self.ways]
    }

    /// Looks up `tag` (below 2^63), making it the most recent key of its
    /// set. Returns `true` on a hit; on a miss the set's last way (an
    /// invalid way if there is one, else the LRU key) is evicted.
    #[inline]
    pub(crate) fn access(&mut self, tag: u64) -> bool {
        let key = tag | VALID;
        if key == self.last {
            self.hits += 1;
            return true;
        }
        self.last = key;
        // Insert at the front and shift the set down one way at a time
        // until what falls out is `key` itself (a hit), an invalid way, or
        // the LRU key off the end (a miss).
        let mut carry = key;
        for way in self.set_mut(tag) {
            carry = std::mem::replace(way, carry);
            if carry == key {
                self.hits += 1;
                return true;
            }
            if carry == 0 {
                break;
            }
        }
        self.misses += 1;
        false
    }

    /// Removes `tag` if cached, closing the gap so the set's invalid ways
    /// stay at its end.
    pub(crate) fn invalidate(&mut self, tag: u64) {
        let key = tag | VALID;
        if self.last == key {
            self.last = 0;
        }
        let set = self.set_mut(tag);
        if let Some(pos) = set.iter().position(|&k| k == key) {
            set.copy_within(pos + 1.., pos);
            set[set.len() - 1] = 0;
        }
    }

    /// Invalidates every way.
    pub(crate) fn flush(&mut self) {
        self.keys.fill(0);
        self.last = 0;
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }
}
