//! Page-table storage for the simulated MMU.
//!
//! Two interchangeable implementations sit behind the crate-private
//! `PageTable` dispatch type:
//!
//! * [`PageTableImpl::Radix`] (the default) — a three-level radix tree of
//!   plain arrays indexed by VPN bit-fields, so the common translation is
//!   two array loads and no hashing. Entries are packed `u64` words
//!   (present bit, protection bits, frame number), keeping each leaf a
//!   flat cache-friendly `4096 × 8 B` block.
//! * [`PageTableImpl::Reference`] — the original flat
//!   `HashMap<u64, u64>`, kept so the differential tests can check the
//!   optimized path against the reference one on identical inputs.
//!
//! Both store the same packed entries and expose the same operations;
//! switching implementations must never change simulated behaviour —
//! only host throughput. The differential tests in `machine.rs` enforce
//! this.

use std::collections::HashMap;

use crate::machine::Protection;

/// Which page-table implementation a [`crate::Machine`] uses. Purely a
/// host-performance knob: simulated costs, traps and statistics are
/// identical across variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PageTableImpl {
    /// The original flat `HashMap` page table. Kept as the oracle of the
    /// differential tests.
    Reference,
    /// Multi-level radix page table (the default).
    #[default]
    Radix,
}

/// A decoded page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Entry {
    pub(crate) frame: u32,
    pub(crate) prot: Protection,
}

// Packed layout: bit 63 = present, bits 33..32 = protection, bits 31..0
// = frame number.
const PRESENT: u64 = 1 << 63;
const PROT_SHIFT: u32 = 32;

fn pack(e: Entry) -> u64 {
    let prot = match e.prot {
        Protection::None => 0u64,
        Protection::Read => 1,
        Protection::ReadWrite => 2,
    };
    PRESENT | (prot << PROT_SHIFT) | e.frame as u64
}

fn unpack(p: u64) -> Entry {
    let prot = match (p >> PROT_SHIFT) & 0x3 {
        0 => Protection::None,
        1 => Protection::Read,
        _ => Protection::ReadWrite,
    };
    Entry { frame: p as u32, prot }
}

/// Bits of VPN consumed by each of the two lower radix levels.
const LEVEL_BITS: u32 = 12;
const LEVEL_SLOTS: usize = 1 << LEVEL_BITS;
const LEVEL_MASK: u64 = (LEVEL_SLOTS - 1) as u64;

/// Bottom level: packed entries for 4096 consecutive VPNs.
#[derive(Debug)]
struct Leaf {
    ptes: Vec<u64>,
}

impl Leaf {
    fn new() -> Leaf {
        Leaf { ptes: vec![0u64; LEVEL_SLOTS] }
    }
}

/// Middle level: 4096 optional leaves.
#[derive(Debug)]
struct Mid {
    leaves: Vec<Option<Box<Leaf>>>,
}

impl Mid {
    fn new() -> Mid {
        Mid { leaves: std::iter::repeat_with(|| None).take(LEVEL_SLOTS).collect() }
    }
}

/// The radix table proper. The root level is grown on demand: VPNs are
/// handed out monotonically from a small base, so the root stays tiny
/// (a handful of entries for even the largest workloads).
#[derive(Debug, Default)]
pub(crate) struct RadixTable {
    roots: Vec<Option<Box<Mid>>>,
}

impl RadixTable {
    #[inline]
    fn split(vpn: u64) -> (usize, usize, usize) {
        (
            (vpn >> (2 * LEVEL_BITS)) as usize,
            ((vpn >> LEVEL_BITS) & LEVEL_MASK) as usize,
            (vpn & LEVEL_MASK) as usize,
        )
    }

    #[inline]
    fn slot(&self, vpn: u64) -> u64 {
        let (r, m, l) = RadixTable::split(vpn);
        match self.roots.get(r) {
            Some(Some(mid)) => match &mid.leaves[m] {
                Some(leaf) => leaf.ptes[l],
                None => 0,
            },
            _ => 0,
        }
    }

    fn slot_mut(&mut self, vpn: u64) -> &mut u64 {
        let (r, m, l) = RadixTable::split(vpn);
        if r >= self.roots.len() {
            self.roots.resize_with(r + 1, || None);
        }
        let mid = self.roots[r].get_or_insert_with(|| Box::new(Mid::new()));
        let leaf = mid.leaves[m].get_or_insert_with(|| Box::new(Leaf::new()));
        &mut leaf.ptes[l]
    }
}

/// Page-table dispatch: one enum instead of a trait object so the hot
/// `get` stays a direct (inlinable) match.
#[derive(Debug)]
pub(crate) enum PageTable {
    Reference(HashMap<u64, u64>),
    Radix(RadixTable),
}

impl PageTable {
    pub(crate) fn new(which: PageTableImpl) -> PageTable {
        match which {
            PageTableImpl::Reference => PageTable::Reference(HashMap::new()),
            PageTableImpl::Radix => PageTable::Radix(RadixTable::default()),
        }
    }

    /// Looks up `vpn`, returning its decoded entry if mapped.
    #[inline]
    pub(crate) fn get(&self, vpn: u64) -> Option<Entry> {
        let packed = match self {
            PageTable::Reference(map) => map.get(&vpn).copied().unwrap_or(0),
            PageTable::Radix(radix) => radix.slot(vpn),
        };
        if packed & PRESENT != 0 {
            Some(unpack(packed))
        } else {
            None
        }
    }

    /// Whether `vpn` is mapped.
    #[inline]
    pub(crate) fn contains(&self, vpn: u64) -> bool {
        self.get(vpn).is_some()
    }

    /// Maps `vpn`, returning the previous entry if one existed.
    pub(crate) fn insert(&mut self, vpn: u64, entry: Entry) -> Option<Entry> {
        let packed = pack(entry);
        let prev = match self {
            PageTable::Reference(map) => map.insert(vpn, packed).unwrap_or(0),
            PageTable::Radix(radix) => {
                let slot = radix.slot_mut(vpn);
                std::mem::replace(slot, packed)
            }
        };
        if prev & PRESENT != 0 {
            Some(unpack(prev))
        } else {
            None
        }
    }

    /// Unmaps `vpn`, returning the removed entry if one existed.
    pub(crate) fn remove(&mut self, vpn: u64) -> Option<Entry> {
        let prev = match self {
            PageTable::Reference(map) => map.remove(&vpn).unwrap_or(0),
            PageTable::Radix(radix) => {
                let (r, m, l) = RadixTable::split(vpn);
                match radix.roots.get_mut(r) {
                    Some(Some(mid)) => match &mut mid.leaves[m] {
                        Some(leaf) => std::mem::take(&mut leaf.ptes[l]),
                        None => 0,
                    },
                    _ => 0,
                }
            }
        };
        if prev & PRESENT != 0 {
            Some(unpack(prev))
        } else {
            None
        }
    }

    /// Changes the protection of a mapped `vpn`. Returns `false` if the
    /// page was not mapped (nothing is changed).
    pub(crate) fn set_prot(&mut self, vpn: u64, prot: Protection) -> bool {
        match self.get(vpn) {
            Some(entry) => {
                self.insert(vpn, Entry { prot, ..entry });
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(frame: u32, prot: Protection) -> Entry {
        Entry { frame, prot }
    }

    #[test]
    fn pack_round_trips_all_protections() {
        for prot in [Protection::None, Protection::Read, Protection::ReadWrite] {
            for frame in [0u32, 1, 0xdead_beef, u32::MAX] {
                assert_eq!(unpack(pack(entry(frame, prot))), entry(frame, prot));
            }
        }
    }

    #[test]
    fn absent_entries_are_not_present() {
        // Frame 0 with Protection::None packs to a non-zero word: the
        // present bit alone distinguishes "mapped frame 0, PROT_NONE"
        // from "unmapped".
        assert_ne!(pack(entry(0, Protection::None)), 0);
    }

    fn exercise(mut table: PageTable) {
        assert_eq!(table.get(16), None);
        assert!(!table.contains(16));
        assert_eq!(table.insert(16, entry(7, Protection::ReadWrite)), None);
        assert_eq!(table.get(16), Some(entry(7, Protection::ReadWrite)));
        assert!(table.contains(16));
        // Replacement returns the old entry.
        assert_eq!(
            table.insert(16, entry(9, Protection::Read)),
            Some(entry(7, Protection::ReadWrite))
        );
        // Protection change in place.
        assert!(table.set_prot(16, Protection::None));
        assert_eq!(table.get(16), Some(entry(9, Protection::None)));
        assert!(!table.set_prot(17, Protection::None), "unmapped page");
        // Distant VPNs exercise multiple radix nodes.
        for vpn in [16u64, 4095, 4096, 1 << 24, (1 << 30) + 12345] {
            table.insert(vpn, entry(vpn as u32, Protection::ReadWrite));
        }
        for vpn in [16u64, 4095, 4096, 1 << 24, (1 << 30) + 12345] {
            assert_eq!(table.get(vpn), Some(entry(vpn as u32, Protection::ReadWrite)));
        }
        // Removal.
        assert_eq!(table.remove(4095), Some(entry(4095, Protection::ReadWrite)));
        assert_eq!(table.get(4095), None);
        assert_eq!(table.remove(4095), None);
        assert_eq!(table.remove(123_456_789), None, "never-mapped page");
    }

    #[test]
    fn radix_semantics() {
        exercise(PageTable::new(PageTableImpl::Radix));
    }

    #[test]
    fn reference_semantics() {
        exercise(PageTable::new(PageTableImpl::Reference));
    }

    #[test]
    fn default_impl_is_radix() {
        assert_eq!(PageTableImpl::default(), PageTableImpl::Radix);
    }
}
