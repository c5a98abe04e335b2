//! Page-table storage for the simulated MMU: one flat `Vec<u64>` of packed
//! entries (present bit, protection bits, frame number), indexed by VPN.
//!
//! The machine hands VPNs out from a bump pointer that starts at 16 and
//! never recycles them on its own, so the VPNs it maps form one dense
//! range and the table costs 8 bytes per page handed out. The table grows
//! only on insert; a lookup past its end, or of a VPN that does not fit a
//! `usize`, is a miss. A translation is therefore one bounds check and one
//! load.

use crate::machine::Protection;

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

#[inline]
fn unpack(p: u64) -> Entry {
    let prot = match (p >> PROT_SHIFT) & 0x3 {
        0 => Protection::None,
        1 => Protection::Read,
        _ => Protection::ReadWrite,
    };
    Entry { frame: p as u32, prot }
}

/// The decoded entry of packed word `p`, if its present bit is set.
#[inline]
fn present(p: u64) -> Option<Entry> {
    (p & PRESENT != 0).then(|| unpack(p))
}

/// The machine's page table. See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct PageTable {
    /// The packed entry of each VPN; 0 for unmapped.
    ptes: Vec<u64>,
}

impl PageTable {
    /// The slot of `vpn`, if the table reaches it.
    #[inline]
    fn slot_mut(&mut self, vpn: u64) -> Option<&mut u64> {
        usize::try_from(vpn).ok().and_then(|i| self.ptes.get_mut(i))
    }

    /// Looks up `vpn`, returning its decoded entry if mapped.
    #[inline]
    pub(crate) fn get(&self, vpn: u64) -> Option<Entry> {
        let slot = usize::try_from(vpn).ok().and_then(|i| self.ptes.get(i));
        present(slot.copied().unwrap_or(0))
    }

    /// Whether `vpn` is mapped.
    #[inline]
    pub(crate) fn contains(&self, vpn: u64) -> bool {
        self.get(vpn).is_some()
    }

    /// Maps `vpn`, returning the previous entry if one existed.
    ///
    /// # Panics
    /// Panics if `vpn` does not fit a `usize`.
    pub(crate) fn insert(&mut self, vpn: u64, entry: Entry) -> Option<Entry> {
        let i = usize::try_from(vpn).expect("a mapped VPN fits a usize");
        if i >= self.ptes.len() {
            self.ptes.resize(i + 1, 0);
        }
        present(std::mem::replace(&mut self.ptes[i], pack(entry)))
    }

    /// Unmaps `vpn`, returning the removed entry if one existed.
    pub(crate) fn remove(&mut self, vpn: u64) -> Option<Entry> {
        present(self.slot_mut(vpn).map(std::mem::take).unwrap_or(0))
    }

    /// Changes the protection of a mapped `vpn`. Returns `false` if the
    /// page was not mapped (nothing is changed).
    pub(crate) fn set_prot(&mut self, vpn: u64, prot: Protection) -> bool {
        match self.slot_mut(vpn) {
            Some(slot) if *slot & PRESENT != 0 => {
                *slot = pack(Entry { prot, ..unpack(*slot) });
                true
            }
            _ => false,
        }
    }

    /// Every mapped VPN with its entry, in VPN order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, Entry)> + '_ {
        self.ptes.iter().enumerate().filter_map(|(vpn, &p)| Some((vpn as u64, present(p)?)))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use dangle_testkit::SeededRng;

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

    #[test]
    fn directed_sequence() {
        let mut table = PageTable::default();
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
        // A VPN past the end grows the table; the gap stays unmapped.
        for vpn in [16u64, 4095, 4096, 70_000] {
            table.insert(vpn, entry(vpn as u32, Protection::ReadWrite));
        }
        for vpn in [16u64, 4095, 4096, 70_000] {
            assert_eq!(table.get(vpn), Some(entry(vpn as u32, Protection::ReadWrite)));
        }
        assert_eq!(table.get(4097), None);
        let mapped: Vec<u64> = table.entries().map(|(vpn, _)| vpn).collect();
        assert_eq!(mapped, [16, 4095, 4096, 70_000]);
        // Removal.
        assert_eq!(table.remove(4095), Some(entry(4095, Protection::ReadWrite)));
        assert_eq!(table.get(4095), None);
        assert_eq!(table.remove(4095), None);
        assert_eq!(table.remove(20_000), None, "never-mapped page");
    }

    #[test]
    fn lookups_past_the_end_miss_without_growing_the_table() {
        let mut table = PageTable::default();
        table.insert(20, entry(3, Protection::ReadWrite));
        let len = table.ptes.len();
        for vpn in [len as u64, len as u64 + 1, 1 << 30, 1 << 52, u64::MAX] {
            assert_eq!(table.get(vpn), None, "{vpn:#x}");
            assert!(!table.contains(vpn), "{vpn:#x}");
            assert_eq!(table.remove(vpn), None, "{vpn:#x}");
            assert!(!table.set_prot(vpn, Protection::None), "{vpn:#x}");
        }
        assert_eq!(table.ptes.len(), len, "misses leave the table as it was");
        assert_eq!(table.get(20), Some(entry(3, Protection::ReadWrite)));
    }

    /// The reference model: a `HashMap` from VPN to packed entry, the
    /// page table the machine used before the flat one.
    #[derive(Default)]
    struct Model(HashMap<u64, u64>);

    impl Model {
        fn get(&self, vpn: u64) -> Option<Entry> {
            self.0.get(&vpn).map(|&p| unpack(p))
        }

        fn insert(&mut self, vpn: u64, e: Entry) -> Option<Entry> {
            self.0.insert(vpn, pack(e)).map(unpack)
        }

        fn remove(&mut self, vpn: u64) -> Option<Entry> {
            self.0.remove(&vpn).map(unpack)
        }

        fn set_prot(&mut self, vpn: u64, prot: Protection) -> bool {
            let Some(p) = self.0.get_mut(&vpn) else { return false };
            *p = pack(Entry { prot, ..unpack(*p) });
            true
        }
    }

    /// Drives the table and the model through identical seeded streams of
    /// inserts (fresh and replacing), removes, protection changes and
    /// lookups, over a dense range of VPNs from the machine's first page,
    /// a few far VPNs the table must grow to, and VPNs far past anything
    /// ever inserted, and asserts the same result from every call and the
    /// same mappings at the end.
    #[test]
    fn differential_against_hash_map_model() {
        const DENSE: u64 = 256;
        const FAR_INSERTS: [u64; 3] = [4096, 70_000, 1 << 18];
        const FAR_MISSES: [u64; 3] = [1 << 32, 1 << 52, u64::MAX];
        for case in 0..16u64 {
            let mut rng = SeededRng::new(0x7ab1_e000 + case * 0x9e37_79b9);
            let mut table = PageTable::default();
            let mut model = Model::default();
            for step in 0..4000 {
                let tag = format!("case {case} step {step}");
                let mapped = |rng: &mut SeededRng| match rng.below(16) {
                    0 => FAR_INSERTS[rng.below(3) as usize],
                    _ => 16 + rng.below(DENSE),
                };
                let any = |rng: &mut SeededRng| match rng.below(8) {
                    0 => FAR_MISSES[rng.below(3) as usize],
                    _ => mapped(rng),
                };
                let prot = [Protection::None, Protection::Read, Protection::ReadWrite]
                    [rng.below(3) as usize];
                match rng.below(6) {
                    0 | 1 => {
                        let vpn = mapped(&mut rng);
                        let e = entry(rng.next() as u32, prot);
                        assert_eq!(table.insert(vpn, e), model.insert(vpn, e), "{tag}: insert");
                    }
                    2 => {
                        let vpn = any(&mut rng);
                        assert_eq!(table.remove(vpn), model.remove(vpn), "{tag}: remove");
                    }
                    3 => {
                        let vpn = any(&mut rng);
                        let (t, m) = (table.set_prot(vpn, prot), model.set_prot(vpn, prot));
                        assert_eq!(t, m, "{tag}: set_prot");
                    }
                    _ => {
                        let vpn = any(&mut rng);
                        assert_eq!(table.get(vpn), model.get(vpn), "{tag}: get");
                        assert_eq!(table.contains(vpn), model.0.contains_key(&vpn), "{tag}");
                    }
                }
            }
            let mut expected: Vec<(u64, Entry)> =
                model.0.iter().map(|(&vpn, &p)| (vpn, unpack(p))).collect();
            expected.sort_unstable_by_key(|&(vpn, _)| vpn);
            assert_eq!(table.entries().collect::<Vec<_>>(), expected, "case {case}: mappings");
            assert!(expected.len() > DENSE as usize / 4, "case {case}: degenerate stream");
        }
    }
}
