//! SafeC / Patil-Fisher / Xu-style capability checking.
//!
//! The sound software alternative the paper compares against in §5.2: every
//! allocation receives a unique *capability* recorded in a Global Capability
//! Store (GCS); pointer metadata carries the capability; every dereference
//! checks membership; `free` removes the capability, so all later uses of
//! any pointer to the object fail the check. Detection is (probabilistically)
//! complete *and* memory can be reused freely — but every access pays a
//! software check, and the metadata costs 1.6–4× extra memory.
//!
//! **Pointer-metadata emulation.** The real schemes attach metadata to
//! pointers (fat pointers, or disjoint metadata keyed by pointer identity).
//! Workloads in this workspace pass plain 64-bit addresses, so the checker
//! encodes the capability in the *upper 16 bits* of the returned address —
//! a tagged-pointer realization of the same idea. Arithmetic on tagged
//! pointers preserves the tag; [`CapabilityChecker::check`] strips it,
//! verifies it against the owning block's live capability, and returns
//! the real address to access. Capabilities are 16-bit here (the
//! originals use 32-bit), so like SafeC the guarantee is "with high
//! probability": a stale pointer is missed only if the storage is
//! re-allocated under a colliding capability (1 in 65,536).

use dangle_heap::{AllocError, AllocStats, Allocator, SysHeap};
use dangle_vmm::{Machine, VirtAddr};
use std::collections::{BTreeMap, HashSet};

/// Cycles per software access check (compiled-in check, much cheaper
/// than Valgrind's DBI).
const PER_ACCESS_COST: u64 = 3;
/// Extra cycles per malloc/free (capability create/destroy).
const PER_ALLOC_COST: u64 = 120;

const TAG_SHIFT: u32 = 48;
const ADDR_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// Splits a tagged pointer into `(capability, real address)`.
pub fn untag(addr: VirtAddr) -> (u16, VirtAddr) {
    ((addr.raw() >> TAG_SHIFT) as u16, VirtAddr(addr.raw() & ADDR_MASK))
}

fn tag(cap: u16, addr: VirtAddr) -> VirtAddr {
    VirtAddr(addr.raw() | (cap as u64) << TAG_SHIFT)
}

#[derive(Clone, Copy, Debug)]
struct Block {
    end: u64,
    cap: u16,
}

/// The capability-store detector. See the [module docs](self).
#[derive(Debug, Default)]
pub struct CapabilityChecker {
    heap: SysHeap,
    /// start -> block, keyed by real (untagged) payload address.
    blocks: BTreeMap<u64, Block>,
    /// The Global Capability Store.
    store: HashSet<u16>,
    next_cap: u16,
    /// Modeled metadata footprint: per-object metadata + GCS entry.
    metadata_bytes: u64,
}

impl CapabilityChecker {
    /// Creates the baseline.
    pub fn new() -> CapabilityChecker {
        CapabilityChecker::default()
    }

    /// Modeled metadata memory footprint in bytes (the source of the
    /// 1.6–4× overhead the paper quotes for these schemes).
    pub fn metadata_bytes(&self) -> u64 {
        self.metadata_bytes
    }

    fn fresh_cap(&mut self) -> u16 {
        // Capability 0 is reserved as "no capability".
        loop {
            self.next_cap = self.next_cap.wrapping_add(1);
            if self.next_cap != 0 && !self.store.contains(&self.next_cap) {
                return self.next_cap;
            }
        }
    }

    /// The check run before every program access of `tagged`: charges the
    /// software check and returns the real (untagged) address to access,
    /// or `Err(tagged)` when the pointer's capability is not live on the
    /// block it points into — a detected dangling use.
    ///
    /// # Errors
    /// The dangling (tagged) address, when the check fires.
    pub fn check(&mut self, machine: &mut Machine, tagged: VirtAddr) -> Result<VirtAddr, VirtAddr> {
        machine.tick(PER_ACCESS_COST);
        machine.telemetry_mut().counter_add("baseline.checks_performed", 1);
        let (cap, real) = untag(tagged);
        if cap == 0 {
            // Untagged address: not a capability-managed heap pointer
            // (globals, stacks, raw mmap) — passes through unchecked, as in
            // the original systems.
            return Ok(real);
        }
        match self.blocks.range(..=real.raw()).next_back() {
            Some((_, b)) if real.raw() < b.end && b.cap == cap && self.store.contains(&cap) => {
                Ok(real)
            }
            _ => {
                machine.telemetry_mut().counter_add("baseline.dangling_detected", 1);
                Err(tagged)
            }
        }
    }
}

impl Allocator for CapabilityChecker {
    fn alloc(&mut self, machine: &mut Machine, size: usize) -> Result<VirtAddr, AllocError> {
        machine.tick(PER_ALLOC_COST);
        let p = self.heap.alloc(machine, size)?;
        let requested = size.max(1);
        let cap = self.fresh_cap();
        self.store.insert(cap);
        let end = p.raw() + requested as u64;
        let overlapping: Vec<u64> = self
            .blocks
            .range(..end)
            .rev()
            .take_while(|(_, b)| b.end > p.raw())
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            self.blocks.remove(&s);
        }
        self.blocks.insert(p.raw(), Block { end, cap });
        // Per-object metadata: capability + bounds mirror + GCS slot.
        self.metadata_bytes += 24 + requested as u64; // range-keyed shadow copy
        Ok(tag(cap, p))
    }

    fn free(&mut self, machine: &mut Machine, addr: VirtAddr) -> Result<(), AllocError> {
        machine.tick(PER_ALLOC_COST);
        let (cap, real) = untag(addr);
        match self.blocks.get(&real.raw()) {
            Some(b) if b.cap == cap && self.store.contains(&cap) => {
                self.store.remove(&cap);
                self.metadata_bytes = self.metadata_bytes.saturating_sub(8);
                self.heap.free(machine, real)
            }
            _ => {
                machine.telemetry_mut().counter_add("baseline.dangling_detected", 1);
                Err(AllocError::InvalidFree { addr })
            }
        }
    }

    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, AllocError> {
        let (cap, real) = untag(addr);
        match self.blocks.get(&real.raw()) {
            Some(b) if b.cap == cap && self.store.contains(&cap) => {
                self.heap.size_of(machine, real)
            }
            _ => Err(AllocError::InvalidFree { addr }),
        }
    }

    fn name(&self) -> &'static str {
        "capability"
    }

    fn stats(&self) -> AllocStats {
        self.heap.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, CapabilityChecker) {
        (Machine::free_running(), CapabilityChecker::new())
    }

    #[test]
    fn tagged_round_trip() {
        let (mut m, mut c) = setup();
        let p = c.alloc(&mut m, 32).unwrap();
        let (cap, real) = untag(p);
        assert_ne!(cap, 0);
        assert_eq!(real.raw(), p.raw() & ADDR_MASK);
        assert_eq!(c.check(&mut m, p), Ok(real));
    }

    #[test]
    fn detects_use_after_free_even_after_reuse() {
        let (mut m, mut c) = setup();
        let stale = c.alloc(&mut m, 64).unwrap();
        c.free(&mut m, stale).unwrap();
        // Reuse the same storage under a fresh capability.
        let fresh = c.alloc(&mut m, 64).unwrap();
        assert_eq!(untag(fresh).1, untag(stale).1, "heap reused the block");
        // The stale capability fails the check — SOUND, unlike memcheck.
        assert_eq!(c.check(&mut m, stale), Err(stale));
        // The fresh pointer works.
        assert_eq!(c.check(&mut m, fresh), Ok(untag(fresh).1));
    }

    #[test]
    fn detects_double_free() {
        let (mut m, mut c) = setup();
        let p = c.alloc(&mut m, 16).unwrap();
        c.free(&mut m, p).unwrap();
        assert!(c.free(&mut m, p).is_err());
        assert_eq!(m.telemetry().counter("baseline.dangling_detected"), 1);
    }

    #[test]
    fn pointer_arithmetic_preserves_capability() {
        let (mut m, mut c) = setup();
        let p = c.alloc(&mut m, 64).unwrap();
        assert_eq!(c.check(&mut m, p.add(48)), Ok(untag(p).1.add(48)));
        c.free(&mut m, p).unwrap();
        assert_eq!(c.check(&mut m, p.add(48)), Err(p.add(48)));
    }

    #[test]
    fn untagged_addresses_pass_through() {
        let (mut m, mut c) = setup();
        let raw = m.mmap(1).unwrap();
        assert_eq!(c.check(&mut m, raw), Ok(raw));
    }

    #[test]
    fn memory_is_actually_reused() {
        let (mut m, mut c) = setup();
        let frames_baseline = {
            let p = c.alloc(&mut m, 64).unwrap();
            c.free(&mut m, p).unwrap();
            m.stats().phys_frames_in_use
        };
        for _ in 0..100 {
            let p = c.alloc(&mut m, 64).unwrap();
            c.free(&mut m, p).unwrap();
        }
        assert_eq!(
            m.stats().phys_frames_in_use,
            frames_baseline,
            "capability scheme must not leak physical memory"
        );
    }

    #[test]
    fn metadata_overhead_is_significant() {
        let (mut m, mut c) = setup();
        let mut payload = 0u64;
        for i in 0..100 {
            let s = 16 + i % 32;
            c.alloc(&mut m, s).unwrap();
            payload += s as u64;
        }
        let ratio = (payload + c.metadata_bytes()) as f64 / payload as f64;
        assert!(ratio > 1.5, "expected >1.5x total footprint, got {ratio}");
    }

    #[test]
    fn access_check_cost_charged() {
        let (mut m, mut c) = setup();
        let p = c.alloc(&mut m, 8).unwrap();
        let c0 = m.clock();
        c.check(&mut m, p).unwrap();
        assert_eq!(m.clock() - c0, PER_ACCESS_COST);
    }
}
