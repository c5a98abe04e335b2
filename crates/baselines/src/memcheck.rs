//! Valgrind-memcheck-style heuristic checking.
//!
//! Valgrind interposes on *every* load and store through dynamic binary
//! instrumentation (the paper measures 148%–2537% slowdowns, Table 2) and
//! tracks heap state in shadow memory. Its dangling-pointer detection is
//! **heuristic** (§5.1): freed blocks are parked in a quarantine FIFO and
//! accesses to them are reported, but once quarantine pressure recycles a
//! block, later dangling accesses to it are silently missed. That is the
//! fundamental contrast with the paper's MMU scheme, which detects uses
//! "arbitrarily far in the future".
//!
//! The model: [`SysHeap`] underneath, a byte-budgeted quarantine, a range
//! map of block states, and a fixed instrumentation charge per access.

use dangle_heap::{AllocError, AllocStats, Allocator, SysHeap};
use dangle_vmm::{Machine, VirtAddr};
use std::collections::{BTreeMap, VecDeque};

/// Instrumentation cycles charged per program load/store (JIT-translated
/// check + shadow-memory lookup).
const PER_ACCESS_COST: u64 = 18;
/// Extra cycles per malloc/free interposition.
const PER_ALLOC_COST: u64 = 600;
/// Valgrind's default quarantine budget (`--freelist-vol`), in bytes.
const DEFAULT_QUARANTINE_BYTES: usize = 256 * 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockState {
    Live,
    Quarantined,
}

#[derive(Clone, Copy, Debug)]
struct Block {
    end: u64,
    state: BlockState,
}

/// The memcheck-style detector. See the [module docs](self).
#[derive(Debug)]
pub struct Memcheck {
    heap: SysHeap,
    /// Quarantine budget in bytes; freed blocks are recycled FIFO once the
    /// budget is exceeded.
    quarantine_bytes: usize,
    /// start -> block; ranges never overlap.
    blocks: BTreeMap<u64, Block>,
    /// FIFO of quarantined blocks (payload, size).
    quarantine: VecDeque<(VirtAddr, usize)>,
    quarantined_bytes: usize,
    /// Freed blocks recycled out of quarantine, whose dangling uses the
    /// heuristic can no longer see. Counted as each block leaves the
    /// quarantine.
    recycled_blocks: u64,
}

impl Default for Memcheck {
    fn default() -> Memcheck {
        Memcheck::with_quarantine(DEFAULT_QUARANTINE_BYTES)
    }
}

impl Memcheck {
    /// Creates the baseline with Valgrind's default 256 KiB quarantine.
    pub fn new() -> Memcheck {
        Memcheck::default()
    }

    /// Creates the baseline with a quarantine of `bytes` (e.g. one scaled
    /// down to miniature programs for the soundness study).
    pub fn with_quarantine(bytes: usize) -> Memcheck {
        Memcheck {
            heap: SysHeap::new(),
            quarantine_bytes: bytes,
            blocks: BTreeMap::new(),
            quarantine: VecDeque::new(),
            quarantined_bytes: 0,
            recycled_blocks: 0,
        }
    }

    /// Number of freed blocks whose quarantine entries were recycled —
    /// dangling uses of those can no longer be detected.
    pub fn recycled_blocks(&self) -> u64 {
        self.recycled_blocks
    }

    fn lookup(&self, addr: VirtAddr) -> Option<(u64, Block)> {
        let (&start, &b) = self.blocks.range(..=addr.raw()).next_back()?;
        (addr.raw() < b.end).then_some((start, b))
    }

    /// The check run before every program access of `addr`: charges the
    /// instrumentation and returns `addr` to access, or `Err(addr)` when it
    /// lies in a quarantined block — a detected dangling use.
    ///
    /// # Errors
    /// The dangling address, when the check fires.
    pub fn check(&mut self, machine: &mut Machine, addr: VirtAddr) -> Result<VirtAddr, VirtAddr> {
        machine.tick(PER_ACCESS_COST);
        machine.telemetry_mut().counter_add("baseline.checks_performed", 1);
        if let Some((_, b)) = self.lookup(addr) {
            if b.state == BlockState::Quarantined {
                machine.telemetry_mut().counter_add("baseline.dangling_detected", 1);
                return Err(addr);
            }
        }
        Ok(addr)
    }

    fn drain_quarantine(&mut self, machine: &mut Machine) -> Result<(), AllocError> {
        while self.quarantined_bytes > self.quarantine_bytes {
            let Some((addr, size)) = self.quarantine.pop_front() else { break };
            self.quarantined_bytes -= size;
            self.blocks.remove(&addr.raw());
            self.recycled_blocks += 1;
            self.heap.free(machine, addr)?;
        }
        Ok(())
    }
}

impl Allocator for Memcheck {
    fn alloc(&mut self, machine: &mut Machine, size: usize) -> Result<VirtAddr, AllocError> {
        machine.tick(PER_ALLOC_COST);
        let p = self.heap.alloc(machine, size)?;
        let requested = size.max(1);
        // Remove any stale entries the reused range overlaps.
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
        self.blocks.insert(p.raw(), Block { end, state: BlockState::Live });
        Ok(p)
    }

    fn free(&mut self, machine: &mut Machine, addr: VirtAddr) -> Result<(), AllocError> {
        machine.tick(PER_ALLOC_COST);
        match self.blocks.get_mut(&addr.raw()) {
            Some(b) if b.state == BlockState::Live => {
                b.state = BlockState::Quarantined;
                let size = self.heap.size_of(machine, addr)?;
                self.quarantine.push_back((addr, size));
                self.quarantined_bytes += size;
                // Note: the underlying heap free is DEFERRED until the
                // block leaves quarantine.
                self.drain_quarantine(machine)
            }
            Some(_) => {
                machine.telemetry_mut().counter_add("baseline.dangling_detected", 1);
                Err(AllocError::InvalidFree { addr })
            }
            None => Err(AllocError::InvalidFree { addr }),
        }
    }

    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, AllocError> {
        match self.blocks.get(&addr.raw()) {
            Some(b) if b.state == BlockState::Live => self.heap.size_of(machine, addr),
            _ => Err(AllocError::InvalidFree { addr }),
        }
    }

    fn name(&self) -> &'static str {
        "memcheck"
    }

    fn stats(&self) -> AllocStats {
        self.heap.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, Memcheck) {
        (Machine::free_running(), Memcheck::new())
    }

    #[test]
    fn detects_use_after_free_while_quarantined() {
        let (mut m, mut mc) = setup();
        let p = mc.alloc(&mut m, 64).unwrap();
        assert_eq!(mc.check(&mut m, p), Ok(p));
        mc.free(&mut m, p).unwrap();
        assert_eq!(mc.check(&mut m, p), Err(p));
        assert_eq!(m.telemetry().counter("baseline.dangling_detected"), 1);
        assert_eq!(m.telemetry().counter("baseline.checks_performed"), 2);
    }

    #[test]
    fn detects_double_free_while_quarantined() {
        let (mut m, mut mc) = setup();
        let p = mc.alloc(&mut m, 64).unwrap();
        mc.free(&mut m, p).unwrap();
        assert!(matches!(mc.free(&mut m, p), Err(AllocError::InvalidFree { .. })));
    }

    #[test]
    fn misses_use_after_quarantine_recycling() {
        let mut m = Machine::free_running();
        let mut mc = Memcheck::with_quarantine(128);
        let stale = mc.alloc(&mut m, 64).unwrap();
        mc.free(&mut m, stale).unwrap();
        // Push enough freed bytes through to evict `stale` from quarantine.
        for _ in 0..8 {
            let q = mc.alloc(&mut m, 64).unwrap();
            mc.free(&mut m, q).unwrap();
        }
        assert!(mc.recycled_blocks() >= 1);
        // The same storage has been handed out again...
        let reused = mc.alloc(&mut m, 64).unwrap();
        assert_eq!(reused, stale, "heap reuses the recycled block");
        // ...so the dangling access is silently MISSED — the heuristic gap.
        assert_eq!(mc.check(&mut m, stale), Ok(stale));
    }

    #[test]
    fn per_access_instrumentation_is_charged() {
        let mut m = Machine::free_running(); // memory free; only ticks charge
        let mut mc = Memcheck::new();
        let p = mc.alloc(&mut m, 8).unwrap();
        let c0 = m.clock();
        mc.check(&mut m, p).unwrap();
        assert_eq!(m.clock() - c0, PER_ACCESS_COST);
    }

    #[test]
    fn unknown_memory_passes_through() {
        let (mut m, mut mc) = setup();
        // Memory the program got straight from mmap is not heap-tracked.
        let raw = m.mmap(1).unwrap();
        assert_eq!(mc.check(&mut m, raw), Ok(raw));
    }

    #[test]
    fn wild_free_rejected() {
        let (mut m, mut mc) = setup();
        assert!(mc.free(&mut m, VirtAddr(0x100)).is_err());
    }

    #[test]
    fn interior_pointer_accesses_are_checked() {
        let (mut m, mut mc) = setup();
        let p = mc.alloc(&mut m, 256).unwrap();
        mc.free(&mut m, p).unwrap();
        assert_eq!(mc.check(&mut m, p.add(128)), Err(p.add(128)));
    }
}
