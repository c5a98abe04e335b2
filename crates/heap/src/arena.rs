//! `ArenaHeap`: per-core `malloc` arenas for the multi-core machine.
//!
//! A single [`SysHeap`] serializes every allocation through one set of
//! free lists — on a multi-core [`Machine`] that is a global allocator
//! lock. `ArenaHeap` gives each core its own [`SysHeap`] arena, the way
//! production allocators (tcmalloc, jemalloc) give each thread a local
//! cache: [`Allocator::alloc`] routes to the arena of the *calling* core
//! (`active_core() % arenas`), while [`Allocator::free`] routes to the
//! arena that carved the block — freeing on a different core than the one
//! that allocated must return the block to its home arena, never leak it
//! into another core's free lists.
//!
//! Arena selection models a thread-local lookup and costs no simulated
//! cycles; all charging happens inside the owning [`SysHeap`]. With one
//! arena the heap is cycle-identical to a bare [`SysHeap`].

use crate::sys::SysHeap;
use crate::{AllocError, AllocStats, Allocator};
use dangle_vmm::{Machine, VirtAddr};
use std::collections::HashMap;

/// A set of per-core [`SysHeap`] arenas behind one [`Allocator`] front.
/// See the [module docs](self).
#[derive(Debug)]
pub struct ArenaHeap {
    arenas: Vec<SysHeap>,
    /// Payload address -> owning arena, so cross-core frees go home.
    owner: HashMap<u64, usize>,
}

impl ArenaHeap {
    /// A heap with `arenas` arenas (at least one).
    pub fn new(arenas: usize) -> ArenaHeap {
        assert!(arenas >= 1, "an arena heap needs at least one arena");
        ArenaHeap {
            arenas: (0..arenas).map(|_| SysHeap::new()).collect(),
            owner: HashMap::new(),
        }
    }

    /// One arena (read-only, for stats and tests).
    pub fn arena(&self, i: usize) -> &SysHeap {
        &self.arenas[i]
    }
}

impl Allocator for ArenaHeap {
    fn alloc(&mut self, machine: &mut Machine, size: usize) -> Result<VirtAddr, AllocError> {
        let arena = machine.active_core() % self.arenas.len();
        let payload = self.arenas[arena].alloc(machine, size)?;
        self.owner.insert(payload.raw(), arena);
        Ok(payload)
    }

    fn free(&mut self, machine: &mut Machine, addr: VirtAddr) -> Result<(), AllocError> {
        let arena =
            *self.owner.get(&addr.raw()).ok_or(AllocError::InvalidFree { addr })?;
        self.arenas[arena].free(machine, addr)?;
        self.owner.remove(&addr.raw());
        Ok(())
    }

    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, AllocError> {
        let arena =
            *self.owner.get(&addr.raw()).ok_or(AllocError::InvalidFree { addr })?;
        self.arenas[arena].size_of(machine, addr)
    }

    fn name(&self) -> &'static str {
        "arena"
    }

    fn stats(&self) -> AllocStats {
        let mut total = AllocStats::default();
        for a in &self.arenas {
            let st = a.stats();
            total.allocs += st.allocs;
            total.frees += st.frees;
            total.live_objects += st.live_objects;
            total.live_bytes += st.live_bytes;
            total.peak_live_bytes += st.peak_live_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_vmm::{CostModel, MachineConfig};

    fn machine(cores: usize) -> Machine {
        Machine::with_config(MachineConfig {
            cores,
            cost: CostModel::free(),
            ..MachineConfig::default()
        })
    }

    #[test]
    fn allocations_route_to_the_active_cores_arena() {
        let mut m = machine(4);
        let mut h = ArenaHeap::new(4);
        for core in 0..4 {
            m.switch_core(core);
            let a = h.alloc(&mut m, 64).unwrap();
            m.store_u64(a, core as u64).unwrap();
            assert_eq!(h.arena(core).stats().allocs, 1);
        }
        assert_eq!(h.stats().allocs, 4);
        assert_eq!(h.stats().live_objects, 4);
    }

    #[test]
    fn cross_core_free_returns_block_to_home_arena() {
        let mut m = machine(2);
        let mut h = ArenaHeap::new(2);
        m.switch_core(0);
        let a = h.alloc(&mut m, 48).unwrap();
        // Free from the *other* core: the block must go back to arena 0's
        // free list, where the next same-class alloc on core 0 reuses it.
        m.switch_core(1);
        h.free(&mut m, a).unwrap();
        assert_eq!(h.arena(0).stats().frees, 1, "freed in the home arena");
        assert_eq!(h.arena(1).stats().frees, 0);
        m.switch_core(0);
        let b = h.alloc(&mut m, 48).unwrap();
        assert_eq!(b, a, "home arena's free list reused the block");
    }

    #[test]
    fn single_arena_is_cycle_identical_to_sysheap() {
        let mut m1 = Machine::new();
        let mut m2 = Machine::new();
        let mut sys = SysHeap::new();
        let mut arena = ArenaHeap::new(1);
        let mut live1 = Vec::new();
        let mut live2 = Vec::new();
        for i in 0..200usize {
            let size = 8 + (i * 37) % 3000;
            live1.push(sys.alloc(&mut m1, size).unwrap());
            live2.push(arena.alloc(&mut m2, size).unwrap());
            if i % 3 == 0 {
                sys.free(&mut m1, live1.remove(0)).unwrap();
                arena.free(&mut m2, live2.remove(0)).unwrap();
            }
        }
        assert_eq!(live1, live2, "identical address streams");
        assert_eq!(m1.clock(), m2.clock(), "identical cycle streams");
        assert_eq!(sys.stats(), arena.stats());
    }

    #[test]
    fn foreign_pointer_free_is_invalid() {
        let mut m = machine(1);
        let mut h = ArenaHeap::new(2);
        let a = h.alloc(&mut m, 16).unwrap();
        assert!(matches!(
            h.free(&mut m, a.add(8)),
            Err(AllocError::InvalidFree { .. })
        ));
        assert!(h.size_of(&mut m, VirtAddr(0x5000)).is_err());
        h.free(&mut m, a).unwrap();
        assert!(matches!(h.free(&mut m, a), Err(AllocError::InvalidFree { .. })), "double free");
    }
}
