//! Electric Fence / PageHeap: object-per-page with MMU checking.
//!
//! The naive scheme the paper starts from (§1, §3.1, §5.3): every allocation
//! gets its own virtual **and physical** page(s); `free` protects them and
//! they are never reused. Detection is sound and hardware-checked, but:
//!
//! * physical consumption explodes (a 16-byte node pins a 4 KiB frame —
//!   forever, since the protected page keeps its frame),
//! * spatial locality dies (one object per page ⇒ one cache line streamful
//!   of padding per object), and
//! * virtual pages are consumed even faster than in the paper's scheme.
//!
//! Each object is also followed by an always-protected guard page,
//! Electric Fence's buffer-overflow fence.

use dangle_heap::{AllocError, AllocStats, Allocator};
use dangle_vmm::{Machine, Protection, VirtAddr, PAGE_SIZE};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug)]
struct Object {
    size: usize,
    pages: usize,
    live: bool,
}

/// The Electric Fence–style allocator. See the [module docs](self).
#[derive(Debug, Default)]
pub struct EFence {
    objects: HashMap<VirtAddr, Object>,
    stats: AllocStats,
}

impl EFence {
    /// Creates the baseline.
    pub fn new() -> EFence {
        EFence::default()
    }
}

impl Allocator for EFence {
    fn alloc(&mut self, machine: &mut Machine, size: usize) -> Result<VirtAddr, AllocError> {
        if size > u32::MAX as usize {
            return Err(AllocError::TooLarge { size });
        }
        let requested = size.max(1);
        let pages = requested.div_ceil(PAGE_SIZE);
        // The object's pages, then its guard page.
        let base = machine.mmap(pages + 1)?;
        machine.mprotect(base.add((pages * PAGE_SIZE) as u64), 1, Protection::None)?;
        self.objects.insert(base, Object { size: requested, pages, live: true });
        self.stats.note_alloc(requested);
        Ok(base)
    }

    fn free(&mut self, machine: &mut Machine, addr: VirtAddr) -> Result<(), AllocError> {
        match self.objects.get_mut(&addr) {
            Some(obj) if obj.live => {
                obj.live = false;
                let pages = obj.pages;
                let size = obj.size;
                // Protect forever; the frames stay pinned — Electric
                // Fence's defining pathology.
                machine.mprotect(addr, pages, Protection::None)?;
                self.stats.note_free(size);
                Ok(())
            }
            Some(_) => {
                // Double free: detected because the bookkeeping still knows
                // the object.
                machine.telemetry_mut().counter_add("baseline.dangling_detected", 1);
                Err(AllocError::InvalidFree { addr })
            }
            None => Err(AllocError::InvalidFree { addr }),
        }
    }

    fn size_of(&self, _machine: &mut Machine, addr: VirtAddr) -> Result<usize, AllocError> {
        match self.objects.get(&addr) {
            Some(obj) if obj.live => Ok(obj.size),
            _ => Err(AllocError::InvalidFree { addr }),
        }
    }

    fn name(&self) -> &'static str {
        "efence"
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, EFence) {
        (Machine::free_running(), EFence::new())
    }

    #[test]
    fn detects_use_after_free() {
        let (mut m, mut e) = setup();
        let p = e.alloc(&mut m, 100).unwrap();
        m.store_u64(p, 1).unwrap();
        e.free(&mut m, p).unwrap();
        assert!(m.load_u64(p).is_err());
    }

    #[test]
    fn detects_double_free() {
        let (mut m, mut e) = setup();
        let p = e.alloc(&mut m, 16).unwrap();
        e.free(&mut m, p).unwrap();
        assert!(matches!(e.free(&mut m, p), Err(AllocError::InvalidFree { .. })));
        assert_eq!(m.telemetry().counter("baseline.dangling_detected"), 1);
    }

    #[test]
    fn guard_page_catches_overflow() {
        let (mut m, mut e) = setup();
        let p = e.alloc(&mut m, 16).unwrap();
        assert_eq!(m.stats().virt_pages_mapped, 2, "the object's page and its guard");
        assert!(m.store_u64(p.add(PAGE_SIZE as u64), 1).is_err());
    }

    #[test]
    fn physical_blowup_one_frame_per_small_object() {
        let (mut m, mut e) = setup();
        for _ in 0..64 {
            e.alloc(&mut m, 16).unwrap();
        }
        // 64 objects of 16 bytes = 1 KiB of data pin >= 64 frames (plus
        // guards). Contrast: SysHeap fits them in a single frame.
        assert!(m.stats().phys_frames_in_use >= 64);
    }

    #[test]
    fn frames_stay_pinned_after_free() {
        let (mut m, mut e) = setup();
        let mut ptrs = Vec::new();
        for _ in 0..16 {
            ptrs.push(e.alloc(&mut m, 16).unwrap());
        }
        let peak = m.stats().phys_frames_in_use;
        for p in ptrs {
            e.free(&mut m, p).unwrap();
        }
        assert_eq!(m.stats().phys_frames_in_use, peak, "no frame is ever released");
    }

    #[test]
    fn multi_page_objects() {
        let (mut m, mut e) = setup();
        let p = e.alloc(&mut m, 2 * PAGE_SIZE + 10).unwrap();
        m.store_u8(p.add(2 * PAGE_SIZE as u64 + 9), 7).unwrap();
        assert_eq!(e.size_of(&mut m, p).unwrap(), 2 * PAGE_SIZE + 10);
        e.free(&mut m, p).unwrap();
        assert!(m.load_u8(p.add(2 * PAGE_SIZE as u64)).is_err());
    }
}
