//! `ShadowHeap`: Insight 1 of the paper — a dangling-pointer detector over
//! an arbitrary, unmodified allocator.
//!
//! The §3.2 mechanism, verbatim:
//!
//! * **Allocation.** The request is forwarded to the underlying `malloc`
//!   with the size incremented by one word. Let `a` be the address it
//!   returns (the *canonical* address). A fresh run of virtual pages — the
//!   *shadow* pages — is created with `mremap(old, 0, len)`
//!   ([`Machine::mremap_alias`]) so that it shares the canonical pages'
//!   physical frames. The canonical page number is recorded in the extra
//!   word at the start of the object (an extension of the `malloc` header),
//!   and the caller receives `P_new + Offset(a) + sizeof(addr_t)`.
//! * **Deallocation.** The canonical page is read back from the hidden word
//!   — *this very read traps if the object was already freed*, so double
//!   frees are caught — the shadow pages are protected with
//!   `mprotect(PROT_NONE)`, and the canonical address is passed to the
//!   underlying `free`, letting the allocator (and hence the physical
//!   memory) recycle it normally.
//!
//! The result: physical consumption and cache layout are (nearly) identical
//! to the unprotected program, while every use of a stale pointer faults in
//! the MMU. Virtual pages are *never* reused, which is exactly why the pool
//! variant ([`crate::ShadowPool`]) exists; the §3.4 threshold mitigation is
//! available here as [`ShadowHeap::recycle_freed_pages`]. The mechanism itself
//! lives in [`crate::protect`]; this module supplies the heap's canonical
//! memory and the threshold recycling.

use crate::diag::SiteId;
use crate::protect::{merge_run, runs_overlap, BatchConfig, CanonicalMemory, Protector, SHADOW_WORD};
use crate::sampling::SamplingConfig;
use dangle_heap::{AllocError, AllocStats, Allocator, SysHeap};
use dangle_telemetry::Category;
use dangle_vmm::{Machine, PageNum, VirtAddr, PAGE_MASK};
#[cfg(test)]
use dangle_vmm::PAGE_SIZE;

/// Configuration of a [`ShadowHeap`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShadowConfig {
    /// §3.4 solution 1: when `Some(n)` and total virtual-page consumption
    /// exceeds `n` pages, the detector recycles the shadow pages of freed
    /// objects at the next allocation. Detection of *older* dangling
    /// pointers is no longer guaranteed past that point — the paper argues
    /// the window (hours on 64-bit) makes this acceptable in practice.
    pub recycle_threshold_pages: Option<u64>,
    /// Vectored-syscall batching (see [`BatchConfig`]).
    pub batch: BatchConfig,
    /// GWP-ASan-style sampled protection (see [`SamplingConfig`]). Off by
    /// default: every allocation gets a shadow alias, as in the paper.
    pub sampling: SamplingConfig,
}

/// The canonical memory of a [`ShadowHeap`]: any [`Allocator`], plus the
/// §3.4 recycled shadow runs.
#[derive(Debug)]
pub struct HeapMemory<A> {
    inner: A,
    recycle_threshold_pages: Option<u64>,
    /// Shadow runs of freed objects, candidates for §3.4 recycling. Kept
    /// sorted by base and coalesced incrementally at every free, so
    /// recycling and batched re-mapping are O(runs), not O(frees).
    freed_spans: Vec<(PageNum, usize)>,
    /// Recycled shadow runs ready for reuse via `alias_fixed`, sorted and
    /// coalesced like `freed_spans`.
    recycled: Vec<(PageNum, usize)>,
}

impl<A: Allocator> CanonicalMemory for HeapMemory<A> {
    type Scope = ();
    type Error = AllocError;
    const ALLOC_SPAN: &'static str = "shadow.alloc";
    const FREE_SPAN: &'static str = "shadow.free";
    const FLUSH_SPAN: &'static str = "shadow.flush";
    const SHADOW_PAGES_COUNTER: Option<&'static str> = Some("core.shadow_pages");

    fn alloc(&mut self, machine: &mut Machine, _: (), size: usize) -> Result<VirtAddr, AllocError> {
        self.inner.alloc(machine, size)
    }

    fn free(&mut self, machine: &mut Machine, _: (), addr: VirtAddr) -> Result<(), AllocError> {
        self.inner.free(machine, addr)
    }

    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, AllocError> {
        self.inner.size_of(machine, addr)
    }

    /// Recycled runs serve single-page objects only; multi-page spans
    /// always take a fresh `mremap` alias.
    fn take_run(&mut self, pages: usize) -> Option<PageNum> {
        if pages != 1 {
            return None;
        }
        self.take_run_capped(1).map(|(base, _)| base)
    }

    /// Takes up to `max` pages from the front of the top recycled run.
    fn take_run_capped(&mut self, max: usize) -> Option<(PageNum, usize)> {
        let (base, len) = self.recycled.pop()?;
        let take = len.min(max);
        if take < len {
            self.recycled.push((base.add(take as u64), len - take));
        }
        Some((base, take))
    }

    fn note_shadow_run(&mut self, machine: &mut Machine, _: PageNum, pages: usize, recycled: bool) {
        if recycled {
            machine.telemetry_mut().counter_add("core.shadow_pages_recycled", pages as u64);
        }
    }

    fn note_freed(&mut self, _: (), base: PageNum, pages: usize) {
        merge_run(&mut self.freed_spans, base, pages);
    }

    /// §3.4 threshold recycling: once virtual-page consumption crosses the
    /// threshold and no recycled run is left, the freed shadow runs become
    /// reusable.
    fn before_alloc(core: &mut ShadowHeap<A>, machine: &mut Machine) -> Result<(), AllocError> {
        let Some(threshold) = core.mem.recycle_threshold_pages else { return Ok(()) };
        if machine.virt_pages_consumed() >= threshold && core.mem.recycled.is_empty() {
            // Deferred protections must land before their pages can be
            // recycled and re-aliased to live storage.
            machine.span_enter("shadow.recycle", Category::PoolRecycling);
            let flushed = core.flush_protects(machine);
            core.recycle_freed_pages();
            machine.span_exit();
            flushed?;
        }
        Ok(())
    }
}

/// The shadow-page dangling-pointer detector over an arbitrary allocator:
/// a [`Protector`] over [`HeapMemory`].
///
/// Implements [`Allocator`] itself, so it is a drop-in replacement: the
/// paper's point is that this wrapping "can be directly applied on the
/// binaries" by intercepting `malloc`/`free`.
///
/// ```rust
/// use dangle_core::ShadowHeap;
/// use dangle_heap::{Allocator, SysHeap};
/// use dangle_vmm::Machine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Machine::new();
/// let mut heap = ShadowHeap::new(SysHeap::new());
/// let p = heap.alloc(&mut m, 24)?;
/// m.store_u64(p, 7)?;
/// heap.free(&mut m, p)?;
/// // The dangling use is caught by the MMU:
/// assert!(m.load_u64(p).is_err());
/// # Ok(())
/// # }
/// ```
pub type ShadowHeap<A = SysHeap> = Protector<HeapMemory<A>>;

impl<A: Allocator + Default> Default for ShadowHeap<A> {
    fn default() -> ShadowHeap<A> {
        ShadowHeap::new(A::default())
    }
}

impl<A: Allocator> ShadowHeap<A> {
    /// Wraps `inner` with dangling-pointer detection.
    pub fn new(inner: A) -> ShadowHeap<A> {
        ShadowHeap::with_config(inner, ShadowConfig::default())
    }

    /// Wraps `inner` with an explicit configuration.
    pub fn with_config(inner: A, config: ShadowConfig) -> ShadowHeap<A> {
        let mem = HeapMemory {
            inner,
            recycle_threshold_pages: config.recycle_threshold_pages,
            freed_spans: Vec::new(),
            recycled: Vec::new(),
        };
        Protector::with_memory(mem, config.batch, config.sampling)
    }

    /// Allocates `size` bytes, tagging the allocation with `site` for
    /// diagnostics.
    ///
    /// # Errors
    /// As for [`Allocator::alloc`].
    pub fn alloc_at(
        &mut self,
        machine: &mut Machine,
        size: usize,
        site: SiteId,
    ) -> Result<VirtAddr, AllocError> {
        self.alloc_in(machine, (), size, site)
    }

    /// Frees the allocation at `addr`, tagging the free with `site`.
    ///
    /// # Errors
    /// A double free surfaces as [`AllocError::Trap`] (the detector's own
    /// read of the hidden word faults on the protected page); the
    /// corresponding report is retrievable via [`Protector::last_report`].
    /// A wild pointer surfaces as [`AllocError::InvalidFree`].
    pub fn free_at(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<(), AllocError> {
        self.free_in(machine, (), addr, site)
    }

    /// Allocates `size` bytes **without** shadow protection, for a site the
    /// static free-site analysis (dangle-lint) proved `ProvablySafe`. The
    /// returned canonical address must be released through
    /// [`ShadowHeap::free_unchecked`].
    ///
    /// # Errors
    /// As for [`Allocator::alloc`].
    pub fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        size: usize,
    ) -> Result<VirtAddr, AllocError> {
        self.alloc_unchecked_in(machine, (), size)
    }

    /// Frees an allocation made by [`ShadowHeap::alloc_unchecked`]: straight
    /// to the inner allocator, with no `mprotect` and no registry update.
    ///
    /// # Errors
    /// As for [`Allocator::free`].
    pub fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
    ) -> Result<(), AllocError> {
        self.free_unchecked_in(machine, (), addr)
    }

    /// §3.4 solution 1: hands the shadow runs of *freed* objects back for
    /// reuse, surrendering the detection guarantee for pointers into them.
    /// Runs whose protection is still pending (epoch mode) stay back until
    /// flushed. Returns the number of pages made reusable. The incremental
    /// sorting of the freed runs makes this O(runs), not O(frees).
    pub fn recycle_freed_pages(&mut self) -> usize {
        let mut n = 0;
        for (base, span) in std::mem::take(&mut self.mem.freed_spans) {
            if runs_overlap(&self.pending_protect, base, span) {
                merge_run(&mut self.mem.freed_spans, base, span);
                continue;
            }
            self.registry.forget_range(base, span);
            n += span;
            merge_run(&mut self.mem.recycled, base, span);
        }
        n
    }

    /// Number of recycled shadow pages currently available for reuse.
    pub fn recycled_available(&self) -> usize {
        self.mem.recycled.iter().map(|&(_, len)| len).sum()
    }

    /// The wrapped allocator.
    pub fn inner(&self) -> &A {
        &self.mem.inner
    }
}

impl<A: Allocator> Allocator for ShadowHeap<A> {
    fn alloc(&mut self, machine: &mut Machine, size: usize) -> Result<VirtAddr, AllocError> {
        self.alloc_at(machine, size, SiteId::UNKNOWN)
    }

    fn free(&mut self, machine: &mut Machine, addr: VirtAddr) -> Result<(), AllocError> {
        self.free_at(machine, addr, SiteId::UNKNOWN)
    }

    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, AllocError> {
        let hidden = addr.sub(SHADOW_WORD as u64);
        let canon_page = machine.load_u64(hidden)?;
        if canon_page & PAGE_MASK != 0 || canon_page == 0 {
            return Err(AllocError::InvalidFree { addr });
        }
        let canon_hidden = VirtAddr(canon_page + hidden.offset() as u64);
        Ok(self.mem.inner.size_of(machine, canon_hidden)? - SHADOW_WORD)
    }

    fn name(&self) -> &'static str {
        "shadow"
    }

    fn stats(&self) -> AllocStats {
        Protector::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{DanglingKind, ObjectState};

    fn setup() -> (Machine, ShadowHeap) {
        (Machine::free_running(), ShadowHeap::new(SysHeap::new()))
    }

    #[test]
    fn alloc_write_read_free() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 64).unwrap();
        m.store_u64(p, 11).unwrap();
        m.store_u64(p.add(56), 22).unwrap();
        assert_eq!(m.load_u64(p).unwrap(), 11);
        assert_eq!(m.load_u64(p.add(56)).unwrap(), 22);
        h.free(&mut m, p).unwrap();
    }

    #[test]
    fn use_after_free_read_traps_and_is_explained() {
        let (mut m, mut h) = setup();
        let site_a = h.sites_mut().intern("make_node");
        let site_f = h.sites_mut().intern("drop_node");
        let p = h.alloc_at(&mut m, 24, site_a).unwrap();
        h.free_at(&mut m, p, site_f).unwrap();

        let trap = m.load_u64(p).unwrap_err();
        let report = h.explain(&trap).expect("detector must attribute the trap");
        assert_eq!(report.kind, DanglingKind::Read);
        assert_eq!(report.object.base, p);
        assert_eq!(report.object.size, 24);
        assert_eq!(report.object.alloc_site, site_a);
        assert_eq!(report.object.state, ObjectState::Freed { free_site: site_f });
        let text = report.render(h.sites());
        assert!(text.contains("make_node") && text.contains("drop_node"), "{text}");
    }

    #[test]
    fn trap_report_serializes_with_event_context() {
        use dangle_telemetry::{EventKind, Json, TrapReport};
        let (mut m, mut h) = setup();
        let site_a = h.sites_mut().intern("parse_header:malloc");
        let site_f = h.sites_mut().intern("reset_session:free");
        let p = h.alloc_at(&mut m, 48, site_a).unwrap();
        h.free_at(&mut m, p, site_f).unwrap();

        let trap = m.load_u64(p).unwrap_err();
        let report = h.trap_report(&m, &trap, "event_loop:read").unwrap();
        assert_eq!(report.kind, "dangling read");
        assert_eq!(report.alloc_site, "parse_header:malloc");
        assert_eq!(report.free_site.as_deref(), Some("reset_session:free"));
        assert_eq!(report.use_site, "event_loop:read");
        assert_eq!(report.object_size, 48);
        // The ring context ends with the trap itself, preceded by the
        // mprotect of the free.
        let last = report.events.last().unwrap();
        assert_eq!(last.kind, EventKind::Trap);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Mprotect { .. })));
        // Full JSON round trip.
        let text = report.to_json().pretty();
        let parsed = TrapReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn use_after_free_write_traps_as_write() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 16).unwrap();
        h.free(&mut m, p).unwrap();
        let trap = m.store_u64(p.add(8), 1).unwrap_err();
        assert_eq!(h.explain(&trap).unwrap().kind, DanglingKind::Write);
    }

    #[test]
    fn double_free_detected_via_hidden_word() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 32).unwrap();
        h.free(&mut m, p).unwrap();
        let err = h.free(&mut m, p).unwrap_err();
        assert!(matches!(err, AllocError::Trap(_)));
        assert_eq!(h.last_report().unwrap().kind, DanglingKind::DoubleFree);
    }

    #[test]
    fn detection_holds_arbitrarily_far_in_the_future() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 16).unwrap();
        h.free(&mut m, p).unwrap();
        // Lots of subsequent traffic reusing the same canonical storage.
        for _ in 0..500 {
            let q = h.alloc(&mut m, 16).unwrap();
            m.store_u64(q, 1).unwrap();
            h.free(&mut m, q).unwrap();
        }
        assert!(m.load_u64(p).is_err(), "stale pointer must still trap");
    }

    #[test]
    fn each_allocation_gets_a_distinct_virtual_page() {
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 16).unwrap();
        let b = h.alloc(&mut m, 16).unwrap();
        assert_ne!(a.page(), b.page());
    }

    #[test]
    fn objects_share_physical_frames_like_the_original_program() {
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 16).unwrap();
        let b = h.alloc(&mut m, 16).unwrap();
        // Canonical blocks are contiguous in one malloc page, so the two
        // shadow views must be backed by the same frame.
        assert_eq!(m.frame_of(a), m.frame_of(b), "Insight 1: same physical page");
    }

    #[test]
    fn physical_consumption_matches_plain_malloc() {
        let mut m_plain = Machine::free_running();
        let mut plain = SysHeap::new();
        let mut m_shadow = Machine::free_running();
        let mut shadow = ShadowHeap::new(SysHeap::new());
        for i in 0..200 {
            let s = 16 + (i % 10) * 24;
            plain.alloc(&mut m_plain, s).unwrap();
            shadow.alloc(&mut m_shadow, s).unwrap();
        }
        let p = m_plain.stats().phys_frames_in_use as f64;
        let q = m_shadow.stats().phys_frames_in_use as f64;
        assert!(
            q <= p * 1.25 + 2.0,
            "shadow physical use {q} must stay close to plain {p}"
        );
    }

    #[test]
    fn writes_through_shadow_reach_canonical_storage() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 16).unwrap();
        m.store_u64(p, 0xfeed_f00d).unwrap();
        let canon = h.canonical_of(&m, p).unwrap();
        assert_ne!(canon.page(), p.page());
        assert_eq!(m.peek_u64(canon), Some(0xfeed_f00d));
        assert_eq!(canon.offset(), p.offset(), "same offset within the page");
    }

    #[test]
    fn page_spanning_object_fully_protected_on_free() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 3 * PAGE_SIZE).unwrap();
        m.store_u64(p.add(2 * PAGE_SIZE as u64), 5).unwrap();
        h.free(&mut m, p).unwrap();
        assert!(m.load_u64(p).is_err());
        assert!(m.load_u64(p.add(PAGE_SIZE as u64)).is_err());
        assert!(m.load_u64(p.add(2 * PAGE_SIZE as u64)).is_err());
    }

    #[test]
    fn size_of_round_trips() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 1234).unwrap();
        assert_eq!(h.size_of(&mut m, p).unwrap(), 1234);
    }

    #[test]
    fn wild_free_rejected() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 64).unwrap();
        m.store_u64(p, 0x1234).unwrap(); // not a page-aligned canonical record
        // Freeing p+16 reads object interior as "hidden word" -> garbage.
        let err = h.free(&mut m, p.add(16)).unwrap_err();
        assert!(matches!(err, AllocError::InvalidFree { .. } | AllocError::Trap(_)));
    }

    #[test]
    fn va_grows_without_recycling_and_plateaus_with_it() {
        // Without recycling, alloc/free loops consume fresh VA forever.
        let (mut m, mut h) = setup();
        for _ in 0..50 {
            let p = h.alloc(&mut m, 16).unwrap();
            h.free(&mut m, p).unwrap();
        }
        let consumed = m.virt_pages_consumed();
        assert!(consumed >= 50, "one fresh shadow page per allocation");

        // With §3.4 recycling the same loop plateaus.
        let mut m2 = Machine::free_running();
        let mut h2 = ShadowHeap::with_config(
            SysHeap::new(),
            ShadowConfig { recycle_threshold_pages: Some(30), ..ShadowConfig::default() },
        );
        for _ in 0..200 {
            let p = h2.alloc(&mut m2, 16).unwrap();
            h2.free(&mut m2, p).unwrap();
        }
        assert!(
            m2.virt_pages_consumed() < 60,
            "recycling must bound VA growth, consumed {}",
            m2.virt_pages_consumed()
        );
    }

    #[test]
    fn recycling_gives_up_detection_for_old_pointers() {
        let (mut m, mut h) = setup();
        let stale = h.alloc(&mut m, 16).unwrap();
        h.free(&mut m, stale).unwrap();
        assert!(m.load_u64(stale).is_err(), "trap before recycling");

        assert_eq!(h.recycle_freed_pages(), 1);
        let fresh = h.alloc(&mut m, 16).unwrap();
        assert_eq!(fresh.page(), stale.page(), "page was recycled");
        // The stale pointer now silently reads the new object — the
        // documented §3.4 trade-off.
        assert!(m.load_u64(stale).is_ok());
    }

    #[test]
    fn allocator_trait_object_usable() {
        let mut m = Machine::free_running();
        let mut h: Box<dyn Allocator> = Box::new(ShadowHeap::new(SysHeap::new()));
        let p = h.alloc(&mut m, 8).unwrap();
        h.free(&mut m, p).unwrap();
        assert_eq!(h.name(), "shadow");
        assert_eq!(h.stats().allocs, 1);
    }

    #[test]
    fn works_over_an_arbitrary_allocator() {
        // §3.2: "our basic approach ... can work with an arbitrary memory
        // allocator". Exercise the identical wrapper over the structurally
        // different buddy allocator.
        use dangle_heap::BuddyHeap;
        let mut m = Machine::free_running();
        let mut h = ShadowHeap::new(BuddyHeap::new());
        let a = h.alloc(&mut m, 24).unwrap();
        let b = h.alloc(&mut m, 24).unwrap();
        m.store_u64(a, 1).unwrap();
        m.store_u64(b, 2).unwrap();
        assert_ne!(a.page(), b.page(), "fresh virtual page per object");
        assert_eq!(m.frame_of(a), m.frame_of(b), "same physical page (buddy packs them)");
        h.free(&mut m, a).unwrap();
        assert!(m.load_u64(a).is_err(), "dangling use trapped over buddy too");
        assert_eq!(m.load_u64(b).unwrap(), 2);
        // Double free through the buddy allocator's header is also caught.
        assert!(matches!(h.free(&mut m, a), Err(AllocError::Trap(_))));
    }

    fn batched() -> (Machine, ShadowHeap) {
        let cfg = ShadowConfig {
            batch: BatchConfig { enabled: true, ..BatchConfig::default() },
            ..ShadowConfig::default()
        };
        (Machine::free_running(), ShadowHeap::with_config(SysHeap::new(), cfg))
    }

    #[test]
    fn batched_mode_detects_like_legacy() {
        let (mut m, mut h) = batched();
        let mut ptrs = Vec::new();
        for _ in 0..12 {
            let p = h.alloc(&mut m, 16).unwrap();
            m.store_u64(p, 7).unwrap();
            ptrs.push(p);
        }
        for &p in &ptrs {
            h.free(&mut m, p).unwrap();
        }
        for &p in &ptrs {
            assert!(m.load_u64(p).is_err(), "dangling use trapped in batched mode");
        }
        // Double free still caught by the hidden-word read.
        let err = h.free(&mut m, ptrs[0]).unwrap_err();
        assert!(matches!(err, AllocError::Trap(_)));
        assert_eq!(h.last_report().unwrap().kind, DanglingKind::DoubleFree);
    }

    #[test]
    fn extents_cut_remap_crossings() {
        let n = 64;
        let mut m_legacy = Machine::new();
        let mut legacy = ShadowHeap::new(SysHeap::new());
        let mut m_batch = Machine::new();
        let (_, mut batch) = batched();
        for _ in 0..n {
            let a = legacy.alloc(&mut m_legacy, 16).unwrap();
            m_legacy.store_u64(a, 1).unwrap();
            let b = batch.alloc(&mut m_batch, 16).unwrap();
            m_batch.store_u64(b, 1).unwrap();
        }
        let sl = m_legacy.stats();
        let sb = m_batch.stats();
        assert_eq!(sl.mremap_calls, n, "legacy pays one mremap per allocation");
        assert!(
            sb.mremap_calls * 2 < sl.mremap_calls,
            "extents must at least halve remap crossings: {} vs {}",
            sb.mremap_calls,
            sl.mremap_calls
        );
        assert!(sb.ranges_batched > 0);
        assert!(
            m_batch.clock() <= m_legacy.clock(),
            "batched {} must not exceed legacy {} cycles",
            m_batch.clock(),
            m_legacy.clock()
        );
    }

    #[test]
    fn epoch_mode_defers_then_flushes_and_catches_double_free() {
        let cfg = ShadowConfig {
            batch: BatchConfig { enabled: true, protect_epoch: Some(4) },
            ..ShadowConfig::default()
        };
        let mut m = Machine::free_running();
        let mut h = ShadowHeap::with_config(SysHeap::new(), cfg);
        let ptrs: Vec<_> = (0..4).map(|_| h.alloc(&mut m, 16).unwrap()).collect();
        h.free(&mut m, ptrs[0]).unwrap();
        h.free(&mut m, ptrs[1]).unwrap();
        // Within the window the stale pointers still read silently — the
        // documented bounded-window trade-off.
        assert!(m.load_u64(ptrs[0]).is_ok());
        // A double free inside the window is still caught: the detector
        // flushes before reading the hidden word.
        let err = h.free(&mut m, ptrs[1]).unwrap_err();
        assert!(matches!(err, AllocError::Trap(_)));
        assert_eq!(h.last_report().unwrap().kind, DanglingKind::DoubleFree);
        // The flush protected everything pending.
        assert!(m.load_u64(ptrs[0]).is_err());

        // Four more frees flush on their own at the epoch boundary, in one
        // vectored crossing when the runs are discontiguous.
        let more: Vec<_> = (0..4).map(|_| h.alloc(&mut m, 16).unwrap()).collect();
        let before = m.stats().mprotect_batch_calls;
        for &p in &more {
            h.free(&mut m, p).unwrap();
        }
        for &p in &more {
            assert!(m.load_u64(p).is_err(), "protected after the epoch flush");
        }
        assert!(m.stats().mprotect_batch_calls >= before, "flush went through the batch path");
        assert!(m.telemetry().counter("shadow.protect_runs") > 0);
    }

    #[test]
    fn batched_recycling_reuses_runs() {
        let cfg = ShadowConfig {
            recycle_threshold_pages: Some(20),
            batch: BatchConfig { enabled: true, ..BatchConfig::default() },
            ..ShadowConfig::default()
        };
        let mut m = Machine::free_running();
        let mut h = ShadowHeap::with_config(SysHeap::new(), cfg);
        for _ in 0..200 {
            let p = h.alloc(&mut m, 16).unwrap();
            h.free(&mut m, p).unwrap();
        }
        assert!(
            m.virt_pages_consumed() < 60,
            "recycling must bound VA growth in batched mode, consumed {}",
            m.virt_pages_consumed()
        );
        assert!(m.telemetry().counter("core.shadow_pages_recycled") > 0);
    }

    #[test]
    fn stats_report_user_sizes() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 100).unwrap();
        assert_eq!(h.stats().live_bytes, 100);
        h.free(&mut m, p).unwrap();
        assert_eq!(h.stats().live_bytes, 0);
        assert_eq!(h.stats().allocs, 1);
        assert_eq!(h.stats().frees, 1);
    }
}
