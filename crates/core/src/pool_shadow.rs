//! `ShadowPool`: Insights 1 **and** 2 — the paper's full approach.
//!
//! The shadow-page mechanism of [`crate::ShadowHeap`] applied *within each
//! pool* created by the Automatic Pool Allocation transform (§3.3):
//!
//! * `poolalloc` allocates from the pool's canonical pages and remaps a
//!   fresh shadow view per object;
//! * `poolfree` protects the object's shadow pages and returns the
//!   canonical block to the pool;
//! * `pooldestroy` releases **all** canonical and shadow pages of the pool
//!   to the shared free list — the compiler has proved no pointer into the
//!   pool survives, so recycling those virtual pages cannot mask a dangling
//!   use.
//!
//! This turns the basic scheme's unbounded virtual-address growth into
//! growth proportional to the *live* pools only, which the paper's §4.3
//! measurements show is tiny for real servers. The mechanism itself lives
//! in [`crate::protect`]; this module supplies the pools' canonical memory
//! and the destroy and GC bookkeeping.

use crate::diag::SiteId;
use crate::protect::{runs_overlap, CanonicalMemory, Protector};
use crate::sharded::DetectorConfig;
use dangle_pool::{PoolError, PoolId, PoolSet};
use dangle_telemetry::{Category, CounterHandle, EventKind};
use dangle_vmm::{Machine, PageNum, VirtAddr};
use std::collections::HashMap;

/// One freed object's shadow span, kept per pool for the §3.4 GC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreedSpan {
    /// First shadow page of the span.
    pub base: PageNum,
    /// Number of pages.
    pub span: usize,
}

/// The canonical memory of a [`ShadowPool`]: the pool runtime, whose
/// shared free list also recycles shadow runs, plus the freed spans the
/// §3.4 GC may reclaim.
#[derive(Debug)]
pub struct PoolMemory {
    pools: PoolSet,
    /// Freed-object shadow spans per pool (candidates for the §3.4 GC).
    freed: HashMap<PoolId, Vec<FreedSpan>>,
    /// Cached telemetry handles for the per-alloc counters, resolved on
    /// first use so the hot path skips the by-name registry lookup.
    recycled_counter: Option<CounterHandle>,
    fresh_counter: Option<CounterHandle>,
}

impl CanonicalMemory for PoolMemory {
    type Scope = PoolId;
    type Error = PoolError;
    const ALLOC_SPAN: &'static str = "pool.alloc";
    const FREE_SPAN: &'static str = "pool.free";
    const FLUSH_SPAN: &'static str = "pool.flush";
    const SHADOW_PAGES_COUNTER: Option<&'static str> = None;

    fn alloc(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
    ) -> Result<VirtAddr, PoolError> {
        self.pools.alloc(machine, pool, size)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
    ) -> Result<(), PoolError> {
        self.pools.free(machine, pool, addr)
    }

    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, PoolError> {
        self.pools.size_of(machine, addr)
    }

    /// Shadow runs come from the shared free list, multi-page runs too.
    fn take_run(&mut self, pages: usize) -> Option<PageNum> {
        self.pools.take_free_run(pages)
    }

    fn take_run_capped(&mut self, max: usize) -> Option<(PageNum, usize)> {
        self.pools.take_free_run_capped(max)
    }

    /// Notes a `FreeListHit`/`FreeListMiss` ring event and bumps the cached
    /// `pool.pages_recycled`/`pool.pages_fresh` counter.
    fn note_shadow_run(
        &mut self,
        machine: &mut Machine,
        base: PageNum,
        pages: usize,
        recycled: bool,
    ) {
        let event = if recycled {
            EventKind::FreeListHit { pages: pages as u32 }
        } else {
            EventKind::FreeListMiss { pages: pages as u32 }
        };
        machine.note_event(base.base(), event);
        let t = machine.telemetry_mut();
        if !t.enabled() {
            return;
        }
        let slot = if recycled { &mut self.recycled_counter } else { &mut self.fresh_counter };
        let name = if recycled { "pool.pages_recycled" } else { "pool.pages_fresh" };
        let h = *slot.get_or_insert_with(|| t.metrics_mut().counter_handle(name));
        t.metrics_mut().add(h, pages as u64);
    }

    fn register(&mut self, pool: PoolId, base: PageNum, pages: usize) -> Result<(), PoolError> {
        self.pools.register_extra_run(pool, base, pages)
    }

    fn note_freed(&mut self, pool: PoolId, base: PageNum, pages: usize) {
        self.freed.entry(pool).or_default().push(FreedSpan { base, span: pages });
    }
}

/// The pool-based shadow-page detector (the paper's production
/// configuration): a [`Protector`] over [`PoolMemory`]. See the
/// [module docs](self).
///
/// ```rust
/// use dangle_core::ShadowPool;
/// use dangle_vmm::Machine;
///
/// # fn main() -> Result<(), dangle_pool::PoolError> {
/// let mut m = Machine::new();
/// let mut sp = ShadowPool::new();
/// let pp = sp.create(16);
/// let node = sp.alloc(&mut m, pp, 16)?;
/// m.store_u64(node, 1)?;
/// sp.free(&mut m, pp, node)?;
/// assert!(m.load_u64(node).is_err(), "dangling use trapped");
/// sp.destroy(&mut m, pp)?; // every page becomes reusable
/// # Ok(())
/// # }
/// ```
pub type ShadowPool = Protector<PoolMemory>;

impl Default for ShadowPool {
    fn default() -> ShadowPool {
        ShadowPool::new()
    }
}

impl ShadowPool {
    /// Creates a detector with the default configuration. Other
    /// configurations are built by [`crate::ShardedShadowPool`].
    pub fn new() -> ShadowPool {
        ShadowPool::for_shard(&DetectorConfig::default(), 0)
    }

    /// The detector shard `shard` of a [`crate::ShardedShadowPool`] built
    /// from `config`.
    pub(crate) fn for_shard(config: &DetectorConfig, shard: usize) -> ShadowPool {
        let mem = PoolMemory {
            pools: PoolSet::with_config(config.pool),
            freed: HashMap::new(),
            recycled_counter: None,
            fresh_counter: None,
        };
        Protector::with_memory(mem, config.batch, config.sampling.for_shard(shard))
    }

    /// `poolinit`. See [`PoolSet::create`].
    pub fn create(&mut self, elem_hint: usize) -> PoolId {
        self.mem.pools.create(elem_hint)
    }

    /// `poolalloc` + shadow remap, tagged with an allocation site.
    ///
    /// # Errors
    /// As for [`PoolSet::alloc`].
    pub fn alloc_at(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
        site: SiteId,
    ) -> Result<VirtAddr, PoolError> {
        self.alloc_in(machine, pool, size, site)
    }

    /// `poolalloc` + shadow remap (untagged).
    ///
    /// # Errors
    /// As for [`PoolSet::alloc`].
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
    ) -> Result<VirtAddr, PoolError> {
        self.alloc_in(machine, pool, size, SiteId::UNKNOWN)
    }

    /// `poolfree` + shadow protect, tagged with a free site.
    ///
    /// # Errors
    /// A double free surfaces as a trap on the hidden-word read (see
    /// [`Protector::last_report`]); a wild pointer as
    /// [`dangle_heap::AllocError::InvalidFree`].
    pub fn free_at(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<(), PoolError> {
        self.free_in(machine, pool, addr, site)
    }

    /// `poolfree` + shadow protect (untagged).
    ///
    /// # Errors
    /// See [`ShadowPool::free_at`].
    pub fn free(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
    ) -> Result<(), PoolError> {
        self.free_in(machine, pool, addr, SiteId::UNKNOWN)
    }

    /// `poolalloc` **without** shadow protection, for a site dangle-lint
    /// proved `ProvablySafe`: the object lives directly on the pool's
    /// canonical pages. Must be paired with [`ShadowPool::free_unchecked`].
    ///
    /// # Errors
    /// As for [`PoolSet::alloc`].
    pub fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
    ) -> Result<VirtAddr, PoolError> {
        self.alloc_unchecked_in(machine, pool, size)
    }

    /// `poolfree` for an allocation made by
    /// [`ShadowPool::alloc_unchecked`]: straight back to the pool, with no
    /// `mprotect` and no freed-span bookkeeping.
    ///
    /// # Errors
    /// As for [`PoolSet::free`].
    pub fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
    ) -> Result<(), PoolError> {
        self.free_unchecked_in(machine, pool, addr)
    }

    /// `pooldestroy`: recycles every canonical and shadow page of the pool
    /// through the shared free list and drops its diagnostics (no pointer
    /// into the pool can fault any more — the APA contract).
    ///
    /// # Errors
    /// As for [`PoolSet::destroy`].
    pub fn destroy(&mut self, machine: &mut Machine, pool: PoolId) -> Result<(), PoolError> {
        machine.span_enter("pool.destroy", Category::PoolRecycling);
        let r = self.destroy_inner(machine, pool);
        machine.span_exit();
        r
    }

    fn destroy_inner(&mut self, machine: &mut Machine, pool: PoolId) -> Result<(), PoolError> {
        // Leftover extent pages were registered at build time, so the
        // release below already covers them.
        self.retire_scope(machine, pool)?;
        // Every shadow run is registered with its pool.
        if let Ok(shadow) = self.mem.pools.extra_pages(pool) {
            self.registry.forget_pages(shadow);
        }
        self.mem.pools.destroy(machine, pool)?;
        self.mem.freed.remove(&pool);
        Ok(())
    }

    /// The underlying pool runtime (read-only).
    pub fn pools(&self) -> &PoolSet {
        &self.mem.pools
    }

    /// Takes up to `max` contiguous recycled pages off this detector's
    /// shared free list without mapping them, so a sharded composition
    /// (see [`crate::sharded`]) can retire the surplus into a cross-shard
    /// epoch free list. `None` when the list is empty or reuse is off.
    pub fn export_free_run(&mut self, max: usize) -> Option<(PageNum, usize)> {
        self.mem.pools.take_free_run_capped(max)
    }

    /// Adds a run of recycled pages — exported from another shard and held
    /// until an epoch grace period passed — to this detector's free list.
    /// The pages must have been handed out by the same [`Machine`] so a
    /// later `mmap_fixed` recycling them is legal.
    pub fn adopt_free_run(&mut self, base: PageNum, pages: usize) {
        self.mem.pools.donate_run(base, pages as u32);
    }

    /// Records a dynamic pool points-to edge (see
    /// [`PoolSet::note_pool_edge`]).
    pub fn note_pool_edge(&mut self, from: PoolId, to: PoolId) {
        self.mem.pools.note_pool_edge(from, to);
    }

    /// Freed shadow spans of `pool` — GC candidates.
    pub fn freed_spans(&self, pool: PoolId) -> Vec<FreedSpan> {
        self.mem.freed.get(&pool).cloned().unwrap_or_default()
    }

    /// Reclaims a freed shadow span of `pool` after the GC proved it
    /// unreferenced: removes diagnostics, unregisters the pages from the
    /// pool, and donates them to the shared free list. Returns the number of
    /// pages reclaimed (0 if the span was not a candidate).
    pub fn reclaim_span(&mut self, pool: PoolId, span: FreedSpan) -> usize {
        // A span whose protection is still pending (epoch mode) is not
        // reclaimable yet: donating it could re-map the pages to live
        // storage before the deferred mprotect lands.
        if runs_overlap(&self.pending_protect, span.base, span.span) {
            return 0;
        }
        let Some(list) = self.mem.freed.get_mut(&pool) else { return 0 };
        let Some(pos) = list.iter().position(|&s| s == span) else { return 0 };
        list.remove(pos);
        self.registry.forget_range(span.base, span.span);
        for i in 0..span.span as u64 {
            let pg = span.base.add(i);
            let _ = self.mem.pools.take_extra_page(pool, pg);
            self.mem.pools.donate_page(pg);
        }
        span.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DanglingKind;
    use crate::protect::BatchConfig;
    use dangle_heap::AllocError;

    fn batched_with(batch: BatchConfig) -> ShadowPool {
        ShadowPool::for_shard(&DetectorConfig { batch, ..DetectorConfig::default() }, 0)
    }

    fn setup() -> (Machine, ShadowPool) {
        (Machine::free_running(), ShadowPool::new())
    }

    #[test]
    fn detects_use_after_free_within_pool() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        let p = sp.alloc(&mut m, pp, 16).unwrap();
        m.store_u64(p, 3).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        let trap = m.load_u64(p).unwrap_err();
        assert_eq!(sp.explain(&trap).unwrap().kind, DanglingKind::Read);
    }

    #[test]
    fn double_free_detected() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        let p = sp.alloc(&mut m, pp, 16).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        assert!(sp.free(&mut m, pp, p).is_err());
        assert_eq!(sp.last_report().unwrap().kind, DanglingKind::DoubleFree);
    }

    #[test]
    fn destroy_recycles_shadow_and_canonical_pages() {
        let (mut m, mut sp) = setup();
        let p1 = sp.create(16);
        // 3 allocations: 1 canonical page + 3 shadow pages.
        for _ in 0..3 {
            sp.alloc(&mut m, p1, 16).unwrap();
        }
        sp.destroy(&mut m, p1).unwrap();
        assert_eq!(sp.pools().free_page_count(), 4);

        // A new pool reuses those pages; after warm-up no fresh VA needed.
        let consumed = m.virt_pages_consumed();
        let p2 = sp.create(16);
        for _ in 0..3 {
            sp.alloc(&mut m, p2, 16).unwrap();
        }
        sp.destroy(&mut m, p2).unwrap();
        assert_eq!(m.virt_pages_consumed(), consumed, "full VA reuse");
    }

    #[test]
    fn figure_1_running_example() {
        // f() creates a pool, g() builds a 10-node list, frees all but the
        // head, and f() then dereferences p->next — the paper's Figure 1
        // dangling error, caught by the MMU.
        let (mut m, mut sp) = setup();
        let site_g = {
            let s = sp.sites_mut();
            s.intern("g:malloc")
        };
        let site_free = sp.sites_mut().intern("free_all_but_head");

        let pp = sp.create(16); // poolinit in f()
        // create_10_node_list: node = { next: u64, val: u64 }
        let mut nodes = Vec::new();
        for _ in 0..10 {
            nodes.push(sp.alloc_at(&mut m, pp, 16, site_g).unwrap());
        }
        for w in nodes.windows(2) {
            m.store_u64(w[0], w[1].raw()).unwrap(); // p->next
        }
        m.store_u64(nodes[9], 0).unwrap();
        // free_all_but_head
        for &n in &nodes[1..] {
            sp.free_at(&mut m, pp, n, site_free).unwrap();
        }
        // p->next->val = ...  (dangling!)
        let next = m.load_u64(nodes[0]).unwrap();
        let trap = m.store_u64(VirtAddr(next).add(8), 42).unwrap_err();
        let report = sp.explain(&trap).unwrap();
        assert_eq!(report.kind, DanglingKind::Write);
        assert!(report.render(sp.sites()).contains("free_all_but_head"));

        // pooldestroy in f(): all pages recycled.
        sp.destroy(&mut m, pp).unwrap();
        assert!(sp.pools().free_page_count() >= 11);
    }

    #[test]
    fn pools_isolated_from_each_other() {
        let (mut m, mut sp) = setup();
        let p1 = sp.create(16);
        let p2 = sp.create(16);
        let a = sp.alloc(&mut m, p1, 16).unwrap();
        let b = sp.alloc(&mut m, p2, 16).unwrap();
        sp.free(&mut m, p1, a).unwrap();
        // b unaffected by a's free.
        m.store_u64(b, 9).unwrap();
        assert_eq!(m.load_u64(b).unwrap(), 9);
        sp.destroy(&mut m, p1).unwrap();
        assert_eq!(m.load_u64(b).unwrap(), 9, "destroying p1 leaves p2 intact");
    }

    #[test]
    fn freed_span_bookkeeping() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        let a = sp.alloc(&mut m, pp, 24).unwrap();
        let _b = sp.alloc(&mut m, pp, 24).unwrap();
        sp.free(&mut m, pp, a).unwrap();
        assert_eq!(sp.freed_spans(pp), vec![FreedSpan { base: a.page(), span: 1 }]);
    }

    #[test]
    fn reclaim_span_donates_pages() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        let a = sp.alloc(&mut m, pp, 16).unwrap();
        sp.free(&mut m, pp, a).unwrap();
        let span = sp.freed_spans(pp)[0];
        let before = sp.pools().free_page_count();
        assert_eq!(sp.reclaim_span(pp, span), 1);
        assert_eq!(sp.pools().free_page_count(), before + 1);
        assert!(sp.freed_spans(pp).is_empty());
        // Reclaiming again is a no-op.
        assert_eq!(sp.reclaim_span(pp, span), 0);
        // Destroying the pool afterwards must not double-release the page.
        let count_before_destroy = sp.pools().free_page_count();
        sp.destroy(&mut m, pp).unwrap();
        // canonical page released exactly once:
        assert_eq!(sp.pools().free_page_count(), count_before_destroy + 1);
    }

    #[test]
    fn alloc_on_destroyed_pool_fails() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        sp.destroy(&mut m, pp).unwrap();
        assert!(matches!(sp.alloc(&mut m, pp, 8), Err(PoolError::Destroyed(_))));
    }

    fn batched() -> (Machine, ShadowPool) {
        let batch = BatchConfig { enabled: true, ..BatchConfig::default() };
        (Machine::free_running(), batched_with(batch))
    }

    #[test]
    fn batched_pool_detects_like_legacy() {
        let (mut m, mut sp) = batched();
        let pp = sp.create(16);
        let mut ptrs = Vec::new();
        for _ in 0..12 {
            let p = sp.alloc(&mut m, pp, 16).unwrap();
            m.store_u64(p, 5).unwrap();
            ptrs.push(p);
        }
        for &p in &ptrs[1..] {
            sp.free(&mut m, pp, p).unwrap();
        }
        for &p in &ptrs[1..] {
            let trap = m.load_u64(p).unwrap_err();
            assert_eq!(sp.explain(&trap).unwrap().kind, DanglingKind::Read);
        }
        assert_eq!(m.load_u64(ptrs[0]).unwrap(), 5, "live object untouched");
        // Double free still caught by the hidden-word read.
        assert!(sp.free(&mut m, pp, ptrs[1]).is_err());
        assert_eq!(sp.last_report().unwrap().kind, DanglingKind::DoubleFree);
    }

    #[test]
    fn batched_pool_extents_cut_crossings_and_cycles() {
        let n = 64;
        let mut m_legacy = Machine::new();
        let mut legacy = ShadowPool::new();
        let p_legacy = legacy.create(16);
        let mut m_batch = Machine::new();
        let mut batch = batched_with(BatchConfig { enabled: true, ..BatchConfig::default() });
        let p_batch = batch.create(16);
        for _ in 0..n {
            let a = legacy.alloc(&mut m_legacy, p_legacy, 16).unwrap();
            m_legacy.store_u64(a, 1).unwrap();
            let b = batch.alloc(&mut m_batch, p_batch, 16).unwrap();
            m_batch.store_u64(b, 1).unwrap();
        }
        let sl = m_legacy.stats();
        let sb = m_batch.stats();
        assert!(
            (sb.mremap_calls + sb.mmap_calls) * 2 < sl.mremap_calls + sl.mmap_calls,
            "extents must at least halve alias crossings: {} vs {}",
            sb.mremap_calls + sb.mmap_calls,
            sl.mremap_calls + sl.mmap_calls
        );
        assert!(sb.ranges_batched > 0);
        assert!(
            m_batch.clock() <= m_legacy.clock(),
            "batched {} must not exceed legacy {} cycles",
            m_batch.clock(),
            m_legacy.clock()
        );
        assert!(m_batch.telemetry().counter("shadow.extent_hits") > 0);
    }

    #[test]
    fn batched_destroy_recycles_extent_leftovers() {
        let (mut m, mut sp) = batched();
        let p1 = sp.create(16);
        for _ in 0..3 {
            sp.alloc(&mut m, p1, 16).unwrap();
        }
        sp.destroy(&mut m, p1).unwrap();
        // 1 canonical + 3 consumed shadow pages + any unconsumed extent
        // pages all land on the shared free list.
        assert!(sp.pools().free_page_count() >= 4);

        // A second pool round-trips entirely on recycled VA.
        let consumed = m.virt_pages_consumed();
        let p2 = sp.create(16);
        for _ in 0..3 {
            sp.alloc(&mut m, p2, 16).unwrap();
        }
        sp.destroy(&mut m, p2).unwrap();
        assert_eq!(m.virt_pages_consumed(), consumed, "full VA reuse in batched mode");
    }

    #[test]
    fn batched_epoch_defers_then_flushes() {
        let batch = BatchConfig { enabled: true, protect_epoch: Some(4) };
        let mut m = Machine::free_running();
        let mut sp = batched_with(batch);
        let pp = sp.create(16);
        let ptrs: Vec<_> = (0..4).map(|_| sp.alloc(&mut m, pp, 16).unwrap()).collect();
        sp.free(&mut m, pp, ptrs[0]).unwrap();
        sp.free(&mut m, pp, ptrs[1]).unwrap();
        // Bounded window: stale reads slip through until the flush...
        assert!(m.load_u64(ptrs[0]).is_ok());
        // ...but a double free still traps (pre-flush on pending pages),
        assert!(sp.free(&mut m, pp, ptrs[1]).is_err());
        assert_eq!(sp.last_report().unwrap().kind, DanglingKind::DoubleFree);
        // ...and the flush protected everything pending.
        assert!(m.load_u64(ptrs[0]).is_err());

        // Destroy always flushes before releasing pages.
        sp.free(&mut m, pp, ptrs[2]).unwrap();
        sp.destroy(&mut m, pp).unwrap();
        assert!(m.load_u64(ptrs[2]).is_err());
    }

    #[test]
    fn multi_page_object_in_pool() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(0);
        let p = sp.alloc(&mut m, pp, 10_000).unwrap();
        m.fill(p, 0xab, 10_000).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        assert!(m.load_u8(p.add(9_000)).is_err(), "tail page protected too");
    }

    #[test]
    fn unchecked_pool_churn_maps_one_page() {
        // Lint-elided pools hold no shadow aliases, so every recycled page
        // is private and read-write and comes back in place.
        let (mut m, mut sp) = setup();
        for round in 0..100u64 {
            let pp = sp.create(16);
            let p = sp.alloc_unchecked(&mut m, pp, 16).unwrap();
            m.store_u64(p, round).unwrap();
            sp.destroy(&mut m, pp).unwrap();
        }
        assert_eq!(m.stats().mmap_calls, 1);
        assert_eq!(m.virt_pages_consumed(), 1);
        assert_eq!(m.telemetry().counter("pool.pages_recycled"), 99);
    }

    #[test]
    fn checked_pool_pages_still_get_fresh_frames() {
        let (mut m, mut sp) = setup();
        let p1 = sp.create(16);
        let a = sp.alloc(&mut m, p1, 16).unwrap();
        let canon = sp.pools().pool_pages(p1).unwrap()[0];
        let frame = m.frame_of(canon.base());
        sp.free(&mut m, p1, a).unwrap();
        sp.destroy(&mut m, p1).unwrap();

        // The canonical page comes back first, but its released shadow
        // page still maps its frame: it must be re-mapped.
        let p2 = sp.create(16);
        let mmaps = m.stats().mmap_calls;
        let b = sp.alloc_unchecked(&mut m, p2, 16).unwrap();
        assert_eq!(b.page(), canon);
        assert_ne!(m.frame_of(b), frame, "an aliased frame is never reused in place");
        assert_eq!(m.stats().mmap_calls, mmaps + 1);
        // A dangling use in the later pool still traps.
        let c = sp.alloc(&mut m, p2, 16).unwrap();
        m.store_u64(c, 9).unwrap();
        sp.free(&mut m, p2, c).unwrap();
        let trap = m.load_u64(c).unwrap_err();
        assert_eq!(sp.explain(&trap).unwrap().kind, DanglingKind::Read);
        sp.pools().audit_frames(&m).unwrap();
    }

    #[test]
    fn reused_registry_slot_reports_only_the_new_object() {
        let (mut m, mut sp) = setup();
        let old_alloc = sp.sites_mut().intern("old:malloc");
        let old_free = sp.sites_mut().intern("old:free");
        let p1 = sp.create(16);
        m.telemetry_mut().push_call("old_handler");
        let a = sp.alloc_at(&mut m, p1, 4000, old_alloc).unwrap();
        sp.free_at(&mut m, p1, a, old_free).unwrap();
        m.telemetry_mut().pop_call();
        sp.destroy(&mut m, p1).unwrap();

        let new_alloc = sp.sites_mut().intern("new:malloc");
        let p2 = sp.create(16);
        let b = sp.alloc_at(&mut m, p2, 24, new_alloc).unwrap();
        sp.free(&mut m, p2, b).unwrap();
        let trap = m.load_u64(b).unwrap_err();
        let report = sp.trap_report(&m, &trap, "use").unwrap();
        assert_eq!(report.object_base, b.raw());
        assert_eq!(report.object_size, 24);
        assert_eq!(report.alloc_site, "new:malloc");
        assert_eq!(report.free_site.as_deref(), Some("<unknown>"));
        assert!(report.alloc_stack.is_empty(), "{:?}", report.alloc_stack);
        assert!(report.free_stack.is_empty(), "{:?}", report.free_stack);
        assert!(!report.sampled);
    }

    fn sampled(cfg: crate::SamplingConfig) -> (Machine, ShadowPool) {
        let config = DetectorConfig { sampling: cfg, ..DetectorConfig::default() };
        let sp = ShadowPool::for_shard(&config, 0);
        (Machine::free_running(), sp)
    }

    #[test]
    fn sampling_n1_still_detects_every_uaf() {
        let (mut m, mut sp) = sampled(crate::SamplingConfig::one_in(1));
        let pp = sp.create(16);
        let p = sp.alloc(&mut m, pp, 16).unwrap();
        m.store_u64(p, 3).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        let trap = m.load_u64(p).unwrap_err();
        let rep = sp.explain(&trap).unwrap();
        assert_eq!(rep.kind, DanglingKind::Read);
        assert!(!rep.object.sampled, "deterministic protection is unmarked");
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_PROTECTED), 1);
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_SKIPPED), 0);
    }

    #[test]
    fn sampling_never_routes_to_the_fast_path() {
        let (mut m, mut sp) =
            sampled(crate::SamplingConfig::one_in(crate::SamplingConfig::NEVER));
        let pp = sp.create(16);
        let p = sp.alloc(&mut m, pp, 16).unwrap();
        m.store_u64(p, 3).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        // Unsampled object: the stale read goes through (the trade-off)...
        assert!(m.load_u64(p).is_ok(), "no shadow alias, no trap");
        // ...but a double free is still caught by the pool's block header.
        assert!(matches!(
            sp.free(&mut m, pp, p),
            Err(PoolError::Alloc(AllocError::InvalidFree { .. }))
        ));
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_SKIPPED), 1);
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_PROTECTED), 0);
        assert_eq!(m.telemetry().counter("shadow.elided"), 0, "lint stream untouched");
    }

    #[test]
    fn probabilistic_protection_marks_trap_reports_sampled() {
        let (mut m, mut sp) = sampled(crate::SamplingConfig::one_in(2).with_seed(0x1234));
        let pp = sp.create(16);
        // Allocate until one object is actually protected, then UAF it.
        for _ in 0..64 {
            let p = sp.alloc(&mut m, pp, 16).unwrap();
            sp.free(&mut m, pp, p).unwrap();
            if let Err(trap) = m.load_u64(p) {
                let rep = sp.explain(&trap).unwrap();
                assert!(rep.object.sampled, "probabilistic draw is marked");
                return;
            }
        }
        panic!("1-in-2 sampling protected nothing in 64 draws");
    }

    #[test]
    fn budget_exhaustion_is_counted() {
        let (mut m, mut sp) =
            sampled(crate::SamplingConfig::one_in(1).with_budgets(1, 1, 0));
        let pp = sp.create(16);
        for _ in 0..4 {
            let p = sp.alloc(&mut m, pp, 16).unwrap();
            sp.free(&mut m, pp, p).unwrap();
        }
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_PROTECTED), 1);
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_SKIPPED), 3);
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_BUDGET_EXHAUSTED), 3);
    }
}
