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
use crate::protect::{CanonicalMemory, Protector};
use crate::sampling::SamplingConfig;
pub use dangle_pool::FreedSpan;
use dangle_pool::{PoolConfig, PoolError, PoolId, PoolSet};
use dangle_telemetry::Category;
use dangle_vmm::{Machine, PageNum, VirtAddr};

/// The canonical memory of a [`ShadowPool`]: the pool runtime, whose
/// shared free list also recycles shadow runs and whose pools keep the
/// freed spans the §3.4 GC may reclaim.
#[derive(Debug)]
pub struct PoolMemory {
    pools: PoolSet,
}

impl CanonicalMemory for PoolMemory {
    type Scope = PoolId;
    type Error = PoolError;
    const ALLOC_SPAN: &'static str = "pool.alloc";
    const FREE_SPAN: &'static str = "pool.free";
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

    /// Tallied like the pools' canonical runs (see [`PoolSet::note_run`]).
    fn note_shadow_run(
        &mut self,
        machine: &mut Machine,
        base: PageNum,
        pages: usize,
        recycled: bool,
    ) {
        self.pools.note_run(machine, base, pages, recycled);
    }

    fn register(&mut self, pool: PoolId, base: PageNum, pages: usize) -> Result<(), PoolError> {
        self.pools.register_extra_run(pool, base, pages)
    }

    fn note_freed(&mut self, pool: PoolId, base: PageNum, pages: usize) {
        self.pools.note_freed_span(pool, FreedSpan { base, span: pages });
    }
}

/// Configuration of a [`ShadowPool`], and through it of the interpreter's
/// `ShadowPoolBackend`. The default is the paper's configuration: page
/// reuse on, no sampling.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectorConfig {
    /// The pool runtime.
    pub pool: PoolConfig,
    /// Sampled protection (see [`SamplingConfig`]).
    pub sampling: SamplingConfig,
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
    /// Creates a detector with the default configuration.
    pub fn new() -> ShadowPool {
        ShadowPool::with_config(DetectorConfig::default())
    }

    /// Creates a detector with an explicit configuration.
    pub fn with_config(config: DetectorConfig) -> ShadowPool {
        let mem = PoolMemory { pools: PoolSet::with_config(config.pool) };
        Protector::with_memory(mem, config.sampling)
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
        // Every shadow run is registered with its pool.
        if let Ok(shadow) = self.mem.pools.extra_pages(pool) {
            self.registry.forget_pages(shadow);
        }
        self.mem.pools.destroy(machine, pool)
    }

    /// The underlying pool runtime (read-only).
    pub fn pools(&self) -> &PoolSet {
        &self.mem.pools
    }

    /// Freed shadow spans of `pool` — GC candidates.
    pub fn freed_spans(&self, pool: PoolId) -> &[FreedSpan] {
        self.mem.pools.freed_spans(pool)
    }

    /// Reclaims a freed shadow span of `pool` after the GC proved it
    /// unreferenced: removes diagnostics, unregisters the pages from the
    /// pool, and donates them to the shared free list. Returns the number of
    /// pages reclaimed (0 if the span was not a candidate).
    pub fn reclaim_span(&mut self, pool: PoolId, span: FreedSpan) -> usize {
        if !self.mem.pools.take_freed_span(pool, span) {
            return 0;
        }
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
    use dangle_heap::AllocError;
    use dangle_vmm::{CostModel, MachineConfig, Trap};

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

    #[test]
    fn multi_page_object_in_pool() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(0);
        let p = sp.alloc(&mut m, pp, 10_000).unwrap();
        m.memset(p, 0xab, 10_000).unwrap();
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
    fn destroyed_pages_are_reused_on_another_core_without_ipis() {
        let mut m = Machine::with_config(MachineConfig {
            cores: 4,
            cost: CostModel::free(),
            ..MachineConfig::default()
        });
        let mut sp = ShadowPool::new();
        let old = sp.create(16);
        let x = sp.alloc(&mut m, old, 16).unwrap();
        m.store_u64(x, 1).unwrap();
        m.switch_core(3);
        assert_eq!(m.load_u64(x).unwrap(), 1, "core 3 caches x's shadow page");
        m.switch_core(0);
        sp.destroy(&mut m, old).unwrap();
        let new = sp.create(16);

        // Core 1 reuses the destroyed pool's pages: both were unmapped at
        // destroy, so re-mapping them replaces nothing and sends no IPI.
        m.switch_core(1);
        let ipis = m.stats().shootdown_ipis;
        let y = sp.alloc(&mut m, new, 16).unwrap();
        assert_eq!(y.page(), x.page(), "the shadow page was recycled");
        assert_eq!(m.stats().shootdown_ipis, ipis, "reuse sent no IPI");
        m.store_u64(y, 2).unwrap();

        // No core kept a translation across the destroy and the re-map.
        m.switch_core(3);
        let misses = m.tlb().misses();
        assert_eq!(m.load_u64(y).unwrap(), 2, "core 3 sees the new object");
        assert_eq!(m.tlb().misses(), misses + 1, "first access after the re-map misses");

        // A dangling read of an object freed on core 1 traps on core 3.
        m.switch_core(1);
        sp.free(&mut m, new, y).unwrap();
        m.switch_core(3);
        let trap = m.load_u64(y).unwrap_err();
        assert!(matches!(trap, Trap::Protection { .. }), "{trap:?}");
        assert!(sp.explain(&trap).is_some(), "the trap is attributed to y");
    }

    #[test]
    fn one_detector_counts_pages_on_each_machine_it_runs_on() {
        // Machines whose registries hold two, none and eight counters
        // before the pool runtime's, so its counters sit at different
        // registry indexes on each.
        let extras = [2, 0, 8];
        let mut machines: Vec<Machine> = extras
            .iter()
            .map(|&n| {
                let mut m = Machine::free_running();
                for i in 0..n {
                    m.telemetry_mut().counter_add(&format!("test.extra{i}"), 1);
                }
                m
            })
            .collect();
        let mut sp = ShadowPool::new();
        for m in &mut machines {
            // A fresh canonical page and a fresh shadow page.
            let pool = sp.create(16);
            sp.alloc(m, pool, 16).unwrap();
        }
        for (m, n) in machines.iter().zip(extras) {
            let t = m.telemetry();
            assert_eq!(t.counter("pool.pages_fresh"), 2, "machine with {n} extra counters");
            assert_eq!(t.counter("pool.pages_recycled"), 0, "machine with {n} extra counters");
            for i in 0..n {
                assert_eq!(t.counter(&format!("test.extra{i}")), 1, "test.extra{i}");
            }
        }
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
        (Machine::free_running(), ShadowPool::with_config(config))
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
