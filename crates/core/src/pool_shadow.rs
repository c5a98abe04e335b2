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
//! measurements show is tiny for real servers.

use crate::diag::{DanglingReport, ObjectRegistry, SiteId, SiteTable};
use crate::sampling::{self, SampleDecision, SamplingConfig, SamplingPolicy, SiteSafety};
use crate::shadow::{merge_run, runs_overlap, BatchConfig, Extent, TRAP_CONTEXT_EVENTS};
use dangle_heap::{header, AllocError, AllocStats};
use dangle_telemetry::{Category, EventKind, TrapReport};
use dangle_pool::{PoolConfig, PoolError, PoolId, PoolSet};
use dangle_vmm::{Machine, PageNum, Protection, Trap, VirtAddr, PAGE_MASK};
use std::collections::HashMap;

use crate::shadow::SHADOW_WORD;

/// One freed object's shadow span, kept per pool for the §3.4 GC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreedSpan {
    /// First shadow page of the span.
    pub base: PageNum,
    /// Number of pages.
    pub span: usize,
}

/// The pool-based shadow-page detector (the paper's production
/// configuration). See the [module docs](self).
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
#[derive(Debug, Default)]
pub struct ShadowPool {
    pools: PoolSet,
    registry: ObjectRegistry,
    sites: SiteTable,
    stats: AllocStats,
    /// Shadow pages registered per pool (for registry cleanup at destroy).
    shadow_pages: HashMap<PoolId, Vec<PageNum>>,
    /// Freed-object shadow spans per pool (candidates for the §3.4 GC).
    freed: HashMap<PoolId, Vec<FreedSpan>>,
    /// Live objects per pool: user address -> size. Scanned by the GC.
    live: HashMap<PoolId, HashMap<VirtAddr, usize>>,
    last_report: Option<DanglingReport>,
    /// Cached telemetry handles for the per-alloc counters, resolved on
    /// first use so the hot path skips the by-name registry lookup.
    recycled_counter: Option<dangle_telemetry::CounterHandle>,
    fresh_counter: Option<dangle_telemetry::CounterHandle>,
    /// Vectored-syscall batching configuration (off by default).
    batch: BatchConfig,
    /// Bump extents of pre-aliased shadow pages, keyed by pool and size
    /// class (batched mode). Pools carve canonical memory per size class,
    /// so interleaved allocations of different classes advance different
    /// canonical pages — one extent per (pool, class) keeps each stream
    /// amortising instead of thrashing.
    extents: HashMap<(PoolId, usize), Extent>,
    /// Protection runs deferred by [`BatchConfig::protect_epoch`], sorted
    /// and coalesced; global across pools since `mprotect` ranges are pure
    /// VA. Empty between frees in the default eager mode.
    pending_protect: Vec<(PageNum, usize)>,
    /// Frees accumulated since the last protection flush.
    pending_frees: usize,
    /// Sampled-protection decision engine (inert unless constructed via
    /// [`ShadowPool::with_sampling`]).
    sampling: SamplingPolicy,
}

impl ShadowPool {
    /// Creates a detector with a default pool configuration.
    pub fn new() -> ShadowPool {
        ShadowPool::default()
    }

    /// Creates a detector with an explicit pool configuration.
    pub fn with_config(config: PoolConfig) -> ShadowPool {
        ShadowPool { pools: PoolSet::with_config(config), ..ShadowPool::default() }
    }

    /// Creates a detector with explicit pool and vectored-syscall batching
    /// configurations (see [`BatchConfig`]).
    pub fn with_batch(config: PoolConfig, batch: BatchConfig) -> ShadowPool {
        ShadowPool { pools: PoolSet::with_config(config), batch, ..ShadowPool::default() }
    }

    /// Creates a detector with explicit pool, batching and sampled-
    /// protection configurations (see [`SamplingConfig`]). With sampling
    /// off this is exactly [`ShadowPool::with_batch`].
    pub fn with_sampling(
        config: PoolConfig,
        batch: BatchConfig,
        sampling: SamplingConfig,
    ) -> ShadowPool {
        ShadowPool {
            pools: PoolSet::with_config(config),
            batch,
            sampling: SamplingPolicy::new(sampling),
            ..ShadowPool::default()
        }
    }

    /// The batching configuration this detector runs with.
    pub fn batch_config(&self) -> BatchConfig {
        self.batch
    }

    /// The sampled-protection configuration this detector runs with.
    pub fn sampling_config(&self) -> SamplingConfig {
        self.sampling.config()
    }

    /// `poolinit`. See [`PoolSet::create`].
    pub fn create(&mut self, elem_hint: usize) -> PoolId {
        let id = self.pools.create(elem_hint);
        self.shadow_pages.insert(id, Vec::new());
        self.freed.insert(id, Vec::new());
        self.live.insert(id, HashMap::new());
        id
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
        machine.span_enter("pool.alloc", Category::DetectorMetadata);
        let r = self.alloc_at_inner(machine, pool, size, site);
        machine.span_exit();
        r
    }

    fn alloc_at_inner(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
        site: SiteId,
    ) -> Result<VirtAddr, PoolError> {
        // Sampled protection (inert by default). Host-side decision — no
        // simulated cycles — so N = 1 is byte-identical to the unsampled
        // detector. Counters track *allocation decisions*; the free path
        // routes silently.
        let sampled = if self.sampling.enabled() {
            let class = header::class_index(size).unwrap_or(usize::MAX);
            match self.sampling.decide(site, SiteSafety::Unknown, class) {
                SampleDecision::Protect { sampled } => {
                    machine.telemetry_mut().counter_add(sampling::COUNTER_PROTECTED, 1);
                    sampled
                }
                SampleDecision::Skip { budget_exhausted } => {
                    let t = machine.telemetry_mut();
                    t.counter_add(sampling::COUNTER_SKIPPED, 1);
                    if budget_exhausted {
                        t.counter_add(sampling::COUNTER_BUDGET_EXHAUSTED, 1);
                    }
                    return self.pools.alloc(machine, pool, size);
                }
            }
        } else {
            false
        };
        let total = size
            .checked_add(SHADOW_WORD)
            .ok_or(PoolError::Alloc(AllocError::TooLarge { size }))?;
        let canon = self.pools.alloc(machine, pool, total)?;
        let span = canon.span_pages(total);
        let canon_page = canon.page();
        // Shadow pages also recycle virtual addresses from the shared free
        // list; multi-page spans take contiguous runs. Batched mode serves
        // single-page objects from per-pool extents instead; extent pages
        // are registered with the pool at build time.
        let shadow_base = if self.batch.enabled && span == 1 {
            let class = header::class_index(total).unwrap_or(usize::MAX);
            self.extent_page(machine, pool, canon_page, class)?
        } else {
            let base = self.legacy_shadow_alias(machine, canon_page, span)?;
            self.pools.register_extra_run(pool, base.page(), span)?;
            base
        };
        let shadow_start = shadow_base.page();
        self.shadow_pages
            .entry(pool)
            .or_default()
            .extend((0..span as u64).map(|i| shadow_start.add(i)));
        let shadow_hidden = shadow_base.add(canon.offset() as u64);
        machine.store_u64(shadow_hidden, canon_page.base().raw())?;
        let user = shadow_hidden.add(SHADOW_WORD as u64);
        self.registry.insert_range(user, size, site, shadow_start, span);
        if sampled {
            self.registry.note_sampled(true);
        }
        if !machine.telemetry().call_stack().is_empty() {
            let stack = machine.telemetry().call_stack().to_vec();
            self.registry.note_alloc_stack(&stack);
        }
        self.live.entry(pool).or_default().insert(user, size);
        self.stats.note_alloc(size);
        Ok(user)
    }

    /// Bumps the cached `pool.pages_recycled` / `pool.pages_fresh`
    /// telemetry counter.
    fn note_shadow_pages(&mut self, machine: &mut Machine, recycled: bool, n: u64) {
        let t = machine.telemetry_mut();
        if !t.enabled() {
            return;
        }
        let slot = if recycled { &mut self.recycled_counter } else { &mut self.fresh_counter };
        let h = match *slot {
            Some(h) => h,
            None => {
                let name = if recycled { "pool.pages_recycled" } else { "pool.pages_fresh" };
                let h = t.metrics_mut().counter_handle(name);
                *slot = Some(h);
                h
            }
        };
        t.metrics_mut().add(h, n);
    }

    /// The one-syscall-per-allocation shadow alias of the paper's §3.3:
    /// a recycled run from the shared free list when available, a fresh
    /// `mremap` alias otherwise.
    fn legacy_shadow_alias(
        &mut self,
        machine: &mut Machine,
        canon_page: PageNum,
        span: usize,
    ) -> Result<VirtAddr, PoolError> {
        match self.pools.take_free_run(span) {
            Some(pg) => {
                machine.alias_fixed(canon_page.base(), pg.base(), span)?;
                machine.note_event(pg.base(), EventKind::FreeListHit { pages: span as u32 });
                self.note_shadow_pages(machine, true, span as u64);
                Ok(pg.base())
            }
            None => {
                let base = machine.mremap_alias(canon_page.base(), span)?;
                machine.note_event(base, EventKind::FreeListMiss { pages: span as u32 });
                self.note_shadow_pages(machine, false, span as u64);
                Ok(base)
            }
        }
    }

    /// Batched-mode shadow page for a single-page object of `pool` on
    /// `canon`: consumes the pool's extent when it matches, re-points a
    /// stale leftover run in one vectored call, builds a new extent once
    /// demand on `canon` is proven, and otherwise falls back to a plain
    /// single alias at exactly the legacy cost.
    fn extent_page(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        canon: PageNum,
        class: usize,
    ) -> Result<VirtAddr, PoolError> {
        let cap = self.batch.extent_pages.max(2);
        let key = (pool, class);
        match self.extents.get(&key).copied() {
            // Hit: a pre-aliased page, zero syscalls.
            Some(mut ext) if ext.canon == canon && ext.left > 0 => {
                let page = ext.next;
                ext.next = ext.next.add(1);
                ext.left -= 1;
                if ext.left == 0 {
                    ext.grow = (ext.grow * 2).min(cap);
                }
                self.extents.insert(key, ext);
                machine.telemetry_mut().counter_add("shadow.extent_hits", 1);
                Ok(page.base())
            }
            // Demand proven: a second allocation landed on `canon`.
            Some(ext) if ext.canon == canon => {
                let (base, got) =
                    self.build_extent(machine, pool, canon, ext.grow.clamp(2, cap))?;
                self.extents.insert(
                    key,
                    Extent { canon, next: base.add(1), left: got - 1, grow: ext.grow },
                );
                Ok(base.base())
            }
            // Stale leftover from another canonical page of this pool:
            // re-point the whole run at `canon` for one vectored crossing.
            // The pages are registered with the pool already.
            Some(ext) if ext.left > 0 => {
                if ext.left == 1 {
                    machine.alias_fixed(canon.base(), ext.next.base(), 1)?;
                } else {
                    let entries: Vec<_> = (0..ext.left as u64)
                        .map(|i| (canon.base(), ext.next.add(i).base(), 1usize))
                        .collect();
                    machine.alias_fixed_batch(&entries)?;
                }
                machine.telemetry_mut().counter_add("shadow.extent_repoints", 1);
                self.extents.insert(
                    key,
                    Extent { canon, next: ext.next.add(1), left: ext.left - 1, grow: ext.grow },
                );
                Ok(ext.next.base())
            }
            // First touch of `canon`: plain alias at legacy cost, plus a
            // zero-page demand marker.
            other => {
                let grow = other.map_or(2, |e| e.grow);
                let base = self.legacy_shadow_alias(machine, canon, 1)?;
                self.pools.register_extra_page(pool, base.page())?;
                self.extents
                    .insert(key, Extent { canon, next: PageNum(0), left: 0, grow });
                Ok(base)
            }
        }
    }

    /// Builds a `want`-page extent for `pool` aliasing `canon`: a recycled
    /// run from the shared free list is re-pointed with one vectored call,
    /// otherwise fresh contiguous aliases come from one vectored `mremap`.
    /// The run is registered with the pool here, so `pooldestroy` releases
    /// leftover extent pages along with everything else.
    fn build_extent(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        canon: PageNum,
        want: usize,
    ) -> Result<(PageNum, usize), PoolError> {
        let (base, got) = if let Some((rbase, rlen)) = self.pools.take_free_run_capped(want) {
            if rlen == 1 {
                machine.alias_fixed(canon.base(), rbase.base(), 1)?;
            } else {
                let entries: Vec<_> = (0..rlen as u64)
                    .map(|i| (canon.base(), rbase.add(i).base(), 1usize))
                    .collect();
                machine.alias_fixed_batch(&entries)?;
            }
            machine.note_event(rbase.base(), EventKind::FreeListHit { pages: rlen as u32 });
            self.note_shadow_pages(machine, true, rlen as u64);
            (rbase, rlen)
        } else {
            let ranges = vec![(canon.base(), 1usize); want];
            let aliases = machine.mremap_alias_batch(&ranges)?;
            machine.note_event(aliases[0], EventKind::FreeListMiss { pages: want as u32 });
            self.note_shadow_pages(machine, false, want as u64);
            (aliases[0].page(), want)
        };
        self.pools.register_extra_run(pool, base, got)?;
        Ok((base, got))
    }

    /// Applies every pending deferred protection (see
    /// [`BatchConfig::protect_epoch`]): one plain `mprotect` for a single
    /// run — the same cost the legacy per-free call pays — or one vectored
    /// `mprotect` for several. A no-op when nothing is pending; the
    /// default eager mode calls this at the end of every
    /// [`ShadowPool::free_at`], and `pooldestroy` always flushes first.
    pub fn flush_protects(&mut self, machine: &mut Machine) -> Result<(), Trap> {
        self.pending_frees = 0;
        if self.pending_protect.is_empty() {
            return Ok(());
        }
        machine.span_enter("pool.flush", Category::DetectorMetadata);
        let r = self.flush_protects_inner(machine);
        machine.span_exit();
        r
    }

    fn flush_protects_inner(&mut self, machine: &mut Machine) -> Result<(), Trap> {
        let runs = std::mem::take(&mut self.pending_protect);
        if let [(base, span)] = runs[..] {
            machine.mprotect(base.base(), span, Protection::None)?;
        } else {
            let ranges: Vec<_> = runs.iter().map(|&(b, s)| (b.base(), s)).collect();
            machine.mprotect_batch(&ranges, Protection::None)?;
        }
        let t = machine.telemetry_mut();
        t.counter_add("shadow.protect_runs", runs.len() as u64);
        for &(_, s) in &runs {
            t.observe("shadow.run_len", s as u64);
        }
        Ok(())
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
        self.alloc_at(machine, pool, size, SiteId::UNKNOWN)
    }

    /// `poolfree` + shadow protect, tagged with a free site.
    ///
    /// # Errors
    /// A double free surfaces as a trap on the hidden-word read (see
    /// [`ShadowPool::last_report`]); a wild pointer as
    /// [`AllocError::InvalidFree`].
    pub fn free_at(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<(), PoolError> {
        machine.span_enter("pool.free", Category::DetectorMetadata);
        let r = self.free_at_inner(machine, pool, addr, site);
        machine.span_exit();
        r
    }

    fn free_at_inner(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<(), PoolError> {
        if addr.raw() < SHADOW_WORD as u64 {
            return Err(AllocError::InvalidFree { addr }.into());
        }
        // Sampled mode routes frees by provenance: protected objects live
        // at registered shadow addresses, unsampled ones at canonical pool
        // addresses the registry has never seen — a miss is the unchecked
        // fast path (the pool's block-header check still catches double
        // frees of unsampled objects as `InvalidFree`).
        if self.sampling.enabled() && self.registry.lookup(addr).is_none() {
            return self.pools.free(machine, pool, addr);
        }
        let hidden = addr.sub(SHADOW_WORD as u64);
        // An epoch-deferred protection makes the hidden word of an
        // already-freed object readable again; flushing first restores the
        // §3.2 guarantee that the read below traps on a double free.
        if runs_overlap(&self.pending_protect, hidden.page(), 1) {
            self.flush_protects(machine).map_err(PoolError::from)?;
        }
        let canon_page = match machine.load_u64(hidden) {
            Ok(w) => w,
            Err(trap) => {
                self.last_report = self.registry.explain(&trap, true);
                return Err(trap.into());
            }
        };
        if canon_page & PAGE_MASK != 0 || canon_page == 0 {
            return Err(AllocError::InvalidFree { addr }.into());
        }
        let canon_hidden = VirtAddr(canon_page + hidden.offset() as u64);
        let total = self.pools.size_of(machine, canon_hidden)?;
        let span = hidden.span_pages(total);
        if self.batch.enabled {
            merge_run(&mut self.pending_protect, hidden.page(), span);
            self.pending_frees += 1;
            if self.pending_frees >= self.batch.protect_epoch.unwrap_or(1) {
                self.flush_protects(machine).map_err(PoolError::from)?;
            }
        } else {
            machine.mprotect(hidden.page().base(), span, Protection::None)?;
        }
        machine.telemetry_mut().counter_add("core.pages_protected", span as u64);
        self.pools.free(machine, pool, canon_hidden)?;
        let stack = machine.telemetry().call_stack().to_vec();
        self.registry.mark_freed_traced(addr, site, &stack);
        self.freed
            .entry(pool)
            .or_default()
            .push(FreedSpan { base: hidden.page(), span });
        self.live.entry(pool).or_default().remove(&addr);
        self.stats.note_free(total - SHADOW_WORD);
        Ok(())
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
        self.free_at(machine, pool, addr, SiteId::UNKNOWN)
    }

    /// `poolalloc` **without** shadow protection, for a site dangle-lint
    /// proved `ProvablySafe`: the object lives directly on the pool's
    /// canonical pages — no shadow remap, no hidden word, no registry entry.
    /// Must be paired with [`ShadowPool::free_unchecked`]; the lint pass
    /// stamps whole alias classes, so checked and unchecked pointers never
    /// reach the same site.
    ///
    /// # Errors
    /// As for [`PoolSet::alloc`].
    pub fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
    ) -> Result<VirtAddr, PoolError> {
        machine.telemetry_mut().counter_add("shadow.elided", 1);
        self.pools.alloc(machine, pool, size)
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
        machine.telemetry_mut().counter_add("shadow.elided", 1);
        self.pools.free(machine, pool, addr)
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
        if self.batch.enabled {
            // Deferred protections must land before the pages they cover
            // can be released and re-mapped to live storage.
            self.flush_protects(machine).map_err(PoolError::from)?;
            // Leftover extent pages were registered at build time, so the
            // release below already covers them.
            self.extents.retain(|&(p, _), _| p != pool);
        }
        let shadow = self.shadow_pages.remove(&pool).unwrap_or_default();
        self.pools.destroy(machine, pool)?;
        self.registry.forget_pages(&shadow);
        self.freed.remove(&pool);
        self.live.remove(&pool);
        Ok(())
    }

    /// Attributes a program-level MMU trap to the freed object it hit.
    pub fn explain(&self, trap: &Trap) -> Option<DanglingReport> {
        self.registry.explain(trap, false)
    }

    /// [`ShadowPool::explain`], but producing the structured JSON-ready
    /// [`TrapReport`] with the machine's trailing event-ring context.
    pub fn trap_report(
        &self,
        machine: &Machine,
        trap: &Trap,
        use_site: &str,
    ) -> Option<TrapReport> {
        let report = self.explain(trap)?;
        Some(report.to_telemetry(&self.sites, machine, use_site, TRAP_CONTEXT_EVENTS, &self.registry))
    }

    /// The object record owning `addr`, if tracked (live or freed). Used
    /// by the combined spatial checker: each object sits alone on its
    /// shadow pages, so an address on a tracked page that falls outside
    /// the object's extent is an out-of-bounds access.
    pub fn object_at(&self, addr: VirtAddr) -> Option<&crate::diag::ObjectRecord> {
        self.registry.lookup(addr)
    }

    /// The most recent detector-internal report (double free).
    pub fn last_report(&self) -> Option<&DanglingReport> {
        self.last_report.as_ref()
    }

    /// The site table, for interning allocation/free site labels.
    pub fn sites_mut(&mut self) -> &mut SiteTable {
        &mut self.sites
    }

    /// The site table.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// The underlying pool runtime (read-only).
    pub fn pools(&self) -> &PoolSet {
        &self.pools
    }

    /// Takes up to `max` contiguous recycled pages off this detector's
    /// shared free list without mapping them, so a sharded composition
    /// (see [`crate::sharded`]) can retire the surplus into a cross-shard
    /// epoch free list. `None` when the list is empty or reuse is off.
    pub fn export_free_run(&mut self, max: usize) -> Option<(PageNum, usize)> {
        self.pools.take_free_run_capped(max)
    }

    /// Adds a run of recycled pages — exported from another shard and held
    /// until an epoch grace period passed — to this detector's free list.
    /// The pages must have been handed out by the same [`Machine`] so a
    /// later `mmap_fixed` recycling them is legal.
    pub fn adopt_free_run(&mut self, base: PageNum, pages: usize) {
        self.pools.donate_run(base, pages as u32);
    }

    /// Records a dynamic pool points-to edge (see
    /// [`PoolSet::note_pool_edge`]).
    pub fn note_pool_edge(&mut self, from: PoolId, to: PoolId) {
        self.pools.note_pool_edge(from, to);
    }

    /// Live objects of `pool` (user address and size), for the GC scan.
    pub fn live_objects(&self, pool: PoolId) -> Vec<(VirtAddr, usize)> {
        self.live
            .get(&pool)
            .map(|m| m.iter().map(|(&a, &s)| (a, s)).collect())
            .unwrap_or_default()
    }

    /// Freed shadow spans of `pool` — GC candidates.
    pub fn freed_spans(&self, pool: PoolId) -> Vec<FreedSpan> {
        self.freed.get(&pool).cloned().unwrap_or_default()
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
        let Some(list) = self.freed.get_mut(&pool) else { return 0 };
        let Some(pos) = list.iter().position(|&s| s == span) else { return 0 };
        list.remove(pos);
        let end = span.base.add(span.span as u64);
        self.registry.forget_range(span.base, span.span);
        if let Some(sp) = self.shadow_pages.get_mut(&pool) {
            sp.retain(|&p| p < span.base || p >= end);
        }
        for i in 0..span.span as u64 {
            let pg = span.base.add(i);
            let _ = self.pools.take_extra_page(pool, pg);
            self.pools.donate_page(pg);
        }
        span.span
    }

    /// Aggregate allocation counters (user sizes).
    pub fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DanglingKind;

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
    fn live_and_freed_bookkeeping() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        let a = sp.alloc(&mut m, pp, 24).unwrap();
        let b = sp.alloc(&mut m, pp, 24).unwrap();
        assert_eq!(sp.live_objects(pp).len(), 2);
        sp.free(&mut m, pp, a).unwrap();
        assert_eq!(sp.live_objects(pp), vec![(b, 24)]);
        assert_eq!(sp.freed_spans(pp).len(), 1);
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
        (Machine::free_running(), ShadowPool::with_batch(PoolConfig::default(), batch))
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
        let mut batch =
            ShadowPool::with_batch(PoolConfig::default(), BatchConfig { enabled: true, ..BatchConfig::default() });
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
        let batch =
            BatchConfig { enabled: true, protect_epoch: Some(4), ..BatchConfig::default() };
        let mut m = Machine::free_running();
        let mut sp = ShadowPool::with_batch(PoolConfig::default(), batch);
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
        let sp = ShadowPool::with_sampling(PoolConfig::default(), BatchConfig::default(), cfg);
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
