//! `Protector`: the protection mechanism both detectors share.
//!
//! The paper's two insights use one mechanism: every protected object gets
//! a shadow alias of its canonical pages, a hidden word in front of it that
//! records the canonical page, and `PROT_NONE` on its shadow pages at free
//! (§3.2). [`crate::ShadowHeap`] applies it to any `malloc` (Insight 1),
//! [`crate::ShadowPool`] to the pools of Automatic Pool Allocation
//! (Insight 2). Both are a [`Protector`] over a different
//! [`CanonicalMemory`]: the protector owns the site table, the object
//! registry, the allocation counters, the sampling policy, the batch state
//! (shadow extents and deferred protections) and the hidden-word protocol;
//! the canonical memory supplies the storage, recycled shadow runs and the
//! bookkeeping that differs between a heap and a pool set.

use crate::diag::{DanglingReport, ObjectRecord, ObjectRegistry, SiteId, SiteTable};
use crate::sampling::{self, SampleDecision, SamplingConfig, SamplingPolicy};
use dangle_heap::{header, AllocError, AllocStats};
use dangle_telemetry::{Category, TrapReport};
use dangle_vmm::{Machine, PageNum, Protection, Trap, VirtAddr, PAGE_MASK};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// The hidden word prepended to every allocation (`sizeof(addr_t)`).
pub const SHADOW_WORD: usize = 8;

/// How many trailing ring events a [`TrapReport`] carries as context.
pub const TRAP_CONTEXT_EVENTS: usize = 16;

/// Upper bound on the pages a single shadow extent pre-aliases. Extents
/// grow demand-proven (2, 4, 8, ... up to this cap), so a canonical page
/// that only ever hosts one object never pays for an extent at all.
const EXTENT_PAGES: usize = 16;

/// Configuration of the vectored-syscall (batched) protection path. Off by
/// default: the one-syscall-per-event path is the paper's §3.2
/// presentation and stays the reference that the differential tests
/// compare against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchConfig {
    /// Master switch for the batched path (extents + coalesced protects).
    pub enabled: bool,
    /// `None` (the default): the protection of every free is flushed at
    /// the end of that very `free` call, leaving the §3.2 detection window
    /// unchanged. `Some(n)`: §3.4-style bounded window — protections are
    /// coalesced across up to `n` frees and applied in one vectored
    /// `mprotect`; a dangling use between a free and its flush goes
    /// undetected (double frees are still caught — the detector flushes
    /// before touching a hidden word on a pending page).
    pub protect_epoch: Option<usize>,
}

/// Where a [`Protector`]'s objects really live: the allocator whose
/// canonical blocks shadow pages alias, and the source of recycled shadow
/// runs. Implemented for a heap over any allocator
/// ([`crate::shadow::HeapMemory`]) and for a pool set
/// ([`crate::pool_shadow::PoolMemory`]).
pub trait CanonicalMemory: Sized {
    /// What an allocation is made in: `()` for a heap, the pool for pools.
    type Scope: Copy + Eq + Hash + Debug;
    /// The error every operation reports.
    type Error: From<AllocError> + From<Trap>;
    /// Span names of the protected alloc, free and protection-flush paths.
    const ALLOC_SPAN: &'static str;
    /// See [`CanonicalMemory::ALLOC_SPAN`].
    const FREE_SPAN: &'static str;
    /// See [`CanonicalMemory::ALLOC_SPAN`].
    const FLUSH_SPAN: &'static str;
    /// Telemetry counter bumped by the shadow pages of every protected
    /// allocation, if the memory keeps one.
    const SHADOW_PAGES_COUNTER: Option<&'static str>;

    /// Allocates a canonical block of `size` bytes in `scope`.
    ///
    /// # Errors
    /// As for the underlying allocator.
    fn alloc(
        &mut self,
        machine: &mut Machine,
        scope: Self::Scope,
        size: usize,
    ) -> Result<VirtAddr, Self::Error>;

    /// Frees the canonical block at `addr` in `scope`.
    ///
    /// # Errors
    /// As for the underlying allocator.
    fn free(
        &mut self,
        machine: &mut Machine,
        scope: Self::Scope,
        addr: VirtAddr,
    ) -> Result<(), Self::Error>;

    /// The requested size of the live canonical block at `addr`.
    ///
    /// # Errors
    /// As for the underlying allocator.
    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, Self::Error>;

    /// A recycled run of exactly `pages` contiguous shadow pages, if any.
    fn take_run(&mut self, pages: usize) -> Option<PageNum>;

    /// A recycled run of at most `max` contiguous shadow pages, if any.
    fn take_run_capped(&mut self, max: usize) -> Option<(PageNum, usize)>;

    /// Notes that `pages` shadow pages at `base` were just mapped, from a
    /// recycled run or fresh.
    fn note_shadow_run(
        &mut self,
        machine: &mut Machine,
        base: PageNum,
        pages: usize,
        recycled: bool,
    );

    /// Hands a freshly mapped shadow run to `scope`, so it is released
    /// with it.
    ///
    /// # Errors
    /// When `scope` cannot take pages.
    fn register(
        &mut self,
        _scope: Self::Scope,
        _base: PageNum,
        _pages: usize,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Records the shadow span of an object just freed in `scope`.
    fn note_freed(&mut self, scope: Self::Scope, base: PageNum, pages: usize);

    /// Runs before the canonical alloc of every protected object, after
    /// the sampling decision.
    ///
    /// # Errors
    /// When the hook's own syscalls fail.
    fn before_alloc(
        _core: &mut Protector<Self>,
        _machine: &mut Machine,
    ) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// A bump extent of shadow pages pre-aliased to one canonical page:
/// objects packed into the same canonical page receive adjacent shadow
/// pages at zero syscall cost. `left == 0` with a matching `canon` records
/// *proven demand* without any pre-paid pages — the first allocation on a
/// canonical page always goes through the plain single-alias path, and an
/// extent is only built once a second allocation shows the page is being
/// packed.
#[derive(Clone, Copy, Debug)]
struct Extent {
    /// Canonical page every page of this extent aliases.
    canon: PageNum,
    /// Next unconsumed shadow page.
    next: PageNum,
    /// Unconsumed pages remaining.
    left: usize,
    /// Size of the next extent built for `canon`: starts at 2 and doubles
    /// each time an extent is fully consumed, capped at `EXTENT_PAGES`.
    grow: usize,
}

/// Inserts the run `(base, len)` into `runs` — kept sorted by base and
/// fully coalesced — merging with both neighbours when adjacent.
pub(crate) fn merge_run(runs: &mut Vec<(PageNum, usize)>, base: PageNum, len: usize) {
    if len == 0 {
        return;
    }
    let i = runs.partition_point(|&(b, _)| b < base);
    let merges_prev = i > 0 && runs[i - 1].0.add(runs[i - 1].1 as u64) == base;
    let merges_next = i < runs.len() && base.add(len as u64) == runs[i].0;
    match (merges_prev, merges_next) {
        (true, true) => {
            runs[i - 1].1 += len + runs[i].1;
            runs.remove(i);
        }
        (true, false) => runs[i - 1].1 += len,
        (false, true) => {
            runs[i].0 = base;
            runs[i].1 += len;
        }
        (false, false) => runs.insert(i, (base, len)),
    }
}

/// Whether `[base, base + len)` intersects any run of a sorted, disjoint
/// run list. Disjointness makes checking the last run starting below the
/// query's end sufficient.
pub(crate) fn runs_overlap(runs: &[(PageNum, usize)], base: PageNum, len: usize) -> bool {
    let end = base.add(len as u64);
    let i = runs.partition_point(|&(b, _)| b < end);
    i > 0 && runs[i - 1].0.add(runs[i - 1].1 as u64) > base
}

/// Points each of the `pages` shadow pages at `base` to the one canonical
/// page `canon`: a plain `alias_fixed` for one page, one vectored call for
/// more.
fn alias_pages(
    machine: &mut Machine,
    canon: PageNum,
    base: PageNum,
    pages: usize,
) -> Result<(), Trap> {
    if pages == 1 {
        return machine.alias_fixed(canon.base(), base.base(), 1);
    }
    let entries: Vec<_> = (0..pages as u64)
        .map(|i| (canon.base(), base.add(i).base(), 1usize))
        .collect();
    machine.alias_fixed_batch(&entries)
}

/// The shadow-page protection core over the canonical memory `M`. See the
/// [module docs](self); [`crate::ShadowHeap`] and [`crate::ShadowPool`]
/// are its two instances.
#[derive(Debug)]
pub struct Protector<M: CanonicalMemory> {
    pub(crate) mem: M,
    pub(crate) registry: ObjectRegistry,
    sites: SiteTable,
    stats: AllocStats,
    last_report: Option<DanglingReport>,
    /// Sampled-protection decision engine (inert unless its configuration
    /// enables it).
    sampling: SamplingPolicy,
    batch: BatchConfig,
    /// Bump extents of pre-aliased shadow pages, keyed by scope and size
    /// class (batched mode only). Allocators carve canonical memory per
    /// size class, so interleaved allocations of different classes advance
    /// different canonical pages — one extent per class keeps each stream
    /// amortising instead of thrashing.
    extents: HashMap<(M::Scope, usize), Extent>,
    /// Protection runs deferred by [`BatchConfig::protect_epoch`], sorted
    /// and coalesced; global across scopes since `mprotect` ranges are pure
    /// VA. Empty between frees in the default eager mode.
    pub(crate) pending_protect: Vec<(PageNum, usize)>,
    /// Frees accumulated since the last protection flush.
    pending_frees: usize,
}

impl<M: CanonicalMemory> Protector<M> {
    pub(crate) fn with_memory(
        mem: M,
        batch: BatchConfig,
        sampling: SamplingConfig,
    ) -> Protector<M> {
        Protector {
            mem,
            registry: ObjectRegistry::new(),
            sites: SiteTable::new(),
            stats: AllocStats::default(),
            last_report: None,
            sampling: SamplingPolicy::new(sampling),
            batch,
            extents: HashMap::new(),
            pending_protect: Vec::new(),
            pending_frees: 0,
        }
    }

    /// The site table, for interning allocation/free site labels.
    pub fn sites_mut(&mut self) -> &mut SiteTable {
        &mut self.sites
    }

    /// The site table.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// The most recent dangling-use report produced by a detector-internal
    /// fault (a double free caught during a free).
    pub fn last_report(&self) -> Option<&DanglingReport> {
        self.last_report.as_ref()
    }

    /// Attributes an MMU trap (from any load/store the program performed)
    /// to the freed object it landed in, if the detector owns that page.
    pub fn explain(&self, trap: &Trap) -> Option<DanglingReport> {
        self.registry.explain(trap, false)
    }

    /// [`Protector::explain`], but producing the structured JSON-ready
    /// [`TrapReport`] with the machine's trailing event-ring context.
    pub fn trap_report(
        &self,
        machine: &Machine,
        trap: &Trap,
        use_site: &str,
    ) -> Option<TrapReport> {
        let report = self.explain(trap)?;
        Some(report.to_telemetry(
            &self.sites,
            machine,
            use_site,
            TRAP_CONTEXT_EVENTS,
            &self.registry,
        ))
    }

    /// The object record owning `addr`, if tracked (live or freed). Each
    /// object sits alone on its shadow pages, so an address on a tracked
    /// page that falls outside the object's extent is out of bounds.
    pub fn object_at(&self, addr: VirtAddr) -> Option<&ObjectRecord> {
        self.registry.lookup(addr)
    }

    /// The canonical address of the live object at `addr` (debugger-style
    /// peek; no charge, no trap).
    pub fn canonical_of(&self, machine: &Machine, addr: VirtAddr) -> Option<VirtAddr> {
        let hidden = addr.sub(SHADOW_WORD as u64);
        let canon_page = machine.peek_u64(hidden)?;
        if canon_page & PAGE_MASK != 0 {
            return None;
        }
        Some(VirtAddr(
            canon_page + hidden.offset() as u64 + SHADOW_WORD as u64,
        ))
    }

    /// Aggregate allocation counters (user sizes).
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Allocates `size` bytes in `scope` with a shadow alias, tagged with
    /// `site` — or, when the sampling policy skips the allocation, straight
    /// from the canonical memory.
    pub(crate) fn alloc_in(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
        size: usize,
        site: SiteId,
    ) -> Result<VirtAddr, M::Error> {
        machine.span_enter(M::ALLOC_SPAN, Category::DetectorMetadata);
        let r = self.alloc_inner(machine, scope, size, site);
        machine.span_exit();
        r
    }

    fn alloc_inner(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
        size: usize,
        site: SiteId,
    ) -> Result<VirtAddr, M::Error> {
        // Sampled protection (inert by default). The decision is host-side
        // only — no simulated cycles — so with N = 1 the run is
        // byte-identical to the unsampled detector. Counters track
        // *allocation decisions*; the free path routes silently.
        let mut sampled = false;
        if self.sampling.enabled() {
            let class = header::class_index(size).unwrap_or(usize::MAX);
            match self.sampling.decide(site, class) {
                SampleDecision::Protect { sampled: drawn } => {
                    machine
                        .telemetry_mut()
                        .counter_add(sampling::COUNTER_PROTECTED, 1);
                    sampled = drawn;
                }
                SampleDecision::Skip { budget_exhausted } => {
                    let t = machine.telemetry_mut();
                    t.counter_add(sampling::COUNTER_SKIPPED, 1);
                    if budget_exhausted {
                        t.counter_add(sampling::COUNTER_BUDGET_EXHAUSTED, 1);
                    }
                    return self.mem.alloc(machine, scope, size);
                }
            }
        }
        M::before_alloc(self, machine)?;
        let total = size
            .checked_add(SHADOW_WORD)
            .ok_or(AllocError::TooLarge { size })?;
        let canon = self.mem.alloc(machine, scope, total)?;
        let span = canon.span_pages(total);
        let canon_page = canon.page();
        // Batched mode serves single-page objects from extents; everything
        // else takes one shadow run of its own.
        let shadow_base = if self.batch.enabled && span == 1 {
            let class = header::class_index(total).unwrap_or(usize::MAX);
            self.extent_page(machine, scope, canon_page, class)?
        } else {
            self.shadow_run(machine, scope, canon_page, span)?
        };
        if let Some(counter) = M::SHADOW_PAGES_COUNTER {
            machine.telemetry_mut().counter_add(counter, span as u64);
        }
        let shadow_hidden = shadow_base.add(canon.offset() as u64);
        machine.store_u64(shadow_hidden, canon_page.base().raw())?;
        let user = shadow_hidden.add(SHADOW_WORD as u64);
        self.registry
            .insert_range(user, size, site, shadow_base.page(), span);
        if sampled {
            self.registry.note_sampled(true);
        }
        if !machine.telemetry().call_stack().is_empty() {
            let stack = machine.telemetry().call_stack().to_vec();
            self.registry.note_alloc_stack(&stack);
        }
        self.stats.note_alloc(size);
        Ok(user)
    }

    /// The one-syscall-per-allocation shadow alias of §3.2: a recycled run
    /// when the canonical memory has one, a fresh `mremap` alias otherwise.
    fn shadow_run(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
        canon: PageNum,
        span: usize,
    ) -> Result<VirtAddr, M::Error> {
        let (base, recycled) = match self.mem.take_run(span) {
            Some(pg) => {
                machine.alias_fixed(canon.base(), pg.base(), span)?;
                (pg, true)
            }
            None => (machine.mremap_alias(canon.base(), span)?.page(), false),
        };
        self.mem.note_shadow_run(machine, base, span, recycled);
        self.mem.register(scope, base, span)?;
        Ok(base.base())
    }

    /// Batched-mode shadow page for a single-page object on `canon`:
    /// consumes the `(scope, class)` extent when it matches, re-points a
    /// stale leftover run in one vectored call, builds a new extent once
    /// demand on `canon` is proven, and otherwise falls back to a plain
    /// single alias at exactly the legacy cost.
    fn extent_page(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
        canon: PageNum,
        class: usize,
    ) -> Result<VirtAddr, M::Error> {
        let key = (scope, class);
        let (page, ext) = match self.extents.get(&key).copied() {
            // Hit: a pre-aliased page, zero syscalls.
            Some(mut ext) if ext.canon == canon && ext.left > 0 => {
                let page = ext.next;
                ext.next = ext.next.add(1);
                ext.left -= 1;
                if ext.left == 0 {
                    ext.grow = (ext.grow * 2).min(EXTENT_PAGES);
                }
                machine.telemetry_mut().counter_add("shadow.extent_hits", 1);
                (page, ext)
            }
            // Demand proven: a second allocation landed on `canon`.
            Some(ext) if ext.canon == canon => {
                let (base, got) =
                    self.build_extent(machine, scope, canon, ext.grow.clamp(2, EXTENT_PAGES))?;
                (
                    base,
                    Extent {
                        canon,
                        next: base.add(1),
                        left: got - 1,
                        grow: ext.grow,
                    },
                )
            }
            // Stale leftover from another canonical page of this class:
            // re-point the whole run at `canon` — the pages are already
            // ours, so this recovers their VA for one vectored crossing.
            Some(ext) if ext.left > 0 => {
                alias_pages(machine, canon, ext.next, ext.left)?;
                machine
                    .telemetry_mut()
                    .counter_add("shadow.extent_repoints", 1);
                let rest = Extent {
                    canon,
                    next: ext.next.add(1),
                    left: ext.left - 1,
                    ..ext
                };
                (ext.next, rest)
            }
            // First touch of `canon`: plain alias at legacy cost, plus a
            // zero-page demand marker.
            other => {
                let grow = other.map_or(2, |e| e.grow);
                let base = self.shadow_run(machine, scope, canon, 1)?.page();
                (
                    base,
                    Extent {
                        canon,
                        next: PageNum(0),
                        left: 0,
                        grow,
                    },
                )
            }
        };
        self.extents.insert(key, ext);
        Ok(page.base())
    }

    /// Builds a `want`-page extent aliasing `canon`: a recycled run is
    /// re-pointed with one vectored call, otherwise fresh contiguous
    /// aliases come from one vectored `mremap`. Returns the first page and
    /// the number of pages actually built; the run is registered with
    /// `scope` here, so releasing the scope releases leftover extent pages.
    fn build_extent(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
        canon: PageNum,
        want: usize,
    ) -> Result<(PageNum, usize), M::Error> {
        let (base, got, recycled) = match self.mem.take_run_capped(want) {
            Some((base, got)) => {
                alias_pages(machine, canon, base, got)?;
                (base, got, true)
            }
            None => {
                let aliases = machine.mremap_alias_batch(&vec![(canon.base(), 1usize); want])?;
                (aliases[0].page(), want, false)
            }
        };
        self.mem.note_shadow_run(machine, base, got, recycled);
        self.mem.register(scope, base, got)?;
        Ok((base, got))
    }

    /// Frees the object at `addr` in `scope`, tagging the free with `site`.
    ///
    /// A double free surfaces as a trap on the hidden-word read (see
    /// [`Protector::last_report`]); a wild pointer as
    /// [`AllocError::InvalidFree`].
    pub(crate) fn free_in(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<(), M::Error> {
        machine.span_enter(M::FREE_SPAN, Category::DetectorMetadata);
        let r = self.free_inner(machine, scope, addr, site);
        machine.span_exit();
        r
    }

    fn free_inner(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<(), M::Error> {
        if addr.raw() < SHADOW_WORD as u64 {
            return Err(AllocError::InvalidFree { addr }.into());
        }
        // Sampled mode routes frees by provenance: protected objects live
        // at registered shadow addresses, unsampled ones at canonical
        // addresses the registry has never seen — a miss is the unchecked
        // fast path (the canonical memory's header check still catches
        // double frees of unsampled objects as `InvalidFree`). The null
        // guard above runs first so degenerate frees cost the same cycles
        // as in the unsampled detector.
        if self.sampling.enabled() && self.registry.lookup(addr).is_none() {
            return self.mem.free(machine, scope, addr);
        }
        let hidden = addr.sub(SHADOW_WORD as u64);
        // An epoch-deferred protection makes the hidden word of an
        // already-freed object readable again; flushing first restores the
        // §3.2 guarantee that the read below traps on a double free.
        if runs_overlap(&self.pending_protect, hidden.page(), 1) {
            self.flush_protects(machine)?;
        }
        // §3.2: "this read operation will cause a run-time error if the
        // object has already been freed".
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
        let total = self.mem.size_of(machine, canon_hidden)?;
        let span = hidden.span_pages(total);
        if self.batch.enabled {
            merge_run(&mut self.pending_protect, hidden.page(), span);
            self.pending_frees += 1;
            if self.pending_frees >= self.batch.protect_epoch.unwrap_or(1) {
                self.flush_protects(machine)?;
            }
        } else {
            machine.mprotect(hidden.page().base(), span, Protection::None)?;
        }
        machine
            .telemetry_mut()
            .counter_add("core.pages_protected", span as u64);
        self.mem.free(machine, scope, canon_hidden)?;
        let stack = machine.telemetry().call_stack().to_vec();
        self.registry.mark_freed_traced(addr, site, &stack);
        self.mem.note_freed(scope, hidden.page(), span);
        self.stats.note_free(total - SHADOW_WORD);
        Ok(())
    }

    /// Allocates `size` bytes in `scope` **without** shadow protection,
    /// for a site the static free-site analysis (dangle-lint) proved
    /// `ProvablySafe`: no shadow alias, no hidden word, no registry entry.
    /// The returned canonical address must be released through
    /// [`Protector::free_unchecked_in`]; the lint pass stamps whole alias
    /// classes, so checked and unchecked pointers never reach the same
    /// free site.
    pub(crate) fn alloc_unchecked_in(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
        size: usize,
    ) -> Result<VirtAddr, M::Error> {
        machine.telemetry_mut().counter_add("shadow.elided", 1);
        self.mem.alloc(machine, scope, size)
    }

    /// Frees an allocation made by [`Protector::alloc_unchecked_in`]:
    /// straight to the canonical memory, with no `mprotect` and no
    /// registry update.
    pub(crate) fn free_unchecked_in(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
        addr: VirtAddr,
    ) -> Result<(), M::Error> {
        machine.telemetry_mut().counter_add("shadow.elided", 1);
        self.mem.free(machine, scope, addr)
    }

    /// Applies every pending deferred protection (see
    /// [`BatchConfig::protect_epoch`]): one plain `mprotect` for a single
    /// run — the same cost the legacy per-free call pays — or one vectored
    /// `mprotect` for several. A no-op when nothing is pending; the
    /// default eager mode calls this at the end of every free.
    ///
    /// # Errors
    /// The trap of a failed `mprotect`.
    pub fn flush_protects(&mut self, machine: &mut Machine) -> Result<(), Trap> {
        self.pending_frees = 0;
        if self.pending_protect.is_empty() {
            return Ok(());
        }
        machine.span_enter(M::FLUSH_SPAN, Category::DetectorMetadata);
        let runs = std::mem::take(&mut self.pending_protect);
        let r = if let [(base, span)] = runs[..] {
            machine.mprotect(base.base(), span, Protection::None)
        } else {
            let ranges: Vec<_> = runs.iter().map(|&(b, s)| (b.base(), s)).collect();
            machine.mprotect_batch(&ranges, Protection::None)
        };
        if r.is_ok() {
            let t = machine.telemetry_mut();
            t.counter_add("shadow.protect_runs", runs.len() as u64);
            for &(_, s) in &runs {
                t.observe("shadow.run_len", s as u64);
            }
        }
        machine.span_exit();
        r
    }

    /// Prepares `scope` for releasing its pages: in batched mode, deferred
    /// protections land first (their pages must not be re-mapped to live
    /// storage before them) and the scope's extents are dropped.
    ///
    /// # Errors
    /// The trap of a failed flush.
    pub(crate) fn retire_scope(
        &mut self,
        machine: &mut Machine,
        scope: M::Scope,
    ) -> Result<(), Trap> {
        if self.batch.enabled {
            self.flush_protects(machine)?;
            self.extents.retain(|&(s, _), _| s != scope);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_spans_stay_sorted_and_coalesced() {
        let mut runs: Vec<(PageNum, usize)> = Vec::new();
        merge_run(&mut runs, PageNum(10), 2);
        merge_run(&mut runs, PageNum(20), 1);
        merge_run(&mut runs, PageNum(12), 3); // merges below
        merge_run(&mut runs, PageNum(15), 5); // bridges to 20
        assert_eq!(runs, vec![(PageNum(10), 11)]);
        assert!(runs_overlap(&runs, PageNum(20), 1));
        assert!(!runs_overlap(&runs, PageNum(21), 4));
        assert!(!runs_overlap(&runs, PageNum(5), 5));
        assert!(runs_overlap(&runs, PageNum(5), 6));
    }
}
