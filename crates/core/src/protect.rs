//! `Protector`: the protection mechanism both detectors share.
//!
//! The paper's two insights use one mechanism: every protected object gets
//! a shadow alias of its canonical pages, a hidden word in front of it that
//! records the canonical page, and `PROT_NONE` on its shadow pages at free
//! (§3.2). [`crate::ShadowHeap`] applies it to any `malloc` (Insight 1),
//! [`crate::ShadowPool`] to the pools of Automatic Pool Allocation
//! (Insight 2). Both are a [`Protector`] over a different
//! [`CanonicalMemory`]: the protector owns the site table, the object
//! registry, the allocation counters, the sampling policy and the
//! hidden-word protocol; the canonical memory supplies the storage,
//! recycled shadow runs and the bookkeeping that differs between a heap and
//! a pool set. Every allocation pays one alias syscall and every free one
//! `mprotect`, applied before the free returns.

use crate::diag::{DanglingReport, ObjectRecord, ObjectRegistry, SiteId, SiteTable};
use crate::sampling::{self, SampleDecision, SamplingConfig, SamplingPolicy};
use dangle_heap::{header, AllocError, AllocStats};
use dangle_telemetry::{Category, HotCounter, TrapReport};
use dangle_vmm::{Machine, PageNum, Protection, Trap, VirtAddr, PAGE_MASK};

/// The hidden word prepended to every allocation (`sizeof(addr_t)`).
pub const SHADOW_WORD: usize = 8;

/// How many trailing ring events a [`TrapReport`] carries as context.
pub const TRAP_CONTEXT_EVENTS: usize = 16;

/// Where a [`Protector`]'s objects really live: the allocator whose
/// canonical blocks shadow pages alias, and the source of recycled shadow
/// runs. Implemented for a heap over any allocator
/// ([`crate::shadow::HeapMemory`]) and for a pool set
/// ([`crate::pool_shadow::PoolMemory`]).
pub trait CanonicalMemory: Sized {
    /// What an allocation is made in: `()` for a heap, the pool for pools.
    type Scope: Copy;
    /// The error every operation reports.
    type Error: From<AllocError> + From<Trap>;
    /// Span names of the protected alloc and free paths.
    const ALLOC_SPAN: &'static str;
    /// See [`CanonicalMemory::ALLOC_SPAN`].
    const FREE_SPAN: &'static str;
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
}

impl<M: CanonicalMemory> Protector<M> {
    pub(crate) fn with_memory(mem: M, sampling: SamplingConfig) -> Protector<M> {
        Protector {
            mem,
            registry: ObjectRegistry::new(),
            sites: SiteTable::new(),
            stats: AllocStats::default(),
            last_report: None,
            sampling: SamplingPolicy::new(sampling),
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

    /// The dangling-use report of the most recent checked free, when that
    /// free trapped on a freed object (a double free); `None` otherwise.
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
        let shadow_base = self.shadow_run(machine, scope, canon_page, span)?;
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
            self.registry
                .note_alloc_stack(machine.telemetry().call_stack());
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
        // A report belongs to the free that made it: a later free that
        // traps elsewhere (a wild pointer on the sampled fast path) must
        // not carry an earlier double free's diagnosis.
        self.last_report = None;
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
        machine.mprotect(hidden.page().base(), span, Protection::None)?;
        machine.telemetry_mut().hot_add(HotCounter::CorePagesProtected, span as u64);
        self.mem.free(machine, scope, canon_hidden)?;
        self.registry
            .mark_freed_traced(addr, site, machine.telemetry().call_stack());
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
        machine.telemetry_mut().hot_add(HotCounter::ShadowElided, 1);
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
        machine.telemetry_mut().hot_add(HotCounter::ShadowElided, 1);
        self.mem.free(machine, scope, addr)
    }
}
