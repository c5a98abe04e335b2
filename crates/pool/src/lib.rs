//! # dangle-pool — the Automatic Pool Allocation runtime
//!
//! The run-time half of Automatic Pool Allocation (Lattner & Adve, PLDI'05),
//! with the modifications §3.3/§3.5 of the DSN 2006 paper makes to it:
//!
//! * each pool is a distinct sub-heap (`poolinit` / `poolalloc` /
//!   `poolfree` / `pooldestroy`),
//! * a **shared free list of virtual pages** spans all pools:
//!   `pooldestroy` pushes *every* page the pool ever owned (canonical pages
//!   and any shadow pages the detector registered) onto the list instead of
//!   calling `munmap`,
//! * `poolalloc` obtains pages **from the shared free list first**, falling
//!   back to `mmap` only when the list is empty,
//! * `poolfree` does **not** return memory to the system — pages stay with
//!   their pool until the pool dies.
//!
//! A recycled page must come back accessible and must not share its
//! physical frame with any other page — otherwise two live objects could
//! silently share a frame. A recycled run whose pages are all mapped
//! read-write onto frames no other page maps
//! ([`dangle_vmm::Machine::is_private_rw`]) already is both, so it is handed
//! out **in place**, with no syscall and its old contents: pool memory is
//! never promised to be zeroed. Every other run — a freed object's
//! `PROT_NONE` shadow page, or a canonical page whose shadow aliases were
//! released with it — is re-mapped to *fresh* frames
//! ([`dangle_vmm::Machine::mmap_fixed`]), which severs the stale aliasing
//! and lifts the protection. The safety of handing the *virtual* page out
//! again rests entirely on the Automatic Pool Allocation contract: no
//! pointer into the pool survives `pooldestroy` (that is Insight 2 of the
//! paper, and `dangle-apa`'s escape analysis is what establishes it).
//!
//! On a machine with more than one core, `pooldestroy` also **unmaps**
//! every released page that is not private read-write: one `munmap` for a
//! single run, one `munmap_batch` for several. Removing the pool's
//! translations costs one TLB-shootdown round, and a later re-map of an
//! unmapped page replaces nothing, so it sends no IPI
//! ([`dangle_vmm::Machine::mmap_fixed`] charges a round only when it
//! replaces a translation). Without this, every recycled page would pay a
//! round of its own when re-mapped. The frames go back to the machine at
//! destroy instead of at reuse. A single-core machine pays no shootdowns,
//! so it keeps released pages mapped until they are reused.
//!
//! The runtime also maintains the *dynamic pool points-to graph* the paper's
//! §3.4 mentions ([`PoolSet::note_pool_edge`]): which pools hold pointers
//! into which other pools. `dangle-core`'s conservative pool GC uses it to
//! scan only the long-lived pools.

use dangle_heap::header::{self, HEADER_SIZE, SIZE_CLASSES};
use dangle_heap::{AllocError, AllocStats};
use dangle_telemetry::EventKind;
use dangle_vmm::{Machine, PageNum, Trap, VirtAddr, PAGE_SIZE};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifies a pool within a [`PoolSet`]. Corresponds to the pool
/// descriptor variable the APA transform threads through the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u32);

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool#{}", self.0)
    }
}

/// Errors from pool operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// An underlying allocation error (including machine traps).
    Alloc(AllocError),
    /// The pool was already destroyed.
    Destroyed(PoolId),
    /// The pool id was never created.
    Unknown(PoolId),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Alloc(e) => write!(f, "{e}"),
            PoolError::Destroyed(p) => write!(f, "operation on destroyed {p}"),
            PoolError::Unknown(p) => write!(f, "operation on unknown {p}"),
        }
    }
}

impl Error for PoolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PoolError::Alloc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AllocError> for PoolError {
    fn from(e: AllocError) -> PoolError {
        PoolError::Alloc(e)
    }
}

impl From<Trap> for PoolError {
    fn from(t: Trap) -> PoolError {
        PoolError::Alloc(AllocError::Trap(t))
    }
}

/// Configuration of a [`PoolSet`].
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Whether `pooldestroy` feeds the shared page free list and
    /// `poolalloc` consumes it. Disabling reproduces the "no-reuse" regime
    /// of §3.2 (and is swept by the ablation bench).
    pub reuse_pages: bool,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig { reuse_pages: true }
    }
}

/// Fixed cycle cost modelling pool bookkeeping beyond its memory traffic.
const LOGIC_COST: u64 = 10;

#[derive(Clone, Copy, Debug, Default)]
struct ClassState {
    free_head: Option<VirtAddr>,
    cur: VirtAddr,
    cur_end: u64,
}

#[derive(Debug)]
struct Pool {
    /// Element-size hint passed to `poolinit` (the `sizeof` the transform
    /// derives from the points-to graph node). Currently informational.
    elem_hint: usize,
    classes: [ClassState; SIZE_CLASSES.len()],
    /// Every canonical page this pool obtained (chunk pages and large runs).
    pages: Vec<PageNum>,
    /// Shadow pages registered by the dangling-pointer detector so they are
    /// recycled together with the pool.
    extra_pages: Vec<PageNum>,
    /// First-fit list of freed large runs: `(pages, block_base)`.
    large_free: Vec<(usize, VirtAddr)>,
    /// Pools this pool's objects hold pointers into (dynamic pool
    /// points-to graph, §3.4).
    points_to: Vec<PoolId>,
    stats: AllocStats,
}

/// The pool runtime: all pools of one program plus the shared page free
/// list. See the [module docs](self).
///
/// ```rust
/// use dangle_pool::PoolSet;
/// use dangle_vmm::Machine;
///
/// # fn main() -> Result<(), dangle_pool::PoolError> {
/// let mut m = Machine::new();
/// let mut pools = PoolSet::new();
/// let pp = pools.create(16);
/// let node = pools.alloc(&mut m, pp, 16)?;
/// m.store_u64(node, 1)?;
/// pools.free(&mut m, pp, node)?;
/// pools.destroy(&mut m, pp)?; // all pages become reusable
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct PoolSet {
    /// Every pool ever created, indexed by id. A destroyed pool leaves a
    /// `None` tombstone, so ids are never reused and a long-running server
    /// keeps one pointer per dead pool, not its class table and page lists.
    pools: Vec<Option<Box<Pool>>>,
    destroyed: u64,
    /// Shared free list of virtual-page *runs*: `(base, len)`, kept
    /// **sorted by base** and fully coalesced (no two entries adjacent).
    /// Runs let multi-page canonical blocks and multi-page shadow spans
    /// recycle virtual addresses too, not just single pages. Sorting
    /// makes release a binary search that merges with *both* neighbours,
    /// where the previous append-only list could only merge with the
    /// most recently released run and fragmented over time.
    free_runs: Vec<(PageNum, u32)>,
    config: PoolConfig,
    /// Cached telemetry handles for the `acquire_run` hot path (resolved
    /// lazily on first use instead of by name on every call).
    recycled_counter: Option<dangle_telemetry::CounterHandle>,
    fresh_counter: Option<dangle_telemetry::CounterHandle>,
}

impl PoolSet {
    /// Creates an empty pool set with the default configuration.
    pub fn new() -> PoolSet {
        PoolSet::default()
    }

    /// Creates an empty pool set with an explicit configuration.
    pub fn with_config(config: PoolConfig) -> PoolSet {
        PoolSet { config, ..PoolSet::default() }
    }

    /// `poolinit`: creates a new pool. `elem_hint` is the element size the
    /// compiler inferred for the pool's points-to node (0 if unknown).
    pub fn create(&mut self, elem_hint: usize) -> PoolId {
        let id = PoolId(self.pools.len() as u32);
        self.pools.push(Some(Box::new(Pool {
            elem_hint,
            classes: Default::default(),
            pages: Vec::new(),
            extra_pages: Vec::new(),
            large_free: Vec::new(),
            points_to: Vec::new(),
            stats: AllocStats::default(),
        })));
        id
    }

    fn pool(&self, id: PoolId) -> Result<&Pool, PoolError> {
        match self.pools.get(id.0 as usize) {
            Some(Some(p)) => Ok(p),
            Some(None) => Err(PoolError::Destroyed(id)),
            None => Err(PoolError::Unknown(id)),
        }
    }

    fn pool_live(&mut self, id: PoolId) -> Result<&mut Pool, PoolError> {
        match self.pools.get_mut(id.0 as usize) {
            Some(Some(p)) => Ok(p),
            Some(None) => Err(PoolError::Destroyed(id)),
            None => Err(PoolError::Unknown(id)),
        }
    }

    /// Every live pool with its id, in id order.
    fn live(&self) -> impl Iterator<Item = (PoolId, &Pool)> {
        self.pools
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_deref().map(|p| (PoolId(i as u32), p)))
    }

    /// Pops `n` *contiguous* page numbers off the shared free list without
    /// mapping them, splitting a larger run if needed (first fit in base
    /// order, taking from the front of the run). `None` when reuse is
    /// disabled or no run is long enough.
    pub fn take_free_run(&mut self, n: usize) -> Option<PageNum> {
        if !self.config.reuse_pages || n == 0 {
            return None;
        }
        let i = self.free_runs.iter().position(|&(_, len)| len as usize >= n)?;
        let (base, len) = self.free_runs[i];
        if len as usize == n {
            self.free_runs.remove(i);
        } else {
            self.free_runs[i] = (base.add(n as u64), len - n as u32);
        }
        Some(base)
    }

    /// Pushes a run of `len` pages starting at `base` onto the shared free
    /// list. The list is kept sorted by base and fully coalesced: the run
    /// is binary-searched into place and merged with *both* neighbours
    /// when adjacent.
    fn release_run(&mut self, base: PageNum, len: u32) {
        if !self.config.reuse_pages || len == 0 {
            return;
        }
        let i = self.free_runs.partition_point(|&(b, _)| b < base);
        debug_assert!(
            i == 0 || self.free_runs[i - 1].0.add(self.free_runs[i - 1].1 as u64) <= base,
            "released run overlaps a free run below it"
        );
        debug_assert!(
            i == self.free_runs.len() || base.add(len as u64) <= self.free_runs[i].0,
            "released run overlaps a free run above it"
        );
        let merges_prev =
            i > 0 && self.free_runs[i - 1].0.add(self.free_runs[i - 1].1 as u64) == base;
        let merges_next =
            i < self.free_runs.len() && base.add(len as u64) == self.free_runs[i].0;
        match (merges_prev, merges_next) {
            (true, true) => {
                let next_len = self.free_runs[i].1;
                self.free_runs[i - 1].1 += len + next_len;
                self.free_runs.remove(i);
            }
            (true, false) => self.free_runs[i - 1].1 += len,
            (false, true) => {
                self.free_runs[i].0 = base;
                self.free_runs[i].1 += len;
            }
            (false, false) => self.free_runs.insert(i, (base, len)),
        }
    }

    /// Releases a set of pages: sorts, coalesces consecutive pages into
    /// runs, and pushes the runs onto the shared free list. Returns the
    /// number of distinct pages released and, on a machine with more than
    /// one core, the coalesced runs of released pages that are not
    /// private read-write, which the caller unmaps (see the
    /// [module docs](self)).
    fn release_pages(
        &mut self,
        machine: &Machine,
        mut pages: Vec<PageNum>,
    ) -> (u64, Vec<(VirtAddr, usize)>) {
        let mut unmap = Vec::new();
        if !self.config.reuse_pages || pages.is_empty() {
            return (0, unmap);
        }
        pages.sort_unstable();
        pages.dedup();
        let multi_core = machine.core_count() > 1;
        let (mut run_base, mut run_len) = (pages[0], 0u32);
        for &pg in &pages {
            if pg != run_base.add(run_len as u64) {
                self.release_run(run_base, run_len);
                (run_base, run_len) = (pg, 0);
            }
            run_len += 1;
            if multi_core && !machine.is_private_rw(pg.base(), 1) {
                match unmap.last_mut() {
                    Some((base, len)) if base.page().add(*len as u64) == pg => *len += 1,
                    _ => unmap.push((pg.base(), 1)),
                }
            }
        }
        self.release_run(run_base, run_len);
        (pages.len() as u64, unmap)
    }

    /// Obtains `n` contiguous virtual pages: recycled from the shared free
    /// list when allowed and available, fresh `mmap` otherwise. A recycled
    /// run is handed out in place when it is private and read-write, and
    /// re-mapped to fresh frames otherwise (see the [module docs](self));
    /// a run whose re-map fails goes back on the list.
    fn acquire_run(&mut self, machine: &mut Machine, n: usize) -> Result<VirtAddr, PoolError> {
        if let Some(base) = self.take_free_run(n) {
            if !machine.is_private_rw(base.base(), n) {
                if let Err(trap) = machine.mmap_fixed(base.base(), n) {
                    self.release_run(base, n as u32);
                    return Err(trap.into());
                }
            }
            machine.note_event(base.base(), EventKind::FreeListHit { pages: n as u32 });
            let t = machine.telemetry_mut();
            if t.enabled() {
                let h = match self.recycled_counter {
                    Some(h) => h,
                    None => {
                        let h = t.metrics_mut().counter_handle("pool.pages_recycled");
                        self.recycled_counter = Some(h);
                        h
                    }
                };
                t.metrics_mut().add(h, n as u64);
            }
            return Ok(base.base());
        }
        let fresh = machine.mmap(n)?;
        machine.note_event(fresh, EventKind::FreeListMiss { pages: n as u32 });
        let t = machine.telemetry_mut();
        if t.enabled() {
            let h = match self.fresh_counter {
                Some(h) => h,
                None => {
                    let h = t.metrics_mut().counter_handle("pool.pages_fresh");
                    self.fresh_counter = Some(h);
                    h
                }
            };
            t.metrics_mut().add(h, n as u64);
        }
        Ok(fresh)
    }

    fn acquire_page(&mut self, machine: &mut Machine) -> Result<VirtAddr, PoolError> {
        self.acquire_run(machine, 1)
    }

    /// `poolalloc`: allocates `size` bytes from `pool`.
    ///
    /// # Errors
    /// [`PoolError::Destroyed`]/[`PoolError::Unknown`] for bad pool ids,
    /// [`PoolError::Alloc`] for machine exhaustion or oversized requests.
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
    ) -> Result<VirtAddr, PoolError> {
        machine.tick(LOGIC_COST);
        if size > u32::MAX as usize {
            return Err(AllocError::TooLarge { size }.into());
        }
        let requested = size.max(1);
        self.pool_live(pool)?; // validate before taking pages
        let payload = match header::class_index(requested) {
            Some(class) => {
                let capacity = SIZE_CLASSES[class];
                // Fast paths on the pool's class state.
                let state = self.pool_live(pool)?.classes[class];
                let payload = if let Some(p) = state.free_head {
                    let next = machine.load_u64(p)?;
                    self.pool_live(pool)?.classes[class].free_head =
                        if next == 0 { None } else { Some(VirtAddr(next)) };
                    p
                } else {
                    let need = (capacity + HEADER_SIZE) as u64;
                    let mut state = state;
                    if state.cur_end - state.cur.raw() < need {
                        // Carve a new page for this class.
                        let page = self.acquire_page(machine)?;
                        self.pool_live(pool)?.pages.push(page.page());
                        state.cur = page;
                        state.cur_end = page.raw() + PAGE_SIZE as u64;
                    }
                    let block = state.cur;
                    state.cur = state.cur.add(need);
                    self.pool_live(pool)?.classes[class] = state;
                    block.add(HEADER_SIZE as u64)
                };
                machine.store_u64(
                    payload.sub(HEADER_SIZE as u64),
                    header::pack_header(requested, capacity, true),
                )?;
                payload
            }
            None => {
                // Large run: fresh pages (contiguity cannot be guaranteed
                // from the single-page free list), reused within the pool.
                let pages = (requested + HEADER_SIZE).div_ceil(PAGE_SIZE);
                let p = self.pool_live(pool)?;
                let block = if let Some(i) =
                    p.large_free.iter().position(|&(n, _)| n >= pages)
                {
                    p.large_free.swap_remove(i).1
                } else {
                    let block = self.acquire_run(machine, pages)?;
                    let p = self.pool_live(pool)?;
                    for i in 0..pages as u64 {
                        p.pages.push(block.page().add(i));
                    }
                    block
                };
                let capacity = pages * PAGE_SIZE - HEADER_SIZE;
                machine.store_u64(block, header::pack_header(requested, capacity, true))?;
                block.add(HEADER_SIZE as u64)
            }
        };
        self.pool_live(pool)?.stats.note_alloc(requested);
        Ok(payload)
    }

    /// `poolfree`: returns `addr` to its pool's internal free lists. Memory
    /// is *not* returned to the system or the shared page list (§3.5).
    ///
    /// # Errors
    /// [`PoolError::Alloc`] with [`AllocError::InvalidFree`] when the header
    /// shows the block is not live; pool-id errors as for
    /// [`PoolSet::alloc`].
    pub fn free(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
    ) -> Result<(), PoolError> {
        machine.tick(LOGIC_COST);
        self.pool_live(pool)?;
        if addr.raw() < HEADER_SIZE as u64 {
            return Err(AllocError::InvalidFree { addr }.into());
        }
        let header_addr = addr.sub(HEADER_SIZE as u64);
        let h = machine.load_u64(header_addr)?;
        if !header::header_in_use(h) {
            return Err(AllocError::InvalidFree { addr }.into());
        }
        let requested = header::header_requested(h);
        let capacity = header::header_capacity(h);
        machine.store_u64(header_addr, header::pack_header(requested, capacity, false))?;
        match header::class_of_capacity(capacity) {
            Some(class) => {
                let p = self.pool_live(pool)?;
                let next = p.classes[class].free_head.map_or(0, VirtAddr::raw);
                machine.store_u64(addr, next)?;
                self.pool_live(pool)?.classes[class].free_head = Some(addr);
            }
            None => {
                let pages = (capacity + HEADER_SIZE) / PAGE_SIZE;
                self.pool_live(pool)?.large_free.push((pages, header_addr));
            }
        }
        self.pool_live(pool)?.stats.note_free(requested);
        Ok(())
    }

    /// Reads the requested size of the live allocation at `addr` from its
    /// boundary header (pool-independent).
    ///
    /// # Errors
    /// As for [`dangle_heap::Allocator::size_of`].
    pub fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, PoolError> {
        if addr.raw() < HEADER_SIZE as u64 {
            return Err(AllocError::InvalidFree { addr }.into());
        }
        let h = machine.load_u64(addr.sub(HEADER_SIZE as u64))?;
        if !header::header_in_use(h) {
            return Err(AllocError::InvalidFree { addr }.into());
        }
        Ok(header::header_requested(h))
    }

    /// `pooldestroy`: releases **all** the pool's pages — canonical and
    /// registered shadow pages alike — to the shared free list (when reuse
    /// is enabled). The pool id becomes a tombstone: every later operation
    /// on it fails with [`PoolError::Destroyed`]. On a machine with more
    /// than one core, every released page that is not private read-write
    /// is unmapped here, in one `munmap` for a single run or one
    /// `munmap_batch` for several, so the pool's translations cost one
    /// shootdown round and their later re-maps cost none.
    ///
    /// Safety of the subsequent reuse rests on the APA contract that no
    /// pointer into this pool is live; see the [module docs](self).
    ///
    /// # Errors
    /// Pool-id errors as for [`PoolSet::alloc`].
    pub fn destroy(&mut self, machine: &mut Machine, pool: PoolId) -> Result<(), PoolError> {
        machine.tick(LOGIC_COST);
        self.pool_live(pool)?;
        let p = self.pools[pool.0 as usize].take().expect("checked live above");
        self.destroyed += 1;
        let mut pages = p.pages;
        pages.extend_from_slice(&p.extra_pages);
        let (released, unmap) = self.release_pages(machine, pages);
        match unmap[..] {
            [] => {}
            [(base, len)] => machine.munmap(base, len)?,
            _ => machine.munmap_batch(&unmap)?,
        }
        machine.note_event(VirtAddr::NULL, EventKind::PoolDestroy);
        machine.telemetry_mut().counter_add("pool.pages_released", released);
        // Per-pool wastage series: how many pages each pool held at death.
        machine.telemetry_mut().observe("pool.pages_at_destroy", released);
        Ok(())
    }

    /// Registers an extra (shadow) page with `pool`, to be recycled at
    /// `pooldestroy`. Called by the dangling-pointer detector for every
    /// shadow page it creates for an object of this pool.
    ///
    /// # Errors
    /// Pool-id errors as for [`PoolSet::alloc`].
    pub fn register_extra_page(&mut self, pool: PoolId, page: PageNum) -> Result<(), PoolError> {
        self.pool_live(pool)?.extra_pages.push(page);
        Ok(())
    }

    /// Registers a contiguous run of `len` extra (shadow) pages with
    /// `pool` in one call. The batched detector creates shadow pages in
    /// extent runs; registering the whole run at build time replaces `len`
    /// per-page [`PoolSet::register_extra_page`] calls, and `pooldestroy`
    /// still sorts and merges everything back into free-list runs.
    ///
    /// # Errors
    /// Pool-id errors as for [`PoolSet::alloc`].
    pub fn register_extra_run(
        &mut self,
        pool: PoolId,
        start: PageNum,
        len: usize,
    ) -> Result<(), PoolError> {
        let p = self.pool_live(pool)?;
        p.extra_pages.extend((0..len as u64).map(|i| start.add(i)));
        Ok(())
    }

    /// Pops the lowest-based free run, truncated to at most `max` pages
    /// (the remainder stays on the list). Unlike [`PoolSet::take_free_run`]
    /// this never fails on fragmentation — any non-empty run satisfies it —
    /// which is what the batched detector wants when feeding a shadow-page
    /// extent from recycled VA.
    pub fn take_free_run_capped(&mut self, max: usize) -> Option<(PageNum, usize)> {
        if !self.config.reuse_pages || max == 0 {
            return None;
        }
        let &(base, len) = self.free_runs.first()?;
        let take = (len as usize).min(max);
        if take == len as usize {
            self.free_runs.remove(0);
        } else {
            self.free_runs[0] = (base.add(take as u64), len - take as u32);
        }
        Some((base, take))
    }

    /// Removes a previously registered extra page from `pool` without
    /// recycling it (the §3.4 GC reclaims such pages early, then donates
    /// them via [`PoolSet::donate_page`]). Returns whether the page was
    /// registered.
    pub fn take_extra_page(&mut self, pool: PoolId, page: PageNum) -> bool {
        match self.pool_live(pool) {
            Ok(p) => {
                if let Some(i) = p.extra_pages.iter().position(|&x| x == page) {
                    p.extra_pages.swap_remove(i);
                    true
                } else {
                    false
                }
            }
            Err(_) => false,
        }
    }

    /// Pushes a page onto the shared free list directly. Used by the §3.4
    /// conservative GC when it proves a shadow page unreferenced.
    pub fn donate_page(&mut self, page: PageNum) {
        self.release_run(page, 1);
    }

    /// Pushes a whole run of `pages` contiguous pages starting at `base`
    /// onto the shared free list, coalescing with neighbours. Used by the
    /// sharded detector to adopt runs retired by *another* shard once an
    /// epoch grace period has passed.
    pub fn donate_run(&mut self, base: PageNum, pages: u32) {
        self.release_run(base, pages);
    }

    /// Records that an object in `from` was observed to hold a pointer into
    /// `to` (dynamic pool points-to graph, §3.4).
    pub fn note_pool_edge(&mut self, from: PoolId, to: PoolId) {
        if from == to {
            return;
        }
        if let Ok(p) = self.pool_live(from) {
            if !p.points_to.contains(&to) {
                p.points_to.push(to);
            }
        }
    }

    /// The pools `pool` is known to point into.
    ///
    /// # Errors
    /// [`PoolError::Unknown`] for a bad id, [`PoolError::Destroyed`] for a
    /// destroyed pool (it holds no objects, so no pointers either).
    pub fn pool_edges(&self, pool: PoolId) -> Result<&[PoolId], PoolError> {
        Ok(&self.pool(pool)?.points_to)
    }

    /// Whether `pool` has been destroyed.
    ///
    /// # Errors
    /// [`PoolError::Unknown`] for a bad id.
    pub fn is_destroyed(&self, pool: PoolId) -> Result<bool, PoolError> {
        match self.pools.get(pool.0 as usize) {
            Some(p) => Ok(p.is_none()),
            None => Err(PoolError::Unknown(pool)),
        }
    }

    /// Allocation counters of one pool.
    ///
    /// # Errors
    /// Pool-id errors as for [`PoolSet::alloc`].
    pub fn pool_stats(&self, pool: PoolId) -> Result<AllocStats, PoolError> {
        Ok(self.pool(pool)?.stats)
    }

    /// The element-size hint `pool` was created with.
    ///
    /// # Errors
    /// Pool-id errors as for [`PoolSet::alloc`].
    pub fn elem_hint(&self, pool: PoolId) -> Result<usize, PoolError> {
        Ok(self.pool(pool)?.elem_hint)
    }

    /// Number of pages currently waiting on the shared free list.
    pub fn free_page_count(&self) -> usize {
        self.free_runs.iter().map(|&(_, len)| len as usize).sum()
    }

    /// Ids of all live (not destroyed) pools.
    pub fn live_pools(&self) -> Vec<PoolId> {
        self.live().map(|(id, _)| id).collect()
    }

    /// The canonical pages currently owned by `pool`.
    ///
    /// # Errors
    /// Pool-id errors as for [`PoolSet::alloc`].
    pub fn pool_pages(&self, pool: PoolId) -> Result<&[PageNum], PoolError> {
        Ok(&self.pool(pool)?.pages)
    }

    /// The extra (shadow) pages currently registered with `pool`.
    ///
    /// # Errors
    /// Pool-id errors as for [`PoolSet::alloc`].
    pub fn extra_pages(&self, pool: PoolId) -> Result<&[PageNum], PoolError> {
        Ok(&self.pool(pool)?.extra_pages)
    }

    /// Pools ever created (tombstones included — ids are never reused).
    pub fn pools_created(&self) -> u64 {
        self.pools.len() as u64
    }

    /// Pools destroyed so far.
    pub fn pools_destroyed(&self) -> u64 {
        self.destroyed
    }

    /// Checks the aliasing invariant page recycling must keep: no two
    /// pages owned by live pools share a physical frame, except that a
    /// registered extra (shadow) page may share the frame of a canonical
    /// or extra page of its *own* pool. Unmapped pages are skipped. Free
    /// of simulated cost; meant for tests.
    ///
    /// # Errors
    /// A description of the first violation found.
    pub fn audit_frames(&self, machine: &Machine) -> Result<(), String> {
        let mut owner: HashMap<u32, PoolId> = HashMap::new();
        for (id, p) in self.live() {
            for &pg in &p.pages {
                let Some(frame) = machine.frame_of(pg.base()) else { continue };
                if let Some(other) = owner.insert(frame, id) {
                    return Err(format!(
                        "canonical {pg:?} of {id} shares frame {frame} with a page of {other}"
                    ));
                }
            }
        }
        for (id, p) in self.live() {
            for &pg in &p.extra_pages {
                let Some(frame) = machine.frame_of(pg.base()) else { continue };
                let other = *owner.entry(frame).or_insert(id);
                if other != id {
                    return Err(format!(
                        "extra {pg:?} of {id} shares frame {frame} with a page of {other}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The configuration this set was created with.
    pub fn config(&self) -> PoolConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_vmm::{CostModel, MachineConfig, Protection};

    fn setup() -> (Machine, PoolSet) {
        (Machine::free_running(), PoolSet::new())
    }

    #[test]
    fn lifecycle_alloc_free_destroy() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(16);
        let a = ps.alloc(&mut m, pp, 16).unwrap();
        m.store_u64(a, 99).unwrap();
        assert_eq!(m.load_u64(a).unwrap(), 99);
        ps.free(&mut m, pp, a).unwrap();
        ps.destroy(&mut m, pp).unwrap();
        assert!(ps.is_destroyed(pp).unwrap());
    }

    #[test]
    fn operations_on_destroyed_pool_fail() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(8);
        let a = ps.alloc(&mut m, pp, 8).unwrap();
        ps.destroy(&mut m, pp).unwrap();
        assert!(matches!(ps.alloc(&mut m, pp, 8), Err(PoolError::Destroyed(_))));
        assert!(matches!(ps.free(&mut m, pp, a), Err(PoolError::Destroyed(_))));
        assert!(matches!(ps.destroy(&mut m, pp), Err(PoolError::Destroyed(_))));
        assert!(matches!(ps.register_extra_page(pp, a.page()), Err(PoolError::Destroyed(_))));
        assert!(matches!(ps.pool_stats(pp), Err(PoolError::Destroyed(_))));
        assert!(matches!(ps.pool_edges(pp), Err(PoolError::Destroyed(_))));
        assert!(matches!(ps.pool_pages(pp), Err(PoolError::Destroyed(_))));
        assert!(ps.is_destroyed(pp).unwrap());
        // The tombstone is one pointer wide, and its id is never reused.
        assert_eq!(std::mem::size_of_val(&ps.pools[0]), std::mem::size_of::<usize>());
        assert_eq!(ps.create(8), PoolId(1));
        assert_eq!((ps.pools_created(), ps.pools_destroyed()), (2, 1));
    }

    #[test]
    fn unknown_pool_fails() {
        let (mut m, mut ps) = setup();
        assert!(matches!(ps.alloc(&mut m, PoolId(9), 8), Err(PoolError::Unknown(_))));
    }

    #[test]
    fn small_objects_share_a_page() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(16);
        let a = ps.alloc(&mut m, pp, 16).unwrap();
        let b = ps.alloc(&mut m, pp, 16).unwrap();
        assert_eq!(a.page(), b.page(), "pool carves multiple blocks per page");
    }

    #[test]
    fn classes_use_distinct_pages() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(0);
        let small = ps.alloc(&mut m, pp, 16).unwrap();
        let big = ps.alloc(&mut m, pp, 1024).unwrap();
        assert_ne!(small.page(), big.page());
    }

    #[test]
    fn free_list_reuses_block_within_pool() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(64);
        let a = ps.alloc(&mut m, pp, 64).unwrap();
        ps.free(&mut m, pp, a).unwrap();
        let b = ps.alloc(&mut m, pp, 64).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pools_are_segregated() {
        let (mut m, mut ps) = setup();
        let p1 = ps.create(16);
        let p2 = ps.create(16);
        let a = ps.alloc(&mut m, p1, 16).unwrap();
        let b = ps.alloc(&mut m, p2, 16).unwrap();
        assert_ne!(a.page(), b.page(), "different pools never share pages");
    }

    #[test]
    fn destroy_recycles_pages_for_new_pools() {
        let (mut m, mut ps) = setup();
        let p1 = ps.create(16);
        let a = ps.alloc(&mut m, p1, 16).unwrap();
        let a_page = a.page();
        ps.destroy(&mut m, p1).unwrap();
        assert_eq!(ps.free_page_count(), 1);

        let p2 = ps.create(16);
        let b = ps.alloc(&mut m, p2, 16).unwrap();
        assert_eq!(b.page(), a_page, "virtual page recycled from the free list");
        assert_eq!(m.telemetry().counter("pool.pages_recycled"), 1);
        // Nothing ever wrote a's payload, and b is the same block.
        assert_eq!(m.load_u64(b).unwrap(), 0);
    }

    #[test]
    fn private_read_write_page_is_recycled_in_place() {
        let (mut m, mut ps) = setup();
        let p1 = ps.create(16);
        let a = ps.alloc(&mut m, p1, 16).unwrap();
        m.store_u64(a, 0x5eed).unwrap();
        let frame = m.frame_of(a);
        ps.destroy(&mut m, p1).unwrap();

        let mmaps = m.stats().mmap_calls;
        let p2 = ps.create(16);
        let b = ps.alloc(&mut m, p2, 16).unwrap();
        assert_eq!(b.page(), a.page(), "virtual page recycled from the free list");
        assert_eq!(m.frame_of(b), frame, "in place: same frame");
        assert_eq!(m.stats().mmap_calls, mmaps, "in place: no mmap");
        assert_eq!(m.telemetry().counter("event.free_list_hit"), 1);
        assert_eq!(m.telemetry().counter("pool.pages_recycled"), 1);
        // Pool memory is not zeroed: the old payload is still there.
        assert_eq!(m.load_u64(b).unwrap(), 0x5eed);
    }

    #[test]
    fn protected_page_is_remapped_read_write() {
        let (mut m, mut ps) = setup();
        let p1 = ps.create(16);
        let a = ps.alloc(&mut m, p1, 16).unwrap();
        m.mprotect(a, 1, Protection::None).unwrap();
        ps.destroy(&mut m, p1).unwrap();

        let mmaps = m.stats().mmap_calls;
        let p2 = ps.create(16);
        let b = ps.alloc(&mut m, p2, 16).unwrap();
        assert_eq!(b.page(), a.page());
        assert_eq!(m.stats().mmap_calls, mmaps + 1, "PROT_NONE is re-mapped");
        assert_eq!(m.protection(b), Some(Protection::ReadWrite));
        m.store_u64(b, 1).unwrap();
        assert_eq!(m.telemetry().counter("pool.pages_recycled"), 1);
    }

    #[test]
    fn failed_remap_returns_the_run_to_the_free_list() {
        let mut m = Machine::with_config(MachineConfig {
            cost: CostModel::free(),
            phys_frames: 2,
            ..MachineConfig::default()
        });
        let mut ps = PoolSet::new();
        let p1 = ps.create(16);
        let a = ps.alloc(&mut m, p1, 16).unwrap();
        let shadow = m.mremap_alias(a, 1).unwrap();
        ps.register_extra_page(p1, shadow.page()).unwrap();
        let keep = ps.create(16);
        ps.alloc(&mut m, keep, 16).unwrap(); // the second and last frame
        ps.destroy(&mut m, p1).unwrap();
        assert_eq!(ps.free_page_count(), 2);

        // Both free pages alias one frame, so a recycled page needs a
        // fresh frame, and there is none.
        let p2 = ps.create(16);
        assert_eq!(
            ps.alloc(&mut m, p2, 16),
            Err(PoolError::Alloc(AllocError::Trap(Trap::OutOfPhysicalMemory)))
        );
        assert_eq!(ps.free_page_count(), 2, "the run went back on the list");
    }

    #[test]
    fn multi_core_destroy_unmaps_shared_pages_in_one_round() {
        let mut m = Machine::with_config(MachineConfig { cores: 4, ..MachineConfig::default() });
        let mut ps = PoolSet::new();
        let p1 = ps.create(16);
        let a = ps.alloc(&mut m, p1, 16).unwrap();
        let shadow = m.mremap_alias(a, 1).unwrap();
        ps.register_extra_page(p1, shadow.page()).unwrap();
        let private = ps.alloc(&mut m, p1, 1024).unwrap(); // a page of its own
        let (ipis, munmaps) = (m.stats().shootdown_ipis, m.stats().munmap_calls);
        ps.destroy(&mut m, p1).unwrap();
        assert_eq!(m.stats().munmap_calls, munmaps + 1, "one syscall for the pool");
        assert_eq!(m.stats().shootdown_ipis, ipis + 3, "one round for the pool");
        assert!(!m.is_mapped(a) && !m.is_mapped(shadow), "aliased pages are unmapped");
        assert!(m.is_private_rw(private, 1), "a private page stays mapped");

        // Re-mapping the unmapped pages replaces nothing: no IPI.
        let p2 = ps.create(16);
        let b = ps.alloc(&mut m, p2, 16).unwrap();
        let c = ps.alloc(&mut m, p2, 1024).unwrap();
        assert_eq!(ps.free_page_count(), 1);
        assert!(m.is_mapped(b) && m.is_mapped(c));
        assert_eq!(m.stats().shootdown_ipis, ipis + 3);
    }

    #[test]
    fn recycling_severs_physical_aliasing() {
        let (mut m, mut ps) = setup();
        let p1 = ps.create(16);
        let a = ps.alloc(&mut m, p1, 16).unwrap();
        // Simulate a detector shadow page aliasing a's frame.
        let shadow = m.mremap_alias(a, 1).unwrap();
        ps.register_extra_page(p1, shadow.page()).unwrap();
        ps.destroy(&mut m, p1).unwrap();

        // Both pages are recycled; they must not share a frame afterwards.
        let p2 = ps.create(16);
        let x = ps.alloc(&mut m, p2, 16).unwrap();
        let y = ps.alloc(&mut m, p2, 1024).unwrap();
        if x.page() != y.page() {
            assert_ne!(m.frame_of(x), m.frame_of(y), "recycled pages must have fresh frames");
        }
    }

    #[test]
    fn virtual_address_consumption_bounded_with_reuse() {
        let (mut m, mut ps) = setup();
        // Repeatedly create/fill/destroy pools: VA use must plateau.
        let mut consumed_after_warmup = 0;
        for round in 0..50 {
            let pp = ps.create(16);
            for _ in 0..20 {
                ps.alloc(&mut m, pp, 32).unwrap();
            }
            ps.destroy(&mut m, pp).unwrap();
            if round == 1 {
                consumed_after_warmup = m.virt_pages_consumed();
            }
        }
        assert_eq!(
            m.virt_pages_consumed(),
            consumed_after_warmup,
            "after warm-up no fresh VA should be needed"
        );
    }

    #[test]
    fn no_reuse_config_grows_va_forever() {
        let mut m = Machine::free_running();
        let mut ps = PoolSet::with_config(PoolConfig { reuse_pages: false });
        let mut last = 0;
        for _ in 0..10 {
            let pp = ps.create(16);
            ps.alloc(&mut m, pp, 32).unwrap();
            ps.destroy(&mut m, pp).unwrap();
            let now = m.virt_pages_consumed();
            assert!(now > last, "VA must keep growing without reuse");
            last = now;
        }
        assert_eq!(ps.free_page_count(), 0);
    }

    #[test]
    fn double_free_detected_by_header() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(16);
        let a = ps.alloc(&mut m, pp, 16).unwrap();
        ps.free(&mut m, pp, a).unwrap();
        assert!(matches!(
            ps.free(&mut m, pp, a),
            Err(PoolError::Alloc(AllocError::InvalidFree { .. }))
        ));
    }

    #[test]
    fn large_allocation_round_trip() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(0);
        let big = ps.alloc(&mut m, pp, 3 * PAGE_SIZE).unwrap();
        m.fill(big, 0xee, 3 * PAGE_SIZE).unwrap();
        ps.free(&mut m, pp, big).unwrap();
        let again = ps.alloc(&mut m, pp, 2 * PAGE_SIZE).unwrap();
        assert_eq!(again, big, "large run reused within the pool");
        ps.destroy(&mut m, pp).unwrap();
        assert!(ps.free_page_count() >= 4, "large pages recycled at destroy");
    }

    #[test]
    fn size_of_reads_header() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(0);
        let a = ps.alloc(&mut m, pp, 123).unwrap();
        assert_eq!(ps.size_of(&mut m, a).unwrap(), 123);
        ps.free(&mut m, pp, a).unwrap();
        assert!(ps.size_of(&mut m, a).is_err());
    }

    #[test]
    fn pool_edges_recorded_once() {
        let (_m, mut ps) = setup();
        let a = ps.create(8);
        let b = ps.create(8);
        ps.note_pool_edge(a, b);
        ps.note_pool_edge(a, b);
        ps.note_pool_edge(a, a); // self edges ignored
        assert_eq!(ps.pool_edges(a).unwrap(), &[b]);
        assert!(ps.pool_edges(b).unwrap().is_empty());
    }

    #[test]
    fn live_pools_listing() {
        let (mut m, mut ps) = setup();
        let a = ps.create(8);
        let b = ps.create(8);
        ps.destroy(&mut m, a).unwrap();
        assert_eq!(ps.live_pools(), vec![b]);
    }

    #[test]
    fn free_runs_coalesce_consecutive_pages() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(0);
        // A 4-page large allocation: its pages are consecutive.
        let big = ps.alloc(&mut m, pp, 3 * PAGE_SIZE + 100).unwrap();
        let base_page = big.page();
        ps.destroy(&mut m, pp).unwrap();
        assert_eq!(ps.free_page_count(), 4);
        // A new pool can take the whole run back as one contiguous block.
        let p2 = ps.create(0);
        let again = ps.alloc(&mut m, p2, 3 * PAGE_SIZE + 100).unwrap();
        assert_eq!(again.page(), base_page, "the coalesced run was reused");
    }

    #[test]
    fn take_free_run_splits_larger_runs() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(0);
        ps.alloc(&mut m, pp, 5 * PAGE_SIZE).unwrap(); // 6-page run
        ps.destroy(&mut m, pp).unwrap();
        let first = ps.take_free_run(2).unwrap();
        let second = ps.take_free_run(2).unwrap();
        assert_ne!(first, second);
        assert_eq!(ps.free_page_count(), 2, "6 - 2 - 2");
        assert!(ps.take_free_run(3).is_none(), "only 2 contiguous left");
        assert!(ps.take_free_run(2).is_some());
        assert_eq!(ps.free_page_count(), 0);
    }

    #[test]
    fn middle_release_merges_both_neighbours() {
        // Donate pages 100..102 and 104..106, leaving a hole at 102..104;
        // donating the hole must fuse everything into one 6-page run.
        let mut ps = PoolSet::new();
        ps.donate_page(PageNum(100));
        ps.donate_page(PageNum(101));
        ps.donate_page(PageNum(104));
        ps.donate_page(PageNum(105));
        assert!(ps.take_free_run(3).is_none(), "two 2-page runs, no 3-run yet");
        ps.donate_page(PageNum(102));
        ps.donate_page(PageNum(103));
        assert_eq!(ps.free_page_count(), 6);
        let base = ps.take_free_run(6).expect("one fully coalesced run");
        assert_eq!(base, PageNum(100));
        assert_eq!(ps.free_page_count(), 0);
    }

    #[test]
    fn out_of_order_release_keeps_list_sorted_and_coalesced() {
        // Release runs in descending and interleaved order; the list must
        // still coalesce to a single run and hand back the lowest base
        // first (first fit in base order).
        let mut ps = PoolSet::new();
        for page in [207u64, 203, 205, 201, 206, 202, 204, 200] {
            ps.donate_page(PageNum(page));
        }
        assert_eq!(ps.free_page_count(), 8);
        assert_eq!(ps.take_free_run(8), Some(PageNum(200)));
        // Split takes come from the front of the lowest fitting run.
        for page in [300u64, 301, 302, 310] {
            ps.donate_page(PageNum(page));
        }
        assert_eq!(ps.take_free_run(2), Some(PageNum(300)));
        assert_eq!(ps.take_free_run(1), Some(PageNum(302)));
        assert_eq!(ps.take_free_run(1), Some(PageNum(310)));
    }

    #[test]
    fn take_free_run_zero_and_disabled() {
        let (mut m, mut ps) = setup();
        assert!(ps.take_free_run(0).is_none());
        let pp = ps.create(0);
        ps.alloc(&mut m, pp, 16).unwrap();
        ps.destroy(&mut m, pp).unwrap();
        assert!(ps.take_free_run(1).is_some());

        let mut no_reuse = PoolSet::with_config(PoolConfig { reuse_pages: false });
        let pp = no_reuse.create(0);
        no_reuse.alloc(&mut m, pp, 16).unwrap();
        no_reuse.destroy(&mut m, pp).unwrap();
        assert!(no_reuse.take_free_run(1).is_none());
    }

    #[test]
    fn scattered_pages_released_as_separate_runs() {
        let (mut m, mut ps) = setup();
        let keep = ps.create(16);
        let gap = ps.create(16);
        // Interleave page acquisition so `keep`'s pages are non-consecutive.
        ps.alloc(&mut m, keep, 16).unwrap();
        ps.alloc(&mut m, gap, 16).unwrap();
        ps.alloc(&mut m, keep, 1024).unwrap(); // second class => second page
        ps.destroy(&mut m, keep).unwrap();
        assert_eq!(ps.free_page_count(), 2);
        // The two freed pages are NOT contiguous (gap's page sits between),
        // so no 2-page run exists.
        assert!(ps.take_free_run(2).is_none());
        assert!(ps.take_free_run(1).is_some());
        assert!(ps.take_free_run(1).is_some());
    }

    #[test]
    fn register_extra_run_releases_with_pool() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(16);
        ps.alloc(&mut m, pp, 16).unwrap(); // one canonical page
        ps.register_extra_run(pp, PageNum(400), 3).unwrap();
        ps.destroy(&mut m, pp).unwrap();
        assert_eq!(ps.free_page_count(), 4);
        // The registered run came back fully coalesced.
        assert_eq!(ps.take_free_run(3), Some(PageNum(400)));
    }

    #[test]
    fn take_free_run_capped_truncates_and_splits() {
        let mut ps = PoolSet::new();
        assert!(ps.take_free_run_capped(4).is_none(), "empty list");
        for page in 500u64..506 {
            ps.donate_page(PageNum(page));
        }
        // A 6-page run capped at 4 yields 4 and leaves 2.
        assert_eq!(ps.take_free_run_capped(4), Some((PageNum(500), 4)));
        assert_eq!(ps.free_page_count(), 2);
        // Shorter-than-max runs come back whole.
        assert_eq!(ps.take_free_run_capped(8), Some((PageNum(504), 2)));
        assert_eq!(ps.free_page_count(), 0);
        assert!(ps.take_free_run_capped(0).is_none());

        let mut no_reuse = PoolSet::with_config(PoolConfig { reuse_pages: false });
        assert!(no_reuse.take_free_run_capped(4).is_none());
    }

    #[test]
    fn stats_accumulate() {
        let (mut m, mut ps) = setup();
        let pp = ps.create(16);
        let a = ps.alloc(&mut m, pp, 10).unwrap();
        ps.free(&mut m, pp, a).unwrap();
        let s = ps.pool_stats(pp).unwrap();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.frees, 1);
        ps.destroy(&mut m, pp).unwrap();
        assert_eq!(ps.pools_created(), 1);
        assert_eq!(ps.pools_destroyed(), 1);
        assert!(m.telemetry().counter("pool.pages_released") >= 1);
        assert_eq!(m.telemetry().counter("event.pool_destroy"), 1);
        // The per-pool wastage histogram saw exactly this pool's death.
        let snap = m.telemetry().snapshot();
        let hist = snap.histograms.iter().find(|h| h.name == "pool.pages_at_destroy").unwrap();
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn free_list_hit_and_miss_events() {
        let (mut m, mut ps) = setup();
        let p1 = ps.create(16);
        ps.alloc(&mut m, p1, 16).unwrap(); // miss: fresh page
        ps.destroy(&mut m, p1).unwrap();
        let p2 = ps.create(16);
        ps.alloc(&mut m, p2, 16).unwrap(); // hit: recycled page
        assert_eq!(m.telemetry().counter("event.free_list_miss"), 1);
        assert_eq!(m.telemetry().counter("event.free_list_hit"), 1);
        assert_eq!(m.telemetry().counter("pool.pages_fresh"), 1);
        assert_eq!(m.telemetry().counter("pool.pages_recycled"), 1);
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use dangle_vmm::{CostModel, MachineConfig, Protection};

    use dangle_testkit::SeededRng as TestRng;

    enum Op {
        Create,
        Alloc { pool: usize, size: usize },
        Free { pool: usize, idx: usize },
        Destroy { pool: usize },
    }

    /// Mirrors the old proptest weighting 1:4:2:1.
    fn random_op(rng: &mut TestRng) -> Op {
        match rng.below(8) {
            0 => Op::Create,
            1..=4 => Op::Alloc {
                pool: rng.below(8) as usize,
                size: 1 + rng.below(5999) as usize,
            },
            5 | 6 => Op::Free { pool: rng.below(8) as usize, idx: rng.below(32) as usize },
            _ => Op::Destroy { pool: rng.below(8) as usize },
        }
    }

    /// Random pool traffic: live objects across *all* pools never overlap
    /// and always carry their data; destroyed pools reject operations; page
    /// recycling never corrupts a live object. Some objects get a
    /// registered shadow alias, protected or not, as the detector would
    /// give them, so both the in-place and the re-map recycling paths run;
    /// after every operation no two pages of live pools share a frame
    /// except through such a shadow page ([`PoolSet::audit_frames`]).
    /// Every case runs on a 1-core and a 4-core machine with the same
    /// operations. After a destroy, each released page is unmapped or
    /// private read-write on 4 cores, and still mapped on 1 core.
    #[test]
    fn pool_integrity() {
        for (cores, case) in [1, 4].into_iter().flat_map(|c| (0..48u64).map(move |i| (c, i))) {
            let mut rng = TestRng::new(0x9001_0001 + case * 0x9e37_79b9);
            // A second stream, so the operation sequence stays the same.
            let mut shadow_rng = TestRng::new(0x5ad0_0001 + case);
            let nops = 1 + rng.below(99) as usize;
            let mut m = Machine::with_config(MachineConfig {
                cost: CostModel::free(),
                cores,
                ..MachineConfig::default()
            });
            let case = format!("{cores} cores, case {case}");
            let mut ps = PoolSet::new();
            let mut pools: Vec<PoolId> = Vec::new();
            // live[pool] = Vec<(addr, size, seed)>
            let mut live: Vec<Vec<(VirtAddr, usize, u8)>> = Vec::new();
            let mut destroyed: Vec<bool> = Vec::new();
            let mut seed = 1u8;

            for _ in 0..nops {
                match random_op(&mut rng) {
                    Op::Create => {
                        pools.push(ps.create(16));
                        live.push(Vec::new());
                        destroyed.push(false);
                    }
                    Op::Alloc { pool, size } => {
                        if pools.is_empty() {
                            continue;
                        }
                        let pi = pool % pools.len();
                        if destroyed[pi] {
                            continue;
                        }
                        seed = seed.wrapping_add(37);
                        let p = ps.alloc(&mut m, pools[pi], size).unwrap();
                        for objs in &live {
                            for &(q, qs, _) in objs {
                                let disjoint = p.raw() + size as u64 <= q.raw()
                                    || q.raw() + qs as u64 <= p.raw();
                                assert!(disjoint, "{case}: overlap across pools");
                            }
                        }
                        for i in 0..size.min(32) {
                            m.store_u8(p.add(i as u64), seed.wrapping_add(i as u8)).unwrap();
                        }
                        live[pi].push((p, size, seed));
                        if shadow_rng.below(3) == 0 {
                            let shadow = m.mremap_alias(p, 1).unwrap();
                            ps.register_extra_page(pools[pi], shadow.page()).unwrap();
                            if shadow_rng.below(2) == 0 {
                                m.mprotect(shadow, 1, Protection::None).unwrap();
                            }
                        }
                    }
                    Op::Free { pool, idx } => {
                        if pools.is_empty() {
                            continue;
                        }
                        let pi = pool % pools.len();
                        if destroyed[pi] || live[pi].is_empty() {
                            continue;
                        }
                        let n = live[pi].len();
                        let (p, size, s) = live[pi].swap_remove(idx % n);
                        for i in 0..size.min(32) {
                            assert_eq!(
                                m.load_u8(p.add(i as u64)).unwrap(),
                                s.wrapping_add(i as u8),
                                "{case}: data intact until free"
                            );
                        }
                        ps.free(&mut m, pools[pi], p).unwrap();
                    }
                    Op::Destroy { pool } => {
                        if pools.is_empty() {
                            continue;
                        }
                        let pi = pool % pools.len();
                        if destroyed[pi] {
                            continue;
                        }
                        let p = ps.pools[pools[pi].0 as usize].as_deref().unwrap();
                        let released: Vec<PageNum> =
                            p.pages.iter().chain(&p.extra_pages).copied().collect();
                        ps.destroy(&mut m, pools[pi]).unwrap();
                        destroyed[pi] = true;
                        live[pi].clear();
                        for pg in released {
                            let kept = m.is_private_rw(pg.base(), 1);
                            if cores == 1 {
                                assert!(m.is_mapped(pg.base()), "{case}: {pg:?} unmapped");
                            } else {
                                assert!(kept || !m.is_mapped(pg.base()), "{case}: {pg:?} kept");
                            }
                        }
                    }
                }
                if let Err(e) = ps.audit_frames(&m) {
                    panic!("{case}: {e}");
                }
            }
            // Final integrity sweep.
            for (pi, objs) in live.iter().enumerate() {
                if destroyed[pi] {
                    continue;
                }
                for &(p, size, s) in objs {
                    for i in 0..size.min(32) {
                        assert_eq!(
                            m.load_u8(p.add(i as u64)).unwrap(),
                            s.wrapping_add(i as u8),
                            "{case}"
                        );
                    }
                }
            }
            // Telemetry bookkeeping stays coherent with the derived counts.
            assert_eq!(ps.pools_created(), pools.len() as u64, "{case}");
            assert_eq!(
                ps.pools_destroyed(),
                destroyed.iter().filter(|d| **d).count() as u64,
                "{case}"
            );
        }
    }
}
