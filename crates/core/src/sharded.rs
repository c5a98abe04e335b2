//! Sharded detector: per-core [`ShadowPool`] instances with an epoch-based
//! cross-shard page free list.
//!
//! The paper's detector is inherently single-threaded: one `PoolSet`, one
//! `ObjectRegistry`, one page free list. On a multi-core [`Machine`] that
//! free list would become a global lock — every `pooldestroy` on every core
//! funnels through it. This module shards the detector instead:
//!
//! * **one [`ShadowPool`] per shard**, each with its own pool runtime,
//!   object registry and site table. A pool is *owned* by the shard of the
//!   core that created it (`active_core() % shards`), and every later
//!   operation on the pool routes to that shard — so the hot paths
//!   (`poolalloc`/`poolfree`) touch per-shard state only and never
//!   contend. A pool's handle encodes its owner: it is the shard-local
//!   pool id times the shard count plus the shard, so routing is a
//!   division and the router keeps no table of the pools ever created;
//! * ownership is **by page range**: the pages a shard maps belong to its
//!   registry, so a trap is explained by whichever shard's registry knows
//!   the faulting page;
//! * recycling crosses shards through an **epoch-based free list**
//!   ([`EpochFreeList`]): `pooldestroy` retires a shard's surplus free
//!   pages with the current epoch, each core announces quiescent points,
//!   and a run becomes adoptable only after *two* epoch transitions — the
//!   classic epoch-based-reclamation grace period. The grace period
//!   flushes no TLB itself. On a multi-core machine a page `pooldestroy`
//!   released was either unmapped there, in one shootdown round, or is
//!   private read-write with a translation that never changes, so no core
//!   holds a stale translation for it when another shard re-maps it.
//!
//! With a single shard — the default — the composition is a plain
//! [`ShadowPool`] behind a router: handles are the shard's own pool ids,
//! the epoch machinery is never engaged, and every call is a direct
//! delegation.

use crate::diag::{DanglingReport, ObjectRecord, SiteId};
use crate::pool_shadow::ShadowPool;
use crate::protect::BatchConfig;
use crate::sampling::SamplingConfig;
use dangle_pool::{PoolConfig, PoolError, PoolId};
use dangle_telemetry::TrapReport;
use dangle_vmm::{Machine, PageNum, Trap, VirtAddr};
use std::collections::VecDeque;

/// A page run retired by one shard, waiting out its grace period.
#[derive(Clone, Copy, Debug)]
struct RetiredRun {
    base: PageNum,
    pages: usize,
    /// Global epoch at retirement. Adoptable once `epoch >= this + 2`.
    epoch: u64,
}

/// Epoch-based reclamation for recycled page runs crossing shards.
///
/// Cores announce quiescent points ([`EpochFreeList::quiesce`]); the global
/// epoch advances when every *known* core has announced the current one.
/// A run retired in epoch `E` is safe to hand to another shard once the
/// global epoch reaches `E + 2`: by then every core has passed a quiescent
/// point that *started* after the retirement, so none can still be using a
/// translation for the run's pages.
#[derive(Debug)]
pub struct EpochFreeList {
    epoch: u64,
    /// Last epoch each core announced. Grows lazily: a core the list has
    /// never heard from does not hold up the grace period (in the simulated
    /// machine an idle core runs no detector code at all).
    announced: Vec<u64>,
    retired: VecDeque<RetiredRun>,
}

impl EpochFreeList {
    /// A free list expecting announcements from `cores` cores (more may
    /// join later via [`EpochFreeList::quiesce`]).
    pub fn new(cores: usize) -> EpochFreeList {
        EpochFreeList { epoch: 1, announced: vec![0; cores.max(1)], retired: VecDeque::new() }
    }

    /// The current global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Retires a run of `pages` pages at `base` into the current epoch.
    pub fn retire(&mut self, base: PageNum, pages: usize) {
        if pages == 0 {
            return;
        }
        self.retired.push_back(RetiredRun { base, pages, epoch: self.epoch });
    }

    /// Announces a quiescent point on `core` (no detector operation in
    /// flight there). When every known core has announced the current
    /// epoch, the global epoch advances.
    pub fn quiesce(&mut self, core: usize) {
        if core >= self.announced.len() {
            self.announced.resize(core + 1, 0);
        }
        let slot = &mut self.announced[core];
        *slot = (*slot).max(self.epoch);
        if self.announced.iter().all(|&e| e >= self.epoch) {
            self.epoch += 1;
        }
    }

    /// Pops up to `max` pages from the oldest run whose grace period has
    /// passed, splitting the run if it is longer. `None` when nothing has
    /// quiesced long enough yet.
    pub fn take_safe(&mut self, max: usize) -> Option<(PageNum, usize)> {
        if max == 0 {
            return None;
        }
        let front = self.retired.front()?;
        if front.epoch + 2 > self.epoch {
            return None; // oldest run still in its grace period
        }
        let (base, pages) = (front.base, front.pages);
        if pages <= max {
            self.retired.pop_front();
            Some((base, pages))
        } else {
            let front = self.retired.front_mut().expect("checked above");
            front.base = base.add(max as u64);
            front.pages = pages - max;
            Some((base, max))
        }
    }

    /// Pages retired and not yet adopted (any epoch).
    pub fn pending_pages(&self) -> usize {
        self.retired.iter().map(|r| r.pages).sum()
    }

    /// Pages whose grace period has passed and are ready to adopt.
    pub fn safe_pages(&self) -> usize {
        self.retired.iter().filter(|r| r.epoch + 2 <= self.epoch).map(|r| r.pages).sum()
    }
}

/// Free pages a shard keeps for itself before `pooldestroy` retires the
/// surplus into the epoch list, and the level adoption refills towards.
const SHARD_FREE_WATERMARK: usize = 32;

/// Configuration of the pool-based detector: [`ShardedShadowPool`], and
/// through it the interpreter's `ShadowPoolBackend`. The default is the
/// paper's configuration on one shard: page reuse on, no batching, no
/// sampling.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// The pool runtime of every shard.
    pub pool: PoolConfig,
    /// Vectored-syscall batching in every shard (see [`BatchConfig`]).
    pub batch: BatchConfig,
    /// Sampled protection (see [`SamplingConfig`]). Every shard runs its
    /// own policy — per-shard RNG and budgets, so the hot paths stay
    /// contention-free; shard `i` draws from
    /// [`SamplingConfig::for_shard`]`(i)`.
    pub sampling: SamplingConfig,
    /// Number of detector shards, at least one.
    pub shards: usize,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            pool: PoolConfig::default(),
            batch: BatchConfig::default(),
            sampling: SamplingConfig::default(),
            shards: 1,
        }
    }
}

/// The sharded pool-based detector. See the [module docs](self).
///
/// ```rust
/// use dangle_core::ShardedShadowPool;
/// use dangle_vmm::{Machine, MachineConfig};
///
/// # fn main() -> Result<(), dangle_pool::PoolError> {
/// let mut m = Machine::with_config(MachineConfig { cores: 2, ..MachineConfig::default() });
/// let mut sp = ShardedShadowPool::new(2);
/// m.switch_core(1);
/// let pool = sp.create(&m, 16); // owned by shard 1 % 2
/// let obj = sp.alloc(&mut m, pool, 16)?;
/// sp.free(&mut m, pool, obj)?;
/// assert!(m.load_u64(obj).is_err(), "dangling use trapped");
/// assert!(sp.explain(&m.load_u64(obj).unwrap_err()).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedShadowPool {
    shards: Vec<ShadowPool>,
    epoch: EpochFreeList,
    /// Shard that served the most recent routed operation, so
    /// [`ShardedShadowPool::render_last_report`] reads the right registry.
    last_shard: usize,
}

impl Default for ShardedShadowPool {
    fn default() -> ShardedShadowPool {
        ShardedShadowPool::with_config(DetectorConfig::default())
    }
}

impl ShardedShadowPool {
    /// A sharded detector with `shards` shards and default configuration.
    pub fn new(shards: usize) -> ShardedShadowPool {
        ShardedShadowPool::with_config(DetectorConfig { shards, ..DetectorConfig::default() })
    }

    /// A sharded detector with an explicit configuration (every shard gets
    /// the same one, sampling seeds aside).
    pub fn with_config(config: DetectorConfig) -> ShardedShadowPool {
        assert!(config.shards >= 1, "a sharded detector needs at least one shard");
        ShardedShadowPool {
            shards: (0..config.shards).map(|i| ShadowPool::for_shard(&config, i)).collect(),
            epoch: EpochFreeList::new(config.shards),
            last_shard: 0,
        }
    }

    /// One shard's detector (read-only, for stats and tests).
    pub fn shard(&self, i: usize) -> &ShadowPool {
        &self.shards[i]
    }

    /// The cross-shard epoch free list (read-only, for stats and tests).
    pub fn epoch_list(&self) -> &EpochFreeList {
        &self.epoch
    }

    /// Runs `op` on the shard that owns the global handle `pool`, with the
    /// pool's shard-local id. A handle is `local * shards + shard`, so the
    /// owner is `pool % shards` and the local id `pool / shards`. Records
    /// the shard for [`ShardedShadowPool::render_last_report`] and reports
    /// a bad pool id by its global handle.
    fn on_owner<T>(
        &mut self,
        pool: PoolId,
        op: impl FnOnce(&mut ShadowPool, PoolId) -> Result<T, PoolError>,
    ) -> Result<T, PoolError> {
        let n = self.shards.len();
        let (shard, local) = (pool.0 as usize % n, PoolId((pool.0 as usize / n) as u32));
        self.last_shard = shard;
        op(&mut self.shards[shard], local).map_err(|e| match e {
            PoolError::Unknown(_) => PoolError::Unknown(pool),
            PoolError::Destroyed(_) => PoolError::Destroyed(pool),
            other => other,
        })
    }

    /// `poolinit`, routed to the shard of the calling core
    /// (`active_core() % shards`). The returned id is a *global* handle,
    /// valid from any core: the shard-local id times the shard count plus
    /// the shard, so with one shard it is the shard's own pool id. A
    /// pool-creation boundary is a quiescent point for the calling core:
    /// no allocation is in flight, so the epoch is announced and any runs
    /// past their grace period are adopted into the shard's free list
    /// (multi-shard only).
    ///
    /// # Panics
    /// When the handle would not fit in a `u32`: a shard can create at
    /// most `u32::MAX / shards` pools.
    pub fn create(&mut self, machine: &Machine, elem_hint: usize) -> PoolId {
        let shards = self.shards.len();
        let shard = machine.active_core() % shards;
        if shards > 1 {
            self.epoch.quiesce(machine.active_core());
            while self.shards[shard].pools().free_page_count() < SHARD_FREE_WATERMARK {
                match self.epoch.take_safe(SHARD_FREE_WATERMARK) {
                    Some((base, pages)) => self.shards[shard].adopt_free_run(base, pages),
                    None => break,
                }
            }
        }
        let local = self.shards[shard].create(elem_hint);
        self.last_shard = shard;
        let handle = u64::from(local.0)
            .checked_mul(shards as u64)
            .and_then(|h| h.checked_add(shard as u64))
            .and_then(|h| u32::try_from(h).ok())
            .expect("pool handles are u32: at most u32::MAX / shards pools per shard");
        PoolId(handle)
    }

    /// `poolalloc` + shadow remap on the owning shard, tagged with a site.
    ///
    /// # Errors
    /// As for [`ShadowPool::alloc_at`].
    pub fn alloc_at(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
        site: SiteId,
    ) -> Result<VirtAddr, PoolError> {
        self.on_owner(pool, |s, local| s.alloc_at(machine, local, size, site))
    }

    /// [`ShardedShadowPool::alloc_at`] with an unknown site.
    ///
    /// # Errors
    /// As for [`ShadowPool::alloc`].
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
    ) -> Result<VirtAddr, PoolError> {
        self.alloc_at(machine, pool, size, SiteId::UNKNOWN)
    }

    /// `poolfree` + shadow protect on the owning shard.
    ///
    /// # Errors
    /// As for [`ShadowPool::free_at`].
    pub fn free_at(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<(), PoolError> {
        self.on_owner(pool, |s, local| s.free_at(machine, local, addr, site))
    }

    /// [`ShardedShadowPool::free_at`] with an unknown site.
    ///
    /// # Errors
    /// As for [`ShadowPool::free`].
    pub fn free(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
    ) -> Result<(), PoolError> {
        self.free_at(machine, pool, addr, SiteId::UNKNOWN)
    }

    /// Unchecked `poolalloc` (lint-elided shadow), on the owning shard.
    ///
    /// # Errors
    /// As for [`ShadowPool::alloc_unchecked`].
    pub fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
    ) -> Result<VirtAddr, PoolError> {
        self.on_owner(pool, |s, local| s.alloc_unchecked(machine, local, size))
    }

    /// Unchecked `poolfree`, on the owning shard.
    ///
    /// # Errors
    /// As for [`ShadowPool::free_unchecked`].
    pub fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
    ) -> Result<(), PoolError> {
        self.on_owner(pool, |s, local| s.free_unchecked(machine, local, addr))
    }

    /// `pooldestroy` on the owning shard, then (multi-shard only) a
    /// quiescent point: the destroying core announces the epoch and the
    /// shard's surplus free pages — everything above the watermark it keeps
    /// for its own reuse — are retired into the epoch list for other shards
    /// to adopt after the grace period.
    ///
    /// # Errors
    /// As for [`ShadowPool::destroy`].
    pub fn destroy(&mut self, machine: &mut Machine, pool: PoolId) -> Result<(), PoolError> {
        self.on_owner(pool, |s, local| s.destroy(machine, local))?;
        if self.shards.len() > 1 {
            let shard = self.last_shard;
            self.epoch.quiesce(machine.active_core());
            loop {
                let free = self.shards[shard].pools().free_page_count();
                if free <= SHARD_FREE_WATERMARK {
                    break;
                }
                match self.shards[shard].export_free_run(free - SHARD_FREE_WATERMARK) {
                    Some((base, pages)) => self.epoch.retire(base, pages),
                    None => break,
                }
            }
        }
        Ok(())
    }

    /// Explains a trap by asking each shard's registry; page-range
    /// ownership guarantees at most one shard knows the faulting page.
    pub fn explain(&self, trap: &Trap) -> Option<DanglingReport> {
        self.shards.iter().find_map(|s| s.explain(trap))
    }

    /// The object record owning `addr`, from whichever shard's registry
    /// knows its page.
    pub fn object_at(&self, addr: VirtAddr) -> Option<&ObjectRecord> {
        self.shards.iter().find_map(|s| s.object_at(addr))
    }

    /// Explains a trap and renders it with the owning shard's site table.
    pub fn explain_rendered(&self, trap: &Trap) -> Option<String> {
        self.shards
            .iter()
            .find_map(|s| s.explain(trap).map(|r| r.render(s.sites())))
    }

    /// Full trap forensics from the owning shard (see
    /// [`ShadowPool::trap_report`]).
    pub fn trap_report(
        &self,
        machine: &Machine,
        trap: &Trap,
        use_site: &str,
    ) -> Option<TrapReport> {
        self.shards.iter().find_map(|s| s.trap_report(machine, trap, use_site))
    }

    /// The most recent detector-internal report (a double free) on the
    /// shard that served the last routed operation, rendered with that
    /// shard's site table — the backend's free-error path.
    pub fn render_last_report(&self) -> Option<String> {
        let shard = &self.shards[self.last_shard];
        shard.last_report().map(|r| r.render(shard.sites()))
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
    fn single_shard_handles_equal_local_ids() {
        let mut m = machine(1);
        let mut sp = ShardedShadowPool::new(1);
        for i in 0..5u32 {
            assert_eq!(sp.create(&m, 8), PoolId(i));
        }
        let p = PoolId(3);
        let a = sp.alloc(&mut m, p, 16).unwrap();
        sp.free(&mut m, p, a).unwrap();
        let trap = m.load_u64(a).unwrap_err();
        assert!(sp.explain(&trap).is_some(), "dangling use explained");
        assert_eq!(sp.epoch_list().pending_pages(), 0, "epoch list never engaged");
    }

    #[test]
    fn pools_route_to_creating_cores_shard() {
        let mut m = machine(4);
        let mut sp = ShardedShadowPool::new(4);
        let mut handles = Vec::new();
        for core in 0..4 {
            m.switch_core(core);
            handles.push(sp.create(&m, 16));
        }
        // Allocate from every pool while a *different* core is active:
        // routing follows the pool's owner, not the current core.
        m.switch_core(0);
        for (core, &h) in handles.iter().enumerate() {
            let a = sp.alloc(&mut m, h, 16).unwrap();
            assert_eq!(sp.shard(core).stats().allocs, 1, "alloc landed on owner shard");
            sp.free(&mut m, h, a).unwrap();
            let trap = m.load_u64(a).unwrap_err();
            assert!(sp.explain(&trap).is_some());
        }
    }

    #[test]
    fn destroyed_pages_cross_shards_only_after_grace_period() {
        let mut m = machine(2);
        let mut sp = ShardedShadowPool::new(2);

        // Core 0 builds a large pool on shard 0 and destroys it.
        m.switch_core(0);
        let big = sp.create(&m, 64);
        let objs: Vec<_> =
            (0..3 * SHARD_FREE_WATERMARK).map(|_| sp.alloc(&mut m, big, 64).unwrap()).collect();
        for a in objs {
            sp.free(&mut m, big, a).unwrap();
        }
        sp.destroy(&mut m, big).unwrap();
        let retired = sp.epoch_list().pending_pages();
        assert!(retired > 0, "surplus above the watermark was retired");
        assert_eq!(sp.epoch_list().safe_pages(), 0, "grace period not over");
        assert!(
            sp.shard(0).pools().free_page_count() <= SHARD_FREE_WATERMARK,
            "shard keeps at most the watermark for itself"
        );

        // One quiescence round on both cores is not enough: the grace
        // period is two epoch transitions.
        assert_eq!(sp.shard(1).pools().free_page_count(), 0);
        for core in 0..2 {
            m.switch_core(core);
            let p = sp.create(&m, 8);
            sp.destroy(&mut m, p).unwrap();
        }
        assert_eq!(
            sp.shard(1).pools().free_page_count(),
            0,
            "no adoption after a single epoch transition"
        );

        // A second round lets core 1's create adopt shard 0's pages.
        for core in 0..2 {
            m.switch_core(core);
            let p = sp.create(&m, 8);
            sp.destroy(&mut m, p).unwrap();
        }
        assert!(
            sp.shard(1).pools().free_page_count() > 0,
            "shard 1 adopted pages freed by shard 0"
        );
        assert!(sp.epoch_list().pending_pages() < retired, "epoch list drained");
    }

    #[test]
    fn destroyed_pages_are_reused_on_another_core_without_ipis() {
        let mut m = machine(4);
        let mut sp = ShardedShadowPool::new(4);
        let old = sp.create(&m, 16); // shard 0
        let x = sp.alloc(&mut m, old, 16).unwrap();
        m.store_u64(x, 1).unwrap();
        m.switch_core(3);
        assert_eq!(m.load_u64(x).unwrap(), 1, "core 3 caches x's shadow page");
        m.switch_core(0);
        sp.destroy(&mut m, old).unwrap();
        let new = sp.create(&m, 16); // shard 0 again, holding old's pages

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
    fn epoch_free_list_grace_period_is_two_transitions() {
        let mut e = EpochFreeList::new(2);
        e.retire(PageNum(100), 4);
        assert_eq!(e.take_safe(16), None, "same epoch: unsafe");
        e.quiesce(0);
        e.quiesce(1); // epoch 1 -> 2
        assert_eq!(e.take_safe(16), None, "one transition: still unsafe");
        e.quiesce(0);
        e.quiesce(1); // epoch 2 -> 3
        assert_eq!(e.take_safe(3), Some((PageNum(100), 3)), "split on cap");
        assert_eq!(e.take_safe(16), Some((PageNum(103), 1)), "remainder");
        assert_eq!(e.take_safe(16), None);
    }

    #[test]
    fn epoch_waits_for_every_known_core() {
        let mut e = EpochFreeList::new(3);
        e.retire(PageNum(7), 1);
        for _ in 0..10 {
            e.quiesce(0);
            e.quiesce(1); // core 2 never quiesces
        }
        assert_eq!(e.epoch(), 1, "epoch pinned by the silent core");
        assert_eq!(e.take_safe(4), None);
        e.quiesce(2);
        e.quiesce(0);
        e.quiesce(1);
        e.quiesce(2);
        assert_eq!(e.take_safe(4), Some((PageNum(7), 1)));
    }

    #[test]
    fn handles_encode_the_owning_shard() {
        let mut m = machine(3);
        let mut sp = ShardedShadowPool::new(3);
        let mut handles = Vec::new();
        for round in 0..2 {
            for core in 0..3 {
                m.switch_core(core);
                let h = sp.create(&m, 8);
                assert_eq!(h, PoolId(round * 3 + core as u32), "local * shards + shard");
                handles.push(h);
            }
        }
        m.switch_core(0);
        let dead = handles[4]; // shard 1's second pool
        sp.destroy(&mut m, dead).unwrap();
        assert_eq!(sp.alloc(&mut m, dead, 8), Err(PoolError::Destroyed(dead)));
        assert_eq!(sp.destroy(&mut m, dead), Err(PoolError::Destroyed(dead)));
        let unborn = PoolId(7); // shard 1's third pool, never created
        assert_eq!(sp.alloc(&mut m, unborn, 8), Err(PoolError::Unknown(unborn)));
        assert!(sp.alloc(&mut m, handles[5], 8).is_ok());
        assert_eq!(sp.shard(2).stats().allocs, 1, "handle 5 lives on shard 2");
    }

    #[test]
    fn unknown_handle_is_rejected() {
        let mut m = machine(1);
        let mut sp = ShardedShadowPool::new(2);
        let err = sp.alloc(&mut m, PoolId(9), 8).unwrap_err();
        assert!(matches!(err, PoolError::Unknown(PoolId(9))));
    }
}
