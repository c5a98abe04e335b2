//! The simulated machine: page tables, aliased physical frames, protection
//! checks, and the memory-management system calls.
//!
//! [`Machine`] is the single mutable substrate everything else in the
//! workspace runs on. Its design mirrors the paper's requirements:
//!
//! * **Virtual pages are never recycled by the machine itself.** `mmap` and
//!   `mremap_alias` hand out monotonically increasing page numbers, so once
//!   a shadow page is protected it stays "poisoned" forever — unless a
//!   higher layer (the pool runtime) deliberately re-maps a page it has
//!   *proved* unreachable, via [`Machine::mmap_fixed`]. This makes the
//!   paper's soundness guarantee (`§3.2`: detect a dangling access
//!   "arbitrarily far in the future") directly testable.
//! * **Physical frames are reference counted**, because Insight 1 is
//!   precisely that several virtual pages may map one frame. A frame is
//!   released only when its last mapping goes away.
//! * **Every access is checked** against the page protection, and charged
//!   against the [`CostModel`] including TLB and L1 effects.

use std::fmt;

use crate::addr::{PageNum, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
use crate::cache::{CacheConfig, L1Cache};
use crate::cost::CostModel;
use crate::pagetable::{Entry, PageTable, PageTableImpl};
use crate::stats::MachineStats;
use crate::tlb::{Tlb, TlbConfig};
use crate::trap::Trap;
use dangle_telemetry::{
    Category, Charge, EventKind, MetricsSnapshot, Telemetry, TelemetryConfig,
};

/// Per-page protection bits, as set by [`Machine::mprotect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Protection {
    /// `PROT_NONE`: any access traps. This is the state the detector puts
    /// shadow pages into when their object is freed.
    None,
    /// `PROT_READ`: loads allowed, stores trap.
    Read,
    /// `PROT_READ | PROT_WRITE`: full access (the default for fresh maps).
    #[default]
    ReadWrite,
}

impl Protection {
    /// Whether an access of the given kind is permitted.
    pub fn allows(self, access: AccessKind) -> bool {
        match (self, access) {
            (Protection::None, _) => false,
            (Protection::Read, AccessKind::Read) => true,
            (Protection::Read, AccessKind::Write) => false,
            (Protection::ReadWrite, _) => true,
        }
    }
}

/// Whether a memory access reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// Configuration for a [`Machine`].
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Cycle charges.
    pub cost: CostModel,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// L1 data-cache geometry.
    pub cache: CacheConfig,
    /// Maximum simultaneously live physical frames (simulated RAM size in
    /// pages). Default: 1 Mi frames = 4 GiB.
    pub phys_frames: usize,
    /// Virtual address budget in pages. Default: 2^35 pages = the 2^47
    /// bytes of user VA the paper's §3.4 analysis assumes.
    pub virt_pages: u64,
    /// Telemetry sink configuration (event ring + metrics registry). Use
    /// [`dangle_telemetry::TelemetryConfig::disabled`] for a no-op sink.
    pub telemetry: TelemetryConfig,
    /// Which page-table implementation backs address translation. A
    /// pure host-performance knob — simulated costs, traps and stats are
    /// identical across variants (enforced by differential tests).
    pub page_table: PageTableImpl,
    /// Number of simulated cores. Each core has its own clock, TLB, L1
    /// cache and last-translation cache over the *shared* page table;
    /// mapping-mutating syscalls shoot down every remote core's TLB at a
    /// modelled IPI cost. Default 1, which behaves byte-identically to
    /// the historical single-core machine.
    pub cores: usize,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            cost: CostModel::calibrated(),
            tlb: TlbConfig::default(),
            cache: CacheConfig::default(),
            phys_frames: 1 << 20,
            virt_pages: 1 << 35,
            telemetry: TelemetryConfig::default(),
            page_table: PageTableImpl::default(),
            cores: 1,
        }
    }
}

/// Physical frame storage: one contiguous byte arena (frame `i` occupies
/// `i * PAGE_SIZE ..`), parallel refcounts, and a free list. A flat slab
/// removes the `Option<Frame>` + per-frame `Vec<u8>` double indirection
/// the hot path previously chased on every access.
#[derive(Debug, Default)]
struct FrameSlab {
    data: Vec<u8>,
    refcounts: Vec<u32>,
    free: Vec<u32>,
}

impl FrameSlab {
    #[inline]
    fn frame(&self, idx: u32) -> &[u8] {
        &self.data[idx as usize * PAGE_SIZE..(idx as usize + 1) * PAGE_SIZE]
    }

    #[inline]
    fn frame_mut(&mut self, idx: u32) -> &mut [u8] {
        &mut self.data[idx as usize * PAGE_SIZE..(idx as usize + 1) * PAGE_SIZE]
    }
}

/// Per-core simulated state: the clock, the TLB (whose last-hit memo is
/// therefore also per-core), the L1 data cache, and the one-entry
/// last-translation cache. Everything else — the page table, the frame
/// slab, the VA bump allocator, stats and telemetry — is shared across
/// cores, exactly as page tables and RAM are shared on an SMP machine.
#[derive(Debug)]
struct Core {
    clock: u64,
    tlb: Tlb,
    cache: L1Cache,
    /// One-entry last-translation cache sitting between the *modelled*
    /// TLB and the page-table walk: `ltc_vpn == u64::MAX` means empty.
    /// Only populated under [`PageTableImpl::Radix`], so the `Reference`
    /// configuration measures the genuine unaccelerated path. Purely a
    /// host-speed shortcut — the modelled TLB is still probed (and
    /// charged) on every access.
    ltc_vpn: u64,
    ltc_entry: Entry,
    /// Cycles this core spent in kernel crossings (syscall charges plus
    /// received shootdown IPIs) and in TLB/L1 miss penalties — the
    /// per-core decomposition the `shardperf` artifact reports.
    syscall_cycles: u64,
    penalty_cycles: u64,
}

impl Core {
    fn new(config: &MachineConfig) -> Core {
        Core {
            clock: 0,
            tlb: Tlb::new(config.tlb),
            cache: L1Cache::new(config.cache),
            ltc_vpn: u64::MAX,
            ltc_entry: Entry { frame: 0, prot: Protection::None },
            syscall_cycles: 0,
            penalty_cycles: 0,
        }
    }
}

/// A read-only snapshot of one core's clock and decomposition counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreReport {
    /// The core's simulated clock.
    pub clock: u64,
    /// Cycles spent in kernel crossings (incl. received shootdown IPIs).
    pub syscall_cycles: u64,
    /// Cycles spent in TLB and L1 miss penalties.
    pub penalty_cycles: u64,
    /// TLB hits / misses on this core.
    pub tlb_hits: u64,
    /// TLB misses on this core.
    pub tlb_misses: u64,
}

/// The simulated machine. See the [module docs](self) for the design.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    slab: FrameSlab,
    page_table: PageTable,
    ltc_enabled: bool,
    /// Next virtual page number to hand out; starts above a guard region so
    /// that null and near-null pointers always trap.
    next_vpn: u64,
    first_vpn: u64,
    /// The simulated cores (always at least one). `active` selects the
    /// core whose clock/TLB/L1/LTC the access path uses; the workload
    /// scheduler switches it between sessions.
    cores: Vec<Core>,
    active: usize,
    stats: MachineStats,
    telemetry: Telemetry,
    /// Cached `telemetry.tracing()`: every clock advance branches on this,
    /// so it must not chase through the sink.
    trace: bool,
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::new()
    }
}

impl Machine {
    /// Creates a machine with the default (calibrated) configuration.
    pub fn new() -> Machine {
        Machine::with_config(MachineConfig::default())
    }

    /// Creates a machine with an explicit configuration.
    ///
    /// # Panics
    /// Panics if `config.cores` is zero.
    pub fn with_config(config: MachineConfig) -> Machine {
        assert!(config.cores >= 1, "a machine needs at least one core");
        let first_vpn = 16; // pages 0..16 form a trapping guard region
        Machine {
            slab: FrameSlab::default(),
            page_table: PageTable::new(config.page_table),
            ltc_enabled: config.page_table == PageTableImpl::Radix,
            next_vpn: first_vpn,
            first_vpn,
            cores: (0..config.cores).map(|_| Core::new(&config)).collect(),
            active: 0,
            stats: MachineStats::default(),
            telemetry: Telemetry::new(config.telemetry),
            trace: config.telemetry.enabled && config.telemetry.tracing,
            config,
        }
    }

    /// Creates a machine whose cost model charges nothing — convenient for
    /// purely functional tests.
    pub fn free_running() -> Machine {
        Machine::with_config(MachineConfig { cost: CostModel::free(), ..MachineConfig::default() })
    }

    // ------------------------------------------------------------------
    // Clock, cores and stats.
    // ------------------------------------------------------------------

    /// Current simulated cycle count of the **active core**. On a
    /// single-core machine this is "the" clock; with several cores, see
    /// [`Machine::max_core_clock`] for the wall-clock of a parallel run.
    pub fn clock(&self) -> u64 {
        self.cores[self.active].clock
    }

    /// Number of simulated cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Index of the active core (the one accesses and syscalls run on).
    pub fn active_core(&self) -> usize {
        self.active
    }

    /// Selects the core subsequent accesses and syscalls run on. Free of
    /// simulated cost: the workload scheduler is the "OS", and its
    /// context-switch budget is modelled at the workload layer.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn switch_core(&mut self, core: usize) {
        assert!(core < self.cores.len(), "core {core} out of range");
        self.active = core;
    }

    /// The simulated clock of core `core`.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn core_clock(&self, core: usize) -> u64 {
        self.cores[core].clock
    }

    /// The maximum clock across all cores — the simulated wall-clock time
    /// of a parallel run (cores run concurrently; the run is over when the
    /// last one finishes).
    pub fn max_core_clock(&self) -> u64 {
        self.cores.iter().map(|c| c.clock).max().unwrap_or(0)
    }

    /// Clock and decomposition counters for core `core`.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn core_report(&self, core: usize) -> CoreReport {
        let c = &self.cores[core];
        CoreReport {
            clock: c.clock,
            syscall_cycles: c.syscall_cycles,
            penalty_cycles: c.penalty_cycles,
            tlb_hits: c.tlb.hits(),
            tlb_misses: c.tlb.misses(),
        }
    }

    /// The single clock funnel: **every** simulated-cycle charge in the
    /// machine routes through here (remote shootdown-IPI service time is
    /// the one exception — it lands directly on the *remote* core's
    /// clock), so on a single-core machine the flight recorder's
    /// attribution table sums to the clock exactly (±0). Tracing never
    /// adds simulated cycles — the charge call is host-side bookkeeping
    /// only.
    #[inline]
    fn advance(&mut self, cycles: u64, charge: Charge) {
        let core = &mut self.cores[self.active];
        core.clock += cycles;
        match charge {
            Charge::Syscall => core.syscall_cycles += cycles,
            Charge::TlbPenalty => core.penalty_cycles += cycles,
            Charge::Plain => {}
        }
        if self.trace {
            self.telemetry.charge(cycles, charge);
        }
    }

    /// Models the TLB-shootdown round a mapping-mutating syscall performs
    /// on an SMP machine: the initiating (active) core pays one IPI-send
    /// charge per remote core, and every remote core's clock absorbs the
    /// interrupt-service cost. A strict no-op on a single-core machine,
    /// which keeps `cores = 1` byte-identical to the historical model.
    ///
    /// A round is owed only when a syscall replaced or removed a
    /// translation: no core can have cached one for a VPN that was
    /// unmapped. `mmap_fixed`, `alias_fixed`, `munmap` and their batch
    /// forms therefore call this only when some page was mapped before.
    fn charge_shootdown(&mut self) {
        let n = self.cores.len();
        if n <= 1 {
            return;
        }
        self.stats.shootdown_ipis += (n - 1) as u64;
        self.advance(self.config.cost.ipi_send * (n - 1) as u64, Charge::Syscall);
        for (i, core) in self.cores.iter_mut().enumerate() {
            if i != self.active {
                core.clock += self.config.cost.ipi_recv;
                core.syscall_cycles += self.config.cost.ipi_recv;
            }
        }
    }

    /// Advances the clock by `cycles` of modelled computation.
    pub fn tick(&mut self, cycles: u64) {
        self.advance(cycles, Charge::Plain);
    }

    /// Is the flight recorder (span tracing + cycle attribution) live?
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Enters a flight-recorder span at the current simulated clock. One
    /// branch when tracing is off.
    pub fn span_enter(&mut self, name: &str, category: Category) {
        if self.trace {
            let clock = self.clock();
            self.telemetry.span_enter(name, category, clock);
        }
    }

    /// Exits the innermost flight-recorder span, returning its inclusive
    /// duration in simulated cycles (`None` when tracing is off).
    pub fn span_exit(&mut self) -> Option<u64> {
        if self.trace {
            let clock = self.clock();
            self.telemetry.span_exit(clock)
        } else {
            None
        }
    }

    /// Event counters.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// TLB hit/miss counters of the active core.
    pub fn tlb(&self) -> &Tlb {
        &self.cores[self.active].tlb
    }

    /// L1 cache hit/miss counters of the active core.
    pub fn cache(&self) -> &L1Cache {
        &self.cores[self.active].cache
    }

    /// Total TLB hits and misses summed across all cores.
    pub fn tlb_totals(&self) -> (u64, u64) {
        self.cores.iter().fold((0, 0), |(h, m), c| (h + c.tlb.hits(), m + c.tlb.misses()))
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The telemetry sink (event ring + metrics registry), read side.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The telemetry sink, write side — how higher layers (allocators,
    /// pools, detectors, baselines) record their events and counters.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Records one telemetry event timestamped on the current simulated
    /// clock. Convenience over `telemetry_mut().record(..)` so callers
    /// don't have to juggle the clock borrow.
    pub fn note_event(&mut self, addr: VirtAddr, kind: EventKind) {
        let clock = self.clock();
        self.telemetry.record(clock, addr.raw(), kind);
    }

    /// A point-in-time snapshot of every telemetry series, extended with
    /// the machine-derived gauges (`vmm.tlb_hits`, `vmm.tlb_misses`,
    /// `vmm.loads`, `vmm.stores`, `vmm.traps`, `vmm.virt_pages_consumed`,
    /// `vmm.virt_pages_mapped_peak`, `vmm.phys_frames_peak`,
    /// `vmm.ranges_batched`) that are maintained as plain fields rather
    /// than registry counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.telemetry.snapshot();
        let (tlb_hits, tlb_misses) = self.tlb_totals();
        let derived = [
            ("vmm.tlb_hits", tlb_hits),
            ("vmm.tlb_misses", tlb_misses),
            ("vmm.loads", self.stats.loads),
            ("vmm.stores", self.stats.stores),
            ("vmm.traps", self.stats.traps),
            ("vmm.virt_pages_consumed", self.virt_pages_consumed()),
            ("vmm.virt_pages_mapped_peak", self.stats.virt_pages_mapped_peak),
            ("vmm.phys_frames_peak", self.stats.phys_frames_peak),
            ("vmm.ranges_batched", self.stats.ranges_batched),
        ];
        for (name, value) in derived {
            snap.counters.push((name.to_string(), value));
        }
        // Per-core labels only appear on a multi-core machine, so every
        // historical single-core snapshot stays byte-identical.
        if self.cores.len() > 1 {
            snap.counters.push(("vmm.shootdown_ipis".to_string(), self.stats.shootdown_ipis));
            for (i, core) in self.cores.iter().enumerate() {
                snap.counters.push((format!("vmm.core{i}.clock"), core.clock));
                snap.counters.push((format!("vmm.core{i}.syscall_cycles"), core.syscall_cycles));
                snap.counters.push((format!("vmm.core{i}.penalty_cycles"), core.penalty_cycles));
                snap.counters.push((format!("vmm.core{i}.tlb_hits"), core.tlb.hits()));
                snap.counters.push((format!("vmm.core{i}.tlb_misses"), core.tlb.misses()));
            }
        }
        // Ring health: capacity plus events lost to overwriting, so
        // truncated trap context is detectable from any snapshot.
        let ring = self.telemetry.ring();
        snap.counters.push(("ring.capacity".to_string(), ring.capacity() as u64));
        snap.counters.push(("ring.dropped".to_string(), ring.dropped()));
        // Flight-recorder attribution table (present only when tracing).
        if let Some(tracer) = self.telemetry.tracer() {
            for (name, cycles) in tracer.categories() {
                snap.counters.push((format!("trace.{name}"), cycles));
            }
        }
        snap
    }

    /// Total distinct virtual pages handed out so far.
    pub fn virt_pages_consumed(&self) -> u64 {
        self.next_vpn - self.first_vpn
    }

    // ------------------------------------------------------------------
    // Frame management (private).
    // ------------------------------------------------------------------

    fn alloc_frame(&mut self) -> Result<u32, Trap> {
        if let Some(idx) = self.slab.free.pop() {
            self.slab.frame_mut(idx).fill(0);
            self.slab.refcounts[idx as usize] = 1;
            self.note_frame_alloc();
            return Ok(idx);
        }
        if self.stats.phys_frames_in_use as usize >= self.config.phys_frames {
            return Err(Trap::OutOfPhysicalMemory);
        }
        let idx = self.slab.refcounts.len() as u32;
        self.slab.data.resize(self.slab.data.len() + PAGE_SIZE, 0);
        self.slab.refcounts.push(1);
        self.note_frame_alloc();
        Ok(idx)
    }

    fn note_frame_alloc(&mut self) {
        self.stats.phys_frames_in_use += 1;
        self.stats.phys_frames_peak =
            self.stats.phys_frames_peak.max(self.stats.phys_frames_in_use);
        self.advance(self.config.cost.page_zero, Charge::Syscall);
    }

    fn incref_frame(&mut self, idx: u32) {
        self.slab.refcounts[idx as usize] += 1;
    }

    fn decref_frame(&mut self, idx: u32) {
        let rc = &mut self.slab.refcounts[idx as usize];
        debug_assert!(*rc > 0);
        *rc -= 1;
        if *rc == 0 {
            self.slab.free.push(idx);
            self.stats.phys_frames_in_use -= 1;
        }
    }

    fn take_vpns(&mut self, pages: usize) -> Result<u64, Trap> {
        let pages = pages as u64;
        if self.next_vpn + pages > self.first_vpn + self.config.virt_pages {
            return Err(Trap::OutOfVirtualMemory);
        }
        let base = self.next_vpn;
        self.next_vpn += pages;
        self.stats.virt_pages_allocated += pages;
        Ok(base)
    }

    /// Drops every core's last-translation cache. Must be called on
    /// *every* page-table mutation so a stale entry can never be served
    /// — on any core: the page table is shared, so a mutation initiated
    /// on one core invalidates cached translations everywhere.
    #[inline]
    fn ltc_invalidate(&mut self) {
        for core in &mut self.cores {
            core.ltc_vpn = u64::MAX;
        }
    }

    /// Invalidates `vpn` in every core's TLB (the functional half of a
    /// TLB shootdown; the cycle cost is modelled once per syscall by
    /// [`Machine::charge_shootdown`]).
    #[inline]
    fn tlb_invalidate_all(&mut self, vpn: u64) {
        for core in &mut self.cores {
            core.tlb.invalidate(vpn);
        }
    }

    /// Maps `vpn` to `frame`, returning whether it replaced an existing
    /// translation (the case that owes a shootdown round).
    fn map_vpn(&mut self, vpn: u64, frame: u32, prot: Protection) -> bool {
        self.ltc_invalidate();
        let prev = self.page_table.insert(vpn, Entry { frame, prot });
        if let Some(old) = prev {
            self.decref_frame(old.frame);
            self.tlb_invalidate_all(vpn);
            true
        } else {
            self.stats.virt_pages_mapped += 1;
            self.stats.virt_pages_mapped_peak =
                self.stats.virt_pages_mapped_peak.max(self.stats.virt_pages_mapped);
            false
        }
    }

    /// `MAP_FIXED` of one page: maps `vpn` read-write to `frame` over
    /// whatever was there and evicts it from every core's TLB, returning
    /// whether a translation was replaced. `map_vpn` evicts only a
    /// replaced VPN; one that was unmapped may still sit in the TLB of a
    /// core that probed it and trapped.
    fn map_fixed(&mut self, vpn: u64, frame: u32) -> bool {
        let replaced = self.map_vpn(vpn, frame, Protection::ReadWrite);
        if !replaced {
            self.tlb_invalidate_all(vpn);
        }
        replaced
    }

    /// Re-maps `vpn` to a fresh zeroed frame, setting `*replaced` when a
    /// translation went away.
    fn remap_fresh(&mut self, vpn: u64, replaced: &mut bool) -> Result<(), Trap> {
        let frame = self.alloc_frame()?;
        *replaced |= self.map_fixed(vpn, frame);
        Ok(())
    }

    /// Unmaps `vpn` if mapped, returning whether a translation was removed.
    fn unmap_vpn(&mut self, vpn: u64) -> bool {
        let Some(pte) = self.page_table.remove(vpn) else { return false };
        self.decref_frame(pte.frame);
        self.tlb_invalidate_all(vpn);
        self.stats.virt_pages_mapped -= 1;
        true
    }

    // ------------------------------------------------------------------
    // System calls.
    // ------------------------------------------------------------------

    fn charge_syscall(&mut self, base: u64, pages: usize) {
        self.advance(base + self.config.cost.syscall_per_page * pages as u64, Charge::Syscall);
    }

    /// One vectored kernel crossing: a single base charge, plus per-range
    /// argument/VMA work and the usual per-page PTE work.
    fn charge_batch_syscall(&mut self, base: u64, ranges: usize, pages: usize) {
        self.advance(
            base + self.config.cost.syscall_per_range * ranges as u64
                + self.config.cost.syscall_per_page * pages as u64,
            Charge::Syscall,
        );
    }

    /// Validates the destination ranges of a vectored syscall: every range
    /// must be non-empty and no two ranges may overlap (adjacent ranges are
    /// fine). Returns the total page count. The
    /// [`Trap::BadSyscallArgument`] carries the base of the offending range.
    fn validate_batch_ranges(spans: &[(u64, usize)]) -> Result<usize, Trap> {
        let mut sorted: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        let mut total = 0usize;
        for &(base, pages) in spans {
            if pages == 0 {
                return Err(Trap::BadSyscallArgument { addr: PageNum(base).base() });
            }
            sorted.push((base, base + pages as u64));
            total += pages;
        }
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(Trap::BadSyscallArgument { addr: PageNum(w[1].0).base() });
            }
        }
        Ok(total)
    }

    /// `mmap`: maps `pages` fresh virtual pages to fresh zeroed frames with
    /// [`Protection::ReadWrite`], returning the base address.
    ///
    /// # Errors
    /// [`Trap::OutOfVirtualMemory`] or [`Trap::OutOfPhysicalMemory`] on
    /// exhaustion.
    ///
    /// # Panics
    /// Panics if `pages` is zero.
    pub fn mmap(&mut self, pages: usize) -> Result<VirtAddr, Trap> {
        assert!(pages > 0, "mmap of zero pages");
        self.stats.mmap_calls += 1;
        self.charge_syscall(self.config.cost.syscall_mmap, pages);
        let base = self.take_vpns(pages)?;
        for i in 0..pages as u64 {
            let frame = self.alloc_frame()?;
            self.map_vpn(base + i, frame, Protection::ReadWrite);
        }
        let addr = PageNum(base).base();
        self.note_event(addr, EventKind::Mmap { pages: pages as u32 });
        Ok(addr)
    }

    /// `mmap(MAP_FIXED)`: re-maps `pages` existing virtual pages starting at
    /// `addr` (page-aligned) to *fresh zeroed frames* with full access. Any
    /// previous mapping of those pages (including aliases onto shared
    /// frames) is replaced, and the old frames are released when their last
    /// reference disappears.
    ///
    /// This is the operation the pool runtime uses to *recycle* a run of
    /// virtual pages from the shared free list when the run is protected
    /// or physically aliased: recycling must sever the old aliasing,
    /// otherwise two live objects could silently share a frame. A run that
    /// [`Machine::is_private_rw`] accepts already is what this call would
    /// make of it, apart from the zeroing, and is handed out in place.
    ///
    /// Every page is evicted from every core's TLB and last-translation
    /// cache. The TLB-shootdown round (see [`MachineConfig::cores`]) is
    /// charged only when some page had a translation to replace: re-mapping
    /// pages that are all unmapped sends no IPI. A call that replaces pages
    /// and then runs out of frames still charges the round.
    ///
    /// # Errors
    /// [`Trap::BadSyscallArgument`] if `addr` is not page-aligned or the
    /// range was never allocated; [`Trap::OutOfPhysicalMemory`] on frame
    /// exhaustion, with the pages before the failing one already re-mapped.
    pub fn mmap_fixed(&mut self, addr: VirtAddr, pages: usize) -> Result<(), Trap> {
        if addr.offset() != 0 || pages == 0 {
            return Err(Trap::BadSyscallArgument { addr });
        }
        let base = addr.page().raw();
        if base < self.first_vpn || base + pages as u64 > self.next_vpn {
            return Err(Trap::BadSyscallArgument { addr });
        }
        self.stats.mmap_calls += 1;
        self.charge_syscall(self.config.cost.syscall_mmap, pages);
        let mut replaced = false;
        let mapped = (0..pages as u64).try_for_each(|i| self.remap_fresh(base + i, &mut replaced));
        if replaced {
            self.charge_shootdown();
        }
        mapped?;
        self.note_event(addr, EventKind::Mmap { pages: pages as u32 });
        Ok(())
    }

    /// `mremap(old, 0, len)`: the paper's §3.2 aliasing trick. Creates
    /// `pages` *fresh* virtual pages mapped to the **same physical frames**
    /// as the pages containing `src`, with full access, and returns the new
    /// base address. The original mapping is untouched.
    ///
    /// # Errors
    /// [`Trap::BadSyscallArgument`] if any source page is unmapped;
    /// [`Trap::OutOfVirtualMemory`] on VA exhaustion.
    ///
    /// # Panics
    /// Panics if `pages` is zero.
    pub fn mremap_alias(&mut self, src: VirtAddr, pages: usize) -> Result<VirtAddr, Trap> {
        assert!(pages > 0, "mremap of zero pages");
        self.stats.mremap_calls += 1;
        self.charge_syscall(self.config.cost.syscall_mremap, pages);
        let src_base = src.page().raw();
        // Validate the whole source range before mutating anything.
        let mut frames = Vec::with_capacity(pages);
        for i in 0..pages as u64 {
            match self.page_table.get(src_base + i) {
                Some(pte) => frames.push(pte.frame),
                None => {
                    return Err(Trap::BadSyscallArgument {
                        addr: PageNum(src_base + i).base(),
                    })
                }
            }
        }
        let new_base = self.take_vpns(pages)?;
        for (i, frame) in frames.into_iter().enumerate() {
            self.incref_frame(frame);
            self.map_vpn(new_base + i as u64, frame, Protection::ReadWrite);
        }
        let addr = PageNum(new_base).base();
        self.note_event(addr, EventKind::Mremap { pages: pages as u32 });
        Ok(addr)
    }

    /// `mmap(MAP_FIXED)` onto a shared region: re-maps `pages` virtual pages
    /// starting at `dst` (page-aligned) as **aliases of the frames backing
    /// `src`**, with full access. Used by the §3.4 "reuse shadow VA after a
    /// threshold" mitigation, where old shadow pages are deliberately
    /// recycled as new shadow views (giving up the detection guarantee for
    /// pointers older than the threshold).
    ///
    /// As for [`Machine::mmap_fixed`], every page is evicted from every
    /// core's TLB and last-translation cache, and the shootdown round is
    /// charged only when some destination page was mapped before.
    ///
    /// # Errors
    /// [`Trap::BadSyscallArgument`] if `dst` is unaligned or outside the
    /// allocated VA range, or if any source page is unmapped.
    pub fn alias_fixed(
        &mut self,
        src: VirtAddr,
        dst: VirtAddr,
        pages: usize,
    ) -> Result<(), Trap> {
        if dst.offset() != 0 || pages == 0 {
            return Err(Trap::BadSyscallArgument { addr: dst });
        }
        let dst_base = dst.page().raw();
        if dst_base < self.first_vpn || dst_base + pages as u64 > self.next_vpn {
            return Err(Trap::BadSyscallArgument { addr: dst });
        }
        self.stats.mmap_calls += 1;
        self.charge_syscall(self.config.cost.syscall_mmap, pages);
        let src_base = src.page().raw();
        let mut frames = Vec::with_capacity(pages);
        for i in 0..pages as u64 {
            match self.page_table.get(src_base + i) {
                Some(pte) => frames.push(pte.frame),
                None => {
                    return Err(Trap::BadSyscallArgument {
                        addr: PageNum(src_base + i).base(),
                    })
                }
            }
        }
        let mut replaced = false;
        for (i, frame) in frames.into_iter().enumerate() {
            self.incref_frame(frame);
            replaced |= self.map_fixed(dst_base + i as u64, frame);
        }
        if replaced {
            self.charge_shootdown();
        }
        self.note_event(dst, EventKind::Mmap { pages: pages as u32 });
        Ok(())
    }

    /// `mprotect`: sets the protection of `pages` pages starting at the page
    /// containing `addr`. Invalidate the affected TLB entries (shootdown).
    ///
    /// # Errors
    /// [`Trap::BadSyscallArgument`] if any page in the range is unmapped.
    pub fn mprotect(
        &mut self,
        addr: VirtAddr,
        pages: usize,
        prot: Protection,
    ) -> Result<(), Trap> {
        self.stats.mprotect_calls += 1;
        self.charge_syscall(self.config.cost.syscall_mprotect, pages);
        let base = addr.page().raw();
        for i in 0..pages as u64 {
            if !self.page_table.contains(base + i) {
                return Err(Trap::BadSyscallArgument { addr: PageNum(base + i).base() });
            }
        }
        self.ltc_invalidate();
        for i in 0..pages as u64 {
            assert!(self.page_table.set_prot(base + i, prot), "checked above");
            self.tlb_invalidate_all(base + i);
        }
        self.charge_shootdown();
        self.note_event(addr, EventKind::Mprotect { pages: pages as u32 });
        Ok(())
    }

    /// `munmap`: removes the mapping of `pages` pages starting at the page
    /// containing `addr`. Unmapped pages in the range are skipped (as on
    /// Linux). Frames are released when their last mapping disappears.
    ///
    /// One shootdown round covers the whole range, and it is charged only
    /// when at least one page was mapped: unmapping pages that are already
    /// unmapped sends no IPI.
    pub fn munmap(&mut self, addr: VirtAddr, pages: usize) -> Result<(), Trap> {
        self.stats.munmap_calls += 1;
        self.charge_syscall(self.config.cost.syscall_munmap, pages);
        let base = addr.page().raw();
        self.ltc_invalidate();
        let mut removed = false;
        for i in 0..pages as u64 {
            removed |= self.unmap_vpn(base + i);
        }
        if removed {
            self.charge_shootdown();
        }
        self.note_event(addr, EventKind::Munmap { pages: pages as u32 });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Vectored (batched) system calls.
    //
    // Each call below applies many ranges in ONE modelled kernel crossing,
    // in the style of `process_madvise`/io_uring submission batches: one
    // base charge, plus `syscall_per_range` per entry and the usual
    // `syscall_per_page` per page. Each batch bumps its family counter
    // (`mprotect_calls`, `mmap_calls`, ...) exactly once — so
    // `MachineStats::total_syscalls` keeps counting kernel crossings — and
    // records exactly one family ring event covering the total page count.
    //
    // Shared semantics: an empty batch is a silent no-op (no charge, no
    // counter, no event); destination ranges within one batch must be
    // non-empty and mutually disjoint (adjacent is fine), else the whole
    // batch fails with [`Trap::BadSyscallArgument`] *before* anything is
    // charged or mutated.
    // ------------------------------------------------------------------

    /// Vectored `mprotect`: sets the protection of every `(addr, pages)`
    /// range in one kernel crossing. Also counts in
    /// [`MachineStats::mprotect_batch_calls`] and accumulates
    /// [`MachineStats::ranges_batched`].
    ///
    /// # Errors
    /// [`Trap::BadSyscallArgument`] if ranges overlap, a range is empty, or
    /// any page in any range is unmapped — checked up front, so a failed
    /// batch charges nothing and changes nothing.
    pub fn mprotect_batch(
        &mut self,
        ranges: &[(VirtAddr, usize)],
        prot: Protection,
    ) -> Result<(), Trap> {
        if ranges.is_empty() {
            return Ok(());
        }
        let spans: Vec<(u64, usize)> =
            ranges.iter().map(|&(a, p)| (a.page().raw(), p)).collect();
        let total = Self::validate_batch_ranges(&spans)?;
        for &(base, pages) in &spans {
            for i in 0..pages as u64 {
                if !self.page_table.contains(base + i) {
                    return Err(Trap::BadSyscallArgument { addr: PageNum(base + i).base() });
                }
            }
        }
        self.stats.mprotect_calls += 1;
        self.stats.mprotect_batch_calls += 1;
        self.stats.ranges_batched += ranges.len() as u64;
        self.charge_batch_syscall(self.config.cost.syscall_mprotect, ranges.len(), total);
        self.ltc_invalidate();
        for &(base, pages) in &spans {
            for i in 0..pages as u64 {
                assert!(self.page_table.set_prot(base + i, prot), "checked above");
                self.tlb_invalidate_all(base + i);
            }
        }
        self.charge_shootdown();
        self.note_event(ranges[0].0, EventKind::Mprotect { pages: total as u32 });
        Ok(())
    }

    /// Vectored [`Machine::mmap_fixed`]: re-maps every `(addr, pages)` range
    /// to fresh zeroed frames in one kernel crossing, charging one
    /// shootdown round when any page had a translation to replace.
    ///
    /// # Errors
    /// [`Trap::BadSyscallArgument`] under the per-range rules of
    /// [`Machine::mmap_fixed`] or on overlapping ranges (checked up front);
    /// [`Trap::OutOfPhysicalMemory`] on frame exhaustion.
    pub fn mmap_fixed_batch(&mut self, ranges: &[(VirtAddr, usize)]) -> Result<(), Trap> {
        if ranges.is_empty() {
            return Ok(());
        }
        for &(addr, pages) in ranges {
            if addr.offset() != 0 || pages == 0 {
                return Err(Trap::BadSyscallArgument { addr });
            }
            let base = addr.page().raw();
            if base < self.first_vpn || base + pages as u64 > self.next_vpn {
                return Err(Trap::BadSyscallArgument { addr });
            }
        }
        let spans: Vec<(u64, usize)> =
            ranges.iter().map(|&(a, p)| (a.page().raw(), p)).collect();
        let total = Self::validate_batch_ranges(&spans)?;
        self.stats.mmap_calls += 1;
        self.stats.ranges_batched += ranges.len() as u64;
        self.charge_batch_syscall(self.config.cost.syscall_mmap, ranges.len(), total);
        let mut replaced = false;
        let mapped = spans.iter().try_for_each(|&(base, pages)| {
            (0..pages as u64).try_for_each(|i| self.remap_fresh(base + i, &mut replaced))
        });
        if replaced {
            self.charge_shootdown();
        }
        mapped?;
        self.note_event(ranges[0].0, EventKind::Mmap { pages: total as u32 });
        Ok(())
    }

    /// Vectored [`Machine::munmap`]: removes every `(addr, pages)` range in
    /// one kernel crossing. As for plain `munmap`, already-unmapped pages
    /// within a range are skipped, and the one shootdown round is charged
    /// only when some page was mapped.
    ///
    /// # Errors
    /// [`Trap::BadSyscallArgument`] on empty or overlapping ranges.
    pub fn munmap_batch(&mut self, ranges: &[(VirtAddr, usize)]) -> Result<(), Trap> {
        if ranges.is_empty() {
            return Ok(());
        }
        let spans: Vec<(u64, usize)> =
            ranges.iter().map(|&(a, p)| (a.page().raw(), p)).collect();
        let total = Self::validate_batch_ranges(&spans)?;
        self.stats.munmap_calls += 1;
        self.stats.ranges_batched += ranges.len() as u64;
        self.charge_batch_syscall(self.config.cost.syscall_munmap, ranges.len(), total);
        self.ltc_invalidate();
        let mut removed = false;
        for &(base, pages) in &spans {
            for i in 0..pages as u64 {
                removed |= self.unmap_vpn(base + i);
            }
        }
        if removed {
            self.charge_shootdown();
        }
        self.note_event(ranges[0].0, EventKind::Munmap { pages: total as u32 });
        Ok(())
    }

    /// Vectored [`Machine::mremap_alias`]: creates a fresh shadow alias for
    /// every `(src, pages)` range in one kernel crossing and returns the new
    /// base addresses. Source ranges may repeat — aliasing one canonical
    /// page many times is exactly the shadow-extent use case. Because fresh
    /// virtual pages are handed out sequentially, the returned aliases of a
    /// batch are **contiguous**, which is what lets a shadow extent occupy
    /// adjacent pages.
    ///
    /// # Errors
    /// [`Trap::BadSyscallArgument`] if a range is empty or any source page
    /// is unmapped (checked up front); [`Trap::OutOfVirtualMemory`] on VA
    /// exhaustion.
    pub fn mremap_alias_batch(
        &mut self,
        ranges: &[(VirtAddr, usize)],
    ) -> Result<Vec<VirtAddr>, Trap> {
        if ranges.is_empty() {
            return Ok(Vec::new());
        }
        let mut frames: Vec<Vec<u32>> = Vec::with_capacity(ranges.len());
        let mut total = 0usize;
        for &(src, pages) in ranges {
            if pages == 0 {
                return Err(Trap::BadSyscallArgument { addr: src });
            }
            let src_base = src.page().raw();
            let mut fs = Vec::with_capacity(pages);
            for i in 0..pages as u64 {
                match self.page_table.get(src_base + i) {
                    Some(pte) => fs.push(pte.frame),
                    None => {
                        return Err(Trap::BadSyscallArgument {
                            addr: PageNum(src_base + i).base(),
                        })
                    }
                }
            }
            frames.push(fs);
            total += pages;
        }
        if self.next_vpn + total as u64 > self.first_vpn + self.config.virt_pages {
            return Err(Trap::OutOfVirtualMemory);
        }
        self.stats.mremap_calls += 1;
        self.stats.ranges_batched += ranges.len() as u64;
        self.charge_batch_syscall(self.config.cost.syscall_mremap, ranges.len(), total);
        let mut out = Vec::with_capacity(ranges.len());
        for fs in frames {
            let new_base = self.take_vpns(fs.len()).expect("reserved above");
            for (i, frame) in fs.into_iter().enumerate() {
                self.incref_frame(frame);
                self.map_vpn(new_base + i as u64, frame, Protection::ReadWrite);
            }
            out.push(PageNum(new_base).base());
        }
        self.note_event(out[0], EventKind::Mremap { pages: total as u32 });
        Ok(out)
    }

    /// Vectored [`Machine::alias_fixed`]: re-maps every `(src, dst, pages)`
    /// entry as an alias of the frames backing its source, in one kernel
    /// crossing. Destination ranges must be disjoint; sources may repeat
    /// (re-pointing a recycled run of shadow pages at one canonical page).
    /// One shootdown round is charged when any destination page was mapped.
    ///
    /// # Errors
    /// [`Trap::BadSyscallArgument`] under the per-entry rules of
    /// [`Machine::alias_fixed`] or on overlapping destinations — checked up
    /// front, so a failed batch charges nothing and changes nothing.
    pub fn alias_fixed_batch(
        &mut self,
        entries: &[(VirtAddr, VirtAddr, usize)],
    ) -> Result<(), Trap> {
        if entries.is_empty() {
            return Ok(());
        }
        for &(_, dst, pages) in entries {
            if dst.offset() != 0 || pages == 0 {
                return Err(Trap::BadSyscallArgument { addr: dst });
            }
            let dst_base = dst.page().raw();
            if dst_base < self.first_vpn || dst_base + pages as u64 > self.next_vpn {
                return Err(Trap::BadSyscallArgument { addr: dst });
            }
        }
        let spans: Vec<(u64, usize)> =
            entries.iter().map(|&(_, d, p)| (d.page().raw(), p)).collect();
        let total = Self::validate_batch_ranges(&spans)?;
        for &(src, _, pages) in entries {
            let src_base = src.page().raw();
            for i in 0..pages as u64 {
                if !self.page_table.contains(src_base + i) {
                    return Err(Trap::BadSyscallArgument {
                        addr: PageNum(src_base + i).base(),
                    });
                }
            }
        }
        self.stats.mmap_calls += 1;
        self.stats.ranges_batched += entries.len() as u64;
        self.charge_batch_syscall(self.config.cost.syscall_mmap, entries.len(), total);
        // Entries apply sequentially, re-reading source frames at apply
        // time: an earlier entry may legally re-point a later entry's
        // source range (re-mapping never unmaps, so the validation above
        // stays true), and the later entry must alias the *current*
        // frames, not a stale snapshot.
        let mut replaced = false;
        for &(src, dst, pages) in entries {
            let src_base = src.page().raw();
            let dst_base = dst.page().raw();
            for i in 0..pages as u64 {
                let frame =
                    self.page_table.get(src_base + i).expect("validated above").frame;
                self.incref_frame(frame);
                replaced |= self.map_fixed(dst_base + i, frame);
            }
        }
        if replaced {
            self.charge_shootdown();
        }
        self.note_event(entries[0].1, EventKind::Mmap { pages: total as u32 });
        Ok(())
    }

    /// A kernel round-trip that does nothing: used by the
    /// `PA + dummy syscalls` measurement configuration of Tables 1 and 3 to
    /// isolate the system-call share of the overhead.
    pub fn dummy_syscall(&mut self) {
        self.stats.dummy_calls += 1;
        self.advance(self.config.cost.syscall_dummy, Charge::Syscall);
        self.note_event(VirtAddr::NULL, EventKind::DummySyscall);
    }

    // ------------------------------------------------------------------
    // Inspection (no cost, no statistics).
    // ------------------------------------------------------------------

    /// The protection of the page containing `addr`, if mapped.
    pub fn protection(&self, addr: VirtAddr) -> Option<Protection> {
        self.page_table.get(addr.page().raw()).map(|p| p.prot)
    }

    /// Whether the page containing `addr` is mapped at all.
    pub fn is_mapped(&self, addr: VirtAddr) -> bool {
        self.page_table.contains(addr.page().raw())
    }

    /// The physical frame backing the page containing `addr`, if mapped.
    /// Exposed so tests and the pool runtime can verify aliasing.
    pub fn frame_of(&self, addr: VirtAddr) -> Option<u32> {
        self.page_table.get(addr.page().raw()).map(|p| p.frame)
    }

    /// Whether every page of the `pages`-page run starting at the page
    /// containing `addr` is mapped [`Protection::ReadWrite`] onto a frame
    /// that no other virtual page maps. Such a run is already what
    /// [`Machine::mmap_fixed`] would make of it, apart from zeroing: it is
    /// accessible, and nothing else can read or write its frames.
    pub fn is_private_rw(&self, addr: VirtAddr, pages: usize) -> bool {
        let base = addr.page().raw();
        (0..pages as u64).all(|i| {
            self.page_table.get(base + i).is_some_and(|pte| {
                pte.prot == Protection::ReadWrite && self.slab.refcounts[pte.frame as usize] == 1
            })
        })
    }

    /// Reads memory without charges, checks or statistics — a debugger-style
    /// peek used by diagnostics and tests. Returns `None` if unmapped.
    pub fn peek_u64(&self, addr: VirtAddr) -> Option<u64> {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            let a = addr.add(i as u64);
            let pte = self.page_table.get(a.page().raw())?;
            *b = self.slab.frame(pte.frame)[a.offset()];
        }
        Some(u64::from_le_bytes(bytes))
    }

    // ------------------------------------------------------------------
    // Checked, charged accesses.
    // ------------------------------------------------------------------

    /// Translates one access touching `[addr, addr+len)` **within a single
    /// page**, charging TLB/cache costs and checking protection.
    #[inline]
    fn translate(
        &mut self,
        addr: VirtAddr,
        len: usize,
        access: AccessKind,
    ) -> Result<(u32, usize), Trap> {
        debug_assert!(addr.offset() + len <= PAGE_SIZE, "access crosses page");
        self.advance(self.config.cost.mem_access, Charge::Plain);
        match access {
            AccessKind::Read => self.stats.loads += 1,
            AccessKind::Write => self.stats.stores += 1,
        }
        let vpn = addr.page().raw();
        // The *modelled* TLB is probed (and charged) unconditionally —
        // the last-translation cache below only short-circuits the host
        // page-table walk, never the simulated one. Both live on the
        // active core.
        if !self.cores[self.active].tlb.access(vpn) {
            self.advance(self.config.cost.tlb_miss, Charge::TlbPenalty);
        }
        let pte = if self.cores[self.active].ltc_vpn == vpn {
            self.cores[self.active].ltc_entry
        } else {
            match self.page_table.get(vpn) {
                Some(p) => {
                    if self.ltc_enabled {
                        let core = &mut self.cores[self.active];
                        core.ltc_vpn = vpn;
                        core.ltc_entry = p;
                    }
                    p
                }
                None => {
                    self.stats.traps += 1;
                    self.note_event(addr, EventKind::Trap);
                    return Err(Trap::Unmapped { addr, access });
                }
            }
        };
        if !pte.prot.allows(access) {
            self.stats.traps += 1;
            self.note_event(addr, EventKind::Trap);
            return Err(Trap::Protection { addr, prot: pte.prot, access });
        }
        let paddr = (pte.frame as u64) << PAGE_SHIFT | addr.offset() as u64;
        if !self.cores[self.active].cache.access(paddr) {
            self.advance(self.config.cost.l1_miss, Charge::TlbPenalty);
        }
        Ok((pte.frame, addr.offset()))
    }

    /// Loads `width` bytes (1, 2, 4 or 8) little-endian from `addr`.
    ///
    /// # Errors
    /// Returns the MMU [`Trap`] if any touched page is unmapped or
    /// read-protected — this is how a dangling read is detected.
    ///
    /// # Panics
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[inline]
    pub fn load(&mut self, addr: VirtAddr, width: usize) -> Result<u64, Trap> {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad load width {width}");
        let mut bytes = [0u8; 8];
        if addr.offset() + width <= PAGE_SIZE {
            let (frame, off) = self.translate(addr, width, AccessKind::Read)?;
            bytes[..width].copy_from_slice(&self.slab.frame(frame)[off..off + width]);
        } else {
            // Page-crossing access: split at the boundary (two TLB lookups,
            // as on real hardware).
            let first = PAGE_SIZE - addr.offset();
            let (f1, o1) = self.translate(addr, first, AccessKind::Read)?;
            let (f2, _) = self.translate(addr.add(first as u64), width - first, AccessKind::Read)?;
            bytes[..first].copy_from_slice(&self.slab.frame(f1)[o1..o1 + first]);
            bytes[first..width].copy_from_slice(&self.slab.frame(f2)[..width - first]);
        }
        Ok(u64::from_le_bytes(bytes))
    }

    /// Stores the low `width` bytes (1, 2, 4 or 8) of `value` little-endian
    /// at `addr`.
    ///
    /// # Errors
    /// Returns the MMU [`Trap`] if any touched page is unmapped or
    /// write-protected — this is how a dangling write is detected.
    ///
    /// # Panics
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[inline]
    pub fn store(&mut self, addr: VirtAddr, width: usize, value: u64) -> Result<(), Trap> {
        assert!(matches!(width, 1 | 2 | 4 | 8), "bad store width {width}");
        let bytes = value.to_le_bytes();
        if addr.offset() + width <= PAGE_SIZE {
            let (frame, off) = self.translate(addr, width, AccessKind::Write)?;
            self.slab.frame_mut(frame)[off..off + width].copy_from_slice(&bytes[..width]);
        } else {
            let first = PAGE_SIZE - addr.offset();
            let (f1, o1) = self.translate(addr, first, AccessKind::Write)?;
            let (f2, _) =
                self.translate(addr.add(first as u64), width - first, AccessKind::Write)?;
            self.slab.frame_mut(f1)[o1..o1 + first].copy_from_slice(&bytes[..first]);
            self.slab.frame_mut(f2)[..width - first].copy_from_slice(&bytes[first..width]);
        }
        Ok(())
    }

    /// Convenience: 8-byte load.
    ///
    /// # Errors
    /// See [`Machine::load`].
    #[inline]
    pub fn load_u64(&mut self, addr: VirtAddr) -> Result<u64, Trap> {
        self.load(addr, 8)
    }

    /// Convenience: 8-byte store.
    ///
    /// # Errors
    /// See [`Machine::store`].
    #[inline]
    pub fn store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), Trap> {
        self.store(addr, 8, value)
    }

    /// Convenience: 1-byte load.
    ///
    /// # Errors
    /// See [`Machine::load`].
    pub fn load_u8(&mut self, addr: VirtAddr) -> Result<u8, Trap> {
        Ok(self.load(addr, 1)? as u8)
    }

    /// Convenience: 1-byte store.
    ///
    /// # Errors
    /// See [`Machine::store`].
    pub fn store_u8(&mut self, addr: VirtAddr, value: u8) -> Result<(), Trap> {
        self.store(addr, 1, value as u64)
    }

    /// Reads `buf.len()` bytes starting at `addr`, charging one access per
    /// 8-byte word per page-chunk (a bulk `memcpy`-style transfer).
    ///
    /// # Errors
    /// See [`Machine::load`]; partial reads are not performed — the
    /// destination buffer contents are unspecified on error.
    pub fn read_bytes(&mut self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), Trap> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr.add(pos as u64);
            let chunk = (PAGE_SIZE - a.offset()).min(buf.len() - pos);
            let (frame, off) = self.translate(a, chunk, AccessKind::Read)?;
            // Charge the remaining words of the chunk beyond the first.
            let words = chunk.div_ceil(8) as u64;
            self.advance(self.config.cost.mem_access * words.saturating_sub(1), Charge::Plain);
            self.stats.loads += words.saturating_sub(1);
            buf[pos..pos + chunk].copy_from_slice(&self.slab.frame(frame)[off..off + chunk]);
            pos += chunk;
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr` (bulk transfer; see
    /// [`Machine::read_bytes`] for the cost convention).
    ///
    /// # Errors
    /// See [`Machine::store`]; on error a prefix of the buffer may already
    /// have been written.
    pub fn write_bytes(&mut self, addr: VirtAddr, buf: &[u8]) -> Result<(), Trap> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr.add(pos as u64);
            let chunk = (PAGE_SIZE - a.offset()).min(buf.len() - pos);
            let (frame, off) = self.translate(a, chunk, AccessKind::Write)?;
            let words = chunk.div_ceil(8) as u64;
            self.advance(self.config.cost.mem_access * words.saturating_sub(1), Charge::Plain);
            self.stats.stores += words.saturating_sub(1);
            self.slab.frame_mut(frame)[off..off + chunk].copy_from_slice(&buf[pos..pos + chunk]);
            pos += chunk;
        }
        Ok(())
    }

    /// Fills `len` bytes starting at `addr` with `byte` (bulk transfer).
    ///
    /// # Errors
    /// See [`Machine::store`].
    pub fn fill(&mut self, addr: VirtAddr, byte: u8, len: usize) -> Result<(), Trap> {
        let mut pos = 0usize;
        while pos < len {
            let a = addr.add(pos as u64);
            let chunk = (PAGE_SIZE - a.offset()).min(len - pos);
            let (frame, off) = self.translate(a, chunk, AccessKind::Write)?;
            let words = chunk.div_ceil(8) as u64;
            self.advance(self.config.cost.mem_access * words.saturating_sub(1), Charge::Plain);
            self.stats.stores += words.saturating_sub(1);
            self.slab.frame_mut(frame)[off..off + chunk].fill(byte);
            pos += chunk;
        }
        Ok(())
    }

    /// `memset`: fills `len` bytes at `addr` with `byte`. Alias of
    /// [`Machine::fill`] under the libc name the higher layers use.
    ///
    /// # Errors
    /// See [`Machine::store`].
    pub fn memset(&mut self, addr: VirtAddr, byte: u8, len: usize) -> Result<(), Trap> {
        self.fill(addr, byte, len)
    }

    /// `memcpy`: copies `len` bytes from `src` to `dst`, translating once
    /// per page-chunk on each side and charging one access per 8-byte
    /// word per chunk (same convention as [`Machine::read_bytes`]). The
    /// ranges must not overlap (the copy proceeds chunk-by-chunk through
    /// a bounce buffer, so overlapping behaviour is unspecified, as for
    /// C `memcpy`).
    ///
    /// # Errors
    /// Returns the first MMU [`Trap`] hit on either side; on error a
    /// prefix of the destination may already have been written.
    pub fn copy(&mut self, dst: VirtAddr, src: VirtAddr, len: usize) -> Result<(), Trap> {
        let mut buf = [0u8; PAGE_SIZE];
        let mut pos = 0usize;
        while pos < len {
            let s = src.add(pos as u64);
            let d = dst.add(pos as u64);
            let chunk =
                (PAGE_SIZE - s.offset()).min(PAGE_SIZE - d.offset()).min(len - pos);
            let words = chunk.div_ceil(8) as u64;
            let (sf, so) = self.translate(s, chunk, AccessKind::Read)?;
            self.advance(self.config.cost.mem_access * words.saturating_sub(1), Charge::Plain);
            self.stats.loads += words.saturating_sub(1);
            buf[..chunk].copy_from_slice(&self.slab.frame(sf)[so..so + chunk]);
            let (df, doff) = self.translate(d, chunk, AccessKind::Write)?;
            self.advance(self.config.cost.mem_access * words.saturating_sub(1), Charge::Plain);
            self.stats.stores += words.saturating_sub(1);
            self.slab.frame_mut(df)[doff..doff + chunk].copy_from_slice(&buf[..chunk]);
            pos += chunk;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Machine {
        Machine::free_running()
    }

    #[test]
    fn mmap_returns_zeroed_rw_pages() {
        let mut m = m();
        let a = m.mmap(3).unwrap();
        assert_eq!(m.protection(a), Some(Protection::ReadWrite));
        assert_eq!(m.load_u64(a).unwrap(), 0);
        assert_eq!(m.load_u64(a.add(2 * PAGE_SIZE as u64)).unwrap(), 0);
    }

    #[test]
    fn store_load_round_trip_all_widths() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        for (w, v) in [(1usize, 0xabu64), (2, 0xbeef), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)]
        {
            m.store(a, w, v).unwrap();
            assert_eq!(m.load(a, w).unwrap(), v);
        }
    }

    #[test]
    fn attribution_sums_to_clock_and_tracing_is_cycle_neutral() {
        use dangle_telemetry::TelemetryConfig;
        let run = |tracing: bool| {
            let telemetry =
                if tracing { TelemetryConfig::traced() } else { TelemetryConfig::default() };
            let mut m =
                Machine::with_config(MachineConfig { telemetry, ..MachineConfig::default() });
            m.tick(123);
            let a = m.mmap(2).unwrap();
            m.span_enter("request", Category::App);
            for i in 0..64u64 {
                m.store_u64(a.add(i * 8), i).unwrap();
                m.load_u64(a.add(i * 8)).unwrap();
            }
            m.span_enter("shadow.free", Category::DetectorMetadata);
            m.mprotect(a, 1, Protection::None).unwrap();
            m.span_exit();
            m.span_exit();
            m.dummy_syscall();
            m
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(on.clock(), off.clock(), "tracing must not change simulated time");
        let tracer = on.telemetry().tracer().unwrap();
        assert_eq!(tracer.total(), on.clock(), "every cycle attributed, ±0");
        let by_cat: u64 = tracer.categories().iter().map(|&(_, v)| v).sum();
        assert_eq!(by_cat, on.clock());
        assert!(tracer.category_cycles(Category::ProtectionSyscalls) > 0);
        assert!(tracer.category_cycles(Category::App) > 0);
        assert!(off.telemetry().tracer().is_none());
        // The snapshot carries the table (and ring health) as gauges.
        let snap = on.metrics_snapshot();
        let traced_total: u64 = ["app", "detector_metadata", "protection_syscalls", "tlb_l1_penalty", "pool_recycling"]
            .iter()
            .map(|c| snap.counter(&format!("trace.{c}")))
            .sum();
        assert_eq!(traced_total, on.clock());
        assert_eq!(snap.counter("ring.capacity"), 256);
    }

    /// An 8-core machine with free costs (for functional multi-core tests).
    fn m8() -> Machine {
        Machine::with_config(MachineConfig {
            cost: CostModel::free(),
            cores: 8,
            ..MachineConfig::default()
        })
    }

    #[test]
    fn cores_have_independent_clocks_and_default_active_is_zero() {
        let mut m = Machine::with_config(MachineConfig { cores: 4, ..MachineConfig::default() });
        assert_eq!(m.core_count(), 4);
        assert_eq!(m.active_core(), 0);
        m.tick(100);
        m.switch_core(2);
        m.tick(30);
        assert_eq!(m.core_clock(0), 100);
        assert_eq!(m.core_clock(1), 0);
        assert_eq!(m.core_clock(2), 30);
        assert_eq!(m.clock(), 30, "clock() follows the active core");
        assert_eq!(m.max_core_clock(), 100);
    }

    #[test]
    fn mprotect_invalidates_tlb_and_ltc_on_every_core() {
        // Satellite regression: the TLB and the one-entry last-translation
        // cache are per-core, so a protect on core 0 must shoot down the
        // entries the *other* cores cached, or they would keep loading
        // through a stale ReadWrite translation.
        let mut m = m8();
        let a = m.mmap(1).unwrap();
        for core in 0..8 {
            m.switch_core(core);
            m.store_u64(a, core as u64).unwrap(); // warm TLB + LTC everywhere
        }
        m.switch_core(0);
        m.mprotect(a, 1, Protection::None).unwrap();
        for core in 0..8 {
            m.switch_core(core);
            let misses_before = m.tlb().misses();
            let err = m.load_u64(a).unwrap_err();
            assert!(
                matches!(err, Trap::Protection { .. }),
                "core {core} served a stale translation: {err:?}"
            );
            assert_eq!(
                m.tlb().misses(),
                misses_before + 1,
                "core {core}: shootdown must also evict the TLB entry"
            );
        }
    }

    #[test]
    fn mmap_fixed_recycle_is_visible_on_remote_cores() {
        // Recycling a page on one core severs aliasing for all: a remote
        // core's cached translation must not keep pointing at the old frame.
        let mut m = m8();
        let a = m.mmap(1).unwrap();
        m.store_u64(a, 0xdead).unwrap();
        m.switch_core(3);
        assert_eq!(m.load_u64(a).unwrap(), 0xdead); // core 3 caches the PTE
        m.switch_core(0);
        m.mmap_fixed(a, 1).unwrap(); // fresh zeroed frame, same VA
        m.switch_core(3);
        assert_eq!(m.load_u64(a).unwrap(), 0, "core 3 must see the fresh frame");
    }

    #[test]
    fn shootdown_charges_initiator_and_remote_cores() {
        let mut m = Machine::with_config(MachineConfig { cores: 4, ..MachineConfig::default() });
        let cost = m.config().cost;
        let a = m.mmap(1).unwrap();
        let initiator_before = m.clock();
        let remote_before = m.core_clock(1);
        m.mprotect(a, 1, Protection::None).unwrap();
        assert_eq!(
            m.clock() - initiator_before,
            cost.syscall_mprotect + cost.syscall_per_page + 3 * cost.ipi_send,
            "initiator pays the syscall plus one IPI send per remote core"
        );
        for core in 1..4 {
            assert_eq!(
                m.core_clock(core) - remote_before,
                cost.ipi_recv,
                "core {core} pays exactly the IPI service cost"
            );
        }
        assert_eq!(m.stats().shootdown_ipis, 3);
        let report = m.core_report(1);
        assert_eq!(report.syscall_cycles, cost.ipi_recv);
    }

    /// A 4-core machine with the calibrated cost model (shootdowns cost).
    fn m4() -> Machine {
        Machine::with_config(MachineConfig { cores: 4, ..MachineConfig::default() })
    }

    /// The clocks of cores 1.., where IPI service time lands.
    fn remote_clocks(m: &Machine) -> Vec<u64> {
        (1..m.core_count()).map(|c| m.core_clock(c)).collect()
    }

    #[test]
    fn remapping_unmapped_pages_sends_no_ipi_but_evicts_every_core() {
        let mut m = m4();
        let canon = m.mmap(1).unwrap();
        m.store_u64(canon, 0xc0de).unwrap();
        let region = m.mmap(4).unwrap();
        let page = |i: u64| region.add(i * PAGE_SIZE as u64);
        m.munmap(region, 4).unwrap();
        // Core 3 probes the unmapped pages: each trap leaves the VPN in its
        // TLB, which the re-maps below must evict.
        m.switch_core(3);
        for i in 0..4 {
            assert!(matches!(m.load_u64(page(i)), Err(Trap::Unmapped { .. })));
        }
        m.switch_core(0);
        let ipis = m.stats().shootdown_ipis;
        let remote = remote_clocks(&m);
        m.mmap_fixed(page(0), 1).unwrap();
        m.mmap_fixed_batch(&[(page(1), 1)]).unwrap();
        m.alias_fixed(canon, page(2), 1).unwrap();
        m.alias_fixed_batch(&[(canon, page(3), 1)]).unwrap();
        assert_eq!(m.stats().shootdown_ipis, ipis, "nothing was mapped, so no round");
        assert_eq!(remote_clocks(&m), remote, "no remote core paid an IPI");
        m.switch_core(3);
        for (i, want) in [(0, 0), (1, 0), (2, 0xc0de), (3, 0xc0de)] {
            let misses = m.tlb().misses();
            assert_eq!(m.load_u64(page(i)).unwrap(), want, "page {i}");
            assert_eq!(m.tlb().misses(), misses + 1, "page {i}: core 3's TLB entry was evicted");
        }
    }

    /// Runs `call` on a 4-core machine's core 0 and checks that it cost
    /// `syscall` cycles plus exactly one shootdown round.
    fn assert_one_round(
        m: &mut Machine,
        what: &str,
        syscall: u64,
        call: impl FnOnce(&mut Machine),
    ) {
        let cost = m.config().cost;
        let (ipis, clock, remote) = (m.stats().shootdown_ipis, m.clock(), remote_clocks(m));
        call(m);
        assert_eq!(m.stats().shootdown_ipis, ipis + 3, "{what}");
        assert_eq!(m.clock() - clock, syscall + 3 * cost.ipi_send, "{what}");
        for (core, (after, before)) in remote_clocks(m).iter().zip(&remote).enumerate() {
            assert_eq!(after - before, cost.ipi_recv, "{what}, core {}", core + 1);
        }
    }

    #[test]
    fn remapping_mapped_pages_charges_one_round_each() {
        let mut m = m4();
        let cost = m.config().cost;
        let canon = m.mmap(1).unwrap();
        let region = m.mmap(4).unwrap();
        let page = |i: u64| region.add(i * PAGE_SIZE as u64);
        let mmap = cost.syscall_mmap + cost.syscall_per_page;
        let batch = cost.syscall_per_range;
        assert_one_round(&mut m, "mmap_fixed", mmap + cost.page_zero, |m| {
            m.mmap_fixed(page(0), 1).unwrap()
        });
        assert_one_round(&mut m, "mmap_fixed_batch", mmap + batch + cost.page_zero, |m| {
            m.mmap_fixed_batch(&[(page(1), 1)]).unwrap()
        });
        assert_one_round(&mut m, "alias_fixed", mmap, |m| {
            m.alias_fixed(canon, page(2), 1).unwrap()
        });
        assert_one_round(&mut m, "alias_fixed_batch", mmap + batch, |m| {
            m.alias_fixed_batch(&[(canon, page(3), 1)]).unwrap()
        });
    }

    #[test]
    fn unmapping_unmapped_pages_sends_no_ipi() {
        let mut m = m4();
        let a = m.mmap(2).unwrap();
        m.munmap(a, 2).unwrap();
        assert_eq!(m.stats().shootdown_ipis, 3, "the first munmap removes two pages");
        let remote = remote_clocks(&m);
        m.munmap(a, 2).unwrap();
        m.munmap_batch(&[(a, 1), (a.add(PAGE_SIZE as u64), 1)]).unwrap();
        assert_eq!(m.stats().shootdown_ipis, 3, "nothing left to remove");
        assert_eq!(remote_clocks(&m), remote);
        assert_eq!(m.stats().munmap_calls, 3, "the syscalls still happen");
        // One mapped page anywhere in the batch is enough for a round.
        let b = m.mmap(1).unwrap();
        m.munmap_batch(&[(a, 2), (b, 1)]).unwrap();
        assert_eq!(m.stats().shootdown_ipis, 6);
    }

    #[test]
    fn mmap_fixed_that_replaces_then_runs_out_of_frames_charges_the_round() {
        let mut m = Machine::with_config(MachineConfig {
            cores: 4,
            phys_frames: 3,
            ..MachineConfig::default()
        });
        let a = m.mmap(2).unwrap();
        // Aliases keep both old frames alive once `a` lets go of them.
        m.mremap_alias(a, 2).unwrap();
        let spare = m.mmap(1).unwrap();
        m.munmap(spare, 1).unwrap(); // one frame free
        let second = a.add(PAGE_SIZE as u64);
        let frames = (m.frame_of(a), m.frame_of(second));
        let ipis = m.stats().shootdown_ipis;
        let remote = remote_clocks(&m);
        assert_eq!(m.mmap_fixed(a, 2), Err(Trap::OutOfPhysicalMemory));
        assert_ne!(m.frame_of(a), frames.0, "page 0 got the free frame");
        assert_eq!(m.frame_of(second), frames.1, "page 1 kept its frame");
        assert_eq!(m.stats().shootdown_ipis, ipis + 3, "page 0 was replaced before the failure");
        for (after, before) in remote_clocks(&m).iter().zip(&remote) {
            assert_eq!(after - before, m.config().cost.ipi_recv);
        }
    }

    #[test]
    fn single_core_never_pays_shootdowns() {
        let mut m = Machine::new();
        let a = m.mmap(2).unwrap();
        m.mprotect(a, 2, Protection::None).unwrap();
        m.munmap(a, 2).unwrap();
        assert_eq!(m.stats().shootdown_ipis, 0);
    }

    #[test]
    fn per_core_metric_labels_appear_only_on_multi_core_machines() {
        let mut single = Machine::new();
        let a = single.mmap(1).unwrap();
        single.mprotect(a, 1, Protection::None).unwrap();
        let snap = single.metrics_snapshot();
        assert!(!snap.counters.iter().any(|(n, _)| n.starts_with("vmm.core")));

        let mut multi =
            Machine::with_config(MachineConfig { cores: 2, ..MachineConfig::default() });
        let b = multi.mmap(1).unwrap();
        multi.mprotect(b, 1, Protection::None).unwrap();
        let snap = multi.metrics_snapshot();
        for key in ["vmm.core0.clock", "vmm.core1.clock", "vmm.shootdown_ipis"] {
            assert!(snap.counters.iter().any(|(n, _)| n == key), "missing {key}");
        }
        assert_eq!(snap.counter("vmm.shootdown_ipis"), 1);
    }

    #[test]
    fn null_dereference_traps() {
        let mut m = m();
        let err = m.load_u64(VirtAddr::NULL).unwrap_err();
        assert!(matches!(err, Trap::Unmapped { .. }));
        assert_eq!(m.stats().traps, 1);
    }

    #[test]
    fn page_crossing_access_works() {
        let mut m = m();
        let a = m.mmap(2).unwrap();
        let cross = a.add(PAGE_SIZE as u64 - 4);
        m.store_u64(cross, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.load_u64(cross).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn page_crossing_traps_if_second_page_protected() {
        let mut m = m();
        let a = m.mmap(2).unwrap();
        m.mprotect(a.add(PAGE_SIZE as u64), 1, Protection::None).unwrap();
        let cross = a.add(PAGE_SIZE as u64 - 4);
        assert!(m.store_u64(cross, 1).is_err());
    }

    #[test]
    fn alias_sees_same_bytes() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.store_u64(a.add(128), 42).unwrap();
        let alias = m.mremap_alias(a, 1).unwrap();
        assert_ne!(alias.page(), a.page(), "alias must be a fresh virtual page");
        assert_eq!(m.frame_of(alias), m.frame_of(a), "but the same physical frame");
        assert_eq!(m.load_u64(alias.add(128)).unwrap(), 42);
        // Writes through the alias are visible through the original.
        m.store_u64(alias.add(8), 7).unwrap();
        assert_eq!(m.load_u64(a.add(8)).unwrap(), 7);
    }

    #[test]
    fn protecting_alias_leaves_canonical_usable() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        let alias = m.mremap_alias(a, 1).unwrap();
        m.mprotect(alias, 1, Protection::None).unwrap();
        assert!(m.load_u64(alias).is_err());
        m.store_u64(a, 9).unwrap();
        assert_eq!(m.load_u64(a).unwrap(), 9);
    }

    #[test]
    fn read_protection_allows_loads_blocks_stores() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.store_u64(a, 5).unwrap();
        m.mprotect(a, 1, Protection::Read).unwrap();
        assert_eq!(m.load_u64(a).unwrap(), 5);
        let err = m.store_u64(a, 6).unwrap_err();
        assert!(matches!(
            err,
            Trap::Protection { prot: Protection::Read, access: AccessKind::Write, .. }
        ));
    }

    #[test]
    fn munmap_releases_frame_only_at_last_reference() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        let alias = m.mremap_alias(a, 1).unwrap();
        let frames_before = m.stats().phys_frames_in_use;
        m.munmap(a, 1).unwrap();
        assert_eq!(m.stats().phys_frames_in_use, frames_before, "alias keeps frame live");
        assert!(m.load_u64(a).is_err(), "unmapped canonical traps");
        assert!(m.load_u64(alias).is_ok(), "alias still works");
        m.munmap(alias, 1).unwrap();
        assert_eq!(m.stats().phys_frames_in_use, frames_before - 1);
    }

    #[test]
    fn vpns_are_never_recycled_by_mmap() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.munmap(a, 1).unwrap();
        let b = m.mmap(1).unwrap();
        assert_ne!(a.page(), b.page(), "machine must not reuse VA on its own");
    }

    #[test]
    fn mmap_fixed_recycles_vpn_with_fresh_frame() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.store_u64(a, 77).unwrap();
        let old_frame = m.frame_of(a).unwrap();
        let alias = m.mremap_alias(a, 1).unwrap();
        // Recycle the alias page: must get a *fresh zeroed* frame, severing
        // the old aliasing.
        m.mmap_fixed(alias, 1).unwrap();
        assert_ne!(m.frame_of(alias).unwrap(), old_frame);
        assert_eq!(m.load_u64(alias).unwrap(), 0);
        // Original data still intact through the canonical page.
        assert_eq!(m.load_u64(a).unwrap(), 77);
    }

    #[test]
    fn is_private_rw_needs_read_write_and_an_unshared_frame() {
        let mut m = Machine::new();
        let a = m.mmap(2).unwrap();
        assert!(m.is_private_rw(a, 2));
        let alias = m.mremap_alias(a.add(PAGE_SIZE as u64), 1).unwrap();
        assert!(m.is_private_rw(a, 1), "the first page is still unshared");
        assert!(!m.is_private_rw(a, 2), "the second page's frame is aliased");
        assert!(!m.is_private_rw(alias, 1));
        m.munmap(alias, 1).unwrap();
        assert!(m.is_private_rw(a, 2), "dropping the alias unshares the frame");
        assert!(!m.is_private_rw(alias, 1), "unmapped");
        m.mprotect(a, 1, Protection::Read).unwrap();
        assert!(!m.is_private_rw(a, 1), "read-only is not read-write");
        // The query is free: no cycles, no syscalls, no TLB traffic.
        let before = (m.clock(), m.stats().total_syscalls(), m.tlb_totals());
        assert!(!m.is_private_rw(a, 2));
        assert_eq!((m.clock(), m.stats().total_syscalls(), m.tlb_totals()), before);
    }

    #[test]
    fn mmap_fixed_rejects_unaligned_and_foreign_ranges() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        assert!(m.mmap_fixed(a.add(8), 1).is_err());
        // A range the machine never handed out:
        assert!(m.mmap_fixed(PageNum(1 << 30).base(), 1).is_err());
    }

    #[test]
    fn alias_fixed_recycles_vpn_as_alias() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.store_u64(a, 55).unwrap();
        let old_shadow = m.mremap_alias(a, 1).unwrap();
        m.mprotect(old_shadow, 1, Protection::None).unwrap();
        let b = m.mmap(1).unwrap();
        m.store_u64(b, 66).unwrap();
        // Recycle the protected shadow page as an alias of b.
        m.alias_fixed(b, old_shadow, 1).unwrap();
        assert_eq!(m.load_u64(old_shadow).unwrap(), 66);
        assert_eq!(m.frame_of(old_shadow), m.frame_of(b));
        assert_eq!(m.load_u64(a).unwrap(), 55, "a untouched");
    }

    #[test]
    fn alias_fixed_rejects_bad_arguments() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        let s = m.mremap_alias(a, 1).unwrap();
        assert!(m.alias_fixed(a, s.add(8), 1).is_err(), "unaligned dst");
        assert!(m.alias_fixed(a, PageNum(1 << 30).base(), 1).is_err(), "foreign dst");
        m.munmap(a, 1).unwrap();
        assert!(m.alias_fixed(a, s, 1).is_err(), "unmapped src");
    }

    #[test]
    fn mremap_of_unmapped_source_fails() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.munmap(a, 1).unwrap();
        assert!(matches!(m.mremap_alias(a, 1), Err(Trap::BadSyscallArgument { .. })));
    }

    #[test]
    fn mprotect_unmapped_fails() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.munmap(a, 1).unwrap();
        assert!(m.mprotect(a, 1, Protection::None).is_err());
    }

    #[test]
    fn out_of_virtual_memory() {
        let mut m = Machine::with_config(MachineConfig {
            cost: CostModel::free(),
            virt_pages: 4,
            ..MachineConfig::default()
        });
        assert!(m.mmap(3).is_ok());
        assert!(matches!(m.mmap(2), Err(Trap::OutOfVirtualMemory)));
        assert!(m.mmap(1).is_ok());
    }

    #[test]
    fn out_of_physical_memory() {
        let mut m = Machine::with_config(MachineConfig {
            cost: CostModel::free(),
            phys_frames: 2,
            ..MachineConfig::default()
        });
        assert!(m.mmap(2).is_ok());
        assert!(matches!(m.mmap(1), Err(Trap::OutOfPhysicalMemory)));
    }

    #[test]
    fn aliases_do_not_consume_physical_memory() {
        let mut m = Machine::with_config(MachineConfig {
            cost: CostModel::free(),
            phys_frames: 2,
            ..MachineConfig::default()
        });
        let a = m.mmap(1).unwrap();
        for _ in 0..100 {
            m.mremap_alias(a, 1).unwrap();
        }
        assert_eq!(m.stats().phys_frames_in_use, 1);
    }

    #[test]
    fn bulk_read_write_round_trip() {
        let mut m = m();
        let a = m.mmap(3).unwrap();
        let data: Vec<u8> = (0..9000).map(|i| (i * 7 % 251) as u8).collect();
        m.write_bytes(a.add(100), &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read_bytes(a.add(100), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn fill_sets_range() {
        let mut m = m();
        let a = m.mmap(2).unwrap();
        m.fill(a.add(4090), 0xcc, 20).unwrap();
        for i in 0..20 {
            assert_eq!(m.load_u8(a.add(4090 + i)).unwrap(), 0xcc);
        }
        assert_eq!(m.load_u8(a.add(4089)).unwrap(), 0);
        assert_eq!(m.load_u8(a.add(4110)).unwrap(), 0);
    }

    #[test]
    fn memset_is_fill_and_respects_page_boundaries() {
        let mut m = m();
        let a = m.mmap(2).unwrap();
        m.memset(a.add(PAGE_SIZE as u64 - 3), 0xab, 6).unwrap();
        for i in 0..6 {
            assert_eq!(m.load_u8(a.add(PAGE_SIZE as u64 - 3 + i)).unwrap(), 0xab);
        }
        assert_eq!(m.load_u8(a.add(PAGE_SIZE as u64 - 4)).unwrap(), 0);
        assert_eq!(m.load_u8(a.add(PAGE_SIZE as u64 + 3)).unwrap(), 0);
    }

    #[test]
    fn memset_traps_on_protected_second_page_after_writing_first() {
        let mut m = m();
        let a = m.mmap(2).unwrap();
        m.mprotect(a.add(PAGE_SIZE as u64), 1, Protection::None).unwrap();
        let start = a.add(PAGE_SIZE as u64 - 8);
        let err = m.memset(start, 0xcc, 16).unwrap_err();
        assert!(matches!(err, Trap::Protection { .. }));
        // The first page's chunk was written before the trap.
        assert_eq!(m.load_u8(start).unwrap(), 0xcc);
    }

    #[test]
    fn copy_crosses_page_boundaries_on_both_sides() {
        let mut m = m();
        let src = m.mmap(2).unwrap();
        let dst = m.mmap(2).unwrap();
        let data: Vec<u8> = (0..600).map(|i| (i % 251) as u8).collect();
        // Misalign the two sides differently so the chunking must split
        // at both source and destination page boundaries.
        m.write_bytes(src.add(PAGE_SIZE as u64 - 100), &data).unwrap();
        m.copy(dst.add(PAGE_SIZE as u64 - 300), src.add(PAGE_SIZE as u64 - 100), data.len())
            .unwrap();
        let mut back = vec![0u8; data.len()];
        m.read_bytes(dst.add(PAGE_SIZE as u64 - 300), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn copy_charges_one_word_access_per_side() {
        let mut m = Machine::new(); // calibrated costs
        let src = m.mmap(1).unwrap();
        let dst = m.mmap(1).unwrap();
        let loads = m.stats().loads;
        let stores = m.stats().stores;
        m.copy(dst, src, 256).unwrap();
        // 256 bytes within one page: 32 words read + 32 words written.
        assert_eq!(m.stats().loads - loads, 32);
        assert_eq!(m.stats().stores - stores, 32);
    }

    #[test]
    fn copy_traps_on_unreadable_source_and_unwritable_destination() {
        let mut m = m();
        let src = m.mmap(1).unwrap();
        let dst = m.mmap(1).unwrap();
        m.mprotect(src, 1, Protection::None).unwrap();
        assert!(matches!(m.copy(dst, src, 8), Err(Trap::Protection { .. })));
        m.mprotect(src, 1, Protection::ReadWrite).unwrap();
        m.mprotect(dst, 1, Protection::Read).unwrap();
        assert!(matches!(m.copy(dst, src, 8), Err(Trap::Protection { .. })));
    }

    #[test]
    fn bulk_ops_match_per_word_costs() {
        // The bulk cost convention: a 4096-byte aligned read_bytes charges
        // exactly what 512 word loads would, but performs one translation.
        let mut m = Machine::new();
        let a = m.mmap(1).unwrap();
        m.load_u64(a).unwrap(); // warm TLB and L1 for the page base
        let loads = m.stats().loads;
        let mut buf = [0u8; PAGE_SIZE];
        m.read_bytes(a, &mut buf).unwrap();
        assert_eq!(m.stats().loads - loads, (PAGE_SIZE / 8) as u64);
    }

    #[test]
    fn reference_and_radix_agree_on_a_directed_sequence() {
        use crate::pagetable::PageTableImpl;
        let mk = |which| {
            Machine::with_config(MachineConfig {
                page_table: which,
                ..MachineConfig::default()
            })
        };
        let mut r = mk(PageTableImpl::Reference);
        let mut x = mk(PageTableImpl::Radix);
        for m in [&mut r, &mut x] {
            let a = m.mmap(2).unwrap();
            m.store_u64(a, 1).unwrap();
            m.store_u64(a, 2).unwrap(); // LTC hit on the radix machine
            let s = m.mremap_alias(a, 2).unwrap();
            m.mprotect(s, 2, Protection::None).unwrap();
            assert!(m.load_u64(s).is_err());
            m.munmap(a, 2).unwrap();
            assert!(m.load_u64(a).is_err());
        }
        assert_eq!(r.clock(), x.clock());
        assert_eq!(r.stats(), x.stats());
        assert_eq!(r.tlb().hits(), x.tlb().hits());
        assert_eq!(r.tlb().misses(), x.tlb().misses());
    }

    #[test]
    fn costs_are_charged() {
        let mut m = Machine::new(); // calibrated costs
        let c0 = m.clock();
        let a = m.mmap(1).unwrap();
        let c1 = m.clock();
        assert!(c1 - c0 >= CostModel::calibrated().syscall_mmap);
        m.load_u64(a).unwrap();
        assert!(m.clock() > c1);
    }

    #[test]
    fn dummy_syscall_charges_and_counts() {
        let mut m = Machine::new();
        let c0 = m.clock();
        m.dummy_syscall();
        assert_eq!(m.stats().dummy_calls, 1);
        assert_eq!(m.clock() - c0, CostModel::calibrated().syscall_dummy);
    }

    #[test]
    fn tlb_miss_charged_on_first_touch() {
        let mut m = Machine::new();
        let a = m.mmap(1).unwrap();
        let before = m.tlb().misses();
        m.load_u64(a).unwrap();
        assert_eq!(m.tlb().misses(), before + 1);
        m.load_u64(a.add(8)).unwrap();
        assert_eq!(m.tlb().misses(), before + 1, "second access hits TLB");
    }

    #[test]
    fn frame_reuse_zeroes_data() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.store_u64(a, 0xfeed).unwrap();
        m.munmap(a, 1).unwrap();
        let b = m.mmap(1).unwrap();
        // b reuses a's frame (the only free one) but must read as zero.
        assert_eq!(m.load_u64(b).unwrap(), 0);
    }

    #[test]
    fn peek_does_not_charge_or_count() {
        let mut m = Machine::new();
        let a = m.mmap(1).unwrap();
        m.store_u64(a, 31).unwrap();
        let clock = m.clock();
        let loads = m.stats().loads;
        assert_eq!(m.peek_u64(a), Some(31));
        assert_eq!(m.clock(), clock);
        assert_eq!(m.stats().loads, loads);
        assert_eq!(m.peek_u64(VirtAddr::NULL), None);
    }

    #[test]
    fn stats_track_mapping_peaks() {
        let mut m = m();
        let a = m.mmap(4).unwrap();
        assert_eq!(m.stats().virt_pages_mapped, 4);
        assert_eq!(m.stats().virt_pages_mapped_peak, 4);
        m.munmap(a, 2).unwrap();
        assert_eq!(m.stats().virt_pages_mapped, 2);
        assert_eq!(m.stats().virt_pages_mapped_peak, 4);
        assert_eq!(m.virt_pages_consumed(), 4);
    }

    #[test]
    fn mprotect_batch_applies_all_ranges_in_one_crossing() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        let s1 = m.mremap_alias(a, 1).unwrap();
        let s2 = m.mremap_alias(a, 1).unwrap();
        let calls = m.stats().mprotect_calls;
        m.mprotect_batch(&[(s1, 1), (s2, 1)], Protection::None).unwrap();
        assert_eq!(m.stats().mprotect_calls, calls + 1, "one crossing");
        assert_eq!(m.stats().mprotect_batch_calls, 1);
        assert_eq!(m.stats().ranges_batched, 2);
        assert!(m.load_u64(s1).is_err());
        assert!(m.load_u64(s2).is_err());
        assert!(m.load_u64(a).is_ok(), "canonical untouched");
    }

    #[test]
    fn batch_cost_is_one_base_plus_per_range_and_per_page() {
        let mut m = Machine::new(); // calibrated costs
        let a = m.mmap(4).unwrap();
        let s1 = m.mremap_alias(a, 2).unwrap();
        let s2 = m.mremap_alias(a, 3).unwrap();
        let c = CostModel::calibrated();
        let c0 = m.clock();
        m.mprotect_batch(&[(s1, 2), (s2, 3)], Protection::None).unwrap();
        assert_eq!(
            m.clock() - c0,
            c.syscall_mprotect + 2 * c.syscall_per_range + 5 * c.syscall_per_page
        );
    }

    #[test]
    fn empty_batches_are_silent_noops() {
        let mut m = Machine::new();
        let clock = m.clock();
        let stats = *m.stats();
        m.mprotect_batch(&[], Protection::None).unwrap();
        m.mmap_fixed_batch(&[]).unwrap();
        m.munmap_batch(&[]).unwrap();
        m.alias_fixed_batch(&[]).unwrap();
        assert!(m.mremap_alias_batch(&[]).unwrap().is_empty());
        assert_eq!(m.clock(), clock, "no charge");
        assert_eq!(*m.stats(), stats, "no counters");
        assert_eq!(m.telemetry().ring().total_recorded(), 0, "no events");
    }

    #[test]
    fn adjacent_batch_ranges_are_legal() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        let s = m.mremap_alias(a, 1).unwrap();
        let t = m.mremap_alias(a, 1).unwrap();
        assert_eq!(t.page().raw(), s.page().raw() + 1, "aliases are sequential");
        m.mprotect_batch(&[(s, 1), (t, 1)], Protection::None).unwrap();
        assert!(m.load_u64(s).is_err());
        assert!(m.load_u64(t).is_err());
    }

    #[test]
    fn overlapping_batch_ranges_trap_without_side_effects() {
        let mut m = Machine::new();
        let a = m.mmap(4).unwrap();
        let clock = m.clock();
        let stats = *m.stats();
        let err = m
            .mprotect_batch(&[(a, 3), (a.add(2 * PAGE_SIZE as u64), 2)], Protection::None)
            .unwrap_err();
        assert!(matches!(err, Trap::BadSyscallArgument { .. }));
        let err = m.mprotect_batch(&[(a, 0)], Protection::None).unwrap_err();
        assert!(matches!(err, Trap::BadSyscallArgument { .. }), "empty range");
        let err = m.munmap_batch(&[(a, 2), (a.add(PAGE_SIZE as u64), 1)]).unwrap_err();
        assert!(matches!(err, Trap::BadSyscallArgument { .. }));
        assert_eq!(m.clock(), clock, "failed batches charge nothing");
        assert_eq!(*m.stats(), stats, "failed batches count nothing");
        assert_eq!(m.protection(a), Some(Protection::ReadWrite), "nothing applied");
    }

    #[test]
    fn mremap_alias_batch_returns_contiguous_aliases() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.store_u64(a, 99).unwrap();
        let calls = m.stats().mremap_calls;
        let out = m.mremap_alias_batch(&[(a, 1), (a, 1), (a, 1)]).unwrap();
        assert_eq!(m.stats().mremap_calls, calls + 1, "one crossing");
        assert_eq!(m.stats().ranges_batched, 3);
        assert_eq!(out.len(), 3);
        for w in out.windows(2) {
            assert_eq!(w[1].page().raw(), w[0].page().raw() + 1, "contiguous extent");
        }
        for s in &out {
            assert_eq!(m.load_u64(*s).unwrap(), 99);
            assert_eq!(m.frame_of(*s), m.frame_of(a));
        }
    }

    #[test]
    fn mmap_fixed_batch_severs_aliasing_per_range() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.store_u64(a, 13).unwrap();
        let out = m.mremap_alias_batch(&[(a, 1), (a, 1)]).unwrap();
        let calls = m.stats().mmap_calls;
        m.mmap_fixed_batch(&[(out[0], 1), (out[1], 1)]).unwrap();
        assert_eq!(m.stats().mmap_calls, calls + 1, "one crossing");
        for s in &out {
            assert_ne!(m.frame_of(*s), m.frame_of(a), "fresh frame");
            assert_eq!(m.load_u64(*s).unwrap(), 0, "zeroed");
        }
        assert_eq!(m.load_u64(a).unwrap(), 13);
    }

    #[test]
    fn alias_fixed_batch_repoints_a_run_at_one_canonical_page() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.store_u64(a, 55).unwrap();
        let run = m.mremap_alias_batch(&[(a, 1), (a, 1)]).unwrap();
        m.mprotect_batch(&[(run[0], 2)], Protection::None).unwrap();
        let b = m.mmap(1).unwrap();
        m.store_u64(b, 66).unwrap();
        // Re-point the whole recycled run at b in one crossing.
        m.alias_fixed_batch(&[(b, run[0], 1), (b, run[1], 1)]).unwrap();
        assert_eq!(m.load_u64(run[0]).unwrap(), 66);
        assert_eq!(m.load_u64(run[1]).unwrap(), 66);
        assert_eq!(m.frame_of(run[0]), m.frame_of(b));
        assert_eq!(m.load_u64(a).unwrap(), 55, "old canonical untouched");
    }

    #[test]
    fn munmap_batch_releases_every_range() {
        let mut m = m();
        let a = m.mmap(2).unwrap();
        let b = m.mmap(3).unwrap();
        let mapped = m.stats().virt_pages_mapped;
        m.munmap_batch(&[(a, 2), (b, 3)]).unwrap();
        assert_eq!(m.stats().virt_pages_mapped, mapped - 5);
        assert!(m.load_u64(a).is_err());
        assert!(m.load_u64(b).is_err());
    }

    #[test]
    fn trap_on_protected_page_counts_in_stats() {
        let mut m = m();
        let a = m.mmap(1).unwrap();
        m.mprotect(a, 1, Protection::None).unwrap();
        let _ = m.load_u64(a);
        let _ = m.store_u64(a, 1);
        assert_eq!(m.stats().traps, 2);
    }
}
