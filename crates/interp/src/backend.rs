//! Execution backends: every allocator scheme of the workspace behind one
//! interface.
//!
//! The interpreter (and the workload programs in `dangle-workloads`) issue
//! four kinds of events: allocate, free, load, store — plus pool
//! create/destroy for pool-transformed programs. A [`Backend`] maps those
//! events onto one of the schemes under study:
//!
//! | backend | scheme | Table 1/3 column | program accesses |
//! |---|---|---|---|
//! | [`NativeBackend`] | plain `malloc` | native / LLVM base | MMU |
//! | [`PoolBackend`] | Automatic Pool Allocation only | PA | MMU |
//! | [`PoolBackend::with_dummy_syscalls`] | PA + no-op kernel crossings | PA + dummy syscalls | MMU |
//! | [`ShadowPoolBackend`] | **the paper's approach** | Our approach | MMU |
//! | [`ArenaBackend`] | per-core `malloc` arenas, no detector | — (multi-core native) | MMU |
//! | [`ShadowBackend`] | Insight 1 only (no pools, no VA reuse) | — (debug mode) | MMU |
//! | [`EFenceBackend`] | Electric Fence | §5.3 comparison | MMU |
//! | [`MemcheckBackend`] | Valgrind-style | Table 2 | [`Memcheck::check`], then MMU |
//! | [`CapabilityBackend`] | SafeC/Xu-style | §5.2 comparison | [`CapabilityChecker::check`], then MMU |
//! | [`CombinedBackend`] | ours + bounds checks (§6) | — (ablation 5) | bounds check, then MMU |
//!
//! Program accesses take [`Backend`]'s default path, the MMU's: each goes
//! straight to the machine, whose page protection traps a dangling use,
//! bulk transfers move a page chunk at a time, and a trap carries the
//! scheme's [`Backend::explain`] attribution. Only the three schemes that
//! check every access in software override it, because the MMU cannot see
//! what they check (a quarantined block, a stale capability, an overrun
//! within the page): they check each `load` and `store` before it reaches
//! the machine, and walk bulk transfers word by word through those two, so
//! every word is checked and charged.
//!
//! An allocator-shaped scheme, one whose detection (if any) is the MMU
//! trapping pages its `free` protected, is one instantiation of
//! [`HeapBackend`] over its [`Allocator`]: [`NativeBackend`],
//! [`ArenaBackend`] and [`EFenceBackend`] are.

use dangle_baselines::{CapabilityChecker, EFence, Memcheck};
use dangle_core::{DetectorConfig, ShadowConfig, ShadowHeap, ShadowPool};
use dangle_heap::{AllocError, Allocator, ArenaHeap, SysHeap};
use dangle_pool::{PoolError, PoolId, PoolSet};
use dangle_telemetry::EventKind;
use dangle_vmm::{Machine, Trap, VirtAddr};
use std::error::Error;
use std::fmt;

/// An opaque pool handle scoped to one backend instance.
pub type PoolHandle = u32;

/// Errors surfaced by backend operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The MMU trapped. When the trap hit a freed object tracked by a
    /// detector, `report` carries the rendered dangling-pointer diagnosis.
    Trap {
        /// The raw machine trap.
        trap: Trap,
        /// Detector attribution, when available.
        report: Option<String>,
    },
    /// A software checker (memcheck/capability) flagged the access.
    SoftwareDetection {
        /// The faulting (possibly tagged) address.
        addr: VirtAddr,
    },
    /// `free` of something that is not a live allocation.
    InvalidFree {
        /// The bogus address.
        addr: VirtAddr,
    },
    /// Resource exhaustion or misuse unrelated to memory safety.
    Other(String),
}

impl BackendError {
    /// Whether this error constitutes a *detected temporal memory error*
    /// (as opposed to an environmental failure).
    pub fn is_detection(&self) -> bool {
        match self {
            BackendError::Trap { trap, .. } => trap.is_access_violation(),
            BackendError::SoftwareDetection { .. } => true,
            BackendError::InvalidFree { .. } => true,
            BackendError::Other(_) => false,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Trap { trap, report: Some(r) } => write!(f, "{trap} — {r}"),
            BackendError::Trap { trap, report: None } => write!(f, "{trap}"),
            BackendError::SoftwareDetection { addr } => {
                write!(f, "software check flagged access to {addr}")
            }
            BackendError::InvalidFree { addr } => write!(f, "invalid free of {addr}"),
            BackendError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl Error for BackendError {}

fn from_alloc(e: AllocError) -> BackendError {
    match e {
        AllocError::Trap(t) => BackendError::Trap { trap: t, report: None },
        AllocError::InvalidFree { addr } => BackendError::InvalidFree { addr },
        AllocError::TooLarge { size } => {
            BackendError::Other(format!("allocation of {size} bytes too large"))
        }
    }
}

fn from_pool(e: PoolError) -> BackendError {
    match e {
        PoolError::Alloc(a) => from_alloc(a),
        other => BackendError::Other(other.to_string()),
    }
}

/// The error of a `free` or `free_unchecked` of `addr`, on every scheme.
/// A trap the detector attributes (a double free, with its `report`)
/// stays a trap. Any other trap means `addr` named no live allocation, so
/// it becomes [`BackendError::InvalidFree`], the error the schemes that
/// check a header or a side table already return.
fn free_error(addr: VirtAddr, err: BackendError, report: Option<String>) -> BackendError {
    match err {
        BackendError::Trap { trap, .. } if report.is_some() => BackendError::Trap { trap, report },
        BackendError::Trap { .. } => BackendError::InvalidFree { addr },
        other => other,
    }
}

/// The unified allocator/memory interface. See the [module docs](self).
pub trait Backend {
    /// Scheme name for diagnostics ("sys", "pa", "shadow-pool", ...). A
    /// [`HeapBackend`] reports its allocator's name.
    fn name(&self) -> &'static str;

    /// Allocates `size` bytes, from `pool` when given and supported.
    ///
    /// # Errors
    /// [`BackendError`] on exhaustion or misuse.
    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError>;

    /// Frees `addr` (into `pool` when given and supported).
    ///
    /// # Errors
    /// A double free the scheme attributes surfaces as
    /// [`BackendError::Trap`] with its report. A free of anything else that
    /// is not a live allocation, a wild pointer included, is
    /// [`BackendError::InvalidFree`] on every scheme.
    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError>;

    /// [`Backend::alloc`] for a malloc site the static free-site analysis
    /// (dangle-lint) stamped `unchecked` — every free site of its alias
    /// class is `ProvablySafe`, so no dangling use of the object is
    /// possible. Shadow-page schemes override this to skip protection
    /// entirely; the default just performs a normal checked allocation, so
    /// schemes without an elision fast path are unaffected.
    ///
    /// # Errors
    /// As for [`Backend::alloc`].
    fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.alloc(machine, size, pool)
    }

    /// [`Backend::free`] for a free site stamped `unchecked` by
    /// dangle-lint. See [`Backend::alloc_unchecked`].
    ///
    /// # Errors
    /// As for [`Backend::free`].
    fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.free(machine, addr, pool)
    }

    /// Creates a pool (`poolinit`). Schemes without pools return handle 0.
    ///
    /// # Errors
    /// [`BackendError::Other`] if the scheme cannot create pools.
    fn pool_create(
        &mut self,
        _machine: &mut Machine,
        _elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        Ok(0)
    }

    /// Destroys a pool (`pooldestroy`). A no-op for schemes without pools.
    ///
    /// # Errors
    /// [`BackendError::Other`] for invalid handles.
    fn pool_destroy(
        &mut self,
        _machine: &mut Machine,
        _pool: PoolHandle,
    ) -> Result<(), BackendError> {
        Ok(())
    }

    /// A program-level load. The default is the MMU's: the machine's page
    /// protection traps a dangling use, and the trap carries
    /// [`Backend::explain`]'s attribution. Software checkers override it
    /// to check the access first.
    ///
    /// # Errors
    /// A dangling access surfaces as [`BackendError::Trap`] (MMU schemes)
    /// or [`BackendError::SoftwareDetection`] (software schemes).
    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        machine.load(addr, width).map_err(|t| mmu_trap(self, t))
    }

    /// A program-level store. See [`Backend::load`] for the
    /// default/override split.
    ///
    /// # Errors
    /// As for [`Backend::load`].
    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        machine.store(addr, width, value).map_err(|t| mmu_trap(self, t))
    }

    /// A program-level bulk read (`memcpy` out of simulated memory). The
    /// default is [`Machine::read_bytes`], which translates once per page
    /// chunk. A scheme that overrides [`Backend::load`] overrides this too,
    /// walking the range word by word through its own `load`, so every
    /// word passes its check.
    ///
    /// # Errors
    /// As for [`Backend::load`]; the buffer contents are unspecified on
    /// error.
    fn load_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), BackendError> {
        machine.read_bytes(addr, buf).map_err(|t| mmu_trap(self, t))
    }

    /// A program-level bulk write (`memcpy` into simulated memory). See
    /// [`Backend::load_bytes`] for the default/override split.
    ///
    /// # Errors
    /// As for [`Backend::store`]; a prefix may already be written on error.
    fn store_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &[u8],
    ) -> Result<(), BackendError> {
        machine.write_bytes(addr, buf).map_err(|t| mmu_trap(self, t))
    }

    /// A program-level `memset`. See [`Backend::load_bytes`] for the
    /// default/override split.
    ///
    /// # Errors
    /// As for [`Backend::store`]; a prefix may already be written on error.
    fn memset(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        byte: u8,
        len: usize,
    ) -> Result<(), BackendError> {
        machine.memset(addr, byte, len).map_err(|t| mmu_trap(self, t))
    }

    /// Attributes a trap to a freed object, when the scheme can.
    fn explain(&self, _trap: &Trap) -> Option<String> {
        None
    }

    /// Models `cycles` of program computation. Binary-instrumentation
    /// detectors (Valgrind) JIT-translate *every* instruction, so they
    /// override this to scale the charge; everything else charges it
    /// directly.
    fn compute(&mut self, machine: &mut Machine, cycles: u64) {
        machine.tick(cycles);
    }
}

/// A trap of an MMU-backed scheme, with the scheme's attribution.
fn mmu_trap<B: Backend + ?Sized>(backend: &B, trap: Trap) -> BackendError {
    BackendError::Trap { report: backend.explain(&trap), trap }
}

/// The bulk operations of a scheme that checks every access in software:
/// each walks the range word by word through the scheme's own
/// [`Backend::load`]/[`Backend::store`], so every word passes the check and
/// pays for it, instead of the default's page-chunked transfer.
macro_rules! per_word_ops {
    () => {
        fn load_bytes(
            &mut self,
            machine: &mut Machine,
            addr: VirtAddr,
            buf: &mut [u8],
        ) -> Result<(), BackendError> {
            let mut pos = 0usize;
            while pos + 8 <= buf.len() {
                let v = self.load(machine, addr.add(pos as u64), 8)?;
                buf[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
                pos += 8;
            }
            while pos < buf.len() {
                buf[pos] = self.load(machine, addr.add(pos as u64), 1)? as u8;
                pos += 1;
            }
            Ok(())
        }

        fn store_bytes(
            &mut self,
            machine: &mut Machine,
            addr: VirtAddr,
            buf: &[u8],
        ) -> Result<(), BackendError> {
            let mut pos = 0usize;
            while pos + 8 <= buf.len() {
                let v = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8 bytes"));
                self.store(machine, addr.add(pos as u64), 8, v)?;
                pos += 8;
            }
            while pos < buf.len() {
                self.store(machine, addr.add(pos as u64), 1, buf[pos] as u64)?;
                pos += 1;
            }
            Ok(())
        }

        fn memset(
            &mut self,
            machine: &mut Machine,
            addr: VirtAddr,
            byte: u8,
            len: usize,
        ) -> Result<(), BackendError> {
            let word = u64::from_le_bytes([byte; 8]);
            let mut pos = 0usize;
            while pos + 8 <= len {
                self.store(machine, addr.add(pos as u64), 8, word)?;
                pos += 8;
            }
            while pos < len {
                self.store(machine, addr.add(pos as u64), 1, byte as u64)?;
                pos += 1;
            }
            Ok(())
        }
    };
}

// ---------------------------------------------------------------------
// Allocator-shaped schemes: plain malloc, per-core arenas, Electric Fence.
// ---------------------------------------------------------------------

/// Any [`Allocator`] as a scheme: `alloc` and `free` go to the allocator,
/// and accesses take the MMU path, so a dangling use traps exactly when
/// the allocator's `free` protected its pages. Pools are not modelled:
/// pool handles are ignored.
#[derive(Debug, Default)]
pub struct HeapBackend<A> {
    heap: A,
}

/// Plain `malloc`/`free` — the `native` and `LLVM base` configurations.
/// Dangling uses are *not* detected: reads/writes of freed memory silently
/// succeed (and may corrupt other objects), exactly like production C.
pub type NativeBackend = HeapBackend<SysHeap>;

/// Plain `malloc` over per-core arenas ([`ArenaHeap`]): the undetected
/// multi-core baseline the detector's overhead on a multi-core machine is
/// measured against. With one arena this is cycle-identical to
/// [`NativeBackend`].
pub type ArenaBackend = HeapBackend<ArenaHeap>;

/// Electric Fence (object per page, MMU-checked; §5.3 baseline).
pub type EFenceBackend = HeapBackend<EFence>;

impl NativeBackend {
    /// Creates the backend.
    pub fn new() -> NativeBackend {
        HeapBackend { heap: SysHeap::new() }
    }
}

impl ArenaBackend {
    /// Creates the backend with `arenas` per-core arenas.
    pub fn new(arenas: usize) -> ArenaBackend {
        HeapBackend { heap: ArenaHeap::new(arenas) }
    }
}

impl EFenceBackend {
    /// Creates the backend.
    pub fn new() -> EFenceBackend {
        HeapBackend { heap: EFence::new() }
    }
}

impl<A> HeapBackend<A> {
    /// The underlying allocator (for stats).
    pub fn heap(&self) -> &A {
        &self.heap
    }
}

impl<A: Allocator> Backend for HeapBackend<A> {
    fn name(&self) -> &'static str {
        self.heap.name()
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        _pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.heap.alloc(machine, size).map_err(from_alloc)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        _pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.heap.free(machine, addr).map_err(|e| free_error(addr, from_alloc(e), None))
    }
}

// ---------------------------------------------------------------------
// Pool allocation only (PA and PA+dummy columns).
// ---------------------------------------------------------------------

/// Automatic Pool Allocation runtime without the detector. Optionally
/// issues a dummy system call per allocation and per free, reproducing the
/// `PA + dummy syscalls` measurement configuration that isolates the
/// system-call share of the paper's overhead.
#[derive(Debug, Default)]
pub struct PoolBackend {
    pools: PoolSet,
    global_pool: Option<PoolId>,
    dummy_syscalls: bool,
}

impl PoolBackend {
    /// Creates the PA-only backend.
    pub fn new() -> PoolBackend {
        PoolBackend::default()
    }

    /// Creates the `PA + dummy syscalls` configuration.
    pub fn with_dummy_syscalls() -> PoolBackend {
        PoolBackend { dummy_syscalls: true, ..PoolBackend::default() }
    }

    /// The pool runtime (for stats).
    pub fn pools(&self) -> &PoolSet {
        &self.pools
    }

    fn pool_or_global(&mut self, pool: Option<PoolHandle>) -> PoolId {
        match pool {
            Some(h) => PoolId(h),
            None => *self.global_pool.get_or_insert_with(|| self.pools.create(0)),
        }
    }
}

impl Backend for PoolBackend {
    fn name(&self) -> &'static str {
        if self.dummy_syscalls {
            "pa+dummy"
        } else {
            "pa"
        }
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        let p = self.pool_or_global(pool);
        if self.dummy_syscalls {
            machine.dummy_syscall(); // stands in for mremap
        }
        self.pools.alloc(machine, p, size).map_err(from_pool)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        let p = self.pool_or_global(pool);
        if self.dummy_syscalls {
            machine.dummy_syscall(); // stands in for mprotect
        }
        self.pools.free(machine, p, addr).map_err(|e| free_error(addr, from_pool(e), None))
    }

    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        machine.note_event(VirtAddr::NULL, EventKind::PoolCreate);
        Ok(self.pools.create(elem_hint).0)
    }

    fn pool_destroy(
        &mut self,
        machine: &mut Machine,
        pool: PoolHandle,
    ) -> Result<(), BackendError> {
        self.pools.destroy(machine, PoolId(pool)).map_err(from_pool)
    }
}

// ---------------------------------------------------------------------
// Shadow heap (Insight 1 only).
// ---------------------------------------------------------------------

/// The shadow-page detector over plain `malloc` (no pools, no VA reuse) —
/// the paper's "debugging, works on binaries" mode.
#[derive(Debug, Default)]
pub struct ShadowBackend {
    heap: ShadowHeap<SysHeap>,
}

impl ShadowBackend {
    /// Creates the backend.
    pub fn new() -> ShadowBackend {
        ShadowBackend::default()
    }

    /// Creates the backend with an explicit detector configuration
    /// (sampling, §3.4 threshold recycling).
    pub fn with_config(config: ShadowConfig) -> ShadowBackend {
        ShadowBackend { heap: ShadowHeap::with_config(SysHeap::new(), config) }
    }

    /// The detector (for diagnostics and stats).
    pub fn detector(&self) -> &ShadowHeap<SysHeap> {
        &self.heap
    }
}

impl Backend for ShadowBackend {
    fn name(&self) -> &'static str {
        "shadow"
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        _pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.heap.alloc(machine, size).map_err(from_alloc)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        _pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.heap.free(machine, addr).map_err(|e| {
            let report = self.heap.last_report().map(|r| r.render(self.heap.sites()));
            free_error(addr, from_alloc(e), report)
        })
    }

    fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        size: usize,
        _pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.heap.alloc_unchecked(machine, size).map_err(from_alloc)
    }

    fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        _pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.heap.free_unchecked(machine, addr).map_err(|e| free_error(addr, from_alloc(e), None))
    }

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.heap.explain(trap).map(|r| r.render(self.heap.sites()))
    }
}

// ---------------------------------------------------------------------
// Shadow pool (the full approach).
// ---------------------------------------------------------------------

/// The paper's production configuration: shadow pages within Automatic Pool
/// Allocation pools, with full virtual-address recycling at `pooldestroy`.
/// One [`ShadowPool`] serves every core of the machine.
#[derive(Debug, Default)]
pub struct ShadowPoolBackend {
    detector: ShadowPool,
    global_pool: Option<PoolId>,
}

impl ShadowPoolBackend {
    /// Creates the backend in the paper's configuration.
    pub fn new() -> ShadowPoolBackend {
        ShadowPoolBackend::default()
    }

    /// Creates the backend with an explicit detector configuration (pool
    /// runtime, sampling).
    pub fn with_config(config: DetectorConfig) -> ShadowPoolBackend {
        ShadowPoolBackend { detector: ShadowPool::with_config(config), global_pool: None }
    }

    /// The detector (for diagnostics and stats).
    pub fn detector(&self) -> &ShadowPool {
        &self.detector
    }

    fn pool_or_global(&mut self, pool: Option<PoolHandle>) -> PoolId {
        match pool {
            Some(h) => PoolId(h),
            None => *self.global_pool.get_or_insert_with(|| self.detector.create(0)),
        }
    }
}

/// A compatibility name for the pool backend on a multi-core machine.
// Its only caller is `perfbench/src/ops.rs:105`; this constructor is
// deleted together with that call in the next change to the benchmark.
pub enum ShardedPoolBackend {}

impl ShardedPoolBackend {
    /// Creates a [`ShadowPoolBackend`]; every core shares its detector.
    // The type only names this constructor, so `new` does not return `Self`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(_cores: usize) -> ShadowPoolBackend {
        ShadowPoolBackend::new()
    }
}

impl Backend for ShadowPoolBackend {
    fn name(&self) -> &'static str {
        "shadow-pool"
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        let p = self.pool_or_global(pool);
        self.detector.alloc(machine, p, size).map_err(from_pool)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        let p = self.pool_or_global(pool);
        self.detector.free(machine, p, addr).map_err(|e| {
            let report = self.detector.last_report().map(|r| r.render(self.detector.sites()));
            free_error(addr, from_pool(e), report)
        })
    }

    fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        let p = self.pool_or_global(pool);
        self.detector.alloc_unchecked(machine, p, size).map_err(from_pool)
    }

    fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        let p = self.pool_or_global(pool);
        self.detector
            .free_unchecked(machine, p, addr)
            .map_err(|e| free_error(addr, from_pool(e), None))
    }

    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        machine.note_event(VirtAddr::NULL, EventKind::PoolCreate);
        Ok(self.detector.create(elem_hint).0)
    }

    fn pool_destroy(
        &mut self,
        machine: &mut Machine,
        pool: PoolHandle,
    ) -> Result<(), BackendError> {
        self.detector.destroy(machine, PoolId(pool)).map_err(from_pool)
    }

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.detector.explain(trap).map(|r| r.render(self.detector.sites()))
    }
}

// ---------------------------------------------------------------------
// Baselines.
// ---------------------------------------------------------------------

macro_rules! checked_backend {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $label:expr) => {
        checked_backend!($(#[$doc])* $name, $inner, $label, 1);
    };
    ($(#[$doc:meta])* $name:ident, $inner:ty, $label:expr, $compute_scale:expr) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $inner,
        }

        impl $name {
            /// Creates the backend.
            pub fn new() -> $name {
                $name::default()
            }

            /// The wrapped checker (for detection stats).
            pub fn heap(&self) -> &$inner {
                &self.inner
            }
        }

        impl Backend for $name {
            fn name(&self) -> &'static str {
                $label
            }

            fn alloc(
                &mut self,
                machine: &mut Machine,
                size: usize,
                _pool: Option<PoolHandle>,
            ) -> Result<VirtAddr, BackendError> {
                self.inner.alloc(machine, size).map_err(from_alloc)
            }

            fn free(
                &mut self,
                machine: &mut Machine,
                addr: VirtAddr,
                _pool: Option<PoolHandle>,
            ) -> Result<(), BackendError> {
                self.inner.free(machine, addr).map_err(|e| free_error(addr, from_alloc(e), None))
            }

            fn load(
                &mut self,
                machine: &mut Machine,
                addr: VirtAddr,
                width: usize,
            ) -> Result<u64, BackendError> {
                match self.inner.check(machine, addr) {
                    Ok(addr) => machine.load(addr, width).map_err(|t| mmu_trap(self, t)),
                    Err(addr) => Err(BackendError::SoftwareDetection { addr }),
                }
            }

            fn store(
                &mut self,
                machine: &mut Machine,
                addr: VirtAddr,
                width: usize,
                value: u64,
            ) -> Result<(), BackendError> {
                match self.inner.check(machine, addr) {
                    Ok(addr) => machine.store(addr, width, value).map_err(|t| mmu_trap(self, t)),
                    Err(addr) => Err(BackendError::SoftwareDetection { addr }),
                }
            }

            per_word_ops!();

            fn compute(&mut self, machine: &mut Machine, cycles: u64) {
                machine.tick(cycles * $compute_scale);
            }
        }
    };
}

checked_backend!(
    /// Valgrind-memcheck-style software checking (Table 2 baseline).
    /// Every instruction of the guest runs through the DBI JIT, so program
    /// computation is scaled in addition to the per-access shadow-state
    /// checks.
    MemcheckBackend,
    Memcheck,
    "memcheck",
    22 // DBI JIT expansion factor for ordinary computation
);

impl MemcheckBackend {
    /// Creates the backend with a quarantine of `bytes` (e.g. one scaled
    /// down to miniature programs for the soundness study).
    pub fn with_quarantine(bytes: usize) -> MemcheckBackend {
        MemcheckBackend { inner: Memcheck::with_quarantine(bytes) }
    }
}

checked_backend!(
    /// SafeC/Xu-style capability checking (§5.2 baseline). Returned
    /// pointers are capability-tagged; all accesses must go through this
    /// backend.
    CapabilityBackend,
    CapabilityChecker,
    "capability"
);

// ---------------------------------------------------------------------
// Combined spatial + temporal checking (the paper's §6 goal).
// ---------------------------------------------------------------------

/// The "comprehensive safety checking tool" the paper's §6 plans: the
/// shadow-page temporal detector combined with the authors' earlier
/// low-overhead spatial (bounds) checking [ICSE'06], which also exploits
/// Automatic Pool Allocation.
///
/// Temporal errors are still caught by the MMU at zero per-access cost.
/// Spatial checking adds a compiled-in software bound check per access:
/// because every object sits *alone* on its shadow pages, the check is a
/// single range comparison against the object owning the page — no fat
/// pointers, no side tables beyond the detector's own registry (this is
/// the "complementary, common infrastructure" point of §6).
#[derive(Debug, Default)]
pub struct CombinedBackend {
    inner: ShadowPoolBackend,
    spatial_detections: u64,
}

/// Cycles per software bounds check (the ICSE'06 paper reports very low
/// overhead; one compare-and-branch pair).
const BOUNDS_CHECK_COST: u64 = 2;

impl CombinedBackend {
    /// Creates the combined checker.
    pub fn new() -> CombinedBackend {
        CombinedBackend::default()
    }

    /// Number of out-of-bounds accesses flagged.
    pub fn spatial_detections(&self) -> u64 {
        self.spatial_detections
    }

    fn bounds_check(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<(), BackendError> {
        machine.tick(BOUNDS_CHECK_COST);
        if let Some(obj) = self.inner.detector().object_at(addr) {
            let start = obj.base.raw();
            let end = start + obj.size as u64;
            if addr.raw() < start || addr.raw() + width as u64 > end {
                self.spatial_detections += 1;
                return Err(BackendError::SoftwareDetection { addr });
            }
        }
        Ok(())
    }
}

impl Backend for CombinedBackend {
    fn name(&self) -> &'static str {
        "combined"
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.inner.alloc(machine, size, pool)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.inner.free(machine, addr, pool)
    }

    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        self.inner.pool_create(machine, elem_hint)
    }

    fn pool_destroy(
        &mut self,
        machine: &mut Machine,
        pool: PoolHandle,
    ) -> Result<(), BackendError> {
        self.inner.pool_destroy(machine, pool)
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        self.bounds_check(machine, addr, width)?;
        self.inner.load(machine, addr, width)
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        self.bounds_check(machine, addr, width)?;
        self.inner.store(machine, addr, width, value)
    }

    per_word_ops!();

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.inner.explain(trap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_core::SamplingConfig;
    use dangle_vmm::MachineConfig;

    fn exercise(backend: &mut dyn Backend, expect_detection: bool) {
        let mut m = Machine::free_running();
        let pool = backend.pool_create(&mut m, 16).unwrap();
        let p = backend.alloc(&mut m, 16, Some(pool)).unwrap();
        backend.store(&mut m, p, 8, 42).unwrap();
        assert_eq!(backend.load(&mut m, p, 8).unwrap(), 42);
        backend.free(&mut m, p, Some(pool)).unwrap();
        let got = backend.load(&mut m, p, 8);
        if expect_detection {
            let err = got.unwrap_err();
            assert!(err.is_detection(), "{}: {err}", backend.name());
        } else {
            assert!(got.is_ok(), "{} must NOT detect (that's the point)", backend.name());
        }
        backend.pool_destroy(&mut m, pool).unwrap();
    }

    /// Bulk ops must round-trip data and preserve each scheme's detection
    /// behaviour — whether the backend takes the default page-chunked MMU
    /// path or walks words through its own checks. A detecting scheme must
    /// catch a freed object through every bulk op, so a software checker
    /// that loses an override (and falls back to the unchecked MMU path)
    /// fails here.
    fn exercise_bulk(backend: &mut dyn Backend, expect_detection: bool) {
        let mut m = Machine::free_running();
        let pool = backend.pool_create(&mut m, 16).unwrap();
        // Larger than a page, so every transfer crosses a page boundary.
        const LEN: usize = 6_000;
        let p = backend.alloc(&mut m, LEN, Some(pool)).unwrap();
        let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8 ^ 0x5a).collect();
        backend.store_bytes(&mut m, p, &data).unwrap();
        let mut back = vec![0u8; LEN];
        backend.load_bytes(&mut m, p, &mut back).unwrap();
        assert_eq!(back, data, "{}: bulk round trip", backend.name());
        backend.memset(&mut m, p, 0x11, LEN).unwrap();
        let last_word = p.add(LEN as u64 - 8);
        assert_eq!(backend.load(&mut m, last_word, 8).unwrap(), 0x1111_1111_1111_1111);
        backend.free(&mut m, p, Some(pool)).unwrap();
        let got = backend.load_bytes(&mut m, p, &mut back);
        if expect_detection {
            let err = got.unwrap_err();
            assert!(err.is_detection(), "{}: {err}", backend.name());
            for (op, got) in [
                ("store_bytes", backend.store_bytes(&mut m, p, &data)),
                ("memset", backend.memset(&mut m, p, 0x22, LEN)),
            ] {
                let err = got.expect_err(op);
                assert!(err.is_detection(), "{} {op}: {err}", backend.name());
            }
        } else {
            assert!(got.is_ok(), "{} must NOT detect bulk dangling reads", backend.name());
        }
        backend.pool_destroy(&mut m, pool).unwrap();
    }

    #[test]
    fn bulk_ops_preserve_scheme_semantics() {
        exercise_bulk(&mut NativeBackend::new(), false);
        exercise_bulk(&mut PoolBackend::new(), false);
        exercise_bulk(&mut ShadowBackend::new(), true);
        exercise_bulk(&mut ShadowPoolBackend::new(), true);
        exercise_bulk(&mut EFenceBackend::new(), true);
        exercise_bulk(&mut MemcheckBackend::new(), true);
        exercise_bulk(&mut CapabilityBackend::new(), true);
        exercise_bulk(&mut CombinedBackend::new(), true);
    }

    /// A bulk write that runs past the end of a live object stays on the
    /// object's mapped page, so only the per-word bounds check sees it.
    #[test]
    fn combined_bounds_checks_bulk_writes() {
        let mut m = Machine::free_running();
        let mut b = CombinedBackend::new();
        let p = b.alloc(&mut m, 24, None).unwrap();
        let err = b.store_bytes(&mut m, p, &[7; 32]).unwrap_err();
        assert_eq!(err, BackendError::SoftwareDetection { addr: p.add(24) });
        assert_eq!(b.memset(&mut m, p.add(8), 0, 24), Err(err));
        assert_eq!(b.spatial_detections(), 2);
    }

    #[test]
    fn shadow_pool_bulk_trap_carries_report() {
        let mut m = Machine::free_running();
        let mut b = ShadowPoolBackend::new();
        let p = b.alloc(&mut m, 16, None).unwrap();
        b.free(&mut m, p, None).unwrap();
        let mut buf = [0u8; 16];
        let BackendError::Trap { report, .. } =
            b.load_bytes(&mut m, p, &mut buf).unwrap_err()
        else {
            panic!()
        };
        assert!(report.expect("attributed").contains("dangling read"));
    }

    #[test]
    fn native_misses_dangling_use() {
        exercise(&mut NativeBackend::new(), false);
    }

    #[test]
    fn pa_only_misses_dangling_use() {
        exercise(&mut PoolBackend::new(), false);
        exercise(&mut PoolBackend::with_dummy_syscalls(), false);
    }

    #[test]
    fn detecting_backends_detect() {
        exercise(&mut ShadowBackend::new(), true);
        exercise(&mut ShadowPoolBackend::new(), true);
        exercise(&mut EFenceBackend::new(), true);
        exercise(&mut MemcheckBackend::new(), true);
        exercise(&mut CapabilityBackend::new(), true);
    }

    #[test]
    fn dummy_syscalls_are_counted() {
        let mut m = Machine::free_running();
        let mut b = PoolBackend::with_dummy_syscalls();
        let p = b.alloc(&mut m, 16, None).unwrap();
        b.free(&mut m, p, None).unwrap();
        assert_eq!(m.stats().dummy_calls, 2);

        let mut m2 = Machine::free_running();
        let mut b2 = PoolBackend::new();
        let p2 = b2.alloc(&mut m2, 16, None).unwrap();
        b2.free(&mut m2, p2, None).unwrap();
        assert_eq!(m2.stats().dummy_calls, 0);
    }

    #[test]
    fn shadow_pool_explains_traps() {
        let mut m = Machine::free_running();
        let mut b = ShadowPoolBackend::new();
        let pool = b.pool_create(&mut m, 16).unwrap();
        let p = b.alloc(&mut m, 16, Some(pool)).unwrap();
        b.free(&mut m, p, Some(pool)).unwrap();
        let BackendError::Trap { report, .. } = b.load(&mut m, p, 8).unwrap_err() else {
            panic!()
        };
        let report = report.expect("must attribute the fault");
        assert!(report.contains("dangling read"), "{report}");
    }

    #[test]
    fn double_free_reports() {
        let mut m = Machine::free_running();
        let mut b = ShadowPoolBackend::new();
        let p = b.alloc(&mut m, 16, None).unwrap();
        b.free(&mut m, p, None).unwrap();
        let err = b.free(&mut m, p, None).unwrap_err();
        let BackendError::Trap { report: Some(r), .. } = err else {
            panic!("{err:?}")
        };
        assert!(r.contains("double free"), "{r}");
    }

    #[test]
    fn combined_catches_both_error_classes() {
        let mut m = Machine::free_running();
        let mut b = CombinedBackend::new();
        let p = b.alloc(&mut m, 24, None).unwrap();
        b.store(&mut m, p, 8, 1).unwrap();
        b.store(&mut m, p.add(16), 8, 2).unwrap();

        // Spatial: one byte past the object.
        let err = b.load(&mut m, p.add(24), 1).unwrap_err();
        assert!(matches!(err, BackendError::SoftwareDetection { .. }));
        // Spatial: a wide access straddling the end.
        assert!(b.store(&mut m, p.add(20), 8, 0).is_err());
        assert_eq!(b.spatial_detections(), 2);

        // Temporal: still MMU-caught after free.
        b.free(&mut m, p, None).unwrap();
        let err = b.load(&mut m, p, 8).unwrap_err();
        assert!(matches!(err, BackendError::Trap { .. }), "{err:?}");
    }

    #[test]
    fn combined_overhead_is_one_check_per_access() {
        let mut m = Machine::free_running();
        let mut b = CombinedBackend::new();
        let p = b.alloc(&mut m, 64, None).unwrap();
        let c0 = m.clock();
        b.load(&mut m, p, 8).unwrap();
        let combined_cost = m.clock() - c0;

        let mut m2 = Machine::free_running();
        let mut plain = ShadowPoolBackend::new();
        let q = plain.alloc(&mut m2, 64, None).unwrap();
        let c0 = m2.clock();
        plain.load(&mut m2, q, 8).unwrap();
        let plain_cost = m2.clock() - c0;
        assert_eq!(combined_cost, plain_cost + 2, "exactly the bounds-check cost");
    }

    #[test]
    fn global_pool_fallback_for_untransformed_programs() {
        let mut m = Machine::free_running();
        let mut b = ShadowPoolBackend::new();
        let p = b.alloc(&mut m, 16, None).unwrap();
        b.store(&mut m, p, 8, 1).unwrap();
        b.free(&mut m, p, None).unwrap();
        assert!(b.load(&mut m, p, 8).unwrap_err().is_detection());
    }

    /// 1-in-1 sampling: every object protected, but frees the registry
    /// does not know take the sampled fast path.
    fn sampled_every_object() -> DetectorConfig {
        DetectorConfig { sampling: SamplingConfig::one_in(1), ..DetectorConfig::default() }
    }

    type Make = fn() -> Box<dyn Backend>;

    /// Every scheme, with whether it has pools that handles can name.
    fn every_scheme() -> [(Make, bool); 11] {
        [
            (|| Box::new(NativeBackend::new()), false),
            (|| Box::new(PoolBackend::new()), true),
            (|| Box::new(PoolBackend::with_dummy_syscalls()), true),
            (|| Box::new(ShadowBackend::new()), false),
            (|| Box::new(ShadowPoolBackend::new()), true),
            (|| Box::new(ShadowPoolBackend::with_config(sampled_every_object())), true),
            (|| Box::new(ArenaBackend::new(2)), false),
            (|| Box::new(EFenceBackend::new()), false),
            (|| Box::new(MemcheckBackend::new()), false),
            (|| Box::new(CapabilityBackend::new()), false),
            (|| Box::new(CombinedBackend::new()), true),
        ]
    }

    /// Malformed frees and bad pool handles end in a typed error on every
    /// scheme, and leave the backend usable. A wild free names no object,
    /// so every scheme calls it an invalid free of that address.
    #[test]
    fn malformed_frees_return_typed_errors() {
        type Case = fn(&mut dyn Backend, &mut Machine) -> Result<(), BackendError>;
        const WILD: VirtAddr = VirtAddr(0x7777_0000);
        let frees: [(&str, Case); 11] = [
            ("null", |b, m| b.free(m, VirtAddr::NULL, None)),
            ("wild", |b, m| b.free(m, WILD, None)),
            ("misaligned", |b, m| {
                let p = b.alloc(m, 32, None)?;
                b.free(m, p.add(1), None)
            }),
            ("interior", |b, m| {
                let p = b.alloc(m, 32, None)?;
                b.free(m, p.add(16), None)
            }),
            ("interior, multi-page", |b, m| {
                let p = b.alloc(m, 3 * 4096, None)?;
                b.free(m, p.add(4096), None)
            }),
            ("double", |b, m| {
                let p = b.alloc(m, 32, None)?;
                b.free(m, p, None)?;
                b.free(m, p, None)
            }),
            ("wild after a double free", |b, m| {
                let p = b.alloc(m, 32, None)?;
                b.free(m, p, None)?;
                let _ = b.free(m, p, None);
                b.free(m, WILD, None)
            }),
            ("unchecked wild", |b, m| b.free_unchecked(m, WILD, None)),
            ("unchecked interior", |b, m| {
                let p = b.alloc_unchecked(m, 32, None)?;
                b.free_unchecked(m, p.add(16), None)
            }),
            ("checked free of a freed unchecked object", |b, m| {
                let p = b.alloc_unchecked(m, 32, None)?;
                b.free_unchecked(m, p, None)?;
                b.free(m, p, None)
            }),
            ("unchecked free of a freed checked object", |b, m| {
                let p = b.alloc(m, 32, None)?;
                b.free(m, p, None)?;
                b.free_unchecked(m, p, None)
            }),
        ];
        let handles: [(&str, Case); 6] = [
            ("alloc in an unknown pool", |b, m| b.alloc(m, 16, Some(999)).map(drop)),
            ("free into an unknown pool", |b, m| {
                let p = b.alloc(m, 16, None)?;
                b.free(m, p, Some(999))
            }),
            ("destroy an unknown pool", |b, m| b.pool_destroy(m, 999)),
            ("alloc in a destroyed pool", |b, m| {
                let h = b.pool_create(m, 16)?;
                b.pool_destroy(m, h)?;
                b.alloc(m, 16, Some(h)).map(drop)
            }),
            ("free into a destroyed pool", |b, m| {
                let h = b.pool_create(m, 16)?;
                let p = b.alloc(m, 16, Some(h))?;
                b.pool_destroy(m, h)?;
                b.free(m, p, Some(h))
            }),
            ("destroy a pool twice", |b, m| {
                let h = b.pool_create(m, 16)?;
                b.pool_destroy(m, h)?;
                b.pool_destroy(m, h)
            }),
        ];
        for (make, pools) in every_scheme() {
            let mut b = make();
            let mut m = Machine::free_running();
            let cases = frees.iter().chain(handles.iter().filter(|_| pools));
            for (case, call) in cases {
                let r = call(b.as_mut(), &mut m);
                assert!(r.is_err(), "{}: {case} succeeded", b.name());
                if case.contains("wild") {
                    assert_eq!(
                        r,
                        Err(BackendError::InvalidFree { addr: WILD }),
                        "{}: {case}",
                        b.name()
                    );
                }
            }
            let p = b.alloc(&mut m, 16, None).unwrap();
            b.store(&mut m, p, 8, 7).unwrap();
            assert_eq!(b.load(&mut m, p, 8).unwrap(), 7, "{}", b.name());
            b.free(&mut m, p, None).unwrap();
        }
    }

    /// Running out of address space, or of physical frames, ends in a
    /// typed trap on every scheme, never a panic, and leaves the backend
    /// usable: earlier objects still load, the first one frees and its
    /// pool destroys.
    #[test]
    fn exhaustion_returns_typed_traps() {
        let small_va = MachineConfig { virt_pages: 64, ..MachineConfig::default() };
        let few_frames = MachineConfig { phys_frames: 16, ..MachineConfig::default() };
        for (make, pools) in every_scheme() {
            for (limit, config) in [("64 virtual pages", small_va), ("16 frames", few_frames)] {
                let mut b = make();
                let name = b.name();
                let mut m = Machine::with_config(config);
                let pool = if pools { Some(b.pool_create(&mut m, 100).unwrap()) } else { None };
                let mut objects = Vec::new();
                let err = loop {
                    match b.alloc(&mut m, 100, pool) {
                        Ok(p) => {
                            b.store(&mut m, p, 8, objects.len() as u64).unwrap();
                            objects.push(p);
                        }
                        Err(e) => break e,
                    }
                    assert!(objects.len() < 100_000, "{name}, {limit}: never ran out");
                };
                assert!(
                    matches!(
                        err,
                        BackendError::Trap {
                            trap: Trap::OutOfVirtualMemory | Trap::OutOfPhysicalMemory,
                            ..
                        }
                    ),
                    "{name}, {limit}: {err}"
                );
                assert!(objects.len() > 1, "{name}, {limit}: {} objects", objects.len());
                for i in [0, objects.len() - 1] {
                    assert_eq!(b.load(&mut m, objects[i], 8).unwrap(), i as u64, "{name}, {limit}");
                }
                b.free(&mut m, objects[0], pool).unwrap();
                if let Some(h) = pool {
                    b.pool_destroy(&mut m, h).unwrap();
                }
            }
        }
    }
}
