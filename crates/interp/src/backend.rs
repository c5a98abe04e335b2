//! Execution backends: every allocator scheme of the workspace behind one
//! interface.
//!
//! The interpreter (and the workload programs in `dangle-workloads`) issue
//! four kinds of events: allocate, free, load, store — plus pool
//! create/destroy for pool-transformed programs. A [`Backend`] maps those
//! events onto one of the schemes under study:
//!
//! | backend | scheme | Table 1/3 column |
//! |---|---|---|
//! | [`NativeBackend`] | plain `malloc` | native / LLVM base |
//! | [`PoolBackend`] | Automatic Pool Allocation only | PA |
//! | [`PoolBackend::with_dummy_syscalls`] | PA + no-op kernel crossings | PA + dummy syscalls |
//! | [`ShadowPoolBackend`] | **the paper's approach** (sharded per core when configured) | Our approach |
//! | [`ArenaBackend`] | per-core `malloc` arenas, no detector | — (multi-core native) |
//! | [`ShadowBackend`] | Insight 1 only (no pools, no VA reuse) | — (debug mode) |
//! | [`EFenceBackend`] | Electric Fence | §5.3 comparison |
//! | [`MemcheckBackend`] | Valgrind-style | Table 2 |
//! | [`CapabilityBackend`] | SafeC/Xu-style | §5.2 comparison |

use dangle_baselines::{CapabilityChecker, CheckError, CheckedMemory, EFence, Memcheck};
use dangle_core::{DetectorConfig, ShadowConfig, ShadowHeap, ShardedShadowPool};
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

fn from_check(e: CheckError) -> BackendError {
    match e {
        CheckError::Trap(t) => BackendError::Trap { trap: t, report: None },
        CheckError::Dangling { addr } => BackendError::SoftwareDetection { addr },
    }
}

/// The unified allocator/memory interface. See the [module docs](self).
pub trait Backend {
    /// Scheme name for reports ("native", "pa", "shadow-pool", ...).
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
    /// Double frees surface as detections where the scheme supports it.
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

    /// Creates a pool (`poolinit`). Non-pool schemes return a dummy handle.
    ///
    /// # Errors
    /// [`BackendError::Other`] if the scheme cannot create pools.
    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError>;

    /// Destroys a pool (`pooldestroy`). A no-op for non-pool schemes.
    ///
    /// # Errors
    /// [`BackendError::Other`] for invalid handles.
    fn pool_destroy(
        &mut self,
        machine: &mut Machine,
        pool: PoolHandle,
    ) -> Result<(), BackendError>;

    /// A program-level load (checked by software schemes).
    ///
    /// # Errors
    /// A dangling access surfaces as [`BackendError::Trap`] (MMU schemes)
    /// or [`BackendError::SoftwareDetection`] (software schemes).
    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError>;

    /// A program-level store (checked by software schemes).
    ///
    /// # Errors
    /// As for [`Backend::load`].
    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError>;

    /// A program-level bulk read (`memcpy` out of simulated memory). The
    /// default walks word-at-a-time through [`Backend::load`] so software
    /// checkers still see every access; MMU-backed schemes override it
    /// with [`Machine::read_bytes`], which translates once per page.
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

    /// A program-level `memset`. See [`Backend::load_bytes`] for the
    /// default/override split.
    ///
    /// # Errors
    /// As for [`Backend::store`].
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

/// Bulk-op overrides for MMU-backed schemes: the machine's page-chunked
/// bulk transfers replace the default per-word walk (page protection
/// still traps dangling accesses — chunks never cross a page). `plain`
/// maps traps bare; `explained` attaches the detector's attribution.
macro_rules! mmu_bulk_ops {
    (@map plain, $self:ident, $t:ident) => {
        BackendError::Trap { trap: $t, report: None }
    };
    (@map explained, $self:ident, $t:ident) => {
        BackendError::Trap { report: $self.explain(&$t), trap: $t }
    };
    ($kind:ident) => {
        fn load_bytes(
            &mut self,
            machine: &mut Machine,
            addr: VirtAddr,
            buf: &mut [u8],
        ) -> Result<(), BackendError> {
            machine.read_bytes(addr, buf).map_err(|t| mmu_bulk_ops!(@map $kind, self, t))
        }

        fn store_bytes(
            &mut self,
            machine: &mut Machine,
            addr: VirtAddr,
            buf: &[u8],
        ) -> Result<(), BackendError> {
            machine.write_bytes(addr, buf).map_err(|t| mmu_bulk_ops!(@map $kind, self, t))
        }

        fn memset(
            &mut self,
            machine: &mut Machine,
            addr: VirtAddr,
            byte: u8,
            len: usize,
        ) -> Result<(), BackendError> {
            machine.memset(addr, byte, len).map_err(|t| mmu_bulk_ops!(@map $kind, self, t))
        }
    };
}

// ---------------------------------------------------------------------
// Plain malloc.
// ---------------------------------------------------------------------

/// Plain `malloc`/`free` — the `native` and `LLVM base` configurations.
/// Dangling uses are *not* detected: reads/writes of freed memory silently
/// succeed (and may corrupt other objects), exactly like production C.
#[derive(Debug, Default)]
pub struct NativeBackend {
    heap: SysHeap,
}

impl NativeBackend {
    /// Creates the backend.
    pub fn new() -> NativeBackend {
        NativeBackend::default()
    }

    /// The underlying heap (for stats).
    pub fn heap(&self) -> &SysHeap {
        &self.heap
    }
}

impl Backend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
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
        self.heap.free(machine, addr).map_err(from_alloc)
    }

    fn pool_create(
        &mut self,
        _machine: &mut Machine,
        _elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        Ok(0)
    }

    fn pool_destroy(
        &mut self,
        _machine: &mut Machine,
        _pool: PoolHandle,
    ) -> Result<(), BackendError> {
        Ok(())
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        machine.load(addr, width).map_err(|t| BackendError::Trap { trap: t, report: None })
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        machine
            .store(addr, width, value)
            .map_err(|t| BackendError::Trap { trap: t, report: None })
    }

    mmu_bulk_ops!(plain);
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

    fn handle_to_pool(h: PoolHandle) -> PoolId {
        PoolId(h)
    }

    fn pool_or_global(&mut self, pool: Option<PoolHandle>) -> PoolId {
        match pool {
            Some(h) => Self::handle_to_pool(h),
            None => {
                if self.global_pool.is_none() {
                    self.global_pool = Some(self.pools.create(0));
                }
                self.global_pool.expect("just created")
            }
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
        self.pools.free(machine, p, addr).map_err(from_pool)
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
        self.pools.destroy(machine, Self::handle_to_pool(pool)).map_err(from_pool)
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        machine.load(addr, width).map_err(|t| BackendError::Trap { trap: t, report: None })
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        machine
            .store(addr, width, value)
            .map_err(|t| BackendError::Trap { trap: t, report: None })
    }

    mmu_bulk_ops!(plain);
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
    /// (batching, sampling, §3.4 threshold recycling).
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
        self.heap.free(machine, addr).map_err(|e| match e {
            AllocError::Trap(trap) => BackendError::Trap {
                trap,
                report: self.heap.last_report().map(|r| r.render(self.heap.sites())),
            },
            other => from_alloc(other),
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
        self.heap.free_unchecked(machine, addr).map_err(from_alloc)
    }

    fn pool_create(
        &mut self,
        _machine: &mut Machine,
        _elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        Ok(0)
    }

    fn pool_destroy(
        &mut self,
        _machine: &mut Machine,
        _pool: PoolHandle,
    ) -> Result<(), BackendError> {
        Ok(())
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        machine.load(addr, width).map_err(|t| BackendError::Trap {
            report: self.explain(&t),
            trap: t,
        })
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        machine.store(addr, width, value).map_err(|t| BackendError::Trap {
            report: self.explain(&t),
            trap: t,
        })
    }

    mmu_bulk_ops!(explained);

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.heap.explain(trap).map(|r| r.render(self.heap.sites()))
    }
}

// ---------------------------------------------------------------------
// Shadow pool (the full approach).
// ---------------------------------------------------------------------

/// The paper's production configuration: shadow pages within Automatic Pool
/// Allocation pools, with full virtual-address recycling at `pooldestroy`.
/// The detector is a [`ShardedShadowPool`]: one shard unless configured,
/// and on more, pools owned by the shard of the creating core, traps
/// explained by page-range ownership and destroyed pages crossing shards
/// through an epoch-based free list (see [`dangle_core::sharded`]).
#[derive(Debug, Default)]
pub struct ShadowPoolBackend {
    detector: ShardedShadowPool,
    global_pool: Option<PoolId>,
}

impl ShadowPoolBackend {
    /// Creates the backend: one shard, the paper's configuration.
    pub fn new() -> ShadowPoolBackend {
        ShadowPoolBackend::default()
    }

    /// Creates the backend with an explicit detector configuration (pool
    /// runtime, batching, sampling, shard count).
    pub fn with_config(config: DetectorConfig) -> ShadowPoolBackend {
        ShadowPoolBackend { detector: ShardedShadowPool::with_config(config), global_pool: None }
    }

    /// The detector (for diagnostics and stats).
    pub fn detector(&self) -> &ShardedShadowPool {
        &self.detector
    }

    fn pool_or_global(&mut self, machine: &Machine, pool: Option<PoolHandle>) -> PoolId {
        match pool {
            Some(h) => PoolId(h),
            None => *self.global_pool.get_or_insert_with(|| self.detector.create(machine, 0)),
        }
    }
}

/// The paper's approach sharded across the machine's cores: the
/// constructor of a [`ShadowPoolBackend`] with one detector shard per
/// core.
pub enum ShardedPoolBackend {}

impl ShardedPoolBackend {
    /// Creates a [`ShadowPoolBackend`] with `shards` detector shards.
    // The type only names this constructor; the backend it builds is the
    // one pool backend, so `new` deliberately does not return `Self`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(shards: usize) -> ShadowPoolBackend {
        ShadowPoolBackend::with_config(DetectorConfig { shards, ..DetectorConfig::default() })
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
        let p = self.pool_or_global(machine, pool);
        self.detector.alloc(machine, p, size).map_err(from_pool)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        let p = self.pool_or_global(machine, pool);
        self.detector.free(machine, p, addr).map_err(|e| match e {
            PoolError::Alloc(AllocError::Trap(trap)) => BackendError::Trap {
                trap,
                report: self.detector.render_last_report(),
            },
            other => from_pool(other),
        })
    }

    fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        let p = self.pool_or_global(machine, pool);
        self.detector.alloc_unchecked(machine, p, size).map_err(from_pool)
    }

    fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        let p = self.pool_or_global(machine, pool);
        self.detector.free_unchecked(machine, p, addr).map_err(from_pool)
    }

    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        machine.note_event(VirtAddr::NULL, EventKind::PoolCreate);
        Ok(self.detector.create(machine, elem_hint).0)
    }

    fn pool_destroy(
        &mut self,
        machine: &mut Machine,
        pool: PoolHandle,
    ) -> Result<(), BackendError> {
        self.detector.destroy(machine, PoolId(pool)).map_err(from_pool)
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        machine.load(addr, width).map_err(|t| BackendError::Trap {
            report: self.explain(&t),
            trap: t,
        })
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        machine.store(addr, width, value).map_err(|t| BackendError::Trap {
            report: self.explain(&t),
            trap: t,
        })
    }

    mmu_bulk_ops!(explained);

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.detector.explain_rendered(trap)
    }
}

// ---------------------------------------------------------------------
// Per-core native arenas (multi-core baseline).
// ---------------------------------------------------------------------

/// Plain `malloc` over per-core arenas ([`ArenaHeap`]): the undetected
/// multi-core baseline the sharded detector's overhead is measured
/// against. With one arena this is cycle-identical to [`NativeBackend`].
#[derive(Debug)]
pub struct ArenaBackend {
    heap: ArenaHeap,
}

impl ArenaBackend {
    /// Creates the backend with `arenas` per-core arenas.
    pub fn new(arenas: usize) -> ArenaBackend {
        ArenaBackend { heap: ArenaHeap::new(arenas) }
    }

    /// The underlying heap (for stats).
    pub fn heap(&self) -> &ArenaHeap {
        &self.heap
    }
}

impl Backend for ArenaBackend {
    fn name(&self) -> &'static str {
        "arena"
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
        self.heap.free(machine, addr).map_err(from_alloc)
    }

    fn pool_create(
        &mut self,
        _machine: &mut Machine,
        _elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        Ok(0)
    }

    fn pool_destroy(
        &mut self,
        _machine: &mut Machine,
        _pool: PoolHandle,
    ) -> Result<(), BackendError> {
        Ok(())
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        machine.load(addr, width).map_err(|t| BackendError::Trap { trap: t, report: None })
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        machine
            .store(addr, width, value)
            .map_err(|t| BackendError::Trap { trap: t, report: None })
    }

    mmu_bulk_ops!(plain);
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
            pub fn checker(&self) -> &$inner {
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
                self.inner.free(machine, addr).map_err(from_alloc)
            }

            fn pool_create(
                &mut self,
                _machine: &mut Machine,
                _elem_hint: usize,
            ) -> Result<PoolHandle, BackendError> {
                Ok(0)
            }

            fn pool_destroy(
                &mut self,
                _machine: &mut Machine,
                _pool: PoolHandle,
            ) -> Result<(), BackendError> {
                Ok(())
            }

            fn load(
                &mut self,
                machine: &mut Machine,
                addr: VirtAddr,
                width: usize,
            ) -> Result<u64, BackendError> {
                CheckedMemory::load(&mut self.inner, machine, addr, width).map_err(from_check)
            }

            fn store(
                &mut self,
                machine: &mut Machine,
                addr: VirtAddr,
                width: usize,
                value: u64,
            ) -> Result<(), BackendError> {
                CheckedMemory::store(&mut self.inner, machine, addr, width, value)
                    .map_err(from_check)
            }

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
    /// Creates the backend with an explicit memcheck configuration (e.g. a
    /// scaled-down quarantine for the soundness study).
    pub fn with_config(config: dangle_baselines::memcheck::MemcheckConfig) -> MemcheckBackend {
        MemcheckBackend { inner: Memcheck::with_config(config) }
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

/// Electric Fence (object per page, MMU-checked; §5.3 baseline).
#[derive(Debug, Default)]
pub struct EFenceBackend {
    inner: EFence,
}

impl EFenceBackend {
    /// Creates the backend.
    pub fn new() -> EFenceBackend {
        EFenceBackend::default()
    }

    /// The wrapped allocator (for stats).
    pub fn checker(&self) -> &EFence {
        &self.inner
    }
}

impl Backend for EFenceBackend {
    fn name(&self) -> &'static str {
        "efence"
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
        self.inner.free(machine, addr).map_err(from_alloc)
    }

    fn pool_create(
        &mut self,
        _machine: &mut Machine,
        _elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        Ok(0)
    }

    fn pool_destroy(
        &mut self,
        _machine: &mut Machine,
        _pool: PoolHandle,
    ) -> Result<(), BackendError> {
        Ok(())
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        machine.load(addr, width).map_err(|t| BackendError::Trap { trap: t, report: None })
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        machine
            .store(addr, width, value)
            .map_err(|t| BackendError::Trap { trap: t, report: None })
    }

    mmu_bulk_ops!(plain);
}

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
    /// Cycles per software bounds check (the ICSE'06 paper reports very
    /// low overhead; one compare-and-branch pair).
    check_cost: u64,
    spatial_detections: u64,
}

impl CombinedBackend {
    /// Creates the combined checker.
    pub fn new() -> CombinedBackend {
        CombinedBackend { inner: ShadowPoolBackend::new(), check_cost: 2, spatial_detections: 0 }
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
        machine.tick(self.check_cost);
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

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.inner.explain(trap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// behaviour — whether the backend uses the default per-word walk or
    /// the page-chunked MMU override.
    fn exercise_bulk(backend: &mut dyn Backend, expect_detection: bool) {
        let mut m = Machine::free_running();
        let pool = backend.pool_create(&mut m, 16).unwrap();
        let p = backend.alloc(&mut m, 64, Some(pool)).unwrap();
        let data: Vec<u8> = (0..64u8).map(|i| i ^ 0x5a).collect();
        backend.store_bytes(&mut m, p, &data).unwrap();
        let mut back = vec![0u8; 64];
        backend.load_bytes(&mut m, p, &mut back).unwrap();
        assert_eq!(back, data, "{}: bulk round trip", backend.name());
        backend.memset(&mut m, p, 0x11, 64).unwrap();
        assert_eq!(backend.load(&mut m, p, 8).unwrap(), 0x1111_1111_1111_1111);
        backend.free(&mut m, p, Some(pool)).unwrap();
        let got = backend.load_bytes(&mut m, p, &mut back);
        if expect_detection {
            let err = got.unwrap_err();
            assert!(err.is_detection(), "{}: {err}", backend.name());
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
    fn batched_backends_detect_like_legacy() {
        let batch = dangle_core::BatchConfig { enabled: true, ..Default::default() };
        let heap = ShadowConfig { batch, ..ShadowConfig::default() };
        let pool = DetectorConfig { batch, ..DetectorConfig::default() };
        exercise(&mut ShadowBackend::with_config(heap), true);
        exercise(&mut ShadowPoolBackend::with_config(pool), true);
        exercise_bulk(&mut ShadowBackend::with_config(heap), true);
        exercise_bulk(&mut ShadowPoolBackend::with_config(pool), true);
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
}
