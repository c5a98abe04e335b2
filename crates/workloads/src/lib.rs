//! # dangle-workloads — the evaluation programs
//!
//! The paper evaluates on three program families whose *allocation
//! behaviour* drives all of its results:
//!
//! 1. **Unix utilities** (enscript, jwhois, patch, gzip) — moderate
//!    allocation rates ([`apps`]);
//! 2. **Server daemons** (ghttpd, wu-ftpd, fingerd, tftpd, telnetd) — few
//!    allocations per connection, many accesses, fork-per-connection
//!    lifetimes ([`servers`]);
//! 3. **The Olden suite** (bh, bisort, em3d, health, mst, perimeter,
//!    power, treeadd, tsp) — pointer-chasing, allocation-intensive kernels
//!    ([`olden_trees`], [`olden_sort`], [`olden_graph`], [`olden_sim`]).
//!
//! The original binaries and inputs are not reproducible, so each workload
//! here is a **behaviourally calibrated re-implementation**: real,
//! deterministic computations (returning checksums that must agree across
//! every backend) whose data structures live entirely in *simulated* memory
//! and whose ratio of (de)allocations to memory accesses matches the
//! published characterization. Pool scopes are placed by hand exactly where
//! `dangle-apa`'s analysis would place them (one pool per recursive data
//! structure, created in the function that owns the structure) — the same
//! contract, without forcing every workload through MiniC.
//!
//! Every workload runs against any [`Backend`], so a single implementation
//! yields every column of Tables 1–3.

pub mod apps;
pub mod concurrent;
pub mod olden_graph;
pub mod olden_sim;
pub mod olden_sort;
pub mod olden_trees;
pub mod servers;

use dangle_interp::backend::{Backend, BackendError, PoolHandle};
use dangle_telemetry::Category;
use dangle_vmm::{Machine, VirtAddr};

/// Name of the per-request latency histogram fed by
/// [`Ctx::request_exit`]. Only populated when the flight recorder is on,
/// so Tables 1–3 snapshots are unaffected by default.
pub const REQUEST_HISTOGRAM: &str = "request.cycles";

/// Result alias used throughout the workloads.
pub type WResult<T> = Result<T, BackendError>;

/// A runnable evaluation program.
pub trait Workload {
    /// The benchmark's name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Executes the workload, returning a checksum of its observable
    /// result. The checksum must be identical across all backends — the
    /// integration tests rely on this to prove the schemes don't change
    /// program semantics.
    ///
    /// # Errors
    /// Propagates [`BackendError`]; a correct workload never triggers a
    /// detection.
    fn run(&self, machine: &mut Machine, backend: &mut dyn Backend) -> WResult<u64>;
}

/// Execution context threading the machine and backend through workload
/// code, with field-indexed accessors mirroring C struct access
/// (`node->field`).
pub struct Ctx<'m, 'b> {
    /// The simulated machine.
    pub machine: &'m mut Machine,
    /// The allocator scheme under test.
    pub backend: &'b mut dyn Backend,
}

impl<'m, 'b> Ctx<'m, 'b> {
    /// Creates a context.
    pub fn new(machine: &'m mut Machine, backend: &'b mut dyn Backend) -> Ctx<'m, 'b> {
        Ctx { machine, backend }
    }

    /// `malloc(fields * 8)` from `pool`.
    ///
    /// # Errors
    /// Propagates allocation failures.
    pub fn alloc(&mut self, fields: usize, pool: Option<PoolHandle>) -> WResult<VirtAddr> {
        self.backend.alloc(self.machine, fields * 8, pool)
    }

    /// `malloc(bytes)` from `pool` (for buffers).
    ///
    /// # Errors
    /// Propagates allocation failures.
    pub fn alloc_bytes(
        &mut self,
        bytes: usize,
        pool: Option<PoolHandle>,
    ) -> WResult<VirtAddr> {
        self.backend.alloc(self.machine, bytes, pool)
    }

    /// `free(p)` into `pool`.
    ///
    /// # Errors
    /// Propagates free failures (a double free would surface here).
    pub fn free(&mut self, addr: VirtAddr, pool: Option<PoolHandle>) -> WResult<()> {
        self.backend.free(self.machine, addr, pool)
    }

    /// `poolinit`.
    ///
    /// # Errors
    /// Propagates backend errors.
    pub fn pool_create(&mut self, elem_fields: usize) -> WResult<PoolHandle> {
        self.backend.pool_create(self.machine, elem_fields * 8)
    }

    /// `pooldestroy`.
    ///
    /// # Errors
    /// Propagates backend errors.
    pub fn pool_destroy(&mut self, pool: PoolHandle) -> WResult<()> {
        self.backend.pool_destroy(self.machine, pool)
    }

    /// Reads `node->field` (8-byte field at index `field`).
    ///
    /// # Errors
    /// A dangling access surfaces here as a detection.
    pub fn get(&mut self, node: VirtAddr, field: usize) -> WResult<u64> {
        self.backend.load(self.machine, node.add(field as u64 * 8), 8)
    }

    /// Writes `node->field = value`.
    ///
    /// # Errors
    /// A dangling access surfaces here as a detection.
    pub fn put(&mut self, node: VirtAddr, field: usize, value: u64) -> WResult<()> {
        self.backend.store(self.machine, node.add(field as u64 * 8), 8, value)
    }

    /// Reads byte `i` of a buffer.
    ///
    /// # Errors
    /// As for [`Ctx::get`].
    pub fn get_u8(&mut self, buf: VirtAddr, i: usize) -> WResult<u8> {
        Ok(self.backend.load(self.machine, buf.add(i as u64), 1)? as u8)
    }

    /// Writes byte `i` of a buffer.
    ///
    /// # Errors
    /// As for [`Ctx::put`].
    pub fn put_u8(&mut self, buf: VirtAddr, i: usize, v: u8) -> WResult<()> {
        self.backend.store(self.machine, buf.add(i as u64), 1, v as u64)
    }

    /// Bulk `memset` of a simulated buffer.
    ///
    /// # Errors
    /// As for [`Ctx::put`].
    pub fn memset(&mut self, buf: VirtAddr, byte: u8, len: usize) -> WResult<()> {
        self.backend.memset(self.machine, buf, byte, len)
    }

    /// Models CPU-only work (no memory traffic). Routed through the
    /// backend so binary-instrumentation schemes (Valgrind) can scale it —
    /// their JIT slows *all* computation, not just memory operations.
    pub fn compute(&mut self, cycles: u64) {
        self.backend.compute(self.machine, cycles);
    }

    /// Models time spent blocked in the kernel or on the network (file
    /// reads, socket round-trips). No user-space detector — hardware or
    /// software — pays anything extra here.
    pub fn io_wait(&mut self, cycles: u64) {
        self.machine.tick(cycles);
    }

    /// Opens an application-level flight-recorder span (one connection,
    /// request, command...). One branch when tracing is off.
    pub fn span_enter(&mut self, name: &str) {
        self.machine.span_enter(name, Category::App);
    }

    /// Closes the innermost span without latency accounting (connection
    /// and session scopes).
    pub fn span_exit(&mut self) {
        self.machine.span_exit();
    }

    /// Closes the innermost span and folds its inclusive duration into the
    /// [`REQUEST_HISTOGRAM`] latency histogram — the per-request series
    /// behind the snapshot's p50/p99/p999.
    pub fn request_exit(&mut self) {
        if let Some(cycles) = self.machine.span_exit() {
            self.machine.telemetry_mut().observe(REQUEST_HISTOGRAM, cycles);
        }
    }
}

/// A tiny deterministic PRNG (xorshift*), used instead of `rand` inside
/// workloads so every backend sees the *identical* operation sequence.
///
/// A thin veneer over [`dangle_testkit::SeededRng`] — the same xorshift64*
/// the sampling policy and the test suites draw from, so the tree has
/// exactly one seeded-RNG implementation. The delegation is bit-identical
/// to the previous hand-rolled body (same shifts, same multiplier, same
/// zero-seed clamping), so every workload sequence, checksum and paper
/// table is unchanged.
#[derive(Clone, Debug)]
pub struct Prng(dangle_testkit::SeededRng);

impl Prng {
    /// Creates a generator from a non-zero seed.
    pub fn new(seed: u64) -> Prng {
        Prng(dangle_testkit::SeededRng::new(seed))
    }

    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next()
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.0.below(bound)
    }
}

/// Mixes a value into a running checksum (FNV-style).
pub fn mix(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x100_0000_01b3)
}

/// The full Olden suite at benchmark scale, in the paper's Table 3 order.
pub fn olden_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(olden_sim::Bh::default()),
        Box::new(olden_sort::Bisort::default()),
        Box::new(olden_graph::Em3d::default()),
        Box::new(olden_sim::Health::default()),
        Box::new(olden_graph::Mst::default()),
        Box::new(olden_trees::Perimeter::default()),
        Box::new(olden_trees::Power::default()),
        Box::new(olden_trees::TreeAdd::default()),
        Box::new(olden_sort::Tsp::default()),
    ]
}

/// The four Unix utilities of Tables 1 and 2.
pub fn utilities() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(apps::Enscript::default()),
        Box::new(apps::Jwhois::default()),
        Box::new(apps::Patch::default()),
        Box::new(apps::Gzip::default()),
    ]
}

/// The server daemons of Table 1 (plus telnetd, discussed in the text).
pub fn server_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(servers::Ghttpd::default()),
        Box::new(servers::Ftpd::default()),
        Box::new(servers::Fingerd::default()),
        Box::new(servers::Tftpd::default()),
        Box::new(servers::Telnetd::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!(Prng::new(7).below(10) < 10);
    }

    /// The delegation to `dangle_testkit::SeededRng` must keep the exact
    /// sequences the old hand-rolled xorshift* produced — workload
    /// checksums (and with them the paper tables) depend on it.
    #[test]
    fn prng_sequences_match_the_original_xorshift() {
        for seed in [0u64, 1, 7, 42, 0x9a7c, u64::MAX] {
            let mut state = seed.max(1);
            let mut rng = Prng::new(seed);
            for _ in 0..200 {
                let mut x = state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                state = x;
                let expect = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                assert_eq!(rng.next_u64(), expect, "seed {seed}");
            }
        }
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(mix(0, 1), 2), mix(mix(0, 2), 1));
    }

    #[test]
    fn suites_have_paper_counts() {
        assert_eq!(olden_suite().len(), 9);
        assert_eq!(utilities().len(), 4);
        assert_eq!(server_suite().len(), 5);
    }
}
