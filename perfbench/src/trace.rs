//! The traced run's instrument: a [`Backend`] decorator that times every
//! call into the detector (host clock) and records the simulated-clock rise
//! across it, aggregated into one span per op and layer.

use dangle::interp::backend::{Backend, BackendError, NativeBackend, PoolHandle};
use dangle::vmm::{Machine, MachineConfig, Trap, VirtAddr};
use std::hint::black_box;
use std::time::Instant;

/// The layers below the backend boundary. `core.*` covers the detector's
/// calls with the pool, heap and syscalls beneath them; `vmm.*` covers the
/// program's own loads, stores and bulk transfers.
pub const LAYERS: [&str; 6] = [
    "core.alloc",
    "core.free",
    "core.pool_create",
    "core.pool_destroy",
    "vmm.access",
    "vmm.bulk",
];

const ALLOC: usize = 0;
const FREE: usize = 1;
const POOL_CREATE: usize = 2;
const POOL_DESTROY: usize = 3;
const ACCESS: usize = 4;
const BULK: usize = 5;

/// Calls into one layer during one op: an aggregated span.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSpan {
    pub calls: u64,
    /// Host nanoseconds inside the calls, as measured (before the
    /// clock-read correction).
    pub busy_ns: u64,
    pub sim_cycles: u64,
    /// Bytes moved (bulk transfers only).
    pub bytes: u64,
    /// Start of the first call and end of the last, in nanoseconds since
    /// the decorator's origin (the start of the pass).
    pub first_ns: u64,
    pub last_ns: u64,
}

/// One op's record: its host interval and one aggregated span per layer.
#[derive(Clone, Copy, Debug)]
pub struct OpSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    pub layers: [LayerSpan; 6],
}

/// What a traced pass recorded.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Per-layer totals over the pass.
    pub totals: [LayerSpan; 6],
    /// Allocations the lint stamped `unchecked`.
    pub unchecked_allocs: u64,
    pub spans: Vec<OpSpan>,
}

impl Record {
    /// Host nanoseconds inside the ops `keep` selects but outside every
    /// backend call: the interpreter's or workload driver's self time, with
    /// the decorator's own cost taken out. Each op interval holds about one
    /// clock read of its own (`cost.inside_ns`); each call holds
    /// `cost.inside_ns` in its own interval and adds `cost.outside_ns` more
    /// to the op's.
    pub fn self_ns(&self, keep: impl Fn(usize) -> bool, cost: &Cost) -> f64 {
        let own: f64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, op)| {
                let calls: u64 = op.layers.iter().map(|s| s.calls).sum();
                let busy: u64 = op.layers.iter().map(|s| s.busy_ns).sum();
                (op.end_ns - op.start_ns) as f64
                    - cost.inside_ns
                    - busy as f64
                    - cost.outside_ns * calls as f64
            })
            .sum();
        own.max(0.0)
    }

    /// A layer's host nanoseconds with the decorator's clock reads taken out.
    pub fn layer_ns(&self, layer: usize, cost: &Cost) -> f64 {
        let s = self.totals[layer];
        (s.busy_ns as f64 - cost.inside_ns * s.calls as f64).max(0.0)
    }
}

/// Wraps a backend and records, per op and layer, the calls made through
/// it. Spans stay in memory until the run writes them out.
pub struct Traced<'b> {
    inner: &'b mut dyn Backend,
    origin: Instant,
    /// Spans of the op in progress.
    current: [LayerSpan; 6],
    record: Record,
}

impl<'b> Traced<'b> {
    /// Span times count from `origin`.
    pub fn new(inner: &'b mut dyn Backend, origin: Instant) -> Traced<'b> {
        Traced {
            inner,
            origin,
            current: [LayerSpan::default(); 6],
            record: Record::default(),
        }
    }

    /// Closes the op that ran from `start` to `end`.
    pub fn end_op(&mut self, start: Instant, end: Instant) {
        for (total, s) in self.record.totals.iter_mut().zip(&self.current) {
            total.calls += s.calls;
            total.busy_ns += s.busy_ns;
            total.sim_cycles += s.sim_cycles;
            total.bytes += s.bytes;
        }
        self.record.spans.push(OpSpan {
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            layers: self.current,
        });
        self.current = [LayerSpan::default(); 6];
    }

    pub fn finish(self) -> Record {
        self.record
    }

    #[inline]
    fn timed<T>(
        &mut self,
        layer: usize,
        bytes: usize,
        machine: &mut Machine,
        call: impl FnOnce(&mut dyn Backend, &mut Machine) -> T,
    ) -> T {
        let clock = machine.clock();
        let start = Instant::now();
        let out = call(&mut *self.inner, machine);
        let end = Instant::now();
        let span = &mut self.current[layer];
        if span.calls == 0 {
            span.first_ns = (start - self.origin).as_nanos() as u64;
        }
        span.last_ns = (end - self.origin).as_nanos() as u64;
        span.calls += 1;
        span.busy_ns += (end - start).as_nanos() as u64;
        span.sim_cycles += machine.clock() - clock;
        span.bytes += bytes as u64;
        out
    }
}

impl Backend for Traced<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.timed(ALLOC, 0, machine, |b, m| b.alloc(m, size, pool))
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.timed(FREE, 0, machine, |b, m| b.free(m, addr, pool))
    }

    fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.record.unchecked_allocs += 1;
        self.timed(ALLOC, 0, machine, |b, m| b.alloc_unchecked(m, size, pool))
    }

    fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.timed(FREE, 0, machine, |b, m| b.free_unchecked(m, addr, pool))
    }

    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        self.timed(POOL_CREATE, 0, machine, |b, m| b.pool_create(m, elem_hint))
    }

    fn pool_destroy(
        &mut self,
        machine: &mut Machine,
        pool: PoolHandle,
    ) -> Result<(), BackendError> {
        self.timed(POOL_DESTROY, 0, machine, |b, m| b.pool_destroy(m, pool))
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        self.timed(ACCESS, 0, machine, |b, m| b.load(m, addr, width))
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        self.timed(ACCESS, 0, machine, |b, m| b.store(m, addr, width, value))
    }

    fn load_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), BackendError> {
        let len = buf.len();
        self.timed(BULK, len, machine, |b, m| b.load_bytes(m, addr, buf))
    }

    fn store_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &[u8],
    ) -> Result<(), BackendError> {
        self.timed(BULK, buf.len(), machine, |b, m| b.store_bytes(m, addr, buf))
    }

    fn memset(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        byte: u8,
        len: usize,
    ) -> Result<(), BackendError> {
        self.timed(BULK, len, machine, |b, m| b.memset(m, addr, byte, len))
    }

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.inner.explain(trap)
    }

    fn compute(&mut self, machine: &mut Machine, cycles: u64) {
        self.inner.compute(machine, cycles);
    }
}

/// What the decorator itself costs per call, in host nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Inside the call's own timed interval: about one clock read.
    pub inside_ns: f64,
    /// Outside it, so in the caller's time: the other clock read, both
    /// simulated-clock reads and the span bookkeeping.
    pub outside_ns: f64,
}

/// Measures [`Cost`] by timing whole [`Traced::timed`] round trips over a
/// no-op call: the best of several back-to-back batches. One virtual call
/// per traced call, into the decorator, is not in it.
pub fn calibrate() -> Cost {
    const CALLS: u32 = 20_000;
    let mut machine = Machine::with_config(MachineConfig::default());
    let mut inner = NativeBackend::new();
    let batch = |inner: &mut NativeBackend, machine: &mut Machine| {
        let mut traced = Traced::new(inner, Instant::now());
        let start = Instant::now();
        for _ in 0..CALLS {
            traced.timed(ACCESS, 0, machine, |_, _| black_box(()));
        }
        let round_trip = start.elapsed().as_nanos() as f64 / f64::from(CALLS);
        let inside = traced.current[ACCESS].busy_ns as f64 / f64::from(CALLS);
        (round_trip, inside)
    };
    let (round_trip, inside) = (0..7)
        .map(|_| batch(&mut inner, &mut machine))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("seven batches");
    Cost {
        inside_ns: inside,
        outside_ns: (round_trip - inside).max(0.0),
    }
}
