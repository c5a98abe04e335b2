//! # dangle-telemetry — observability substrate for the detector stack
//!
//! The paper's whole evaluation is an observability exercise: Tables 1–3
//! decompose overhead into a *system-call* component and a *TLB-miss*
//! component, and §4.3 measures address-space wastage per connection. This
//! crate gives every layer of the reproduction one API for producing those
//! series, instead of ad-hoc counters scattered through `vmm`, `pool` and
//! the bench binaries:
//!
//! * [`EventRing`] — a fixed-capacity, allocation-free ring buffer of
//!   [`Event`]s (every simulated `mmap`/`mremap`/`mprotect`/`munmap`,
//!   alloc/free, pool free-list hit/miss, and trap), timestamped on the
//!   **simulated** clock. The last N events before a trap become the
//!   GWP-ASan-style context of a [`TrapReport`].
//! * [`MetricsRegistry`] — named counters and log₂-bucketed [`Histogram`]s
//!   with cheap integer [`CounterHandle`]s for hot paths.
//! * [`TrapReport`] — a structured dangling-use report (allocation site,
//!   free site, use site, trailing event context) that serializes to JSON
//!   and parses back.
//! * [`Artifact`] — the `BENCH_<name>.json` export layer used by every
//!   bench binary; subsequent perf PRs regress against these files.
//!
//! The whole crate is dependency-free (hand-rolled [`json`] layer). The
//! sink is always on: it records on the host side and charges no
//! *simulated* cycle, so it never moves the paper's clock. Only the span
//! tracer ([`TelemetryConfig::tracing`]) is optional.

pub mod artifact;
pub mod json;
pub mod metrics;
pub mod report;
pub mod ring;
pub mod span;

pub use artifact::Artifact;
pub use json::{Json, JsonError};
pub use metrics::{
    CounterHandle, Histogram, HistogramHandle, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use report::TrapReport;
pub use ring::{Event, EventKind, EventRing};
pub use span::{Category, Charge, SpanId, SpanTracer};

/// Construction-time knobs for a [`Telemetry`] instance.
///
/// `Copy` so it can ride inside `MachineConfig` without breaking that
/// struct's `Copy` bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Capacity of the event ring (events kept for trap context).
    pub ring_capacity: usize,
    /// Span tracing + cycle attribution (the flight recorder). Off by
    /// default: tracing is host-side bookkeeping only — it charges zero
    /// *simulated* cycles either way, so enabling it never perturbs the
    /// paper's tables — but the aggregation work is real host time, so
    /// production-shaped runs leave it off.
    pub tracing: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { ring_capacity: 256, tracing: false }
    }
}

impl TelemetryConfig {
    /// The default configuration with the flight recorder on.
    pub fn traced() -> Self {
        TelemetryConfig { tracing: true, ..TelemetryConfig::default() }
    }
}

/// The per-machine telemetry sink: one event ring plus one metrics
/// registry. Owned by `dangle_vmm::Machine`; every layer above reaches it
/// through `machine.telemetry_mut()`.
#[derive(Clone, Debug)]
pub struct Telemetry {
    ring: EventRing,
    metrics: MetricsRegistry,
    /// The flight recorder; `Some` only when [`TelemetryConfig::tracing`].
    tracer: Option<SpanTracer>,
    /// Shadow call stack maintained by the MiniC interpreter (function
    /// names, outermost first): the first `depth` entries. Feeds
    /// alloc/free/use provenance in [`TrapReport`]s. Entries past `depth`
    /// are popped frames whose storage the next pushes overwrite, so a
    /// warm stack allocates nothing per call.
    calls: Vec<String>,
    /// Live frames of `calls`.
    depth: u32,
    /// Frames on top of the stack that an aborted run left for its trap
    /// report; the next run drops them first. Two `u32`s take the room
    /// one `usize` took, so the sink that `Machine` embeds keeps its size.
    stale_calls: u32,
    /// The `event.<kind>` counter of each [`EventKind`], by
    /// [`EventKind::index`], as its registry index plus one; 0 until the
    /// kind is first recorded, so counters register in the order they
    /// always did. One byte each keeps the sink small: `Machine` embeds
    /// it, and the bytecode VM's loop is sensitive to that struct's size.
    event_counters: [u8; EventKind::COUNT],
    /// The counter of each [`HotCounter`], cached the same way.
    hot_counters: [u8; HotCounter::COUNT],
}

/// A counter that another layer bumps on a hot path, through
/// [`Telemetry::hot_add`]. Its handle is cached in the sink, so each
/// machine resolves it in its own registry once, and no name is looked up
/// per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotCounter {
    /// `pool.pages_recycled`: pages the pool runtime's shared free list
    /// served.
    PoolPagesRecycled,
    /// `pool.pages_fresh`: pages a pool run had to map fresh.
    PoolPagesFresh,
    /// `shadow.elided`: allocations and frees the detector left
    /// unprotected because the lint proved their site safe.
    ShadowElided,
    /// `core.pages_protected`: shadow pages a checked free protected.
    CorePagesProtected,
}

impl HotCounter {
    const COUNT: usize = 4;

    /// The registry name of this counter.
    pub fn name(self) -> &'static str {
        match self {
            HotCounter::PoolPagesRecycled => "pool.pages_recycled",
            HotCounter::PoolPagesFresh => "pool.pages_fresh",
            HotCounter::ShadowElided => "shadow.elided",
            HotCounter::CorePagesProtected => "core.pages_protected",
        }
    }
}

/// The handle `cached` holds (a registry index plus one, 0 until first
/// use), resolving `name` in `metrics` on first use. A registry index past
/// 254 is not cached; that counter keeps going by name.
fn cached_handle(metrics: &mut MetricsRegistry, cached: &mut u8, name: &str) -> CounterHandle {
    match *cached {
        0 => {
            let h = metrics.counter_handle(name);
            *cached = u8::try_from(h.0 + 1).unwrap_or(0);
            h
        }
        i => CounterHandle(usize::from(i) - 1),
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// Builds a sink; the ring is allocated once here (recording never
    /// allocates).
    pub fn new(config: TelemetryConfig) -> Self {
        let tracer = if config.tracing { Some(SpanTracer::new()) } else { None };
        Telemetry {
            ring: EventRing::new(config.ring_capacity),
            metrics: MetricsRegistry::new(),
            tracer,
            calls: Vec::new(),
            depth: 0,
            stale_calls: 0,
            event_counters: [0; EventKind::COUNT],
            hot_counters: [0; HotCounter::COUNT],
        }
    }

    /// Is the flight recorder live?
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The flight recorder's read side, when tracing.
    pub fn tracer(&self) -> Option<&SpanTracer> {
        self.tracer.as_ref()
    }

    /// Enters a span at simulated time `clock`. One branch when tracing
    /// is off.
    pub fn span_enter(&mut self, name: &str, category: Category, clock: u64) {
        if let Some(t) = self.tracer.as_mut() {
            t.enter(name, category, clock);
        }
    }

    /// Exits the innermost span, returning its inclusive duration in
    /// simulated cycles (`None` when tracing is off).
    pub fn span_exit(&mut self, clock: u64) -> Option<u64> {
        self.tracer.as_mut().map(|t| t.exit(clock))
    }

    /// Folds `cycles` into the live span and the attribution table. The
    /// simulator's clock funnel calls this on every advance.
    pub fn charge(&mut self, cycles: u64, charge: Charge) {
        if let Some(t) = self.tracer.as_mut() {
            t.charge(cycles, charge);
        }
    }

    /// Pushes a function name onto the shadow call stack (the MiniC
    /// interpreter calls this on entry to every function). The name is
    /// copied into a popped frame's storage when there is one.
    pub fn push_call(&mut self, name: &str) {
        match self.calls.get_mut(self.depth as usize) {
            Some(frame) => {
                frame.clear();
                frame.push_str(name);
            }
            None => self.calls.push(name.to_string()),
        }
        self.depth += 1;
    }

    /// Pops the shadow call stack (interpreter function exit).
    pub fn pop_call(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// The current shadow call stack, outermost first.
    pub fn call_stack(&self) -> &[String] {
        &self.calls[..self.depth as usize]
    }

    /// Marks the top `n` frames of the shadow call stack as left behind
    /// by an aborted run. They stay readable, so a trap report taken after
    /// the run still carries the faulting stack, until
    /// [`Telemetry::drop_stale_calls`].
    pub fn mark_stale_calls(&mut self, n: usize) {
        let stale = (self.stale_calls as usize).saturating_add(n).min(self.depth as usize);
        // At most `depth`, so the cast is lossless.
        self.stale_calls = stale as u32;
    }

    /// Pops the frames [`Telemetry::mark_stale_calls`] marked (the
    /// interpreter calls this as each run starts).
    pub fn drop_stale_calls(&mut self) {
        self.depth = self.depth.saturating_sub(self.stale_calls);
        self.stale_calls = 0;
    }

    /// Records one event at simulated time `clock`, and bumps the
    /// per-kind event counter (`event.<kind>`) in the registry.
    pub fn record(&mut self, clock: u64, addr: u64, kind: EventKind) {
        self.ring.push(Event { clock, addr, kind });
        let cached = &mut self.event_counters[kind.index()];
        let handle = cached_handle(&mut self.metrics, cached, kind.counter_name());
        self.metrics.add(handle, 1);
    }

    /// Adds to a [`HotCounter`] (registering it on first use).
    pub fn hot_add(&mut self, counter: HotCounter, delta: u64) {
        let cached = &mut self.hot_counters[counter as usize];
        let handle = cached_handle(&mut self.metrics, cached, counter.name());
        self.metrics.add(handle, delta);
    }

    /// Adds to a named counter (registering it on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        self.metrics.add_named(name, delta);
    }

    /// Records one observation in a named log₂ histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.metrics.observe_named(name, value);
    }

    /// Current value of a named counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter_value(name)
    }

    /// The event ring (read side).
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The registry (read side).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The registry (write side) — for callers that want raw handles.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Copies the last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        self.ring.tail(n)
    }

    /// Point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_is_off_by_default_and_wires_through() {
        let mut t = Telemetry::default();
        assert!(!t.tracing());
        assert!(t.span_exit(10).is_none());
        t.charge(5, Charge::Plain); // no-op, must not panic

        let mut traced = Telemetry::new(TelemetryConfig::traced());
        assert!(traced.tracing());
        traced.span_enter("req", Category::App, 0);
        traced.charge(7, Charge::Plain);
        assert_eq!(traced.span_exit(7), Some(7));
        assert_eq!(traced.tracer().unwrap().total(), 7);
    }

    #[test]
    fn call_stack_tracks_push_pop() {
        let mut t = Telemetry::default();
        t.push_call("main");
        t.push_call("handler");
        assert_eq!(t.call_stack(), ["main", "handler"]);
        t.pop_call();
        assert_eq!(t.call_stack(), ["main"]);
    }

    #[test]
    fn pushes_reuse_popped_frames() {
        let mut t = Telemetry::default();
        t.push_call("main");
        t.push_call("a_long_handler_name");
        t.pop_call();
        let storage = t.calls[1].as_ptr();
        t.push_call("short");
        assert_eq!(t.call_stack(), ["main", "short"]);
        assert_eq!(t.calls[1].as_ptr(), storage, "the popped frame's storage is reused");
        t.pop_call();
        t.pop_call();
        t.pop_call();
        assert!(t.call_stack().is_empty(), "popping an empty stack is a no-op");
        t.push_call("again");
        assert_eq!(t.call_stack(), ["again"]);
    }

    #[test]
    fn stale_calls_stay_readable_until_dropped() {
        let mut t = Telemetry::default();
        t.push_call("outer");
        t.push_call("main");
        t.push_call("handler");
        t.mark_stale_calls(2);
        assert_eq!(t.call_stack(), ["outer", "main", "handler"]);
        t.drop_stale_calls();
        assert_eq!(t.call_stack(), ["outer"]);
        t.drop_stale_calls();
        assert_eq!(t.call_stack(), ["outer"], "dropping twice is a no-op");
    }

    #[test]
    fn event_counters_register_in_first_use_order() {
        let mut t = Telemetry::default();
        t.counter_add("first", 1);
        t.record(1, 0, EventKind::Munmap { pages: 1 });
        t.counter_add("second", 1);
        t.record(2, 0, EventKind::Mmap { pages: 1 });
        t.record(3, 0, EventKind::Munmap { pages: 2 });
        let names: Vec<_> = t.snapshot().counters.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["first", "event.munmap", "second", "event.mmap"]);
        assert_eq!(t.counter("event.munmap"), 2);
    }

    #[test]
    fn hot_counters_keep_names_and_registration_order() {
        let mut t = Telemetry::default();
        t.counter_add("first", 1);
        t.hot_add(HotCounter::ShadowElided, 1);
        t.hot_add(HotCounter::CorePagesProtected, 3);
        t.hot_add(HotCounter::ShadowElided, 1);
        t.counter_add("shadow.elided", 1);
        let names: Vec<_> = t.snapshot().counters.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["first", "shadow.elided", "core.pages_protected"]);
        assert_eq!(t.counter("shadow.elided"), 3, "by handle and by name, one counter");
        assert_eq!(t.counter("core.pages_protected"), 3);
    }

    /// The cached handles live in the sink's tail padding: `Machine`
    /// embeds the sink, and the bytecode VM's loop is sensitive to that
    /// struct's size.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn handle_caches_keep_the_sink_size() {
        assert_eq!(std::mem::size_of::<Telemetry>(), 232);
    }

    #[test]
    fn record_bumps_per_kind_counter() {
        let mut t = Telemetry::default();
        t.record(5, 0x40, EventKind::Mmap { pages: 2 });
        t.record(9, 0x80, EventKind::Mmap { pages: 1 });
        t.record(12, 0x80, EventKind::Trap);
        assert_eq!(t.counter("event.mmap"), 2);
        assert_eq!(t.counter("event.trap"), 1);
        assert_eq!(t.ring().len(), 3);
        let tail = t.tail(2);
        assert_eq!(tail[0].clock, 9);
        assert_eq!(tail[1].clock, 12);
    }
}
