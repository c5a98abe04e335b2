//! perfbench — the dangle benchmark. See README.md for what it measures
//! and why.
//!
//! ```text
//! perfbench --workload <keepalive-vm|olden-alloc|server-mix-4c>
//!           --seconds <s> --trace <0|1> [--seed <n>] [--spans-dir <dir>]
//! ```
//!
//! One run, in one process and one host thread:
//!
//! 1. **Set-up**: the MiniC toolchain (for `keepalive-vm`), a fresh
//!    machine and detector, and a warm-up on the first ops of the default
//!    seed's stream. `setup_s` is the median over the set-ups, one before
//!    each measured pass.
//! 2. **Measured passes**, tracing off, until `--seconds` have passed (at
//!    least [`MIN_PASSES`]): each pass runs the seeded op stream, closed
//!    loop, one op at a time, on one long-lived machine and detector.
//! 3. **Traced passes**: the same stream with the flight recorder on and
//!    the backend wrapped in [`trace::Traced`]. They give the per-layer
//!    metrics.
//! 4. **Native passes**: the same stream on native malloc, for the
//!    overhead ratio and the output check.
//! 5. **Checks**: every simulated number is identical across the passes of
//!    steps 2 and 3, and across those of step 4; every op's output matches
//!    the native pass and every injected UAF is detected as expected; the
//!    five-way cycle attribution plus the IPI-receive gap sums exactly to
//!    the summed core clocks.
//!
//! The last line of standard output is the result object. The exit code
//! is 0 only if every check passed.

mod host;
mod ops;
mod trace;

use dangle::interp::backend::Backend;
use dangle::telemetry::TelemetryConfig;
use dangle::vmm::{Machine, MachineConfig, MachineStats};
use ops::{Op, Outcome, Programs, ToolchainTimes, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Record, Traced, LAYERS};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measured passes repeat until `--seconds` have passed, but at least this
/// often, so that two untraced passes of the seed can be compared.
const MIN_PASSES: usize = 2;
/// Traced passes per run: two, so that the per-layer counts of two traced
/// passes can be compared too.
const TRACED_PASSES: usize = 2;
/// Native passes per run: two, so that the baseline of `overhead_x` is
/// checked for repeatability too.
const NATIVE_PASSES: usize = 2;
/// The simulated clock runs at 1 GHz.
const CYCLES_PER_SECOND: f64 = 1e9;

const USAGE: &str = "usage: perfbench --workload <keepalive-vm|olden-alloc|server-mix-4c> \
                     --seconds <s> --trace <0|1> [--seed <n>] [--spans-dir <dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
            (None, DEFAULT_SEED, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => match value.parse::<u64>() {
                    Ok(s) if s > 0 => seconds = Some(s),
                    _ => return Err(bad("expected a positive integer")),
                },
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad("expected 0 or 1")),
                },
                "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            spans_dir,
        })
    }
}

/// Everything simulated about one pass. The simulator is deterministic
/// and tracing charges no simulated cycles, so this must be identical for
/// every pass of a seed, traced or not.
#[derive(Debug, PartialEq, Eq)]
struct Sim {
    /// Rise of the max core clock across each op.
    op_cycles: Vec<u64>,
    outcomes: Vec<Outcome>,
    core_clocks: Vec<u64>,
    stats: MachineStats,
    /// TLB hits and misses over all cores.
    tlb: (u64, u64),
    va_pages: u64,
    pages_recycled: u64,
    pages_fresh: u64,
    /// Cycles remote cores spent receiving TLB-shootdown IPIs.
    ipi_recv_cycles: u64,
}

impl Sim {
    fn read(m: &Machine, op_cycles: Vec<u64>, outcomes: Vec<Outcome>) -> Sim {
        let t = m.telemetry();
        Sim {
            op_cycles,
            outcomes,
            core_clocks: (0..m.core_count()).map(|c| m.core_clock(c)).collect(),
            stats: *m.stats(),
            tlb: m.tlb_totals(),
            va_pages: m.virt_pages_consumed(),
            pages_recycled: t.counter("pool.pages_recycled"),
            pages_fresh: t.counter("pool.pages_fresh"),
            ipi_recv_cycles: m.stats().shootdown_ipis * m.config().cost.ipi_recv,
        }
    }

    fn max_clock(&self) -> u64 {
        self.core_clocks.iter().copied().max().unwrap_or(0)
    }

    /// Names the first difference from `other`, if any.
    fn diff(&self, other: &Sim) -> Option<String> {
        let ops = self.op_cycles.len().max(other.op_cycles.len());
        if let Some(i) = (0..ops).find(|&i| {
            self.op_cycles.get(i) != other.op_cycles.get(i)
                || self.outcomes.get(i) != other.outcomes.get(i)
        }) {
            return Some(format!("op {i} differs"));
        }
        let fields = [
            ("core clocks", self.core_clocks != other.core_clocks),
            ("machine stats", self.stats != other.stats),
            ("TLB counts", self.tlb != other.tlb),
            ("virtual pages", self.va_pages != other.va_pages),
            (
                "pages recycled",
                self.pages_recycled != other.pages_recycled,
            ),
            ("pages fresh", self.pages_fresh != other.pages_fresh),
        ];
        fields
            .iter()
            .find(|(_, differs)| *differs)
            .map(|(name, _)| format!("{name} differ"))
    }
}

struct Pass {
    wall_s: f64,
    /// Host nanoseconds of each op.
    op_ns: Vec<u64>,
    sim: Sim,
    /// Resident-set growth across the pass's ops, KiB.
    rss_growth_kb: u64,
    /// Traced passes only: the layer spans and the five-way attribution.
    trace: Option<(Record, Vec<(&'static str, u64)>)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Detector,
    Traced,
    Native,
}

fn machine(workload: Workload, traced: bool) -> Machine {
    Machine::with_config(MachineConfig {
        cores: workload.cores(),
        telemetry: if traced {
            TelemetryConfig::traced()
        } else {
            TelemetryConfig::default()
        },
        ..MachineConfig::default()
    })
}

/// The backend a pass drives: the detector or native malloc as built, or
/// the detector behind the tracing decorator.
enum Driven<'b> {
    Plain(&'b mut dyn Backend),
    Traced(Box<Traced<'b>>),
}

impl Driven<'_> {
    fn backend(&mut self) -> &mut dyn Backend {
        match self {
            Driven::Plain(b) => *b,
            Driven::Traced(t) => t.as_mut(),
        }
    }
}

/// Runs one pass of the op stream on a fresh machine and backend.
fn run_pass(w: Workload, ops: &[Op], programs: &Programs, mode: Mode) -> Pass {
    let mut m = machine(w, mode == Mode::Traced);
    let mut backend = if mode == Mode::Native {
        w.native()
    } else {
        w.detector()
    };
    let mut op_cycles = Vec::with_capacity(ops.len());
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut op_ns = Vec::with_capacity(ops.len());
    let rss_before = host::memory_kb().rss;
    let start = Instant::now();
    let mut driven = if mode == Mode::Traced {
        Driven::Traced(Box::new(Traced::new(backend.as_mut(), start)))
    } else {
        Driven::Plain(backend.as_mut())
    };
    for op in ops {
        let clock = m.max_core_clock();
        let t0 = Instant::now();
        outcomes.push(ops::run_op(op, programs, &mut m, driven.backend()));
        let t1 = Instant::now();
        if let Driven::Traced(t) = &mut driven {
            t.end_op(t0, t1);
        }
        op_ns.push((t1 - t0).as_nanos() as u64);
        op_cycles.push(m.max_core_clock() - clock);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss_after = host::memory_kb().rss;
    let trace = match driven {
        Driven::Traced(t) => {
            let tracer = m
                .telemetry()
                .tracer()
                .expect("a traced machine has a tracer");
            Some((t.finish(), tracer.categories()))
        }
        Driven::Plain(_) => None,
    };
    Pass {
        wall_s,
        op_ns,
        sim: Sim::read(&m, op_cycles, outcomes),
        rss_growth_kb: rss_after.saturating_sub(rss_before),
        trace,
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted, non-empty sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let ops = w.op_stream(args.seed);
    let n = ops.len();
    let warmup = w.warmup();

    // 1 and 2: a set-up before every measured pass, so that `setup_s`, their
    // median, samples the whole measured period.
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut setup_s, mut toolchain, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut programs = Programs::default();
    let (mut rss_peak_kb, mut reference, mut reference_ns) =
        (0, host::Reference::new(), Vec::new());
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        let start = Instant::now();
        let mut times = ToolchainTimes::default();
        programs = Programs::build(w, &mut times);
        let mut m = machine(w, false);
        let mut backend = w.detector();
        for op in &warmup {
            ops::run_op(op, &programs, &mut m, backend.as_mut());
        }
        setup_s.push(start.elapsed().as_secs_f64());
        toolchain.push(times);
        // Free the warm-up machine before the pass builds its own.
        drop((m, backend));
        passes.push(run_pass(w, &ops, &programs, Mode::Detector));
        if passes.len() == 1 {
            // Set-up plus one pass of long-lived state: later passes only
            // repeat it, and the native passes, whose heap grows every op
            // (native malloc ignores `pooldestroy`), run after.
            rss_peak_kb = host::memory_kb().peak;
        }
        reference_ns.extend((0..host::SLICES_PER_PASS).map(|_| reference.slice_ns()));
    }

    // 3. Traced passes; 4. the native passes.
    let traced: Vec<Pass> = (0..TRACED_PASSES)
        .map(|_| run_pass(w, &ops, &programs, Mode::Traced))
        .collect();
    let native: Vec<Pass> = (0..NATIVE_PASSES)
        .map(|_| run_pass(w, &ops, &programs, Mode::Native))
        .collect();

    // 5. Checks.
    let (correct, failed) = check(w, args.seed, &ops, &passes, &traced, &native);

    // How much slower than nominal the host ran during the measured passes.
    let slowdown = median(reference_ns) / host::NOMINAL_REFERENCE_NS;
    let (setup_s, host_ops_per_s) = (median(setup_s), unscaled_ops_per_s(&passes));
    let cost = args.trace.then(trace::calibrate);
    let metrics = if let Some(cost) = &cost {
        if let Some(dir) = &args.spans_dir {
            if let Err(e) = write_spans(dir, w, args.seed, &ops, &traced) {
                eprintln!("perfbench: cannot write spans to {}: {e}", dir.display());
            }
        }
        per_layer(w, &passes, &traced, &toolchain, cost)
    } else {
        let host = (setup_s / slowdown, host_ops_per_s * slowdown);
        end_to_end(&passes, &native[0], host, rss_peak_kb)
    };

    println!(
        "perfbench {} seed={} ops/pass={n} measured passes={} traced passes={}",
        w.name(),
        args.seed,
        passes.len(),
        traced.len()
    );
    for m in &metrics {
        println!("  {:<28} {:>20.6} {}", m.name, m.value, m.unit);
    }
    if let Some(cost) = cost {
        println!(
            "  the decorator's own cost per call, taken out of the host times above: \
             {:.1} ns inside the call's interval, {:.1} ns outside it",
            cost.inside_ns, cost.outside_ns
        );
    } else {
        // Reported here, and as `failed`/`attempted` below; not a benchmark
        // metric, since it is 0 whenever the program is correct.
        println!(
            "  {:<28} {:>20.6} ratio",
            "fail_ratio",
            failed as f64 / n as f64
        );
        println!(
            "  host ran at {:.3}x nominal time per reference slice; unscaled: setup_s {:.6} s, \
             host_ops_per_s {:.3} 1/s",
            slowdown, setup_s, host_ops_per_s
        );
    }
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!("{{\"correct\": {correct}, \"attempted\": {n}, \"failed\": {failed}, \"metrics\": {{{json}}}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the checks, printing every failure; returns whether all passed
/// and how many ops failed.
fn check(
    w: Workload,
    seed: u64,
    ops: &[Op],
    passes: &[Pass],
    traced: &[Pass],
    native: &[Pass],
) -> (bool, u64) {
    let reference = &passes[0].sim;
    let mut correct = true;
    let measured = passes
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, p)| (format!("measured pass {i}"), p));
    let traced_passes = traced
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("traced pass {i}"), p));
    for (label, pass) in measured.chain(traced_passes) {
        if let Some(d) = pass.sim.diff(reference) {
            eprintln!("perfbench: simulated results changed: {label} vs measured pass 0: {d}");
            correct = false;
        }
    }
    if let Some(d) = native[1].sim.diff(&native[0].sim) {
        eprintln!("perfbench: simulated results changed: native pass 1 vs native pass 0: {d}");
        correct = false;
    }
    let layer_counts = |p: &Pass| {
        let r = record(p);
        (
            r.totals.map(|s| (s.calls, s.sim_cycles, s.bytes)),
            r.unchecked_allocs,
        )
    };
    if traced
        .iter()
        .any(|p| layer_counts(p) != layer_counts(&traced[0]))
    {
        eprintln!(
            "perfbench: simulated results changed: layer counts differ between traced passes"
        );
        correct = false;
    }
    // Remote cores take shootdown IPIs on their own clocks, outside the
    // flight recorder's categories: the gap must be exactly those cycles.
    for pass in traced {
        let (_, categories) = pass.trace.as_ref().expect("a traced pass has a trace");
        let attributed: u64 = categories.iter().map(|(_, c)| c).sum();
        let clocks: u64 = pass.sim.core_clocks.iter().sum();
        if attributed + pass.sim.ipi_recv_cycles != clocks {
            eprintln!(
                "perfbench: attribution does not close: categories {attributed} + ipi_recv {} \
                 != summed core clocks {clocks}",
                pass.sim.ipi_recv_cycles
            );
            correct = false;
        }
    }
    let mut failed = 0u64;
    for (i, op) in ops.iter().enumerate() {
        if let Err(why) = ops::check(op, &reference.outcomes[i], &native[0].sim.outcomes[i]) {
            eprintln!(
                "perfbench: FAIL workload={} seed={seed} op={i} ({}): {why}",
                w.name(),
                op.kind()
            );
            failed += 1;
        }
    }
    (correct && failed == 0, failed)
}

/// Ops per host second: the ops over the sum of each op's median host
/// time across the measured passes, which discards passes the host slowed
/// for part of the run.
fn unscaled_ops_per_s(passes: &[Pass]) -> f64 {
    let n = passes[0].op_ns.len();
    let stream_ns: f64 = (0..n)
        .map(|i| median(passes.iter().map(|p| p.op_ns[i] as f64).collect()))
        .sum();
    n as f64 * 1e9 / stream_ns
}

/// The end-to-end metrics, from the untraced passes. `host` holds
/// `setup_s` and `host_ops_per_s`, already scaled to the nominal host speed.
fn end_to_end(passes: &[Pass], native: &Pass, host: (f64, f64), rss_peak_kb: u64) -> Vec<Metric> {
    let sim = &passes[0].sim;
    let n = sim.op_cycles.len();
    let mut sorted = sim.op_cycles.clone();
    sorted.sort_unstable();
    vec![
        metric("setup_s", host.0, "s"),
        metric("host_ops_per_s", host.1, "1/s"),
        metric("host_rss_peak_mb", rss_peak_kb as f64 / 1024.0, "MiB"),
        metric(
            "sim_ops_per_s",
            n as f64 * CYCLES_PER_SECOND / sim.max_clock() as f64,
            "1/s",
        ),
        metric(
            "sim_op_p50_cycles",
            percentile(&sorted, 50.0) as f64,
            "cycles",
        ),
        metric(
            "sim_op_p99_cycles",
            percentile(&sorted, 99.0) as f64,
            "cycles",
        ),
        metric(
            "overhead_x",
            sim.max_clock() as f64 / native.sim.max_clock() as f64,
            "x",
        ),
        metric(
            "sim_phys_pages_peak",
            sim.stats.phys_frames_peak as f64,
            "pages",
        ),
        metric("sim_va_pages", sim.va_pages as f64, "pages"),
    ]
}

fn record(p: &Pass) -> &Record {
    &p.trace.as_ref().expect("a traced pass has a trace").0
}

/// The per-layer metrics. Counts and simulated cycles are those of one
/// pass of the op stream (identical in every traced pass); host times are
/// medians over the traced passes, with the decorator's `cost` taken out.
fn per_layer(
    w: Workload,
    passes: &[Pass],
    traced: &[Pass],
    toolchain: &[ToolchainTimes],
    cost: &trace::Cost,
) -> Vec<Metric> {
    let traced_median =
        |f: &dyn Fn(&Record) -> f64| median(traced.iter().map(|p| f(record(p))).collect());
    let setup_median = |f: fn(&ToolchainTimes) -> f64| median(toolchain.iter().map(f).collect());
    let (first, categories) = traced[0].trace.as_ref().expect("a traced pass has a trace");
    let sim = &traced[0].sim;

    let vm = w == Workload::KeepaliveVm;
    let self_s = traced_median(&|r| r.self_ns(|_| true, cost)) / 1e9;
    // A run a detection stopped has no step count, so the time per step
    // is taken over the runs that reached their end.
    let ran = |i: usize| sim.outcomes[i].steps > 0;
    let ran_self_ns = traced_median(&|r| r.self_ns(ran, cost));
    let steps: u64 = sim.outcomes.iter().map(|o| o.steps).sum();
    let mut out = vec![
        metric("apa.parse_s", setup_median(|t| t.parse_s), "s"),
        metric(
            "apa.pool_allocate_s",
            setup_median(|t| t.pool_allocate_s),
            "s",
        ),
        metric("apa.lint_s", setup_median(|t| t.lint_s), "s"),
        metric("interp.compile_s", setup_median(|t| t.compile_s), "s"),
        metric("interp.vm_self_s", if vm { self_s } else { 0.0 }, "s"),
        metric("interp.steps", steps as f64, "count"),
        metric(
            "interp.ns_per_step",
            if vm {
                ratio(ran_self_ns, steps as f64)
            } else {
                0.0
            },
            "ns",
        ),
        metric(
            "workloads.driver_self_s",
            if vm { 0.0 } else { self_s },
            "s",
        ),
    ];
    for (i, layer) in LAYERS.iter().enumerate() {
        let s = first.totals[i];
        out.push(metric(format!("{layer}.calls"), s.calls as f64, "count"));
        if *layer == "vmm.bulk" {
            out.push(metric("vmm.bulk.bytes", s.bytes as f64, "bytes"));
        }
        out.push(metric(
            format!("{layer}.host_s"),
            traced_median(&|r| r.layer_ns(i, cost)) / 1e9,
            "s",
        ));
        out.push(metric(
            format!("{layer}.sim_cycles"),
            s.sim_cycles as f64,
            "cycles",
        ));
        if *layer == "core.alloc" {
            out.push(metric(
                "core.elided_ratio",
                ratio(first.unchecked_allocs as f64, s.calls as f64),
                "ratio",
            ));
        }
    }
    let stats = &sim.stats;
    let obtained = sim.pages_recycled + sim.pages_fresh;
    out.extend([
        metric("vmm.syscalls.mmap", stats.mmap_calls as f64, "count"),
        metric("vmm.syscalls.mremap", stats.mremap_calls as f64, "count"),
        metric(
            "vmm.syscalls.mprotect",
            stats.mprotect_calls as f64,
            "count",
        ),
        metric(
            "vmm.tlb_miss_ratio",
            ratio(sim.tlb.1 as f64, (sim.tlb.0 + sim.tlb.1) as f64),
            "ratio",
        ),
        metric("vmm.shootdown_ipis", stats.shootdown_ipis as f64, "count"),
        metric(
            "pool.recycle_ratio",
            ratio(sim.pages_recycled as f64, obtained as f64),
            "ratio",
        ),
    ]);
    for (name, cycles) in categories {
        out.push(metric(
            format!("sim.{name}_cycles"),
            *cycles as f64,
            "cycles",
        ));
    }
    out.push(metric(
        "sim.ipi_recv_cycles",
        sim.ipi_recv_cycles as f64,
        "cycles",
    ));
    let traced_wall = median(traced.iter().map(|p| p.wall_s).collect());
    let untraced_wall = median(passes.iter().map(|p| p.wall_s).collect());
    out.push(metric("trace.overhead_x", traced_wall / untraced_wall, "x"));
    let per_op = passes[0].rss_growth_kb as f64 / sim.op_cycles.len() as f64;
    out.push(metric("host.rss_growth_kb_per_op", per_op, "KiB/op"));
    out
}

/// Writes the traced passes' spans as JSON lines: an `op` span per op and,
/// under it, one aggregated span per layer the op called.
fn write_spans(
    dir: &Path,
    w: Workload,
    seed: u64,
    ops: &[Op],
    traced: &[Pass],
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{seed}.jsonl", w.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (p, pass) in traced.iter().enumerate() {
        let (record, _) = pass.trace.as_ref().expect("a traced pass has a trace");
        for (i, op) in record.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"pass\": {p}, \"op\": {i}, \"span\": \"op\", \"kind\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"sim_cycles\": {}}}",
                ops[i].kind(),
                op.start_ns,
                op.end_ns,
                pass.sim.op_cycles[i]
            )?;
            for (layer, s) in LAYERS.iter().zip(&op.layers).filter(|(_, s)| s.calls > 0) {
                writeln!(
                    out,
                    "{{\"pass\": {p}, \"op\": {i}, \"span\": \"{layer}\", \"parent\": \"op\", \
                     \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}, \
                     \"bytes\": {}, \"sim_cycles\": {}}}",
                    s.first_ns, s.last_ns, s.calls, s.busy_ns, s.bytes, s.sim_cycles
                )?;
            }
        }
    }
    out.flush()
}
