//! The three workloads: seeded op streams, the set-up each needs, and how
//! one op runs and is checked.
//!
//! An *op* is one connection (`keepalive-vm`), one kernel run
//! (`olden-alloc`) or one wave of sessions (`server-mix-4c`). The seed
//! fixes the whole op stream; the program under test sees only the
//! generated inputs.

use dangle::apa::{corpus, lint_with_mode, parse, pool_allocate, stamp_unchecked, LintMode};
use dangle::interp::backend::{
    ArenaBackend, Backend, BackendError, NativeBackend, ShadowPoolBackend, ShardedPoolBackend,
};
use dangle::interp::{compile, run_compiled, BcProgram, RunError};
use dangle::vmm::Machine;
use dangle::workloads::concurrent::ConcurrentMix;
use dangle::workloads::olden_sim::Health;
use dangle::workloads::olden_sort::Bisort;
use dangle::workloads::olden_trees::{Perimeter, TreeAdd};
use dangle::workloads::{mix, Prng};
use std::time::Instant;

/// Interpreter fuel per connection: far above what any op needs, so
/// running out is a failure, not a limit.
const FUEL: u64 = 100_000_000;

/// Keep-alive request counts are drawn uniformly from half to one and a
/// half times 10, the requests per connection of the keep-alive programs
/// the lint, sampling and `dangle-lint` benches run
/// (`corpus::ghttpd_keepalive(_, 10)`).
const MIN_REQUESTS: u64 = 5;
const MAX_REQUESTS: u64 = 15;

/// One connection in this many runs an injected-UAF program instead: the
/// share of `server-mix-4c`, one injected session in a wave of
/// `ConcurrentMix::default()`'s 48.
const INJECT_ONE_IN: usize = 48;

/// A server-mix wave's session count, requests per session and response
/// size are each this many quarters of `ConcurrentMix::default()`'s: from
/// half to one and a half times it, so the mean wave is the default.
const WAVE_QUARTERS: [usize; 5] = [2, 3, 4, 5, 6];

/// Cores of the server-mix machine.
const MIX_CORES: usize = 4;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KeepaliveVm,
    OldenAlloc,
    ServerMix4c,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::KeepaliveVm,
        Workload::OldenAlloc,
        Workload::ServerMix4c,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KeepaliveVm => "keepalive-vm",
            Workload::OldenAlloc => "olden-alloc",
            Workload::ServerMix4c => "server-mix-4c",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops in one pass of the op stream. Sized so a pass takes under about
    /// a second of host time; `server-mix-4c` runs two blocks of its 125
    /// wave shapes.
    pub fn ops(self) -> usize {
        match self {
            Workload::KeepaliveVm => 10_000,
            Workload::OldenAlloc => 1_500,
            Workload::ServerMix4c => 2 * WAVE_QUARTERS.len().pow(3),
        }
    }

    /// Ops run once, unmeasured, at the end of every set-up: the first
    /// twentieth of the default seed's stream, so that the set-up does the
    /// same work whatever the seed.
    pub fn warmup(self) -> Vec<Op> {
        let mut ops = self.op_stream(crate::DEFAULT_SEED);
        ops.truncate(self.ops() / 20);
        ops
    }

    pub fn cores(self) -> usize {
        match self {
            Workload::ServerMix4c => MIX_CORES,
            _ => 1,
        }
    }

    /// The detector: page aliasing over pool allocation, with no batching
    /// and no sampling (what `Config::Ours` of the paper-table bins
    /// builds), sharded one shard per core on the 4-core machine.
    pub fn detector(self) -> Box<dyn Backend> {
        match self {
            Workload::ServerMix4c => Box::new(ShardedPoolBackend::new(MIX_CORES)),
            _ => Box::new(ShadowPoolBackend::new()),
        }
    }

    /// The native-malloc baseline the overhead is measured against: one
    /// malloc arena per core.
    pub fn native(self) -> Box<dyn Backend> {
        match self {
            Workload::ServerMix4c => Box::new(ArenaBackend::new(MIX_CORES)),
            _ => Box::new(NativeBackend::new()),
        }
    }

    /// The seeded op stream of one pass.
    pub fn op_stream(self, seed: u64) -> Vec<Op> {
        let mut rng = Prng::new(seed);
        let n = self.ops();
        match self {
            Workload::KeepaliveVm => {
                let programs = corpus::injected_uafs().len() as u64;
                let mut ops = Vec::with_capacity(n);
                while ops.len() < n {
                    let inject_at = rng.below(INJECT_ONE_IN as u64) as usize;
                    for i in 0..INJECT_ONE_IN {
                        ops.push(if i == inject_at {
                            Op::Inject {
                                program: rng.below(programs) as usize,
                            }
                        } else {
                            Op::Conn {
                                requests: MIN_REQUESTS + rng.below(MAX_REQUESTS - MIN_REQUESTS + 1),
                            }
                        });
                    }
                }
                ops.truncate(n);
                ops
            }
            Workload::OldenAlloc => {
                // Every block holds each (kernel, size) pair its fixed share
                // of times, in seeded order, so streams differ in order and
                // not in how much work they hold.
                let block: Vec<(usize, usize)> = (0..4)
                    .flat_map(|kernel| {
                        SIZE_SHARES
                            .iter()
                            .enumerate()
                            .flat_map(move |(size, &share)| {
                                std::iter::repeat_n((kernel, size), share)
                            })
                    })
                    .collect();
                let mut ops = Vec::with_capacity(n);
                while ops.len() < n {
                    let mut b = block.clone();
                    shuffle(&mut b, &mut rng);
                    ops.extend(b.into_iter().map(|(k, s)| Op::Kernel(Kernel::new(k, s))));
                }
                ops.truncate(n);
                ops
            }
            Workload::ServerMix4c => {
                // Every block of 125 waves holds each combination of the
                // five session counts, request counts and response sizes
                // once, in seeded order, each wave with its own scheduler
                // seed.
                let default = ConcurrentMix::default();
                let scaled = |value: usize, quarters: usize| value * quarters / 4;
                let block: Vec<ConcurrentMix> = WAVE_QUARTERS
                    .iter()
                    .flat_map(|&s| WAVE_QUARTERS.iter().map(move |&r| (s, r)))
                    .flat_map(|(s, r)| WAVE_QUARTERS.iter().map(move |&b| (s, r, b)))
                    .map(|(s, r, b)| ConcurrentMix {
                        sessions: scaled(default.sessions, s),
                        requests_per_session: scaled(default.requests_per_session, r),
                        response_bytes: scaled(default.response_bytes, b),
                        injected_uafs: 1,
                        ..default
                    })
                    .collect();
                let mut ops = Vec::with_capacity(n);
                while ops.len() < n {
                    let mut b = block.clone();
                    shuffle(&mut b, &mut rng);
                    ops.extend(b.into_iter().map(|wave| {
                        Op::Wave(ConcurrentMix {
                            seed: rng.next_u64(),
                            ..wave
                        })
                    }));
                }
                ops.truncate(n);
                ops
            }
        }
    }
}

/// Fisher–Yates shuffle driven by the op stream's generator.
fn shuffle<T>(items: &mut [T], rng: &mut Prng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Of every 15 runs of a kernel, 3 are small enough that every object's
/// page fits the 64-entry modelled TLB, and 4 run at each of three larger
/// sizes that do not.
const SIZE_SHARES: [usize; 4] = [3, 4, 4, 4];

/// One Olden kernel run.
#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    Health(Health),
    Perimeter(Perimeter),
    Bisort(Bisort),
    TreeAdd(TreeAdd),
}

impl Kernel {
    /// Kernel `kind` (health, perimeter, bisort, treeadd) at `size`: 0 is
    /// small enough to fit the TLB, 1 to 3 are growing sizes that do not.
    fn new(kind: usize, size: usize) -> Kernel {
        match kind {
            0 => {
                let (levels, steps) = [(2, 10), (3, 20), (3, 40), (4, 20)][size];
                Kernel::Health(Health { levels, steps })
            }
            1 => Kernel::Perimeter(Perimeter {
                levels: [3, 5, 6, 7][size],
            }),
            2 => Kernel::Bisort(Bisort {
                log_n: [5, 7, 8, 9][size],
            }),
            _ => Kernel::TreeAdd(TreeAdd {
                depth: [5, 8, 9, 10][size],
                passes: 4,
            }),
        }
    }

    fn workload(&self) -> &dyn dangle::workloads::Workload {
        match self {
            Kernel::Health(k) => k,
            Kernel::Perimeter(k) => k,
            Kernel::Bisort(k) => k,
            Kernel::TreeAdd(k) => k,
        }
    }
}

/// One op of a stream.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// A keep-alive connection serving `requests` requests.
    Conn { requests: u64 },
    /// A connection running `corpus::injected_uafs()[program]`.
    Inject { program: usize },
    /// One Olden kernel run.
    Kernel(Kernel),
    /// One wave of concurrent sessions.
    Wave(ConcurrentMix),
}

impl Op {
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Conn { .. } => "conn",
            Op::Inject { .. } => "inject",
            Op::Kernel(k) => k.workload().name(),
            Op::Wave(_) => "wave",
        }
    }

    /// The detection the detector must report for this op, normalized so
    /// it does not depend on addresses or scheduling.
    pub fn expected_detection(&self) -> Option<String> {
        match self {
            Op::Conn { .. } | Op::Kernel(_) => None,
            Op::Inject { program } => {
                let name = corpus::injected_uafs()[*program].0;
                let expected = INJECTED_DETECTIONS.iter().find(|(n, _)| *n == name);
                Some(format!(
                    "{name}: {}",
                    expected.map_or("no expectation", |(_, d)| d)
                ))
            }
            Op::Wave(m) => {
                // ConcurrentMix makes the last session the injected one; its
                // freed object's size is derived from the session id.
                let session = m.sessions - 1;
                Some(format!(
                    "session {session}: uaf-read of {} bytes",
                    64 + (session % 7) * 32
                ))
            }
        }
    }

    /// Whether the op's output must match the native pass. An injected
    /// dangling read returns stale memory under native malloc, so an
    /// injected-UAF connection has no native output to compare with.
    pub fn compares_output(&self) -> bool {
        !matches!(self, Op::Inject { .. })
    }
}

/// What each `corpus::injected_uafs()` program must produce under the
/// detector: each frees an 8-byte `struct s`, then reads it or frees it
/// again.
const INJECTED_DETECTIONS: [(&str, &str); 4] = [
    ("uaf-straight", "dangling read at offset 0 of 8 bytes"),
    ("double-free", "double free at offset 0 of 8 bytes"),
    ("uaf-branch", "dangling read at offset 0 of 8 bytes"),
    ("uaf-loop", "dangling read at offset 0 of 8 bytes"),
];

/// What one op produced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Checksum of the op's output.
    pub digest: u64,
    /// Interpreter steps of a MiniC run that ran to its end; 0 for one a
    /// detection stopped, and for the other workloads.
    pub steps: u64,
    /// Normalized detection, if the op reported one.
    pub detection: Option<String>,
    /// Any other error the op ended with.
    pub error: Option<String>,
}

/// Host seconds the set-up spent in each toolchain stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct ToolchainTimes {
    pub parse_s: f64,
    pub pool_allocate_s: f64,
    pub lint_s: f64,
    pub compile_s: f64,
}

/// The compiled MiniC programs `keepalive-vm` runs: one keep-alive
/// connection per request count, and the injected-UAF corpus. Empty for
/// the other workloads.
#[derive(Default)]
pub struct Programs {
    conns: Vec<BcProgram>,
    injected: Vec<(&'static str, BcProgram)>,
}

impl Programs {
    /// The set-up toolchain: parse → APA → interprocedural lint → bytecode.
    pub fn build(workload: Workload, times: &mut ToolchainTimes) -> Programs {
        if workload != Workload::KeepaliveVm {
            return Programs::default();
        }
        let conns = (MIN_REQUESTS..=MAX_REQUESTS)
            .map(|r| toolchain(&corpus::ghttpd_keepalive(1, r), times))
            .collect();
        let injected = corpus::injected_uafs()
            .into_iter()
            .map(|(name, src)| (name, toolchain(src, times)))
            .collect();
        Programs { conns, injected }
    }
}

fn toolchain(src: &str, times: &mut ToolchainTimes) -> BcProgram {
    let t0 = Instant::now();
    let prog = parse(src).expect("corpus program parses");
    let t1 = Instant::now();
    let (mut pooled, analysis) = pool_allocate(&prog);
    let t2 = Instant::now();
    let report = lint_with_mode(&prog, &analysis, LintMode::Inter);
    stamp_unchecked(&mut pooled, &report);
    let t3 = Instant::now();
    let bc = compile(&pooled).expect("corpus program compiles");
    let t4 = Instant::now();
    times.parse_s += (t1 - t0).as_secs_f64();
    times.pool_allocate_s += (t2 - t1).as_secs_f64();
    times.lint_s += (t3 - t2).as_secs_f64();
    times.compile_s += (t4 - t3).as_secs_f64();
    bc
}

/// Runs one op against `backend` on `machine`.
pub fn run_op(
    op: &Op,
    programs: &Programs,
    machine: &mut Machine,
    backend: &mut dyn Backend,
) -> Outcome {
    let mut out = Outcome::default();
    match op {
        Op::Conn { requests } => {
            let prog = &programs.conns[(requests - MIN_REQUESTS) as usize];
            match run_compiled(prog, machine, backend, FUEL) {
                Ok(o) => {
                    out.digest = o.output.iter().fold(0, |acc, &v| mix(acc, v as u64));
                    out.steps = o.steps_used;
                }
                Err(e) => out.error = Some(e.to_string()),
            }
        }
        Op::Inject { program } => {
            let (name, prog) = &programs.injected[*program];
            match run_compiled(prog, machine, backend, FUEL) {
                Ok(o) => {
                    out.digest = o.output.iter().fold(0, |acc, &v| mix(acc, v as u64));
                    out.steps = o.steps_used;
                }
                Err(RunError::Backend(e)) if e.is_detection() => {
                    out.detection = Some(format!("{name}: {}", normalize(&e)));
                }
                Err(e) => out.error = Some(e.to_string()),
            }
        }
        Op::Kernel(k) => match k.workload().run(machine, backend) {
            Ok(checksum) => out.digest = checksum,
            Err(e) => out.error = Some(e.to_string()),
        },
        Op::Wave(m) => match m.run(machine, backend) {
            Ok(r) => {
                out.digest = mix(r.checksum, r.quanta);
                let found: Vec<String> = r
                    .detections
                    .iter()
                    .map(|d| format!("session {}: {} of {} bytes", d.session, d.kind, d.bytes))
                    .collect();
                if !found.is_empty() {
                    out.detection = Some(found.join("; "));
                }
            }
            Err(e) => out.error = Some(e.to_string()),
        },
    }
    out
}

/// A detection without its addresses: the detector's diagnosis reads
/// "`<kind>` at `<addr>` (offset `<o>` into `<n>`-byte object allocated at
/// ..., freed at ...)".
fn normalize(e: &BackendError) -> String {
    let BackendError::Trap {
        report: Some(report),
        ..
    } = e
    else {
        return format!("unattributed detection: {e}");
    };
    let parsed = report.split_once(" (offset ").and_then(|(head, tail)| {
        let (kind, _addr) = head.rsplit_once(" at ")?;
        let (offset, rest) = tail.split_once(" into ")?;
        let (size, _) = rest.split_once("-byte object")?;
        Some(format!("{kind} at offset {offset} of {size} bytes"))
    });
    parsed.unwrap_or_else(|| format!("unparsed diagnosis: {report}"))
}

/// Checks one op's detector outcome against the native pass and the
/// expected detection.
pub fn check(op: &Op, detector: &Outcome, native: &Outcome) -> Result<(), String> {
    if let Some(e) = &detector.error {
        return Err(format!("error: {e}"));
    }
    if detector.detection != op.expected_detection() {
        return Err(format!(
            "detection {:?}, expected {:?}",
            detector.detection,
            op.expected_detection()
        ));
    }
    if op.compares_output() {
        if let Some(e) = &native.error {
            return Err(format!("native pass error: {e}"));
        }
        if detector.digest != native.digest {
            return Err(format!(
                "output {:#x} differs from the native pass's {:#x}",
                detector.digest, native.digest
            ));
        }
    }
    Ok(())
}
