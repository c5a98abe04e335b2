//! Differential tests pinning sampled protection to its two endpoints.
//!
//! The sampling layer promises three identities, and this suite holds it
//! to them over random MiniC programs:
//!
//! 1. **N = 1 is the unsampled detector.** With `one_in(1)` every
//!    allocation is protected and no RNG is drawn, so the run must be
//!    byte-identical to `ShadowPoolBackend::new()`: same result, same
//!    simulated clock, same syscall counters, and — when the program
//!    dangles — the same structured trap-report JSON. Checked on both
//!    engines, and on the heap detector (`ShadowBackend`), which runs the
//!    same sampling code, over a sparser sweep.
//! 2. **N = ∞ is the all-unchecked fast path.** With `NEVER` nothing is
//!    protected, so the run must match a wrapper that routes every
//!    alloc/free through the lint-elision path (same output, clock, and
//!    machine stats; telemetry counters intentionally differ — skips are
//!    not elisions).
//! 3. **Decisions are seed-deterministic.** The same `SamplingConfig`
//!    reproduces the same protected subset across repeat runs, across
//!    engines, and across core counts.
//!
//! Between the endpoints sits the GWP-ASan-style operating point, pinned on
//! the server and injected-UAF corpora: 1-in-64 sampling costs at most a
//! tenth of full protection on keep-alive ghttpd yet still catches injected
//! bugs, and sites dangle-lint proved safe never reach the policy.

use dangle_apa::{corpus, parse, pool_allocate, pool_allocate_with_lint_mode, LintMode, Program};
use dangle_core::{DetectorConfig, SamplingConfig, ShadowConfig};
use dangle_interp::backend::{
    Backend, BackendError, PoolHandle, ShadowBackend, ShadowPoolBackend,
};
use dangle_interp::{is_detection, run_with, Engine, RunError, RunOutcome};
use dangle_testkit::minic::random_program;
use dangle_vmm::{Machine, MachineConfig, Trap, VirtAddr};
use dangle_workloads::concurrent::ConcurrentMix;

const FUEL: u64 = 50_000_000;

/// Routes every allocation and free through the lint-elision fast path:
/// the reference behaviour for `SamplingConfig::NEVER`.
struct AllUnchecked(ShadowPoolBackend);

impl Backend for AllUnchecked {
    fn name(&self) -> &'static str {
        "all-unchecked"
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.0.alloc_unchecked(machine, size, pool)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.0.free_unchecked(machine, addr, pool)
    }

    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        self.0.pool_create(machine, elem_hint)
    }

    fn pool_destroy(
        &mut self,
        machine: &mut Machine,
        pool: PoolHandle,
    ) -> Result<(), BackendError> {
        self.0.pool_destroy(machine, pool)
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        self.0.load(machine, addr, width)
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        self.0.store(machine, addr, width, value)
    }

    fn load_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), BackendError> {
        self.0.load_bytes(machine, addr, buf)
    }

    fn store_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &[u8],
    ) -> Result<(), BackendError> {
        self.0.store_bytes(machine, addr, buf)
    }

    fn memset(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        byte: u8,
        len: usize,
    ) -> Result<(), BackendError> {
        self.0.memset(machine, addr, byte, len)
    }

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.0.explain(trap)
    }
}

/// Which detector variant a differential run uses.
enum Variant {
    Unsampled,
    Sampled(SamplingConfig),
    HeapUnsampled,
    HeapSampled(SamplingConfig),
    AllUnchecked,
}

/// Runs one program and distills everything observable: the outcome (with
/// trap forensics rendered to JSON), the clock, and the syscall counters.
fn observe(
    prog: &dangle_apa::Program,
    engine: Engine,
    variant: Variant,
) -> (Result<RunOutcome, String>, u64, String) {
    let mut machine = Machine::new();
    let (res, report) = match variant {
        Variant::Unsampled => {
            let mut b = ShadowPoolBackend::new();
            let res = run_with(engine, prog, &mut machine, &mut b, FUEL);
            let report = trap_json(&res, |t| {
                b.detector().trap_report(&machine, t, "minic").map(|r| r.to_json().to_string())
            });
            (res, report)
        }
        Variant::Sampled(sampling) => {
            let config = DetectorConfig { sampling, ..DetectorConfig::default() };
            let mut b = ShadowPoolBackend::with_config(config);
            let res = run_with(engine, prog, &mut machine, &mut b, FUEL);
            let report = trap_json(&res, |t| {
                b.detector().trap_report(&machine, t, "minic").map(|r| r.to_json().to_string())
            });
            (res, report)
        }
        Variant::HeapUnsampled => {
            let mut b = ShadowBackend::new();
            let res = run_with(engine, prog, &mut machine, &mut b, FUEL);
            let report = trap_json(&res, |t| {
                b.detector().trap_report(&machine, t, "minic").map(|r| r.to_json().to_string())
            });
            (res, report)
        }
        Variant::HeapSampled(sampling) => {
            let config = ShadowConfig { sampling, ..ShadowConfig::default() };
            let mut b = ShadowBackend::with_config(config);
            let res = run_with(engine, prog, &mut machine, &mut b, FUEL);
            let report = trap_json(&res, |t| {
                b.detector().trap_report(&machine, t, "minic").map(|r| r.to_json().to_string())
            });
            (res, report)
        }
        Variant::AllUnchecked => {
            let mut b = AllUnchecked(ShadowPoolBackend::new());
            let res = run_with(engine, prog, &mut machine, &mut b, FUEL);
            // Nothing is ever protected, so nothing can trap.
            (res, String::new())
        }
    };
    let stats = machine.stats();
    (
        res.map_err(|e| e.to_string()),
        machine.clock(),
        format!("{report}|{stats:?}"),
    )
}

fn trap_json(
    res: &Result<RunOutcome, RunError>,
    to_json: impl Fn(&Trap) -> Option<String>,
) -> String {
    match res {
        Err(RunError::Backend(BackendError::Trap { trap, .. })) => {
            to_json(trap).unwrap_or_else(|| "unattributed".into())
        }
        _ => String::new(),
    }
}

#[test]
fn n1_is_byte_identical_to_the_unsampled_detector() {
    for seed in 0..200 {
        let src = random_program(seed);
        let (prog, _) = pool_allocate(&parse(&src).unwrap());
        let cfg = SamplingConfig::one_in(1);
        let reference = observe(&prog, Engine::Ast, Variant::Unsampled);
        let n1 = observe(&prog, Engine::Ast, Variant::Sampled(cfg));
        assert_eq!(reference, n1, "seed {seed}: N=1 diverged (ast)\n{src}");
        // A sparser sweep on the bytecode engine and on the heap detector
        // keeps the suite fast while still pinning both execution paths and
        // both detectors.
        if seed % 5 == 0 {
            let bc_ref = observe(&prog, Engine::Bytecode, Variant::Unsampled);
            let bc_n1 = observe(&prog, Engine::Bytecode, Variant::Sampled(cfg));
            assert_eq!(bc_ref, bc_n1, "seed {seed}: N=1 diverged (bytecode)\n{src}");
            let heap_ref = observe(&prog, Engine::Ast, Variant::HeapUnsampled);
            let heap_n1 = observe(&prog, Engine::Ast, Variant::HeapSampled(cfg));
            assert_eq!(heap_ref, heap_n1, "seed {seed}: N=1 diverged (heap)\n{src}");
        }
    }
}

#[test]
fn n_inf_matches_the_all_unchecked_fast_path() {
    for seed in 0..200 {
        let src = random_program(seed);
        let (prog, _) = pool_allocate(&parse(&src).unwrap());
        let cfg = SamplingConfig::one_in(SamplingConfig::NEVER);
        let never = observe(&prog, Engine::Ast, Variant::Sampled(cfg));
        let unchecked = observe(&prog, Engine::Ast, Variant::AllUnchecked);
        assert_eq!(never, unchecked, "seed {seed}: N=inf diverged\n{src}");
    }
}

#[test]
fn sampled_runs_are_seed_deterministic_across_engines() {
    let cfg = SamplingConfig::one_in(8).with_seed(0xfeed_f00d);
    for seed in 0..60 {
        let src = random_program(seed);
        let (prog, _) = pool_allocate(&parse(&src).unwrap());
        let first = observe(&prog, Engine::Ast, Variant::Sampled(cfg));
        let again = observe(&prog, Engine::Ast, Variant::Sampled(cfg));
        assert_eq!(first, again, "seed {seed}: repeat run diverged\n{src}");
        let bytecode = observe(&prog, Engine::Bytecode, Variant::Sampled(cfg));
        assert_eq!(first, bytecode, "seed {seed}: engines diverged\n{src}");
    }
}

#[test]
fn four_core_sampled_concurrent_mix_is_reproducible() {
    let cfg = ConcurrentMix {
        sessions: 18,
        requests_per_session: 3,
        response_bytes: 384,
        injected_uafs: 3,
        seed: 9,
        ..ConcurrentMix::default()
    };
    let sampling = SamplingConfig::one_in(4).with_seed(0xc0de);
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut m = Machine::with_config(MachineConfig { cores: 4, ..MachineConfig::default() });
        let config = DetectorConfig { sampling, ..DetectorConfig::default() };
        let mut b = ShadowPoolBackend::with_config(config);
        let r = cfg.run(&mut m, &mut b).unwrap();
        runs.push((r, m.clock(), format!("{:?}", m.stats())));
    }
    assert_eq!(runs[0], runs[1], "same seed, same config: 4-core sampled run moved");
}

const SWEEP_SEED: u64 = 0x5a3d_11e5;

/// One sampled run of `prog`: its output (`Err` holds a detection), its
/// clock, and the `sampling.protected`, `sampling.skipped`,
/// `sampling.budget_exhausted` and `shadow.elided` counters.
fn sampled_run(
    prog: &Program,
    engine: Engine,
    sampling: SamplingConfig,
) -> (Result<Vec<i64>, String>, u64, [u64; 4]) {
    let mut machine = Machine::new();
    let mut b =
        ShadowPoolBackend::with_config(DetectorConfig { sampling, ..DetectorConfig::default() });
    let res = match run_with(engine, prog, &mut machine, &mut b, FUEL) {
        Ok(o) => Ok(o.output),
        Err(e) if is_detection(&e) => Err(e.to_string()),
        Err(e) => panic!("not a detection: {e}"),
    };
    let snap = machine.metrics_snapshot();
    let counters =
        ["sampling.protected", "sampling.skipped", "sampling.budget_exhausted", "shadow.elided"];
    (res, machine.clock(), counters.map(|c| snap.counter(c)))
}

#[test]
fn one_in_64_costs_a_tenth_of_full_protection_on_servers() {
    let sweep = [1, 8, 64, 512, SamplingConfig::NEVER];
    for (name, src) in [("ftpd", corpus::ftpd(25)), ("keepalive", corpus::ghttpd_keepalive(10, 10))]
    {
        let parsed = parse(&src).unwrap();
        for lint in [None, Some(LintMode::Inter)] {
            let prog = match lint {
                None => pool_allocate(&parsed).0,
                Some(mode) => pool_allocate_with_lint_mode(&parsed, mode).0,
            };
            let full = observe(&prog, Engine::Ast, Variant::Unsampled);
            let n1 = Variant::Sampled(SamplingConfig::one_in(1).with_seed(SWEEP_SEED));
            assert_eq!(full, observe(&prog, Engine::Ast, n1), "{name} {lint:?}: N=1 diverged");
            let output = full.0.clone().map(|o| o.output);
            assert!(output.is_ok(), "{name}: server workloads run clean");
            let runs = sweep.map(|n| {
                sampled_run(&prog, Engine::Ast, SamplingConfig::one_in(n).with_seed(SWEEP_SEED))
            });
            for (n, run) in sweep.iter().zip(&runs) {
                assert_eq!(run.0, output, "{name} {lint:?} N={n}: output moved");
            }
            let (n64, never) = (runs[2].1, runs[4].1);
            assert!(full.1 >= never, "{name} {lint:?}: full protection below the floor");
            assert_eq!(runs[0].2[1], 0, "{name}: N=1 skipped a site");
            assert_eq!(runs[4].2[0], 0, "{name}: N=inf protected a site");
            if name == "keepalive" && lint.is_none() {
                // At this size: overhead 516294 cycles at full, 0 at 1 in 64.
                let (full_overhead, n64_overhead) = (full.1 - never, n64 - never);
                assert!(
                    full_overhead >= 10 * n64_overhead.max(1),
                    "1-in-64 overhead {n64_overhead} is above a tenth of {full_overhead}"
                );
                let cfg = SamplingConfig::one_in(8).with_seed(SWEEP_SEED);
                assert_eq!(sampled_run(&prog, Engine::Bytecode, cfg), runs[1], "engines diverged");
                // Every allocation reaches the policy as `SiteId::UNKNOWN`, so
                // a site cap would be one bucket for the whole run and run
                // out first; leave it unset to test the class cap. All 110
                // candidates share one size class and one refill window.
                let class_cap = SamplingConfig {
                    class_tokens: Some(4),
                    refill_window: 512,
                    ..SamplingConfig::one_in(1).with_seed(SWEEP_SEED)
                };
                let budgeted = sampled_run(&prog, Engine::Ast, class_cap);
                assert_eq!(budgeted.2[..3], [4, 106, 106], "a 4-token class budget must run out");
            }
        }
    }
}

#[test]
fn one_in_64_still_catches_injected_uafs() {
    let mut caught = [0u64; 2];
    let mut runs = 0;
    for (name, src) in corpus::injected_uafs() {
        let (prog, _) = pool_allocate(&parse(src).unwrap());
        let unsampled = sampled_run(&prog, Engine::Ast, SamplingConfig::default());
        assert!(unsampled.0.is_err(), "{name}: full protection must detect");
        let reference = observe(&prog, Engine::Ast, Variant::Unsampled);
        for s in 0..64 {
            let seed = SWEEP_SEED ^ (s * 0x9e37_79b9);
            let n1 = observe(
                &prog,
                Engine::Ast,
                Variant::Sampled(SamplingConfig::one_in(1).with_seed(seed)),
            );
            assert_eq!(n1, reference, "{name} seed {s}: N=1 diverged");
            caught[0] += u64::from(n1.0.is_err());
            let n64 = sampled_run(&prog, Engine::Ast, SamplingConfig::one_in(64).with_seed(seed));
            caught[1] += u64::from(n64.0.is_err());
            runs += 1;
        }
    }
    assert_eq!(caught[0], runs, "N=1 must catch every injected UAF");
    assert!(caught[1] > 0, "N=64 caught none of {runs} injected UAFs");
}

#[test]
fn lint_safe_sites_never_reach_the_sampling_policy() {
    let (prog, _, _) =
        pool_allocate_with_lint_mode(&parse(&corpus::fingerd(25)).unwrap(), LintMode::Inter);
    let (res, _, [protected, skipped, _, elided]) =
        sampled_run(&prog, Engine::Ast, SamplingConfig::one_in(1).with_seed(SWEEP_SEED));
    assert!(res.is_ok(), "fingerd runs clean");
    assert_eq!((protected, skipped), (0, 0), "elided sites were sampled");
    assert!(elided > 0, "fingerd's sites are elided");
}
