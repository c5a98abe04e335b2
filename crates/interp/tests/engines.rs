//! Engine-equivalence differential suite.
//!
//! The AST tree-walker is the reference semantics; the register-bytecode
//! compiler + VM must be observationally identical on every program the
//! AST engine executes without a name error: same output, same step
//! count, same simulated clock (the coalesced-cost contract), same
//! runtime errors, same detections and byte-identical trap-report JSON.
//!
//! Coverage comes from three directions: a few hundred randomly generated
//! MiniC programs (raw and pool-transformed, on the native and
//! shadow-pool backends), the server corpus the benchmarks use, and the
//! injected use-after-free corpus where the trap provenance — allocation
//! site, free site, shadow call stacks — must match exactly. A fuel sweep
//! pins the out-of-fuel exhaustion point to the burn.

use dangle_apa::{corpus, parse, pool_allocate, FIGURE_1};
use dangle_interp::backend::{
    Backend, NativeBackend, ShadowBackend, ShadowPoolBackend,
};
use dangle_interp::{compile, run, run_compiled, RunError, RunOutcome, MAX_CALL_DEPTH};
use dangle_testkit::minic::random_program;
use dangle_vmm::Machine;

const FUEL: u64 = 50_000_000;

/// Runs `prog` through one engine on a fresh machine + backend, returning
/// the result and the final simulated clock.
fn run_engine(
    bytecode: bool,
    prog: &dangle_apa::Program,
    backend: &mut dyn Backend,
    fuel: u64,
) -> (Result<RunOutcome, RunError>, u64) {
    let mut machine = Machine::free_running();
    let res = if bytecode {
        match compile(prog) {
            Ok(bc) => run_compiled(&bc, &mut machine, backend, fuel),
            Err(e) => Err(RunError::Compile(e)),
        }
    } else {
        run(prog, &mut machine, backend, fuel)
    };
    (res, machine.clock())
}

/// Asserts both engines agree on result and clock under fresh instances
/// of the given backend.
fn assert_agree(
    prog: &dangle_apa::Program,
    mut mk: impl FnMut() -> Box<dyn Backend>,
    fuel: u64,
    ctx: &str,
) {
    let (ast, ast_clock) = run_engine(false, prog, mk().as_mut(), fuel);
    let (bc, bc_clock) = run_engine(true, prog, mk().as_mut(), fuel);
    assert_eq!(ast, bc, "{ctx}: results diverge");
    assert_eq!(ast_clock, bc_clock, "{ctx}: clocks diverge");
}

// ---- differential tests ----------------------------------------------------

#[test]
fn random_programs_agree_on_native() {
    for seed in 0..200 {
        let src = random_program(seed);
        let prog = parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        assert_agree(
            &prog,
            || Box::new(NativeBackend::new()),
            FUEL,
            &format!("seed {seed}\n{src}"),
        );
    }
}

#[test]
fn random_programs_agree_pool_transformed_on_shadow_pool() {
    // The pool transform threads pool parameters and inserts
    // poolinit/pooldestroy — covering the pool-register instructions —
    // and the shadow-pool backend turns dangling uses in the random
    // programs into traps, which must fire identically (same error, same
    // rendered report, same clock).
    for seed in 0..60 {
        let src = random_program(seed);
        let (prog, _) = pool_allocate(&parse(&src).unwrap());
        assert_agree(
            &prog,
            || Box::new(ShadowPoolBackend::new()),
            FUEL,
            &format!("seed {seed} (pooled)\n{src}"),
        );
    }
}

#[test]
fn fuel_sweep_pins_exhaustion_point() {
    // Every prefix of the burn sequence must exhaust at the same point
    // with the same final clock: the coalesced per-instruction costs may
    // never move a burn across a backend call or a loop boundary.
    let src = "
        struct node { next: ptr<node>, val: int }
        fn sum(p: ptr<node>) -> int {
            var s: int = 0;
            while (p != null) { s = s + p->val; p = p->next; }
            return s;
        }
        fn main() {
            var head: ptr<node> = null;
            var i: int = 0;
            while (i < 4) {
                var n: ptr<node> = malloc(node);
                n->val = i * 3;
                n->next = head;
                head = n;
                i = i + 1;
            }
            print(sum(head));
        }";
    let prog = parse(src).unwrap();
    for fuel in 0..400 {
        assert_agree(
            &prog,
            || Box::new(NativeBackend::new()),
            fuel,
            &format!("fuel {fuel}"),
        );
    }
}

#[test]
fn malloc_array_and_indexing_agree() {
    let src = "
        struct cell { v: int, w: int }
        fn main() {
            var n: int = 6;
            var a: ptr<cell> = malloc_array(cell, n);
            var i: int = 0;
            while (i < n) {
                a[i]->v = i * i;
                i = i + 1;
            }
            var s: int = 0;
            i = 0;
            while (i < n) {
                s = s + a[i]->v;
                i = i + 1;
            }
            print(s);
            free(a);
        }";
    let prog = parse(src).unwrap();
    assert_agree(&prog, || Box::new(NativeBackend::new()), FUEL, "array");
    assert_agree(&prog, || Box::new(ShadowBackend::new()), FUEL, "array shadow");
}

#[test]
fn runtime_error_programs_agree() {
    // Value-dependent errors stay at run time in the bytecode engine and
    // must fire at the same step with the same clock.
    for (name, src) in [
        ("div-zero", "fn main() { var d: int = 0; print(10 / d); }"),
        ("rem-zero", "fn main() { var d: int = 0; print(10 % d); }"),
        (
            "null-deref",
            "struct s { v: int } fn main() { var p: ptr<s> = null; print(p->v); }",
        ),
        (
            "null-store",
            "struct s { v: int } fn main() { var p: ptr<s> = null; p->v = 3; }",
        ),
        ("not-a-pointer", "struct s { v: int } fn f() -> ptr<s> { return null; } fn main() { var q: ptr<s> = null; q = f(); print(1); }"),
        ("infinite-loop", "fn main() { while (1) { } }"),
        (
            "array-count-negative",
            "struct s { v: int } fn main() { var n: int = 0 - 1; var a: ptr<s> = malloc_array(s, n); }",
        ),
    ] {
        let prog = parse(src).unwrap();
        assert_agree(&prog, || Box::new(NativeBackend::new()), 10_000, name);
    }
}

#[test]
fn server_corpus_agrees_under_every_backend() {
    for (name, src) in [
        ("fingerd", corpus::fingerd(6)),
        ("ftpd", corpus::ftpd(4)),
        ("ghttpd", corpus::ghttpd(6)),
        ("keepalive", corpus::ghttpd_keepalive(3, 5)),
        ("figure1-fixedish", FIGURE_1.to_string()),
    ] {
        let prog = parse(&src).unwrap();
        assert_agree(
            &prog,
            || Box::new(NativeBackend::new()),
            FUEL,
            &format!("{name} native"),
        );
        assert_agree(
            &prog,
            || Box::new(ShadowBackend::new()),
            FUEL,
            &format!("{name} shadow"),
        );
        let (pooled, _) = pool_allocate(&prog);
        assert_agree(
            &pooled,
            || Box::new(ShadowPoolBackend::new()),
            FUEL,
            &format!("{name} pooled shadow"),
        );
    }
}

#[test]
fn injected_uaf_trap_reports_are_byte_identical() {
    // The forensic deliverable: for every injected bug the detector's
    // structured TrapReport — allocation site, free site, use site, the
    // shadow call stacks frozen at each of the three events — must be
    // byte-identical JSON between engines.
    for (name, src) in corpus::injected_uafs() {
        let prog = parse(src).unwrap();
        let mut reports = Vec::new();
        for bytecode in [false, true] {
            let mut machine = Machine::free_running();
            let mut backend = ShadowBackend::new();
            let (res, clock) = {
                let res = if bytecode {
                    run_compiled(&compile(&prog).unwrap(), &mut machine, &mut backend, FUEL)
                } else {
                    run(&prog, &mut machine, &mut backend, FUEL)
                };
                let c = machine.clock();
                (res, c)
            };
            let err = res.expect_err(name);
            let RunError::Backend(dangle_interp::backend::BackendError::Trap {
                trap, ..
            }) = &err
            else {
                panic!("{name}: expected a trap, got {err}");
            };
            let report = backend
                .detector()
                .trap_report(&machine, trap, "minic")
                .unwrap_or_else(|| panic!("{name}: trap not attributed"));
            reports.push((format!("{err}"), clock, report.to_json().to_string()));
        }
        assert_eq!(reports[0], reports[1], "{name}: trap forensics diverge");
    }
}

#[test]
fn compile_error_surfaces_through_engine_selector() {
    use dangle_interp::{run_with, Engine};
    let prog = parse("fn main() { print(nope); }").unwrap();
    let mut backend = NativeBackend::new();
    let err = run_with(
        Engine::Bytecode,
        &prog,
        &mut Machine::free_running(),
        &mut backend,
        FUEL,
    )
    .unwrap_err();
    assert!(
        matches!(&err, RunError::Compile(e) if e.message == "undefined variable `nope`"),
        "{err}"
    );
    // The AST engine runs the same program up to the faulting read.
    let err = run_with(
        Engine::Ast,
        &prog,
        &mut Machine::free_running(),
        &mut backend,
        FUEL,
    )
    .unwrap_err();
    assert_eq!(err, RunError::UndefinedVariable("nope".into()));
}

// ---- call depth ------------------------------------------------------------

/// Runs `f` on a thread with a 128 MiB stack. A debug build spends 8 to
/// 16 KiB of host stack per MiniC call, so the default 2 MiB test thread
/// overflows long before [`MAX_CALL_DEPTH`].
fn on_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().stack_size(128 << 20).spawn(f).unwrap().join().unwrap();
}

#[test]
fn unbounded_recursion_is_an_error_at_the_same_step_in_both_engines() {
    on_big_stack(|| {
        let prog = parse(
            "fn f(n: int) -> int { var m: int = n + 1; print(m); return f(m); }
             fn main() { print(f(0)); }",
        )
        .unwrap();
        let (ast, clock) = run_engine(false, &prog, &mut NativeBackend::new(), FUEL);
        let (bc, bc_clock) = run_engine(true, &prog, &mut NativeBackend::new(), FUEL);
        assert_eq!(ast, Err(RunError::CallDepthExceeded));
        assert_eq!(bc, ast);
        assert_eq!(bc_clock, clock);
        // The program touches no memory, so on a free-running machine the
        // clock counts steps. Both engines reach the check with exactly
        // that much fuel, and run out one step before it with one less.
        // `f(m)` takes no instruction to evaluate its argument, so the
        // bytecode charges the call's burns on the `Call` itself: a check
        // placed before that charge would stop at a smaller clock.
        let boundary = [(clock, RunError::CallDepthExceeded), (clock - 1, RunError::OutOfFuel)];
        for (fuel, want) in boundary {
            for bytecode in [false, true] {
                let (r, at) = run_engine(bytecode, &prog, &mut NativeBackend::new(), fuel);
                assert_eq!((r, at), (Err(want.clone()), fuel), "bytecode: {bytecode}");
            }
        }
    });
}

#[test]
fn recursion_up_to_the_depth_limit_runs_in_both_engines() {
    on_big_stack(|| {
        // `main` plus f(k), f(k - 1), ..., f(0): k + 2 live frames.
        let deepest = MAX_CALL_DEPTH - 2;
        for (k, want) in
            [(deepest, Ok(vec![deepest as i64])), (deepest + 1, Err(RunError::CallDepthExceeded))]
        {
            let prog = parse(&format!(
                "fn f(n: int) -> int {{ if (n == 0) {{ return 0; }} return 1 + f(n - 1); }}
                 fn main() {{ print(f({k})); }}"
            ))
            .unwrap();
            for bytecode in [false, true] {
                let (r, _) = run_engine(bytecode, &prog, &mut NativeBackend::new(), FUEL);
                assert_eq!(r.map(|o| o.output), want, "k = {k}, bytecode: {bytecode}");
            }
        }
    });
}

// ---- pinned disassembly ----------------------------------------------------

#[test]
fn figure_one_pooled_disassembly_is_pinned() {
    // Full listing of the pool-transformed Figure 1 program. A diff here
    // means the ISA, the slot-resolution rules or the cost coalescing
    // changed — review it, then regenerate with
    // `cargo run -p dangle-interp --example disasm`.
    let (pooled, _) = pool_allocate(&parse(FIGURE_1).unwrap());
    let listing = compile(&pooled).unwrap().disassemble();
    assert_eq!(listing, include_str!("snapshots/figure1_pooled.disasm"));
}

#[test]
fn keepalive_checksum_disassembly_is_pinned() {
    // The benchmark's hot inner loop: the whole `acc = (acc*31 + i) %
    // 65536` body must stay register-resident (no loads, no calls), with
    // the loop carrying only two jumps — the shape the 10x host-throughput
    // claim rests on.
    let src = corpus::ghttpd_keepalive(2, 2);
    let bc = compile(&parse(&src).unwrap()).unwrap();
    let f = bc.funcs.iter().find(|f| f.name == "checksum").unwrap();
    assert_eq!(f.disassemble(), include_str!("snapshots/keepalive_checksum.disasm"));
}
