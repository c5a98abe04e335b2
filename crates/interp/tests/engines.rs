//! Engine-equivalence differential suite.
//!
//! The AST tree-walker is the reference semantics; the register-bytecode
//! compiler + VM must be observationally identical on every program the
//! AST engine executes without a name error and that declares no local
//! named like a global (a `CompileError`): same output, same step
//! count, same runtime errors, same detections and byte-identical
//! trap-report JSON — and the same simulated clock at every machine
//! boundary, not only at the end. Every run here is on a calibrated,
//! traced machine behind a backend decorator that logs the clock at each
//! backend call, and the two engines must agree on that log, on every
//! event-ring entry, on the flight recorder's folded spans and on its
//! five-way attribution.
//!
//! Coverage comes from three directions: a few hundred randomly generated
//! MiniC programs (raw and pool-transformed, on the native and
//! shadow-pool backends), the server corpus the benchmarks use, and the
//! injected use-after-free corpus where the trap provenance — allocation
//! site, free site, shadow call stacks — must match exactly. Two fuel
//! sweeps pin the out-of-fuel exhaustion point to the burn, one of them
//! across every kind of backend call.

use dangle_apa::{
    analyze, corpus, lint_with_mode, parse, pool_allocate, stamp_unchecked, LintMode, Program,
    FIGURE_1,
};
use dangle_interp::backend::{
    Backend, BackendError, NativeBackend, PoolHandle, ShadowBackend, ShadowPoolBackend,
};
use dangle_interp::{compile, run, run_compiled, RunError, RunOutcome, MAX_CALL_DEPTH};
use dangle_telemetry::{Event, TelemetryConfig, TrapReport};
use dangle_testkit::minic::random_program;
use dangle_vmm::{Machine, MachineConfig, Trap, VirtAddr};
use std::fmt::Debug;

const FUEL: u64 = 50_000_000;

/// Event-ring capacity of [`traced_machine`]: no program here records
/// more events, so the ring never overwrites one (`run_engine` asserts
/// it) and the engines are compared on every event.
const RING: usize = 1 << 16;

/// A machine with the calibrated cost model, so TLB, cache and syscall
/// charges all move the clock, and with the flight recorder on.
fn traced_machine() -> Machine {
    Machine::with_config(MachineConfig {
        telemetry: TelemetryConfig { ring_capacity: RING, ..TelemetryConfig::traced() },
        ..MachineConfig::default()
    })
}

/// A [`Backend`] decorator that logs `(method, machine.clock())` as each
/// call arrives: the clock an engine shows the backend at every machine
/// boundary.
struct ClockLog<'b> {
    inner: &'b mut dyn Backend,
    log: Vec<(&'static str, u64)>,
}

impl ClockLog<'_> {
    fn note(&mut self, method: &'static str, machine: &Machine) {
        self.log.push((method, machine.clock()));
    }
}

impl Backend for ClockLog<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.note("alloc", machine);
        self.inner.alloc(machine, size, pool)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.note("free", machine);
        self.inner.free(machine, addr, pool)
    }

    fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.note("alloc_unchecked", machine);
        self.inner.alloc_unchecked(machine, size, pool)
    }

    fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.note("free_unchecked", machine);
        self.inner.free_unchecked(machine, addr, pool)
    }

    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        self.note("pool_create", machine);
        self.inner.pool_create(machine, elem_hint)
    }

    fn pool_destroy(&mut self, machine: &mut Machine, pool: PoolHandle) -> Result<(), BackendError> {
        self.note("pool_destroy", machine);
        self.inner.pool_destroy(machine, pool)
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        self.note("load", machine);
        self.inner.load(machine, addr, width)
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        self.note("store", machine);
        self.inner.store(machine, addr, width, value)
    }

    fn load_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), BackendError> {
        self.note("load_bytes", machine);
        self.inner.load_bytes(machine, addr, buf)
    }

    fn store_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &[u8],
    ) -> Result<(), BackendError> {
        self.note("store_bytes", machine);
        self.inner.store_bytes(machine, addr, buf)
    }

    fn memset(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        byte: u8,
        len: usize,
    ) -> Result<(), BackendError> {
        self.note("memset", machine);
        self.inner.memset(machine, addr, byte, len)
    }

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.inner.explain(trap)
    }

    fn compute(&mut self, machine: &mut Machine, cycles: u64) {
        self.note("compute", machine);
        self.inner.compute(machine, cycles);
    }
}

/// Everything one run shows outside the engine.
struct Observed {
    result: Result<RunOutcome, RunError>,
    clock: u64,
    /// `(method, clock)` at every backend call, in order.
    calls: Vec<(&'static str, u64)>,
    /// The whole event ring, oldest first.
    events: Vec<Event>,
    /// The flight recorder's collapsed-stack export.
    fold: String,
    /// The five-way cycle attribution.
    categories: Vec<(&'static str, u64)>,
}

/// Runs `prog` through one engine on a fresh [`traced_machine`], with
/// `backend` behind a [`ClockLog`].
fn run_engine(bytecode: bool, prog: &Program, backend: &mut dyn Backend, fuel: u64) -> Observed {
    let mut machine = traced_machine();
    let mut logged = ClockLog { inner: backend, log: Vec::new() };
    let result = if bytecode {
        match compile(prog) {
            Ok(bc) => run_compiled(&bc, &mut machine, &mut logged, fuel),
            Err(e) => Err(RunError::Compile(e)),
        }
    } else {
        run(prog, &mut machine, &mut logged, fuel)
    };
    let telemetry = machine.telemetry();
    assert_eq!(telemetry.ring().dropped(), 0, "ring too small to compare every event");
    let tracer = telemetry.tracer().expect("traced machine");
    Observed {
        result,
        clock: machine.clock(),
        calls: logged.log,
        events: telemetry.ring().iter().copied().collect(),
        fold: tracer.fold(),
        categories: tracer.categories(),
    }
}

/// Fails with the first entry where `a` and `b` differ.
fn assert_same_seq<T: PartialEq + Debug>(a: &[T], b: &[T], what: &str, ctx: &str) {
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        panic!(
            "{ctx}: {what} diverge at entry {i} of {} / {}: ast {:?}, bytecode {:?}",
            a.len(),
            b.len(),
            a.get(i),
            b.get(i)
        );
    }
}

/// Asserts both engines agree under fresh instances of the given backend:
/// on the result, on the final clock, and at every boundary in between.
/// Returns what the AST engine showed.
fn assert_agree(
    prog: &Program,
    mut mk: impl FnMut() -> Box<dyn Backend>,
    fuel: u64,
    ctx: &str,
) -> Observed {
    let ast = run_engine(false, prog, mk().as_mut(), fuel);
    let bc = run_engine(true, prog, mk().as_mut(), fuel);
    assert_eq!(ast.result, bc.result, "{ctx}: results diverge");
    assert_same_seq(&ast.calls, &bc.calls, "backend-call clocks", ctx);
    assert_same_seq(&ast.events, &bc.events, "ring events", ctx);
    assert_eq!(ast.fold, bc.fold, "{ctx}: folded spans diverge");
    assert_eq!(ast.categories, bc.categories, "{ctx}: cycle attribution diverges");
    assert_eq!(ast.clock, bc.clock, "{ctx}: clocks diverge");
    ast
}

/// `prog` pool-allocated and stamped by the interprocedural lint, the
/// toolchain the benchmarks run: proven-safe sites reach the backend as
/// `alloc_unchecked`/`free_unchecked`.
fn pooled_and_linted(prog: &Program) -> Program {
    let (mut pooled, _) = pool_allocate(prog);
    let report = lint_with_mode(prog, &analyze(prog), LintMode::Inter);
    stamp_unchecked(&mut pooled, &report);
    pooled
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
    // never move a burn across a backend call or a loop boundary. Loops
    // are rotated (a guard test, the body, a bottom test), so `shapes`
    // runs one loop per kind of bottom test, each for zero, one and three
    // trips: the fused negations of `<=`, `>`, `==`, `>=` and of the field
    // load's `>`, and `brz.Eq v, #0` on a bare variable and on `&&`. The
    // `<` and `!=` loops cover the other two fused negations.
    let src = "
        struct node { next: ptr<node>, val: int }
        fn sum(p: ptr<node>) -> int {
            var s: int = 0;
            while (p != null) { s = s + p->val; p = p->next; }
            return s;
        }
        fn shapes(n: int) -> int {
            var t: int = 0;
            var i: int = 1;
            while (i <= n) { t = t + i; i = i + 1; }
            i = n;
            while (i > 0) { t = t * 2; i = i - 1; }
            var more: int = 0 < n;
            i = 0;
            while (more == 1) { t = t + 3; i = i + 1; more = i < n; }
            i = n;
            while (i) { t = t + 5; i = i - 1; }
            i = 0;
            while (i < n && t > 0) { t = t - 1; i = i + 1; }
            i = n;
            while (i >= 1) { t = t + 7; i = i - 1; }
            var c: ptr<node> = malloc(node);
            c->val = n;
            while (c->val > 0) { t = t + c->val; c->val = c->val - 1; }
            free(c);
            return t;
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
            print(shapes(0));
            print(shapes(1));
            print(shapes(3));
        }";
    let prog = parse(src).unwrap();
    let listing = compile(&prog).unwrap().disassemble();
    for bottom in [
        "brz.Gt",
        "brz.Le",
        "brz.Ne",
        "brz.Eq %i, #0",
        "brz.Eq %t0, #0",
        "brz.Lt %i, #1",
        "brz.Ge",
    ] {
        assert!(listing.contains(bottom), "no `{bottom}` in\n{listing}");
    }
    assert!(!listing.contains("jump"), "a loop kept its back-edge jump:\n{listing}");
    let native = || Box::new(NativeBackend::new()) as Box<dyn Backend>;
    let full = assert_agree(&prog, native, FUEL, "full run");
    let out = full.result.expect("the program runs clean");
    assert_eq!(out.output, [18, 0, 17, 96]);
    for fuel in 0..=out.steps_used {
        assert_agree(&prog, native, fuel, &format!("fuel {fuel}"));
    }
}

#[test]
fn fuel_sweep_crosses_every_kind_of_backend_call() {
    // Every exhaustion point of a program that makes all eight kinds of
    // backend call, so for each call some fuel runs out just before it
    // and the next just after it. The VM ticks the clock only at
    // boundaries; each of these points must still show the backend, the
    // ring and the flight recorder the AST engine's clock.
    let src = "
        struct node { next: ptr<node>, val: int }
        fn push(head: ptr<node>, v: int) -> ptr<node> {
            var n: ptr<node> = malloc(node);
            n->val = v;
            n->next = head;
            return n;
        }
        fn roundtrip(v: int) -> int {
            var t: ptr<node> = malloc(node);
            t->val = v * 2;
            var r: int = t->val;
            free(t);
            return r;
        }
        fn main() {
            var head: ptr<node> = null;
            var i: int = 0;
            while (i < 3) { head = push(head, i); i = i + 1; }
            var s: int = roundtrip(i);
            while (head != null) {
                s = s + head->val;
                var nxt: ptr<node> = head->next;
                free(head);
                head = nxt;
            }
            var a: ptr<node> = malloc_array(node, i);
            a[1]->val = s;
            s = a[1]->val + 1;
            free(a);
            print(s);
        }";
    let prog = pooled_and_linted(&parse(src).unwrap());
    let shadow_pool = || Box::new(ShadowPoolBackend::new()) as Box<dyn Backend>;
    let full = assert_agree(&prog, shadow_pool, FUEL, "full run");
    let steps = full.result.as_ref().expect("the program runs clean").steps_used;
    for kind in [
        "alloc",
        "alloc_unchecked",
        "free",
        "free_unchecked",
        "load",
        "store",
        "pool_create",
        "pool_destroy",
    ] {
        assert!(full.calls.iter().any(|&(m, _)| m == kind), "no {kind} call in {:?}", full.calls);
    }
    let mut reached = 0;
    for fuel in 0..=steps {
        let o = assert_agree(&prog, shadow_pool, fuel, &format!("fuel {fuel}"));
        assert!(o.calls.len() >= reached, "fuel {fuel}: fewer backend calls than with less fuel");
        reached = o.calls.len();
    }
    assert_eq!(reached, full.calls.len(), "the sweep ends at the full run");
}

#[test]
fn loop_conditions_resolve_names_as_at_the_loop_head() {
    // A `var` in a loop body that never runs must not change what the
    // loop's condition reads: the AST engine keeps one runtime map, so
    // the condition reads the names as they stand at the loop, and the
    // rotated loop's bottom test must too, like its guard.
    let src = "struct a { v: int }
         struct b { w: int }
         fn main() {
             var p: ptr<a> = malloc(a);
             p->v = 2;
             var n: int = 0;
             while (p->v > 0) {
                 p->v = p->v - 1;
                 n = n + 1;
                 if (n > 100) { var p: ptr<b> = null; }
             }
             print(n);
             free(p);
         }";
    let prog = parse(src).unwrap();
    let seen = assert_agree(&prog, || Box::new(NativeBackend::new()), 10_000, "retyped pointer");
    assert_eq!(seen.result.unwrap().output, [2]);

    // A local named like a global is a compile error. The AST engine reads
    // the global until the `var` runs and the local after it, so once the
    // `var` runs inside the loop, its condition reads the local on every
    // later trip: the second program prints 1, where one slot per name
    // would keep reading the global and print 3.
    for (name, src, ast_output) in [
        (
            "global shadowed in a branch that never runs",
            "global g: int;
             fn main() {
                 var i: int = 0;
                 while (g < 3) { g = g + 1; if (i > 100) { var g: int = 0; } i = i + 1; }
                 print(i);
             }",
            3,
        ),
        (
            "global shadowed on every trip",
            "global g: int;
             fn main() {
                 var n: int = 0;
                 while (g < 3) { g = g + 1; n = n + 1; var g: int = 7; }
                 print(n);
             }",
            1,
        ),
    ] {
        let prog = parse(src).unwrap();
        let err = compile(&prog).err().unwrap_or_else(|| panic!("{name}: compiled"));
        assert_eq!(err.message, "local `g` shadows a global", "{name}");
        let ast = run_engine(false, &prog, &mut NativeBackend::new(), 10_000);
        assert_eq!(ast.result.unwrap().output, [ast_output], "{name}");
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
        assert_agree(
            &pooled_and_linted(&prog),
            || Box::new(ShadowPoolBackend::new()),
            FUEL,
            &format!("{name} pooled, linted shadow"),
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
            let mut machine = traced_machine();
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

// ---- operators at edge values ----------------------------------------------

/// Each binary operator's MiniC spelling and the name its instructions
/// disassemble with.
const OPERATORS: [(&str, &str); 13] = [
    ("+", "Add"),
    ("-", "Sub"),
    ("*", "Mul"),
    ("/", "Div"),
    ("%", "Rem"),
    ("<", "Lt"),
    ("<=", "Le"),
    (">", "Gt"),
    (">=", "Ge"),
    ("==", "Eq"),
    ("!=", "Ne"),
    ("&&", "And"),
    ("||", "Or"),
];

/// Declares the register operands `i64::MIN`, -1, 0, 1, `i64::MAX`, 2^16
/// and -2^16. MiniC has no negative literals (`-x` parses as `0 - x`), so
/// the negative ones are computed at run time.
const EDGE_DECLS: &str = "var min: int = 0 - 9223372036854775807 - 1; var neg: int = 0 - 1; \
    var zero: int = 0; var one: int = 1; var max: int = 9223372036854775807; \
    var pow: int = 65536; var negpow: int = 0 - 65536;";
const EDGE_REGISTERS: [&str; 7] = ["min", "neg", "zero", "one", "max", "pow", "negpow"];
/// Literal right operands, which cannot be negative: 1, 2, 2^16 and 2^62
/// are the powers of two that division and remainder shift and mask by.
const EDGE_LITERALS: [&str; 6] =
    ["0", "1", "2", "65536", "4611686018427387904", "9223372036854775807"];

#[test]
fn every_operator_agrees_at_edge_values_in_every_form() {
    // Each operator in its four forms: a register and a literal right
    // operand, each as a value and as a branch condition (the fused
    // compare-and-branch forms), over operands the random programs, which
    // draw only small literals, never reach. Division and remainder meet
    // positive powers of two, which they shift and mask by, with negative,
    // non-multiple and `i64::MIN` dividends, and meet -2^16, which must
    // take the divide, with every dividend. A zero divisor ends its run,
    // so each one gets a run of its own.
    for (op, name) in OPERATORS {
        for (sigil, rhss) in [('%', &EDGE_REGISTERS[..]), ('#', &EDGE_LITERALS[..])] {
            let mut outputs = Vec::new();
            for branch in [false, true] {
                let stmt = |l: &str, r: &str| match branch {
                    true => format!("if ({l} {op} {r}) {{ print(1); }} else {{ print(0); }}"),
                    false => format!("print({l} {op} {r});"),
                };
                let form = format!("{}.{name} ", if branch { "brz" } else { "bin" });
                let (zeros, rest): (Vec<&str>, Vec<&str>) = rhss
                    .iter()
                    .partition(|&&r| matches!(op, "/" | "%") && matches!(r, "zero" | "0"));
                // (statements, the operands of one of them, divides by zero)
                let mut runs = vec![(
                    rest.iter().flat_map(|r| EDGE_REGISTERS.map(|l| stmt(l, r))).collect(),
                    (EDGE_REGISTERS[0], rest[0]),
                    false,
                )];
                for r in zeros {
                    runs.extend(EDGE_REGISTERS.map(|l| (stmt(l, r), (l, r), true)));
                }
                for (stmts, (l, r), divides_by_zero) in runs {
                    let src = format!("fn main() {{ {EDGE_DECLS} {stmts} }}");
                    let ctx = format!("{form}with `{sigil}` operands\n{src}");
                    let prog = parse(&src).unwrap();
                    let listing = compile(&prog).unwrap().disassemble();
                    let operands = format!("%{l}, {sigil}{r}");
                    assert!(
                        listing.lines().any(|x| x.contains(&form) && x.contains(&operands)),
                        "{ctx}: no `{form}` on `{operands}` in\n{listing}"
                    );
                    let ast = assert_agree(&prog, || Box::new(NativeBackend::new()), FUEL, &ctx);
                    if divides_by_zero {
                        assert_eq!(ast.result, Err(RunError::DivisionByZero), "{ctx}");
                    } else {
                        outputs.push(ast.result.expect(&ctx).output);
                    }
                }
            }
            // A branch is taken exactly when the value form is nonzero.
            let taken: Vec<i64> = outputs[0].iter().map(|&v| i64::from(v != 0)).collect();
            assert_eq!(taken, outputs[1], "{name} with `{sigil}` operands: branch and value");
        }
    }
}

// ---- aborted runs ----------------------------------------------------------

/// A trap report without what depends on the machine's earlier work: the
/// clock, the absolute addresses and the event-ring context.
fn provenance(mut r: TrapReport) -> TrapReport {
    r.fault_addr -= r.object_base;
    r.object_base = 0;
    r.clock = 0;
    r.ring_dropped = 0;
    r.events.clear();
    r
}

/// One run on `machine` through the chosen engine.
fn run_on(
    bytecode: bool,
    prog: &Program,
    machine: &mut Machine,
    backend: &mut dyn Backend,
    fuel: u64,
) -> Result<RunOutcome, RunError> {
    if bytecode {
        run_compiled(&compile(prog).unwrap(), machine, backend, fuel)
    } else {
        run(prog, machine, backend, fuel)
    }
}

/// What an aborted run leaves for its reader: the shadow call stack, and
/// the report's provenance for a trap or the error otherwise.
fn after_abort(
    res: Result<RunOutcome, RunError>,
    machine: &Machine,
    backend: &ShadowBackend,
) -> (Vec<String>, Result<TrapReport, RunError>) {
    let cause = match res.expect_err("a faulting run") {
        RunError::Backend(BackendError::Trap { trap, .. }) => {
            let r = backend.detector().trap_report(machine, &trap, "minic");
            Ok(provenance(r.expect("trap attributed")))
        }
        e => Err(e),
    };
    (machine.telemetry().call_stack().to_vec(), cause)
}

#[test]
fn aborted_runs_leave_no_frames_behind_in_either_engine() {
    // A run that traps, hits a runtime error or runs out of fuel skips its
    // pops so the trap report can read the faulting stack. Its frames must
    // not outlive the next run: k faulting runs on one machine and backend
    // must each leave exactly what a fresh machine leaves, and a clean run
    // after them must nest its spans under a single `main`.
    let faulting = [
        corpus::injected_uafs()[0].1.to_string(),
        "struct s { v: int }
         fn peek(p: ptr<s>) -> int { return p->v; }
         fn main() { var p: ptr<s> = malloc(s); p->v = 1; free(p); print(peek(p)); }"
            .to_string(),
        "fn div(a: int, b: int) -> int { return a / b; }
         fn main() { print(div(1, 0)); }"
            .to_string(),
        "fn spin() { while (1) { } } fn main() { spin(); }".to_string(),
        // The body frees what the condition reads: the guard passes, and
        // the trap fires in the rotated loop's bottom test.
        "struct s { v: int }
         fn drain(p: ptr<s>) { while (p->v > 0) { free(p); } }
         fn main() { var p: ptr<s> = malloc(s); p->v = 2; drain(p); }"
            .to_string(),
    ];
    let faulting: Vec<Program> = faulting.iter().map(|s| parse(s).unwrap()).collect();
    let clean = parse(
        "struct s { v: int }
         fn get(p: ptr<s>) -> int { return p->v; }
         fn main() { var p: ptr<s> = malloc(s); p->v = 7; print(get(p)); free(p); }",
    )
    .unwrap();
    let fuel = 10_000;
    let mut engines = Vec::new();
    for bytecode in [false, true] {
        let mut machine = traced_machine();
        let mut backend = ShadowBackend::new();
        let mut seen = Vec::new();
        for (k, prog) in faulting.iter().cycle().take(3 * faulting.len()).enumerate() {
            let ctx = format!("bytecode: {bytecode}, faulting run {k}");
            let res = run_on(bytecode, prog, &mut machine, &mut backend, fuel);
            let got = after_abort(res, &machine, &backend);
            let mut fresh_machine = traced_machine();
            let mut fresh_backend = ShadowBackend::new();
            let res = run_on(bytecode, prog, &mut fresh_machine, &mut fresh_backend, fuel);
            let want = after_abort(res, &fresh_machine, &fresh_backend);
            assert_eq!(got, want, "{ctx}: differs from a fresh machine");
            let depth = machine.telemetry().tracer().unwrap().depth();
            assert_eq!(depth, 0, "{ctx}: spans left open");
            seen.push(got);
        }
        let out = run_on(bytecode, &clean, &mut machine, &mut backend, fuel);
        assert_eq!(out.map(|o| o.output), Ok(vec![7]), "bytecode: {bytecode}");
        assert!(machine.telemetry().call_stack().is_empty(), "bytecode: {bytecode}");
        let fold = machine.telemetry().tracer().unwrap().fold();
        for line in fold.lines().filter(|l| !l.starts_with("(root) ")) {
            let (path, _cycles) = line.rsplit_once(' ').unwrap();
            let mains = path.split(';').filter(|&f| f == "main").count();
            assert_eq!(mains, 1, "bytecode: {bytecode}: nested under stale frames: {line}");
        }
        engines.push((seen, fold, machine.clock()));
    }
    assert!(engines[0] == engines[1], "the engines leave different state behind");
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
        let ast = assert_agree(&prog, || Box::new(NativeBackend::new()), FUEL, "recursion");
        assert_eq!(ast.result, Err(RunError::CallDepthExceeded));
        let clock = ast.clock;
        // The program touches no memory, so the clock counts steps. Both
        // engines reach the check with exactly that much fuel, and run out
        // one step before it with one less.
        // `f(m)` takes no instruction to evaluate its argument, so the
        // bytecode charges the call's burns on the `Call` itself: a check
        // placed before that charge would stop at a smaller clock.
        let boundary = [(clock, RunError::CallDepthExceeded), (clock - 1, RunError::OutOfFuel)];
        for (fuel, want) in boundary {
            for bytecode in [false, true] {
                let o = run_engine(bytecode, &prog, &mut NativeBackend::new(), fuel);
                assert_eq!((o.result, o.clock), (Err(want.clone()), fuel), "bytecode: {bytecode}");
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
                let o = run_engine(bytecode, &prog, &mut NativeBackend::new(), FUEL);
                assert_eq!(o.result.map(|o| o.output), want, "k = {k}, bytecode: {bytecode}");
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
    // The hot inner loop of perfbench's keepalive-vm workload, where most
    // of its executed instructions are: the whole `acc = (acc*31 + i) %
    // 65536` body stays register-resident (no loads, no calls), the
    // rotated loop ends each iteration in one fused `brz.Ge` back to the
    // body, with no back-edge `jump`, and each binary op is one
    // instruction of its operator's own. A diff here moves that
    // workload's host speed.
    let src = corpus::ghttpd_keepalive(2, 2);
    let bc = compile(&parse(&src).unwrap()).unwrap();
    let f = bc.funcs.iter().find(|f| f.name == "checksum").unwrap();
    assert_eq!(f.disassemble(), include_str!("snapshots/keepalive_checksum.disasm"));
}
