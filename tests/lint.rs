//! dangle-lint end to end: pinned verdicts for the flow-sensitive
//! free-site safety analysis on hand-written MiniC programs (loops,
//! branches, aliasing through fields, re-assignment after free), the
//! runtime reproduction guarantee for `Definite*` verdicts, the shadow
//! elision fast path for `ProvablySafe` classes, and a lint↔runtime
//! differential property test over randomized MiniC programs: stamping
//! `unchecked` sites never changes a program's observable behaviour, and
//! no `ProvablySafe` site ever participates in a runtime detection. Over
//! the server and injected-UAF corpora, deeper analysis only removes
//! protection syscalls, and never changes output, detection or trap text.

use dangle::apa::{
    analyze, corpus, lint, parse, pool_allocate, pool_allocate_with_lint, LintReport,
    Program, Verdict, FIGURE_1,
};
use dangle::interp::backend::ShadowPoolBackend;
use dangle::interp::{is_detection, run, RunError, RunOutcome};
use dangle::vmm::Machine;

const FUEL: u64 = 4_000_000;

fn lint_src(src: &str) -> LintReport {
    let prog = parse(src).unwrap();
    let a = analyze(&prog);
    lint(&prog, &a)
}

// ---------------------------------------------------------------------
// Pinned verdicts. Free sites are numbered 0.. in source order.
// ---------------------------------------------------------------------

#[test]
fn straight_line_uaf_is_definite_with_source_spans() {
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             p->v = 1;
             free(p);
             print(p->v);
         }",
    );
    assert_eq!(r.verdict(0), Verdict::DefiniteUAF);
    assert_eq!(r.diagnostics.len(), 1);
    let d = &r.diagnostics[0];
    assert_eq!(d.func, "main");
    assert_eq!(d.span.line, 5, "diagnostic points at the free");
    assert_eq!(d.offending_use.unwrap().line, 6, "and at the use");
    assert!(r.elidable_classes.is_empty());
    let text = d.to_string();
    assert!(text.contains("use-after-free"), "{text}");
}

#[test]
fn straight_line_double_free_is_definite() {
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             free(p);
             free(p);
         }",
    );
    // The second free definitely re-frees; the first is demoted because a
    // later free touches its object.
    assert_eq!(r.verdict(0), Verdict::Unknown);
    assert_eq!(r.verdict(1), Verdict::DefiniteDoubleFree);
    assert!(r.elidable_classes.is_empty());
}

#[test]
fn alloc_use_free_is_provably_safe_and_elidable() {
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             p->v = 5;
             print(p->v);
             free(p);
         }",
    );
    assert_eq!(r.verdict(0), Verdict::ProvablySafe);
    assert!(r.is_clean());
    assert!(r.elidable_classes.contains(&0));
    assert!(!r.unchecked_malloc_sites.is_empty());
    assert!(!r.unchecked_free_sites.is_empty());
}

#[test]
fn loop_alloc_use_free_stays_safe() {
    // The recency abstraction must not merge iterations: each malloc
    // demotes the previous object to the Old summary, but the freshly
    // allocated one stays unambiguous through use and free.
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var i: int = 0;
             while (i < 5) {
                 var p: ptr<s> = malloc(s);
                 p->v = i;
                 print(p->v);
                 free(p);
                 i = i + 1;
             }
         }",
    );
    assert_eq!(r.verdict(0), Verdict::ProvablySafe);
    assert!(r.elidable_classes.contains(&0));
}

#[test]
fn one_sided_branch_free_then_use_is_unknown() {
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             var c: int = 1;
             if (c < 2) { free(p); }
             print(p->v);
         }",
    );
    // May-UAF, not definite: no false positive, but no elision either.
    assert_eq!(r.verdict(0), Verdict::Unknown);
    assert!(r.is_clean());
    assert!(r.elidable_classes.is_empty());
}

#[test]
fn free_on_both_branches_then_use_is_definite() {
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             var c: int = 1;
             if (c < 2) { free(p); } else { free(p); }
             print(p->v);
         }",
    );
    // The join of two strong frees is must-freed, and the use after the
    // join definitely executes — both sites are definite UAFs.
    assert_eq!(r.verdict(0), Verdict::DefiniteUAF);
    assert_eq!(r.verdict(1), Verdict::DefiniteUAF);
}

#[test]
fn reassignment_after_free_is_safe() {
    // `p = malloc(s)` after `free(p)` retargets the variable to a fresh
    // object; the dangling token is unreachable afterwards.
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             free(p);
             p = malloc(s);
             print(p->v);
             free(p);
         }",
    );
    assert_eq!(r.verdict(0), Verdict::ProvablySafe);
    assert_eq!(r.verdict(1), Verdict::ProvablySafe);
    assert!(r.elidable_classes.contains(&0));
}

#[test]
fn escape_through_global_blocks_elision() {
    let r = lint_src(
        "struct s { v: int }
         global g: ptr<s>;
         fn main() {
             var p: ptr<s> = malloc(s);
             g = p;
             free(p);
         }",
    );
    assert_eq!(r.verdict(0), Verdict::Unknown);
    assert!(r.elidable_classes.is_empty());
}

#[test]
fn aliasing_through_heap_field_blocks_elision() {
    let r = lint_src(
        "struct s { v: int, next: ptr<s> }
         fn main() {
             var a: ptr<s> = malloc(s);
             var b: ptr<s> = malloc(s);
             a->next = b;
             free(b);
             print(a->v);
         }",
    );
    // `b` escaped into the heap, so the analysis cannot bound its uses and
    // its free site keeps full protection. (`a`'s class may still be
    // vacuously elidable — it is never freed, so it can never dangle.)
    assert_eq!(r.verdict(0), Verdict::Unknown);
    assert!(r.is_clean());
    assert!(r.unchecked_free_sites.is_empty());
}

#[test]
fn double_free_through_alias_copy_is_definite() {
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             var q: ptr<s> = p;
             free(p);
             free(q);
         }",
    );
    assert_eq!(r.verdict(1), Verdict::DefiniteDoubleFree);
}

#[test]
fn uaf_through_alias_copy_is_definite() {
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             var q: ptr<s> = p;
             free(p);
             print(q->v);
         }",
    );
    assert_eq!(r.verdict(0), Verdict::DefiniteUAF);
}

#[test]
fn figure_one_is_unknown_everywhere_and_never_elided() {
    // Figure 1 frees through function parameters — beyond an
    // intraprocedural analysis. It must stay Unknown (no false positive,
    // full runtime protection retained).
    let prog = parse(FIGURE_1).unwrap();
    let a = analyze(&prog);
    let r = lint(&prog, &a);
    assert!(r.is_clean());
    assert_eq!(r.sites_flagged(), 0);
    assert_eq!(r.sites_safe(), 0);
    assert!(r.sites_unknown() > 0);
    assert!(r.elidable_classes.is_empty());
    assert!(r.unchecked_malloc_sites.is_empty());
}

#[test]
fn use_inside_loop_after_free_is_unknown_not_definite() {
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             free(p);
             var i: int = 0;
             while (i < 3) {
                 print(p->v);
                 i = i + 1;
             }
         }",
    );
    // The loop body is not a definite context (it may run zero times), so
    // the verdict degrades to Unknown rather than claiming DefiniteUAF.
    assert_eq!(r.verdict(0), Verdict::Unknown);
    assert!(r.is_clean());
}

#[test]
fn free_inside_loop_is_unknown() {
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             var i: int = 0;
             while (i < 1) {
                 free(p);
                 i = i + 1;
             }
         }",
    );
    // A second iteration would double-free; the fixpoint sees the
    // may-freed state flowing back around.
    assert_eq!(r.verdict(0), Verdict::Unknown);
    assert!(r.is_clean());
}

#[test]
fn may_null_free_is_safe() {
    // `free(null)` is a runtime no-op; a pointer that is null on one path
    // and a live unescaped object on the other is still safe to free —
    // but the free must be weak (the object may outlive the null path).
    let r = lint_src(
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             var c: int = 0;
             if (c < 1) { p = null; }
             free(p);
         }",
    );
    assert_eq!(r.verdict(0), Verdict::ProvablySafe);
    assert!(r.elidable_classes.contains(&0));
}

#[test]
fn interior_pointer_free_is_unknown_but_array_base_free_is_safe() {
    let interior = lint_src(
        "struct s { v: int }
         fn main() {
             var arr: ptr<s> = malloc_array(s, 4);
             free(arr[1]);
         }",
    );
    assert_eq!(interior.verdict(0), Verdict::Unknown);

    let base = lint_src(
        "struct s { v: int }
         fn main() {
             var arr: ptr<s> = malloc_array(s, 4);
             arr[0]->v = 7;
             print(arr[0]->v);
             free(arr);
         }",
    );
    assert_eq!(base.verdict(0), Verdict::ProvablySafe);
    assert!(base.elidable_classes.contains(&0));
}

// ---------------------------------------------------------------------
// Runtime reproduction and elision.
// ---------------------------------------------------------------------

/// Comparable run result: detections collapse to one tag (report text
/// carries addresses that legitimately differ between layouts), other
/// errors keep their kind.
#[derive(Debug, PartialEq)]
enum Outcome {
    Finished(Vec<i64>),
    Detected,
    Failed(&'static str),
}

fn outcome(res: Result<RunOutcome, RunError>) -> Outcome {
    match res {
        Ok(o) => Outcome::Finished(o.output),
        Err(e) if is_detection(&e) => Outcome::Detected,
        Err(RunError::NullDereference) => Outcome::Failed("null-deref"),
        Err(RunError::DivisionByZero) => Outcome::Failed("div-zero"),
        Err(RunError::OutOfFuel) => Outcome::Failed("fuel"),
        Err(_) => Outcome::Failed("other"),
    }
}

fn run_shadow_pool(prog: &Program) -> (Outcome, Machine) {
    let mut m = Machine::free_running();
    let mut b = ShadowPoolBackend::new();
    let res = run(prog, &mut m, &mut b, FUEL);
    (outcome(res), m)
}

#[test]
fn definite_verdicts_reproduce_as_runtime_detections() {
    for src in [
        "struct s { v: int }
         fn main() { var p: ptr<s> = malloc(s); free(p); print(p->v); }",
        "struct s { v: int }
         fn main() { var p: ptr<s> = malloc(s); free(p); free(p); }",
        "struct s { v: int }
         fn main() {
             var p: ptr<s> = malloc(s);
             var q: ptr<s> = p;
             free(p);
             print(q->v);
         }",
    ] {
        let prog = parse(src).unwrap();
        let a = analyze(&prog);
        let r = lint(&prog, &a);
        assert!(r.sites_flagged() > 0, "lint must flag: {src}");
        let (t, _) = pool_allocate(&prog);
        let (got, _) = run_shadow_pool(&t);
        assert_eq!(got, Outcome::Detected, "flagged program must trap: {src}");
    }
}

#[test]
fn provably_safe_program_elides_protection_and_keeps_output() {
    let src = "struct s { v: int }
         fn main() {
             var i: int = 0;
             while (i < 20) {
                 var p: ptr<s> = malloc(s);
                 p->v = i * 3;
                 print(p->v);
                 free(p);
                 i = i + 1;
             }
         }";
    let prog = parse(src).unwrap();

    let (plain, _) = pool_allocate(&prog);
    let (stamped, _, report) = pool_allocate_with_lint(&prog);
    assert_eq!(report.sites_flagged(), 0);
    assert!(report.sites_safe() > 0);

    let (out_plain, m_plain) = run_shadow_pool(&plain);
    let (out_stamped, m_stamped) = run_shadow_pool(&stamped);
    assert_eq!(out_plain, out_stamped, "elision must not change behaviour");
    assert!(matches!(out_plain, Outcome::Finished(_)));

    // The elided run performs strictly fewer protection syscalls and
    // records the elisions in telemetry.
    assert!(
        m_stamped.stats().mprotect_calls < m_plain.stats().mprotect_calls,
        "stamped: {} vs plain: {}",
        m_stamped.stats().mprotect_calls,
        m_plain.stats().mprotect_calls
    );
    assert!(m_stamped.stats().mremap_calls < m_plain.stats().mremap_calls);
    assert!(m_stamped.metrics_snapshot().counter("shadow.elided") > 0);
    assert_eq!(m_plain.metrics_snapshot().counter("shadow.elided"), 0);
}

// ---------------------------------------------------------------------
// Differential property test: random MiniC programs.
// ---------------------------------------------------------------------

use dangle_testkit::SeededRng as TestRng;

/// Emits a random statement over pointer vars `p0..p2` (all non-null by
/// construction: initialized with malloc, reassigned only from malloc or
/// each other). Dangling uses and double frees arise naturally from the
/// `free` arm; null dereferences and division cannot occur, so the only
/// possible runtime error is a detection.
fn gen_stmt(rng: &mut TestRng, out: &mut String, depth: usize, loop_var: &mut usize) {
    let p = |rng: &mut TestRng| format!("p{}", rng.below(3));
    match rng.below(if depth == 0 { 8 } else { 6 }) {
        0 => out.push_str(&format!("{} = malloc(s);\n", p(rng))),
        1 => out.push_str(&format!("{} = {};\n", p(rng), p(rng))),
        2 => out.push_str(&format!("{}->v = {};\n", p(rng), rng.below(100))),
        3 => out.push_str(&format!("print({}->v);\n", p(rng))),
        4 => out.push_str(&format!("free({});\n", p(rng))),
        5 => {
            out.push_str(&format!("if ({}->v < {}) {{\n", p(rng), rng.below(100)));
            for _ in 0..1 + rng.below(2) {
                gen_stmt(rng, out, depth + 1, loop_var);
            }
            if rng.below(2) == 0 {
                out.push_str("} else {\n");
                for _ in 0..1 + rng.below(2) {
                    gen_stmt(rng, out, depth + 1, loop_var);
                }
            }
            out.push_str("}\n");
        }
        _ => {
            let i = *loop_var;
            *loop_var += 1;
            out.push_str(&format!("var i{i}: int = 0;\n"));
            out.push_str(&format!("while (i{i} < {}) {{\n", 1 + rng.below(3)));
            for _ in 0..1 + rng.below(2) {
                gen_stmt(rng, out, depth + 1, loop_var);
            }
            out.push_str(&format!("i{i} = i{i} + 1;\n}}\n"));
        }
    }
}

fn gen_program(rng: &mut TestRng) -> String {
    let mut src = String::from(
        "struct s { v: int }\nfn main() {\n\
         var p0: ptr<s> = malloc(s);\n\
         var p1: ptr<s> = malloc(s);\n\
         var p2: ptr<s> = malloc(s);\n",
    );
    let mut loop_var = 0;
    for _ in 0..3 + rng.below(10) {
        gen_stmt(rng, &mut src, 0, &mut loop_var);
    }
    src.push_str("}\n");
    src
}

/// The soundness contract of the whole pass, checked differentially:
///
/// 1. stamping `unchecked` sites never changes observable behaviour
///    (same output, same detection-or-not);
/// 2. a `Definite*` verdict always reproduces as a runtime detection;
/// 3. a program whose sites are all `ProvablySafe` never detects — i.e.
///    no `ProvablySafe` site ever traps, even with protection elided.
#[test]
fn lint_runtime_differential_on_random_programs() {
    let mut flagged_total = 0u64;
    let mut elided_total = 0u64;
    for case in 0..200u64 {
        let mut rng = TestRng::new(0x1117_0000u64.wrapping_add(case * 0x9e37_79b9));
        let src = gen_program(&mut rng);
        let prog = parse(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));

        let (plain, _) = pool_allocate(&prog);
        let (stamped, _, report) = pool_allocate_with_lint(&prog);
        flagged_total += report.sites_flagged();
        elided_total += report.unchecked_free_sites.len() as u64;

        let (out_plain, _) = run_shadow_pool(&plain);
        let (out_stamped, _) = run_shadow_pool(&stamped);
        assert_eq!(
            out_plain, out_stamped,
            "case {case}: elision changed behaviour\n{src}"
        );

        if report.sites_flagged() > 0 {
            assert_eq!(
                out_plain,
                Outcome::Detected,
                "case {case}: Definite verdict must reproduce at runtime\n{}\n{src}",
                report.render()
            );
        }
        if report.sites_unknown() == 0 && report.sites_flagged() == 0 {
            assert!(
                matches!(out_plain, Outcome::Finished(_)),
                "case {case}: all-ProvablySafe program must run clean\n{src}"
            );
        }
    }
    // Generator sanity: the corpus must exercise both ends of the lattice.
    assert!(flagged_total > 0, "corpus never produced a definite bug");
    assert!(elided_total > 0, "corpus never produced an elidable class");
}

// ---------------------------------------------------------------------
// Interprocedural differential property test: multi-function programs.
// ---------------------------------------------------------------------

use dangle::apa::{lint_with_mode, pool_allocate_with_lint_mode, LintMode};
use dangle::interp::{run_with, Engine};

fn run_shadow_pool_with(engine: Engine, prog: &Program) -> Outcome {
    let mut m = Machine::free_running();
    let mut b = ShadowPoolBackend::new();
    outcome(run_with(engine, prog, &mut m, &mut b, FUEL))
}

/// Emits a random helper-body statement over pointer params `q0`/`q1`
/// (non-null by construction at every call site). `callee` is a
/// previously generated helper this one may forward its params into —
/// that is what makes free effects travel two call levels.
fn gen_helper_stmt(rng: &mut TestRng, out: &mut String, depth: usize, callee: Option<usize>) {
    let q = |rng: &mut TestRng| format!("q{}", rng.below(2));
    match rng.below(if depth == 0 { 6 } else { 5 }) {
        0 => out.push_str(&format!("{}->v = {};\n", q(rng), rng.below(100))),
        1 => out.push_str(&format!("print({}->v);\n", q(rng))),
        2 => out.push_str(&format!("free({});\n", q(rng))),
        3 if callee.is_some() => {
            let k = callee.unwrap();
            out.push_str(&format!("helper{k}({}, {});\n", q(rng), q(rng)));
        }
        3 | 4 => out.push_str(&format!(
            "var t{}: ptr<s> = malloc(s);\nfree(t{});\n",
            depth, depth
        )),
        _ => {
            out.push_str(&format!("if ({}->v < {}) {{\n", q(rng), rng.below(100)));
            for _ in 0..1 + rng.below(2) {
                gen_helper_stmt(rng, out, depth + 1, callee);
            }
            out.push_str("}\n");
        }
    }
}

/// A random program with 1–2 pointer-taking helpers and a `main` that
/// allocates, calls them (possibly with aliased arguments), and keeps
/// using the pointers afterwards. Use-after-free and double free arise
/// naturally when a helper frees and the caller (or a second call) uses.
fn gen_multi_fn_program(rng: &mut TestRng) -> String {
    let mut src = String::from("struct s { v: int }\n");
    let n_helpers = 1 + rng.below(2) as usize;
    for h in 0..n_helpers {
        let returns_ptr = rng.below(2) == 0;
        let callee = if h > 0 { Some(h - 1) } else { None };
        src.push_str(&format!(
            "fn helper{h}(q0: ptr<s>, q1: ptr<s>){} {{\n",
            if returns_ptr { " -> ptr<s>" } else { "" }
        ));
        for _ in 0..1 + rng.below(3) {
            gen_helper_stmt(rng, &mut src, 0, callee);
        }
        if returns_ptr {
            // Never fall through a ptr-returning helper: the runtime
            // would return null and poison the caller with null derefs.
            src.push_str(match rng.below(3) {
                0 => "return q0;\n",
                1 => "return q1;\n",
                _ => "return malloc(s);\n",
            });
        }
        src.push_str("}\n");
    }
    src.push_str(
        "fn main() {\nvar p0: ptr<s> = malloc(s);\nvar p1: ptr<s> = malloc(s);\n",
    );
    for _ in 0..2 + rng.below(5) {
        let p = |rng: &mut TestRng| format!("p{}", rng.below(2));
        match rng.below(6) {
            0 => src.push_str(&format!("{} = malloc(s);\n", p(rng))),
            1 => src.push_str(&format!("{}->v = {};\n", p(rng), rng.below(100))),
            2 => src.push_str(&format!("print({}->v);\n", p(rng))),
            3 => src.push_str(&format!("free({});\n", p(rng))),
            _ => {
                let h = rng.below(n_helpers as u64);
                src.push_str(&format!("helper{h}({}, {});\n", p(rng), p(rng)));
            }
        }
    }
    src.push_str("}\n");
    src
}

/// The interprocedural soundness contract, checked differentially over
/// randomized multi-function programs on BOTH engines:
///
/// 1. stamping `unchecked` sites never changes observable behaviour, in
///    either lint mode, on either engine;
/// 2. summaries only add precision: every intra-`ProvablySafe` site is
///    inter-`ProvablySafe` too;
/// 3. a `Definite*` verdict (either mode) reproduces as a runtime
///    detection;
/// 4. a program whose sites are all inter-`ProvablySafe` never detects,
///    even with protection elided.
#[test]
fn interprocedural_differential_on_random_multi_fn_programs() {
    let mut flagged_total = 0u64;
    let mut inter_only_safe_sites = 0u64;
    let mut elided_total = 0u64;
    for case in 0..220u64 {
        let mut rng = TestRng::new(0x9ea7_1100u64.wrapping_add(case * 0x9e37_79b9));
        let src = gen_multi_fn_program(&mut rng);
        let prog = parse(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        let a = analyze(&prog);

        let r_intra = lint_with_mode(&prog, &a, LintMode::Intra);
        let r_inter = lint_with_mode(&prog, &a, LintMode::Inter);
        flagged_total += r_inter.sites_flagged();
        elided_total += r_inter.unchecked_free_sites.len() as u64;

        // (2) monotone precision, site by site.
        for (&site, &v) in &r_intra.verdicts {
            if v == Verdict::ProvablySafe {
                assert_eq!(
                    r_inter.verdict(site),
                    Verdict::ProvablySafe,
                    "case {case}: summaries lost site {site}\n{src}"
                );
            } else if r_inter.verdict(site) == Verdict::ProvablySafe {
                inter_only_safe_sites += 1;
            }
        }

        // (1) behaviour identical across plain/intra/inter × AST/bytecode.
        let (plain, _) = pool_allocate(&prog);
        let (st_intra, _, _) = pool_allocate_with_lint_mode(&prog, LintMode::Intra);
        let (st_inter, _, _) = pool_allocate_with_lint_mode(&prog, LintMode::Inter);
        let reference = run_shadow_pool_with(Engine::Ast, &plain);
        for (what, p) in [
            ("plain", &plain),
            ("stamped-intra", &st_intra),
            ("stamped-inter", &st_inter),
        ] {
            for engine in [Engine::Ast, Engine::Bytecode] {
                assert_eq!(
                    run_shadow_pool_with(engine, p),
                    reference,
                    "case {case}: {what}/{engine:?} diverged\n{src}"
                );
            }
        }

        // (3) definite claims reproduce (in both modes — intra claims are
        // a subset of inter claims by construction, but check both).
        if r_intra.sites_flagged() > 0 || r_inter.sites_flagged() > 0 {
            assert_eq!(
                reference,
                Outcome::Detected,
                "case {case}: Definite verdict must reproduce at runtime\n{}\n{src}",
                r_inter.render()
            );
        }
        // (4) an all-safe program runs clean.
        if r_inter.sites_unknown() == 0 && r_inter.sites_flagged() == 0 {
            assert!(
                matches!(reference, Outcome::Finished(_)),
                "case {case}: all-ProvablySafe program must run clean\n{src}"
            );
        }
    }
    // Generator sanity: the corpus must exercise the interprocedural
    // layer, both ends of the verdict lattice, and actual elision.
    assert!(flagged_total > 0, "corpus never produced a definite bug");
    assert!(elided_total > 0, "corpus never produced an elidable class");
    assert!(
        inter_only_safe_sites > 0,
        "corpus never exercised the interprocedural delta"
    );
}

/// A free effect travelling through two call levels is attributed as
/// Definite in the caller, with the call chain recorded in the report.
#[test]
fn free_through_two_levels_is_definite_with_chain() {
    let r = lint_src(
        "struct s { v: int }
         fn kill(p: ptr<s>) { free(p); }
         fn wrap(p: ptr<s>) { kill(p); }
         fn main() {
             var p: ptr<s> = malloc(s);
             wrap(p);
             print(p->v);
         }",
    );
    assert_eq!(r.verdict(0), Verdict::DefiniteUAF);
    let chain = r.summary_chain.get(&0).expect("chain recorded");
    assert!(
        chain.iter().any(|h| h.contains("main -> wrap")),
        "chain should start at the applying caller: {chain:?}"
    );
    // The runtime agrees.
    let prog = parse(
        "struct s { v: int }
         fn kill(p: ptr<s>) { free(p); }
         fn wrap(p: ptr<s>) { kill(p); }
         fn main() {
             var p: ptr<s> = malloc(s);
             wrap(p);
             print(p->v);
         }",
    )
    .unwrap();
    let (t, _) = pool_allocate(&prog);
    let (got, _) = run_shadow_pool(&t);
    assert_eq!(got, Outcome::Detected);
}

// ---------------------------------------------------------------------
// Runtime payoff by analysis depth over the server, Figure 1 and
// injected-UAF corpora.
// ---------------------------------------------------------------------

/// What a run shows outside the detector's bookkeeping: output (`Err`
/// holds the trap text), shadow syscalls (`mremap` + `mprotect`), clock
/// and elided allocations.
type Observed = (Result<Vec<i64>, String>, u64, u64, u64);

/// Runs `prog` pool-allocated, with lint stamping at `mode` when given, on
/// a calibrated machine.
fn run_linted(
    prog: &Program,
    mode: Option<LintMode>,
    engine: Engine,
) -> (Observed, Option<LintReport>) {
    let (prog, report) = match mode {
        Some(mode) => {
            let (t, _, r) = pool_allocate_with_lint_mode(prog, mode);
            (t, Some(r))
        }
        None => (pool_allocate(prog).0, None),
    };
    let mut m = Machine::new();
    let mut b = ShadowPoolBackend::new();
    let res = match run_with(engine, &prog, &mut m, &mut b, FUEL) {
        Ok(o) => Ok(o.output),
        Err(e) if is_detection(&e) => Err(e.to_string()),
        Err(e) => panic!("not a detection: {e}"),
    };
    let s = m.stats();
    let elided = m.metrics_snapshot().counter("shadow.elided");
    ((res, s.mremap_calls + s.mprotect_calls, m.clock(), elided), report)
}

#[test]
fn deeper_lint_only_removes_protection_syscalls() {
    let mut programs = vec![
        ("fingerd", corpus::fingerd(50), false),
        ("ftpd", corpus::ftpd(25), false),
        ("ftpd-helper", corpus::ftpd_helper(25), false),
        ("ghttpd", corpus::ghttpd(25), false),
        ("ghttpd-keepalive", corpus::ghttpd_keepalive(2, 10), false),
        ("figure1", FIGURE_1.to_string(), true),
        ("figure1-fixed", corpus::figure1_fixed(), false),
    ];
    programs.extend(corpus::injected_uafs().into_iter().map(|(n, src)| (n, src.to_string(), true)));
    let mut shadow = std::collections::HashMap::new();
    let mut elided = 0;
    for (name, src, dangles) in programs {
        let prog = parse(&src).unwrap();
        let modes = [None, Some(LintMode::Intra), Some(LintMode::Inter)];
        let [(off, _), (intra, r_intra), (inter, r_inter)] = modes.map(|mode| {
            let ast = run_linted(&prog, mode, Engine::Ast);
            assert_eq!(
                ast.0,
                run_linted(&prog, mode, Engine::Bytecode).0,
                "{name} {mode:?}: engines"
            );
            ast
        });
        let (r_intra, r_inter) = (r_intra.unwrap(), r_inter.unwrap());
        assert_eq!(off.0.is_err(), dangles, "{name}: detection");
        assert_eq!(intra.0, off.0, "{name}: intra changed output or trap text");
        assert_eq!(inter.0, off.0, "{name}: inter changed output or trap text");
        if !dangles {
            assert_eq!(r_intra.sites_flagged(), 0, "{name}: false Definite\n{}", r_intra.render());
            assert_eq!(r_inter.sites_flagged(), 0, "{name}: false Definite\n{}", r_inter.render());
        }
        assert_eq!(off.3, 0, "{name}: elided with the pass off");
        assert!(r_inter.sites_safe() >= r_intra.sites_safe(), "{name}: inter lost safe sites");
        assert!(
            inter.1 <= intra.1 && intra.1 <= off.1,
            "{name}: {} {} {}",
            off.1,
            intra.1,
            inter.1
        );
        if name == "figure1-fixed" {
            assert_eq!((r_inter.sites_unknown(), r_inter.sites_flagged()), (0, 0), "{name}");
        }
        elided += inter.3;
        shadow.insert(name, [off.1, intra.1, inter.1]);
    }
    assert!(elided > 0, "the elision pass never fired");
    // At these sizes fingerd drops from 100 shadow syscalls to 0, and
    // ftpd-helper from 100 to 0 only with summaries (100 intra).
    let [fingerd_off, _, fingerd_inter] = shadow["fingerd"];
    assert!(fingerd_off > 0 && fingerd_inter == 0, "fingerd: {:?}", shadow["fingerd"]);
    let [_, helper_intra, helper_inter] = shadow["ftpd-helper"];
    assert!(helper_inter < helper_intra, "ftpd-helper: {:?}", shadow["ftpd-helper"]);
    assert_eq!(shadow["figure1-fixed"][2], 0, "figure1-fixed keeps protection");
}
