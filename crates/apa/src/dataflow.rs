//! # dangle-lint — flow-sensitive free-site safety analysis
//!
//! An intraprocedural abstract interpretation over MiniC function bodies
//! that classifies every `free` site (see [`Verdict`]):
//!
//! - **`DefiniteUAF`** — on every path a pointer to the freed object is
//!   dereferenced after the free; the runtime detector *will* trap.
//! - **`DefiniteDoubleFree`** — the site frees an object already freed on
//!   every path reaching it.
//! - **`ProvablySafe`** — the freed object is local to the function (never
//!   escaped through a field, global, call argument or return value), the
//!   free targets exactly one object, and no use of any alias can reach a
//!   point after the free. Shadow protection for it is pure overhead.
//! - **`Unknown`** — anything the analysis cannot prove either way
//!   (frees through parameters, escaped or summarized objects, ambiguous
//!   targets). Full runtime protection is kept.
//!
//! ## The abstract domain
//!
//! Heap objects are named by **recency tokens**: `Site(s)` is *the most
//! recent* object allocated at malloc site `s`, `Old(s)` summarizes all
//! older ones. Executing `malloc` at `s` demotes the current `Site(s)` to
//! `Old(s)` (joining their states) and births a fresh, live `Site(s)` —
//! this keeps "allocate, use, free" loop bodies precise: each iteration's
//! object is tracked strongly even though the site is executed many times.
//!
//! A pointer value is a set of tokens plus three poison bits
//! (`may_null`, `top` = unknown target, `interior` = may not point at the
//! object base). Each token carries `may_live` (some path has not freed
//! it), the set of free sites that may have freed it, and a sticky
//! `escaped` bit. Values loaded from fields, globals, parameters and call
//! returns are `top`; because escape is sticky and recorded *before* a
//! token can be stored anywhere, a `top` value can never denote a
//! non-escaped token — which is exactly why `ProvablySafe` only needs to
//! watch explicit aliases of non-escaped objects.
//!
//! Joins at `if` merges are pointwise; `while` bodies run to an
//! accumulating fixpoint (the domain is finite, all join operations are
//! monotone). Verdict demotions are monotone side effects, so recording
//! them during fixpoint iteration is sound.
//!
//! ## Elision is per alias class
//!
//! A runtime backend must never see a *checked* free of an *unchecked*
//! allocation (the hidden shadow word would be missing), so protection is
//! elided for a whole Steensgaard class at a time: a class is **elidable**
//! iff every one of its free sites — in any function — is `ProvablySafe`.
//! [`stamp_unchecked`] then marks all malloc *and* free sites of elidable
//! classes; since the class over-approximates may-alias, checked and
//! unchecked pointers cannot mix.
//!
//! `DefiniteUAF`/`DefiniteDoubleFree` are only claimed at uses that are
//! *definitely executed*: straight-line statements of functions reachable
//! from `main` through unconditional calls. This is what makes the
//! lint↔runtime differential test (`tests/lint.rs`) hold: every definite
//! verdict reproduces as a runtime detection.

use crate::analysis::Analysis;
use crate::ast::*;
use crate::callgraph::CallGraph;
use crate::summary::{FnSummary, ParamEffect, RetEffect};
use dangle_telemetry::Json;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Analysis precision mode (see [`lint_with_mode`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LintMode {
    /// Every function in isolation: parameters and heap loads are `top`,
    /// calls havoc their arguments. This is the historical behavior.
    Intra,
    /// Call-graph driven: per-function free/alias summaries are computed
    /// bottom-up over the SCC condensation and applied at call sites, so
    /// frees through helpers and linear list traversals can still be
    /// proven `ProvablySafe`.
    #[default]
    Inter,
}

impl fmt::Display for LintMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", match self {
            LintMode::Intra => "intra",
            LintMode::Inter => "inter",
        })
    }
}

/// Iteration budget per call-graph SCC before summaries are widened to the
/// opaque fallback. The summary lattice is finite, so this only ever fires
/// as a safety net on pathological inputs.
const MAX_SCC_ITERS: usize = 20;

/// Classification of one free site, ordered by severity (joins take the
/// maximum, so a site can only be demoted).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No aliased use can reach any point after the free; protection for
    /// this site's class may be elided (if the whole class agrees).
    ProvablySafe,
    /// Nothing proven; full runtime protection is kept.
    Unknown,
    /// A dereference of the freed object definitely executes after the
    /// free: compile-time use-after-free.
    DefiniteUAF,
    /// The site definitely frees an already-freed object.
    DefiniteDoubleFree,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::ProvablySafe => "ProvablySafe",
            Verdict::Unknown => "Unknown",
            Verdict::DefiniteUAF => "DefiniteUAF",
            Verdict::DefiniteDoubleFree => "DefiniteDoubleFree",
        };
        write!(f, "{s}")
    }
}

/// A structured compile-time finding (only `Definite*` verdicts produce
/// diagnostics; `Unknown` demotions record a reason in
/// [`LintReport::reasons`] instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Free-site id the finding is about.
    pub site: u32,
    /// Function containing the free.
    pub func: String,
    /// What was found.
    pub verdict: Verdict,
    /// Location of the `free`.
    pub span: Span,
    /// Location of the offending use (dereference, or the second free for
    /// a double free).
    pub offending_use: Option<Span>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.verdict {
            Verdict::DefiniteUAF => "definite use-after-free",
            Verdict::DefiniteDoubleFree => "definite double free",
            _ => "finding",
        };
        write!(
            f,
            "error[dangle-lint]: {kind}\n  --> free at {} (free-site {}) in `{}`",
            self.span, self.site, self.func
        )?;
        if let Some(u) = self.offending_use {
            write!(f, "\n  offending use at {u}")?;
        }
        write!(f, "\n  {}", self.message)
    }
}

/// The result of [`lint`]: a verdict for every free site, structured
/// diagnostics for the definite findings, and the elision sets consumed by
/// [`stamp_unchecked`].
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Verdict per free-site id (covers every free site in the program).
    pub verdicts: BTreeMap<u32, Verdict>,
    /// Free-site id → (function, span of the `free`).
    pub site_info: BTreeMap<u32, (String, Span)>,
    /// Structured `Definite*` findings, in program order.
    pub diagnostics: Vec<Diagnostic>,
    /// Why each non-`ProvablySafe` site was demoted (first reason wins).
    pub reasons: BTreeMap<u32, String>,
    /// Alias classes whose free sites are all `ProvablySafe`.
    pub elidable_classes: BTreeSet<usize>,
    /// Malloc sites of elidable classes (to be stamped `unchecked`).
    pub unchecked_malloc_sites: BTreeSet<u32>,
    /// Free sites of elidable classes (to be stamped `unchecked`).
    pub unchecked_free_sites: BTreeSet<u32>,
    /// Which precision mode produced this report.
    pub mode: LintMode,
    /// Free-site id → call chain (`caller -> callee at span` hops, capped)
    /// through which the site's effect reached an applying caller.
    pub summary_chain: BTreeMap<u32, Vec<String>>,
    /// Function name → human rendering of its converged summary
    /// (interprocedural mode only).
    pub fn_summaries: BTreeMap<String, String>,
}

impl LintReport {
    /// Verdict of `site` (defaults to `Unknown` for ids the program does
    /// not contain).
    pub fn verdict(&self, site: u32) -> Verdict {
        self.verdicts.get(&site).copied().unwrap_or(Verdict::Unknown)
    }

    /// Number of `ProvablySafe` free sites.
    pub fn sites_safe(&self) -> u64 {
        self.count(|v| v == Verdict::ProvablySafe)
    }

    /// Number of `Unknown` free sites.
    pub fn sites_unknown(&self) -> u64 {
        self.count(|v| v == Verdict::Unknown)
    }

    /// Number of `Definite*` free sites (compile-time bugs).
    pub fn sites_flagged(&self) -> u64 {
        self.count(|v| v >= Verdict::DefiniteUAF)
    }

    fn count(&self, pred: impl Fn(Verdict) -> bool) -> u64 {
        self.verdicts.values().filter(|v| pred(**v)).count() as u64
    }

    /// Whether the program has no definite compile-time findings.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders every diagnostic as compiler-style text (empty if clean).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// Machine-readable report: per-site verdicts with spans, reasons and
    /// summary chains, per-class elision decisions, and the rendered
    /// function summaries. Stable key order, `schema_version` 1.
    pub fn to_json(&self, analysis: &Analysis) -> Json {
        let mut sites = Vec::new();
        for (&site, &v) in &self.verdicts {
            let (func, span) = self
                .site_info
                .get(&site)
                .cloned()
                .unwrap_or_else(|| (String::new(), Span::NONE));
            let mut o: Vec<(String, Json)> = vec![
                ("site".into(), Json::from_u64(site as u64)),
                ("func".into(), Json::Str(func)),
                ("line".into(), Json::from_u64(span.line as u64)),
                ("col".into(), Json::from_u64(span.col as u64)),
                ("verdict".into(), Json::Str(v.to_string())),
                (
                    "class".into(),
                    match analysis.free_class.get(&site) {
                        Some(&c) => Json::from_u64(c as u64),
                        None => Json::Null,
                    },
                ),
                (
                    "elided".into(),
                    Json::Bool(self.unchecked_free_sites.contains(&site)),
                ),
            ];
            if let Some(r) = self.reasons.get(&site) {
                o.push(("reason".into(), Json::Str(r.clone())));
            }
            let chain = self.summary_chain.get(&site).cloned().unwrap_or_default();
            o.push((
                "summary_chain".into(),
                Json::Arr(chain.into_iter().map(Json::Str).collect()),
            ));
            sites.push(Json::Obj(o));
        }
        let classes: Vec<Json> = (0..analysis.classes.len())
            .map(|cid| {
                Json::Obj(vec![
                    ("id".into(), Json::from_u64(cid as u64)),
                    (
                        "elidable".into(),
                        Json::Bool(self.elidable_classes.contains(&cid)),
                    ),
                ])
            })
            .collect();
        let diags: Vec<Json> = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("site".into(), Json::from_u64(d.site as u64)),
                    ("func".into(), Json::Str(d.func.clone())),
                    ("verdict".into(), Json::Str(d.verdict.to_string())),
                    ("line".into(), Json::from_u64(d.span.line as u64)),
                    ("col".into(), Json::from_u64(d.span.col as u64)),
                    ("message".into(), Json::Str(d.message.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::Int(1)),
            ("mode".into(), Json::Str(self.mode.to_string())),
            (
                "counts".into(),
                Json::Obj(vec![
                    ("safe".into(), Json::from_u64(self.sites_safe())),
                    ("unknown".into(), Json::from_u64(self.sites_unknown())),
                    ("flagged".into(), Json::from_u64(self.sites_flagged())),
                ]),
            ),
            ("sites".into(), Json::Arr(sites)),
            ("classes".into(), Json::Arr(classes)),
            (
                "elidable_classes".into(),
                Json::Arr(
                    self.elidable_classes
                        .iter()
                        .map(|&c| Json::from_u64(c as u64))
                        .collect(),
                ),
            ),
            ("diagnostics".into(), Json::Arr(diags)),
            (
                "summaries".into(),
                Json::Obj(
                    self.fn_summaries
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }
}

/// An abstract heap-object name: the most recent allocation of a site, the
/// summary of all older ones, or (interprocedurally) whatever the caller
/// passed as a given argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tok {
    /// The most recent object allocated at this malloc site.
    Site(u32),
    /// All older objects from this malloc site (weakly updated).
    Old(u32),
    /// The object the caller's `i`-th argument points to. Frees against it
    /// become obligations the caller discharges when it applies the
    /// summary ([`crate::summary::ParamEffect`]).
    Param(u32),
}

/// Abstract pointer value: a set of possible target objects plus poison
/// bits.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct AbsPtr {
    /// May be null (dereference would not be a detection).
    may_null: bool,
    /// May target anything escaped or unknown (parameters, loads, calls).
    top: bool,
    /// May point into the middle of the object (indexing, arithmetic).
    interior: bool,
    /// Possible local targets.
    toks: BTreeSet<Tok>,
    /// Heap-content markers: the value may point to *some* object of these
    /// classes reached through a heap load (interprocedural mode only).
    /// Uses and frees against a marker go through
    /// [`State::heap_freed`], never through token states.
    heap: BTreeSet<usize>,
}

impl AbsPtr {
    fn top() -> AbsPtr {
        AbsPtr { may_null: true, top: true, interior: true, ..AbsPtr::default() }
    }

    /// Null, integer, or uninitialized value: no targets.
    fn scalar() -> AbsPtr {
        AbsPtr { may_null: true, ..AbsPtr::default() }
    }

    fn fresh(t: Tok) -> AbsPtr {
        AbsPtr { toks: [t].into_iter().collect(), ..AbsPtr::default() }
    }

    /// Initial value of the `i`-th parameter in interprocedural mode: the
    /// caller's argument, which may always be null.
    fn param(t: Tok) -> AbsPtr {
        AbsPtr { may_null: true, toks: [t].into_iter().collect(), ..AbsPtr::default() }
    }

    /// A may-null pointer into heap-reached objects of `heap` classes.
    fn marker(heap: BTreeSet<usize>) -> AbsPtr {
        AbsPtr { may_null: true, heap, ..AbsPtr::default() }
    }

    fn join(&self, o: &AbsPtr) -> AbsPtr {
        AbsPtr {
            may_null: self.may_null || o.may_null,
            top: self.top || o.top,
            interior: self.interior || o.interior,
            toks: self.toks.union(&o.toks).copied().collect(),
            heap: self.heap.union(&o.heap).copied().collect(),
        }
    }

    /// The unique, unambiguous target of a must-non-null pointer, if any.
    fn singleton(&self) -> Option<Tok> {
        if !self.top
            && !self.may_null
            && !self.interior
            && self.toks.len() == 1
            && self.heap.is_empty()
        {
            self.toks.iter().next().copied()
        } else {
            None
        }
    }
}

/// Per-token abstract state.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TokState {
    /// Some path reaches here with the object still allocated.
    may_live: bool,
    /// Free sites that may have freed the object.
    freed_by: BTreeSet<u32>,
    /// The object may be reachable from outside the function (sticky).
    escaped: bool,
    /// The object may have been dereferenced (sticky; feeds
    /// [`crate::summary::ParamEffect::used`]).
    used: bool,
}

impl TokState {
    fn live() -> TokState {
        TokState { may_live: true, freed_by: BTreeSet::new(), escaped: false, used: false }
    }

    fn must_freed(&self) -> bool {
        !self.may_live && !self.freed_by.is_empty()
    }

    fn join(&self, o: &TokState) -> TokState {
        TokState {
            may_live: self.may_live || o.may_live,
            freed_by: self.freed_by.union(&o.freed_by).copied().collect(),
            escaped: self.escaped || o.escaped,
            used: self.used || o.used,
        }
    }
}

/// Abstract machine state at a program point.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct State {
    vars: BTreeMap<String, AbsPtr>,
    toks: BTreeMap<Tok, TokState>,
    /// class -> free sites that may have freed *heap-reached* objects of
    /// the class (monotone: joined by union, never cleared). A later
    /// dereference of a marker of the class demotes these sites.
    heap_freed: BTreeMap<usize, BTreeSet<u32>>,
}

impl State {
    fn join_with(&mut self, o: &State) {
        // A var declared on only one path is undefined on the other, so
        // the join poisons it with `top`/`may_null` — but MUST keep its
        // tokens: a later use through it still has to demote their free
        // sites (losing the tokens would let a freed-then-used object
        // stay `ProvablySafe`).
        let one_sided = |v: &AbsPtr| {
            let mut j = v.clone();
            j.top = true;
            j.may_null = true;
            j
        };
        let mine = std::mem::take(&mut self.vars);
        for (k, v) in &mine {
            let joined = match o.vars.get(k) {
                Some(ov) => v.join(ov),
                None => one_sided(v),
            };
            self.vars.insert(k.clone(), joined);
        }
        for (k, v) in &o.vars {
            if !self.vars.contains_key(k) {
                self.vars.insert(k.clone(), one_sided(v));
            }
        }
        for (t, s) in &o.toks {
            match self.toks.get(t) {
                Some(mine) => {
                    let j = mine.join(s);
                    self.toks.insert(*t, j);
                }
                // Allocated on the other path only: its state there stands.
                None => {
                    self.toks.insert(*t, s.clone());
                }
            }
        }
        for (c, sites) in &o.heap_freed {
            self.heap_freed.entry(*c).or_default().extend(sites.iter().copied());
        }
    }

    fn tok_mut(&mut self, t: Tok) -> &mut TokState {
        self.toks.entry(t).or_insert_with(TokState::live)
    }
}

struct Linter<'a> {
    report: LintReport,
    /// Functions that definitely execute when `main` runs.
    definite_funcs: BTreeSet<String>,
    /// Current function name.
    func: String,
    /// The current program point definitely executes.
    definite: bool,
    /// Precision mode; `Intra` reproduces the historical behavior exactly.
    mode: LintMode,
    /// Steensgaard results (class, escape and store-shape facts).
    analysis: &'a Analysis,
    /// Names of functions defined in the program.
    defined: BTreeSet<String>,
    /// Converged (or in-flight, during the SCC fixpoint) summaries.
    summaries: BTreeMap<String, FnSummary>,
    /// SCCs whose iteration budget ran out: callers fall back to havoc.
    widened: BTreeSet<String>,
    /// function -> free sites syntactically reachable through it, for the
    /// widened/opaque call fallback.
    transitive_frees: HashMap<String, HashSet<u32>>,
    /// Exit states of the function being analyzed (one per return point
    /// plus the fallthrough), joined into the summary.
    exits: Vec<State>,
    /// Joined abstract return value across `return e;` statements.
    ret_acc: Option<AbsPtr>,
    /// The function can fall off the end (pointer-returning functions then
    /// yield an undefined value: the summary's return goes `top`).
    ret_fallthrough: bool,
    /// Malloc sites the current function transitively executes.
    acc_allocs: BTreeSet<u32>,
    /// class -> heap-reached free sites the current function executes.
    acc_frees_heap: BTreeMap<usize, BTreeSet<u32>>,
    /// Classes whose heap-reached objects the current function
    /// dereferences.
    acc_uses_heap: BTreeSet<usize>,
}

/// Runs the free-site safety analysis over `prog` in the default
/// interprocedural mode, seeded with the Steensgaard `analysis` for the
/// class-granular elision decision.
pub fn lint(prog: &Program, analysis: &Analysis) -> LintReport {
    lint_with_mode(prog, analysis, LintMode::Inter)
}

/// The historical intraprocedural analysis: parameters and heap loads are
/// `top`, calls havoc their arguments. Kept for measuring what the
/// interprocedural layer buys.
pub fn lint_intra(prog: &Program, analysis: &Analysis) -> LintReport {
    lint_with_mode(prog, analysis, LintMode::Intra)
}

/// Runs the analysis in an explicit [`LintMode`].
///
/// Interprocedural mode is a two-phase driver over the SCC-condensed call
/// graph:
///
/// 1. **Phase A** — walk SCCs bottom-up; iterate each SCC's members to a
///    joint summary fixpoint (starting from bottom summaries). `Definite*`
///    claims are disabled: mid-fixpoint must-information can still shrink,
///    so claiming on it could produce a false definite. `Unknown`
///    demotions are monotone may-facts and safe to record. An SCC that
///    exceeds its iteration budget is *widened*: its summaries are
///    dropped, its members re-analyzed with havoc parameters, and its
///    callers demote every transitively-contained free site.
/// 2. **Phase B** — re-analyze every function in program order with the
///    converged summaries and claims enabled.
pub fn lint_with_mode(prog: &Program, analysis: &Analysis, mode: LintMode) -> LintReport {
    let mut report = LintReport { mode, ..LintReport::default() };
    collect_free_sites(prog, &mut report);
    let definite_funcs = definitely_called(prog);
    let mut l = Linter {
        report,
        definite_funcs,
        func: String::new(),
        definite: false,
        mode,
        analysis,
        defined: prog.funcs.iter().map(|f| f.name.clone()).collect(),
        summaries: BTreeMap::new(),
        widened: BTreeSet::new(),
        transitive_frees: HashMap::new(),
        exits: Vec::new(),
        ret_acc: None,
        ret_fallthrough: false,
        acc_allocs: BTreeSet::new(),
        acc_frees_heap: BTreeMap::new(),
        acc_uses_heap: BTreeSet::new(),
    };
    match mode {
        LintMode::Intra => {
            for f in prog.funcs.iter() {
                l.analyze_fn(f, true);
            }
        }
        LintMode::Inter => {
            let cg = CallGraph::build(prog);
            l.transitive_frees = cg.transitive_free_sites(prog);
            // Phase A: bottom-up summary fixpoint, claims disabled.
            for scc in &cg.sccs {
                let mut iters = 0usize;
                loop {
                    let mut changed = false;
                    for fname in scc {
                        let Some(f) = prog.func(fname) else { continue };
                        let s = l.analyze_fn(f, false);
                        if l.summaries.get(fname.as_str()) != Some(&s) {
                            l.summaries.insert(fname.clone(), s);
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                    iters += 1;
                    if iters >= MAX_SCC_ITERS {
                        for fname in scc {
                            l.widened.insert(fname.clone());
                            l.summaries.remove(fname.as_str());
                        }
                        // One havoc-parameter pass so the members' own
                        // sites get their (demoted) verdicts.
                        for fname in scc {
                            if let Some(f) = prog.func(fname) {
                                l.analyze_fn(f, false);
                            }
                        }
                        break;
                    }
                }
            }
            // Phase B: final verdicts with converged summaries.
            for f in prog.funcs.iter() {
                l.analyze_fn(f, true);
            }
            for (name, s) in &l.summaries {
                l.report.fn_summaries.insert(name.clone(), s.render(name));
            }
        }
    }
    let mut report = l.report;

    // Class-granular elision: a class is elidable iff all of its free
    // sites (in any function) are ProvablySafe. Classes that are never
    // freed are vacuously elidable — their objects can never dangle.
    let mut class_bad: BTreeSet<usize> = BTreeSet::new();
    for (site, &cid) in &analysis.free_class {
        if report.verdict(*site) != Verdict::ProvablySafe {
            class_bad.insert(cid);
        }
    }
    for cid in 0..analysis.classes.len() {
        if !class_bad.contains(&cid) {
            report.elidable_classes.insert(cid);
        }
    }
    for (site, cid) in &analysis.site_class {
        if report.elidable_classes.contains(cid) {
            report.unchecked_malloc_sites.insert(*site);
        }
    }
    for (site, cid) in &analysis.free_class {
        if report.elidable_classes.contains(cid) {
            report.unchecked_free_sites.insert(*site);
        }
    }
    report
}

/// Sets the `unchecked` annotation on every malloc/free site of an
/// elidable class (works on the source program or the pool-transformed
/// one — site ids are preserved by the transform).
pub fn stamp_unchecked(prog: &mut Program, report: &LintReport) {
    for f in &mut prog.funcs {
        stamp_stmts(&mut f.body, report);
    }
}

fn stamp_stmts(stmts: &mut [Stmt], r: &LintReport) {
    for s in stmts {
        match s {
            Stmt::VarDecl { init: Some(e), .. } => stamp_expr(e, r),
            Stmt::VarDecl { init: None, .. } => {}
            Stmt::Assign { lhs, rhs } => {
                if let LValue::Field { base, .. } = lhs {
                    stamp_expr(base, r);
                }
                stamp_expr(rhs, r);
            }
            Stmt::Free { expr, site, unchecked, .. } => {
                stamp_expr(expr, r);
                *unchecked = r.unchecked_free_sites.contains(site);
            }
            Stmt::If { cond, then, els } => {
                stamp_expr(cond, r);
                stamp_stmts(then, r);
                stamp_stmts(els, r);
            }
            Stmt::While { cond, body } => {
                stamp_expr(cond, r);
                stamp_stmts(body, r);
            }
            Stmt::Return(Some(e)) | Stmt::Print(e) | Stmt::ExprStmt(e) => {
                stamp_expr(e, r)
            }
            Stmt::Return(None) | Stmt::PoolInit { .. } | Stmt::PoolDestroy { .. } => {}
        }
    }
}

fn stamp_expr(e: &mut Expr, r: &LintReport) {
    match e {
        Expr::Malloc { site, unchecked, .. } => {
            *unchecked = r.unchecked_malloc_sites.contains(site);
        }
        Expr::MallocArray { site, count, unchecked, .. } => {
            stamp_expr(count, r);
            *unchecked = r.unchecked_malloc_sites.contains(site);
        }
        Expr::Index { base, index } => {
            stamp_expr(base, r);
            stamp_expr(index, r);
        }
        Expr::Field { base, .. } => stamp_expr(base, r),
        Expr::Binary { lhs, rhs, .. } => {
            stamp_expr(lhs, r);
            stamp_expr(rhs, r);
        }
        Expr::Call { args, .. } => args.iter_mut().for_each(|a| stamp_expr(a, r)),
        Expr::Int(_) | Expr::Null | Expr::Var(_) => {}
    }
}

/// Pre-pass: every free site starts `ProvablySafe` and is only ever
/// demoted; record its function and span for diagnostics.
fn collect_free_sites(prog: &Program, r: &mut LintReport) {
    for f in &prog.funcs {
        visit_stmts(&f.body, &mut |s| {
            if let Stmt::Free { site, span, .. } = s {
                r.verdicts.insert(*site, Verdict::ProvablySafe);
                r.site_info.insert(*site, (f.name.clone(), *span));
            }
        });
    }
}

fn contains_return(stmts: &[Stmt]) -> bool {
    let mut found = false;
    visit_stmts(stmts, &mut |s| found |= matches!(s, Stmt::Return(_)));
    found
}

/// Callees that definitely execute when the block's top level runs:
/// calls in straight-line statements and in `if`/`while` conditions
/// (conditions are always evaluated at least once), stopping at the first
/// statement after which execution becomes conditional. MiniC has no
/// short-circuit evaluation, so every call in such an expression runs.
fn definite_callees(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    for s in stmts {
        for e in s.exprs() {
            e.visit(&mut |e| {
                if let Expr::Call { callee, .. } = e {
                    out.push(callee.clone());
                }
            });
        }
        if contains_return(std::slice::from_ref(s)) {
            break;
        }
    }
    out
}

/// Functions guaranteed to run when `main` runs (fixpoint over the
/// definite-call edges).
fn definitely_called(prog: &Program) -> BTreeSet<String> {
    let mut set: BTreeSet<String> = BTreeSet::new();
    let mut work = vec!["main".to_string()];
    while let Some(name) = work.pop() {
        if !set.insert(name.clone()) {
            continue;
        }
        if let Some(f) = prog.func(&name) {
            for callee in definite_callees(&f.body) {
                if !set.contains(&callee) {
                    work.push(callee);
                }
            }
        }
    }
    set
}

impl Linter<'_> {
    /// Analyzes one function; in interprocedural mode, returns the summary
    /// extracted from its joined exit states. `claims` enables `Definite*`
    /// verdicts (phase B / intraprocedural only).
    fn analyze_fn(&mut self, f: &FuncDef, claims: bool) -> FnSummary {
        self.func = f.name.clone();
        self.definite = claims && self.definite_funcs.contains(&f.name);
        self.exits.clear();
        self.ret_acc = None;
        self.ret_fallthrough = false;
        self.acc_allocs.clear();
        self.acc_frees_heap.clear();
        self.acc_uses_heap.clear();
        let havoc_params =
            self.mode == LintMode::Intra || self.widened.contains(&f.name);
        let mut st = State::default();
        for (i, (p, _)) in f.params.iter().enumerate() {
            if havoc_params {
                st.vars.insert(p.clone(), AbsPtr::top());
            } else {
                let t = Tok::Param(i as u32);
                st.toks.insert(t, TokState::live());
                st.vars.insert(p.clone(), AbsPtr::param(t));
            }
        }
        if let Some(out) = self.block(&f.body, st) {
            self.ret_fallthrough = true;
            if self.mode == LintMode::Inter {
                self.exits.push(out);
            }
        }
        if self.mode == LintMode::Intra {
            return FnSummary::default();
        }
        self.extract_summary(f)
    }

    /// Builds the function's summary from the join of its exit states and
    /// the accumulated transitive effects.
    fn extract_summary(&mut self, f: &FuncDef) -> FnSummary {
        let mut exit: Option<State> = None;
        for e in std::mem::take(&mut self.exits) {
            match &mut exit {
                None => exit = Some(e),
                Some(x) => x.join_with(&e),
            }
        }
        let mut s = FnSummary {
            params: vec![ParamEffect::default(); f.params.len()],
            allocs: std::mem::take(&mut self.acc_allocs),
            frees_heap: std::mem::take(&mut self.acc_frees_heap),
            uses_heap: std::mem::take(&mut self.acc_uses_heap),
            ret: None,
        };
        if let Some(ex) = &exit {
            for (i, pe) in s.params.iter_mut().enumerate() {
                if let Some(ts) = ex.toks.get(&Tok::Param(i as u32)) {
                    pe.used = ts.used;
                    pe.frees = ts.freed_by.clone();
                    pe.frees_must = ts.must_freed();
                    pe.escapes = ts.escaped;
                }
            }
        }
        if matches!(f.ret, Some(Type::Ptr(_))) {
            let v = self.ret_acc.take().unwrap_or_else(AbsPtr::top);
            let mut r = RetEffect {
                may_null: v.may_null,
                top: v.top,
                interior: v.interior,
                toks: v.toks,
                heap: v.heap,
            };
            if self.ret_fallthrough {
                // Falling off the end of a pointer-returning function
                // yields an undefined value.
                r.top = true;
                r.may_null = true;
            }
            s.ret = Some(r);
        }
        s
    }

    /// The Steensgaard class a token's object belongs to, if known.
    fn tok_class(&self, t: Tok) -> Option<usize> {
        match t {
            Tok::Site(m) | Tok::Old(m) => self.analysis.site_class.get(&m).copied(),
            Tok::Param(i) => self
                .analysis
                .param_class
                .get(&(self.func.clone(), i as usize))
                .copied(),
        }
    }

    /// All classes a non-`top` value may point into (`None` when any
    /// target is unclassifiable).
    fn target_classes(&self, v: &AbsPtr) -> Option<BTreeSet<usize>> {
        if v.top {
            return None;
        }
        let mut out: BTreeSet<usize> = v.heap.iter().copied().collect();
        for t in &v.toks {
            out.insert(self.tok_class(*t)?);
        }
        Some(out)
    }

    /// Weakly marks every *escaped* token of class `c` as possibly freed
    /// by `sites`: a region-level free (chain free or heap-marker free)
    /// reaches every object stored into the region, and escaped tokens are
    /// exactly the locally-tracked objects that may live there.
    fn weak_free_escaped_of_class(&mut self, c: usize, sites: &[u32], st: &mut State) {
        let mut hit: Vec<Tok> = Vec::new();
        for (t, ts) in st.toks.iter() {
            if ts.escaped && self.tok_class(*t) == Some(c) {
                hit.push(*t);
            }
        }
        for t in hit {
            st.tok_mut(t).freed_by.extend(sites.iter().copied());
        }
    }

    /// Demotes `site` to (at least) `v`; `Definite*` demotions emit one
    /// diagnostic, `Unknown` demotions record the first reason.
    fn demote(&mut self, site: u32, v: Verdict, use_span: Option<Span>, why: &str) {
        let cur = self.report.verdict(site);
        if v <= cur {
            return;
        }
        self.report.verdicts.insert(site, v);
        let (func, span) = self
            .report
            .site_info
            .get(&site)
            .cloned()
            .unwrap_or_else(|| (self.func.clone(), Span::NONE));
        self.report.reasons.entry(site).or_insert_with(|| why.to_string());
        if v >= Verdict::DefiniteUAF {
            // Replace any diagnostic from a lower definite verdict.
            self.report.diagnostics.retain(|d| d.site != site);
            self.report.diagnostics.push(Diagnostic {
                site,
                func,
                verdict: v,
                span,
                offending_use: use_span,
                message: why.to_string(),
            });
        }
    }

    /// Marks every token of `v` escaped; escaping a may-freed object
    /// demotes the sites that freed it (the outside world can now reach a
    /// freed object).
    fn escape_value(&mut self, v: &AbsPtr, st: &mut State, at: Span) {
        for t in v.toks.clone() {
            let ts = st.tok_mut(t);
            ts.escaped = true;
            let freed: Vec<u32> = ts.freed_by.iter().copied().collect();
            for site in freed {
                self.demote(
                    site,
                    Verdict::Unknown,
                    Some(at),
                    "a pointer to the freed object escapes after the free",
                );
            }
        }
        // A marker into a freed heap region escaping means the freed
        // objects may be reached from places this analysis cannot see.
        for c in v.heap.iter().copied().collect::<Vec<_>>() {
            let freed: Vec<u32> = st
                .heap_freed
                .get(&c)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            for site in freed {
                self.demote(
                    site,
                    Verdict::Unknown,
                    Some(at),
                    "a pointer into a freed heap region escapes",
                );
            }
        }
    }

    /// Records a dereference through `v` at `span`: demotes the free sites
    /// of every may-freed target, and claims `DefiniteUAF` when the use is
    /// unambiguous, must-freed, and definitely executed.
    fn deref_use(&mut self, v: &AbsPtr, span: Span, st: &mut State) {
        // A `top` value can only denote escaped objects, whose free sites
        // were already demoted when they were freed (or when they escaped
        // after the free) — nothing new to learn.
        for t in v.toks.clone() {
            let ts = {
                let m = st.tok_mut(t);
                m.used = true;
                m.clone()
            };
            if ts.freed_by.is_empty() {
                continue;
            }
            let definite_uaf =
                self.definite && ts.must_freed() && v.singleton() == Some(t);
            for site in ts.freed_by.iter().copied() {
                if definite_uaf {
                    self.demote(
                        site,
                        Verdict::DefiniteUAF,
                        Some(span),
                        "the freed object is dereferenced on every path after the free",
                    );
                } else {
                    self.demote(
                        site,
                        Verdict::Unknown,
                        Some(span),
                        "a possibly-freed object may be used after the free",
                    );
                }
            }
        }
        // A read through a marker touches some heap-reached object of the
        // class: every region-level free of the class is a possible UAF.
        for c in v.heap.iter().copied().collect::<Vec<_>>() {
            if self.mode == LintMode::Inter {
                self.acc_uses_heap.insert(c);
            }
            let freed: Vec<u32> = st
                .heap_freed
                .get(&c)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            for site in freed {
                self.demote(
                    site,
                    Verdict::Unknown,
                    Some(span),
                    "a pointer into a freed heap region may be dereferenced",
                );
            }
        }
    }

    /// Demotes `Site(site)` to `Old(site)` in the token table and every
    /// variable (the most-recent object is about to be superseded).
    fn age_site(&mut self, site: u32, st: &mut State) {
        let fresh = Tok::Site(site);
        let old = Tok::Old(site);
        if let Some(prev) = st.toks.remove(&fresh) {
            let merged = match st.toks.get(&old) {
                Some(o) => o.join(&prev),
                None => prev,
            };
            st.toks.insert(old, merged);
            for v in st.vars.values_mut() {
                if v.toks.remove(&fresh) {
                    v.toks.insert(old);
                }
            }
        }
    }

    /// `malloc` at `site`: the previous most-recent object becomes part of
    /// the `Old(site)` summary and a fresh live object is born.
    fn do_malloc(&mut self, site: u32, st: &mut State) -> AbsPtr {
        self.age_site(site, st);
        self.acc_allocs.insert(site);
        let fresh = Tok::Site(site);
        st.toks.insert(fresh, TokState::live());
        AbsPtr::fresh(fresh)
    }

    fn eval(&mut self, e: &Expr, st: &mut State) -> AbsPtr {
        match e {
            Expr::Int(_) | Expr::Null => AbsPtr::scalar(),
            Expr::Var(name) => match st.vars.get(name) {
                Some(v) => v.clone(),
                // Globals (and anything undeclared) are top.
                None => AbsPtr::top(),
            },
            Expr::Malloc { site, .. } => self.do_malloc(*site, st),
            Expr::MallocArray { site, count, .. } => {
                self.eval(count, st);
                self.do_malloc(*site, st)
            }
            Expr::Index { base, index } => {
                let b = self.eval(base, st);
                self.eval(index, st);
                // Same object, possibly not its base address.
                let interior =
                    b.interior || !matches!(index.as_ref(), Expr::Int(0));
                AbsPtr { interior, ..b }
            }
            Expr::Field { base, span, .. } => {
                let b = self.eval(base, st);
                self.deref_use(&b, *span, st);
                if self.mode == LintMode::Intra {
                    // Loaded values are escaped-or-unknown by construction.
                    AbsPtr::top()
                } else {
                    match self.target_classes(&b) {
                        Some(classes) => {
                            // Field-insensitive: a load from class `c` may
                            // yield a pointer into its pointee class. A
                            // class without a known pointee holds no heap
                            // pointers, so the load is a scalar.
                            let mut heap = BTreeSet::new();
                            for c in classes {
                                if let Some(&d) = self.analysis.pointee_class.get(&c)
                                {
                                    heap.insert(d);
                                }
                            }
                            if heap.is_empty() {
                                AbsPtr::scalar()
                            } else {
                                AbsPtr::marker(heap)
                            }
                        }
                        None => AbsPtr::top(),
                    }
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                let l = self.eval(lhs, st);
                let r = self.eval(rhs, st);
                let mut j = l.join(&r);
                // Arithmetic results keep their targets (so later uses
                // still demote) but are never unambiguous.
                if !j.toks.is_empty() || j.top || !j.heap.is_empty() {
                    j.interior = true;
                    j.may_null = true;
                }
                j
            }
            Expr::Call { callee, args, span, .. } => {
                let vals: Vec<AbsPtr> =
                    args.iter().map(|a| self.eval(a, st)).collect();
                if self.mode == LintMode::Intra {
                    for (a, v) in args.iter().zip(&vals) {
                        self.escape_value(v, st, call_span(a));
                    }
                    // The callee can use (and free) anything escaped; frees
                    // of escaped objects were already demoted when they
                    // escaped, so no extra demotion is needed here. The
                    // return value can only be escaped-or-unknown.
                    return AbsPtr::top();
                }
                let widened = self.widened.contains(callee.as_str());
                if self.defined.contains(callee.as_str()) && !widened {
                    let s = self
                        .summaries
                        .get(callee.as_str())
                        .cloned()
                        .unwrap_or_default();
                    self.apply_summary(callee, &s, vals, *span, st)
                } else {
                    // Opaque (undefined or widened) callee: havoc.
                    for (a, v) in args.iter().zip(&vals) {
                        self.escape_value(v, st, call_span(a));
                    }
                    if let Some(tf) = self.transitive_frees.get(callee.as_str()) {
                        let mut sites: Vec<u32> = tf.iter().copied().collect();
                        sites.sort_unstable();
                        for site in sites {
                            self.demote(
                                site,
                                Verdict::Unknown,
                                Some(*span),
                                "freed within a call the analysis widened over",
                            );
                        }
                    }
                    if widened {
                        let all: Vec<u32> =
                            st.heap_freed.values().flatten().copied().collect();
                        for site in all {
                            self.demote(
                                site,
                                Verdict::Unknown,
                                Some(*span),
                                "a widened call may reach objects in a freed heap region",
                            );
                        }
                    }
                    AbsPtr::top()
                }
            }
        }
    }

    /// Applies a callee's converged summary at a call site. The order of
    /// effects over-approximates any interleaving the callee can perform:
    /// alias guard → uses → heap uses → escapes → aging → parameter frees
    /// → heap frees → return translation.
    fn apply_summary(
        &mut self,
        callee: &str,
        s: &FnSummary,
        mut vals: Vec<AbsPtr>,
        span: Span,
        st: &mut State,
    ) -> AbsPtr {
        // (1) Aliased arguments: if the callee frees through one parameter
        // and touches another, and the two arguments may target the same
        // object, the per-parameter effects below would miss the
        // cross-parameter UAF — demote the involved free sites instead.
        let touches =
            |e: &ParamEffect| e.used || e.escapes || !e.frees.is_empty();
        for i in 0..s.params.len() {
            for j in (i + 1)..s.params.len() {
                let (ei, ej) = (&s.params[i], &s.params[j]);
                let cross = (!ei.frees.is_empty() && touches(ej))
                    || (!ej.frees.is_empty() && touches(ei));
                if !cross {
                    continue;
                }
                let (Some(vi), Some(vj)) = (vals.get(i), vals.get(j)) else {
                    continue;
                };
                let alias = vi.toks.intersection(&vj.toks).next().is_some()
                    || vi.heap.intersection(&vj.heap).next().is_some();
                if alias {
                    let sites: Vec<u32> =
                        ei.frees.iter().chain(ej.frees.iter()).copied().collect();
                    for site in sites {
                        self.demote(
                            site,
                            Verdict::Unknown,
                            Some(span),
                            "two call arguments may alias; the callee frees one and touches the other",
                        );
                    }
                }
            }
        }
        // (2) Parameter uses. `used` is a may-fact, so definite claims are
        // suppressed: a conditional use in the callee must not become a
        // DefiniteUAF at the call site.
        let saved = self.definite;
        self.definite = false;
        for (i, e) in s.params.iter().enumerate() {
            if e.used {
                if let Some(v) = vals.get(i).cloned() {
                    self.deref_use(&v, span, st);
                }
            }
        }
        self.definite = saved;
        // (3) Heap uses: the callee may traverse these classes.
        for &c in &s.uses_heap {
            self.acc_uses_heap.insert(c);
            let freed: Vec<u32> = st
                .heap_freed
                .get(&c)
                .map(|x| x.iter().copied().collect())
                .unwrap_or_default();
            for site in freed {
                self.demote(
                    site,
                    Verdict::Unknown,
                    Some(span),
                    "the callee traverses a heap region containing freed objects",
                );
            }
        }
        // (4) Escapes.
        for (i, e) in s.params.iter().enumerate() {
            if e.escapes {
                if let Some(v) = vals.get(i).cloned() {
                    self.escape_value(&v, st, span);
                }
            }
        }
        // (5) Allocation aging: each transitively-executed malloc site
        // supersedes the caller's most-recent object of that site.
        for &m in &s.allocs {
            self.age_site(m, st);
            for v in vals.iter_mut() {
                if v.toks.remove(&Tok::Site(m)) {
                    v.toks.insert(Tok::Old(m));
                }
            }
        }
        self.acc_allocs.extend(s.allocs.iter().copied());
        // (6) Parameter frees: discharge the callee's obligations against
        // the caller's argument values.
        for (i, e) in s.params.iter().enumerate() {
            if e.frees.is_empty() {
                continue;
            }
            if let Some(v) = vals.get(i).cloned() {
                self.apply_free_to(&v, &e.frees, e.frees_must, span, st);
            }
        }
        // (7) Heap frees (chain frees): merge into the caller's region
        // state. Freeing an already-chain-freed region is a double free of
        // its objects, so both generations demote.
        for (c, sites) in &s.frees_heap {
            let prior: Vec<u32> = st
                .heap_freed
                .get(c)
                .map(|x| x.iter().copied().collect())
                .unwrap_or_default();
            if !prior.is_empty() {
                for &x in prior.iter().chain(sites.iter()) {
                    self.demote(
                        x,
                        Verdict::Unknown,
                        Some(span),
                        "a heap region is chain-freed twice; its objects may be freed again",
                    );
                }
            }
            st.heap_freed.entry(*c).or_default().extend(sites.iter().copied());
            self.acc_frees_heap
                .entry(*c)
                .or_default()
                .extend(sites.iter().copied());
            let sv: Vec<u32> = sites.iter().copied().collect();
            self.weak_free_escaped_of_class(*c, &sv, st);
        }
        // (8) Summary-chain attribution for the report.
        let carried = s.carried_sites();
        if !carried.is_empty() {
            let hop = format!("{} -> {} at {}", self.func, callee, span);
            for site in carried {
                let chain = self.report.summary_chain.entry(site).or_default();
                if chain.len() < 8 && !chain.iter().any(|e| e == &hop) {
                    chain.push(hop.clone());
                }
            }
        }
        // (9) Return translation: substitute caller argument values for
        // `Param(i)` tokens; the callee's own tokens carry over (aging in
        // step 5 already retired the caller's stale generation).
        match &s.ret {
            Some(r) => self.translate_ret(r, &vals, st),
            None => AbsPtr::scalar(),
        }
    }

    /// Applies callee free obligations `sites` to one argument value —
    /// the interprocedural mirror of [`Linter::do_free`].
    fn apply_free_to(
        &mut self,
        v: &AbsPtr,
        sites: &BTreeSet<u32>,
        must: bool,
        span: Span,
        st: &mut State,
    ) {
        if v.top {
            for &s in sites {
                self.demote(
                    s,
                    Verdict::Unknown,
                    Some(span),
                    "a callee frees through an argument with unknown target",
                );
            }
        }
        if v.interior && !v.toks.is_empty() {
            for &s in sites {
                self.demote(
                    s,
                    Verdict::Unknown,
                    Some(span),
                    "a callee frees a derived pointer that may not be an object base",
                );
            }
        }
        if v.toks.len() + v.heap.len() > 1 {
            for &s in sites {
                self.demote(
                    s,
                    Verdict::Unknown,
                    Some(span),
                    "the callee's free target is ambiguous between several objects",
                );
            }
        }
        for t in v.toks.clone() {
            let ts = st.tok_mut(t).clone();
            // Strong free requires a must-free of an unambiguous target.
            // `Param` tokens additionally enjoy free-modulo-null: a null
            // argument makes the callee's free a runtime no-op, so
            // may-null only blocks *claims*, not the may_live flip.
            let strong = must
                && !v.top
                && !v.interior
                && v.toks.len() == 1
                && v.heap.is_empty()
                && (matches!(t, Tok::Param(_)) || !v.may_null);
            if strong && ts.must_freed() && self.definite && !v.may_null {
                for &s in sites {
                    self.demote(
                        s,
                        Verdict::DefiniteDoubleFree,
                        Some(span),
                        "the callee frees an object that is already freed on every path",
                    );
                }
            } else if !ts.freed_by.is_empty() {
                for &s in sites {
                    self.demote(
                        s,
                        Verdict::Unknown,
                        Some(span),
                        "the object may already be freed when the callee frees it",
                    );
                }
            }
            for prev in ts.freed_by.iter().copied() {
                self.demote(
                    prev,
                    Verdict::Unknown,
                    Some(span),
                    "the freed object is freed again through a call",
                );
            }
            if ts.escaped {
                for &s in sites {
                    self.demote(
                        s,
                        Verdict::Unknown,
                        Some(span),
                        "a callee frees an object that escaped",
                    );
                }
            }
            if matches!(t, Tok::Old(_)) {
                for &s in sites {
                    self.demote(
                        s,
                        Verdict::Unknown,
                        Some(span),
                        "a callee frees an object summarized with older allocations",
                    );
                }
            }
            let ts = st.tok_mut(t);
            ts.freed_by.extend(sites.iter().copied());
            if strong {
                ts.may_live = false;
            }
        }
        for c in v.heap.iter().copied().collect::<Vec<_>>() {
            for &s in sites {
                self.demote(
                    s,
                    Verdict::Unknown,
                    Some(span),
                    "a callee frees an object loaded from the heap",
                );
            }
            let prior: Vec<u32> = st
                .heap_freed
                .get(&c)
                .map(|x| x.iter().copied().collect())
                .unwrap_or_default();
            for prev in prior {
                self.demote(
                    prev,
                    Verdict::Unknown,
                    Some(span),
                    "an object in a freed heap region may be freed again",
                );
            }
            st.heap_freed.entry(c).or_default().extend(sites.iter().copied());
            self.acc_frees_heap
                .entry(c)
                .or_default()
                .extend(sites.iter().copied());
            let sv: Vec<u32> = sites.iter().copied().collect();
            self.weak_free_escaped_of_class(c, &sv, st);
        }
    }

    /// Instantiates a callee's return effect in the caller: `Param(i)`
    /// tokens become the (aged) argument values, callee-local tokens carry
    /// over as fresh caller-visible objects.
    fn translate_ret(&mut self, r: &RetEffect, vals: &[AbsPtr], st: &mut State) -> AbsPtr {
        let mut out = AbsPtr {
            may_null: r.may_null,
            top: r.top,
            interior: r.interior,
            toks: BTreeSet::new(),
            heap: r.heap.clone(),
        };
        for t in &r.toks {
            match t {
                Tok::Param(i) => match vals.get(*i as usize) {
                    Some(v) => {
                        out.may_null |= v.may_null;
                        out.top |= v.top;
                        out.interior |= v.interior;
                        out.toks.extend(v.toks.iter().copied());
                        out.heap.extend(v.heap.iter().copied());
                    }
                    None => {
                        out.top = true;
                        out.may_null = true;
                    }
                },
                Tok::Site(_) | Tok::Old(_) => {
                    st.tok_mut(*t);
                    out.toks.insert(*t);
                }
            }
        }
        out
    }

    fn do_free(
        &mut self,
        site: u32,
        expr: &Expr,
        span: Span,
        st: &mut State,
    ) {
        let v = self.eval(expr, st);
        if v.top {
            self.demote(
                site,
                Verdict::Unknown,
                None,
                "frees a pointer with unknown or escaped target",
            );
            return;
        }
        if v.interior && !v.toks.is_empty() {
            self.demote(
                site,
                Verdict::Unknown,
                None,
                "frees a derived pointer that may not be an object base",
            );
        }
        if v.toks.len() > 1 {
            self.demote(
                site,
                Verdict::Unknown,
                None,
                "free target is ambiguous between several objects",
            );
        }
        let single = v.toks.len() == 1;
        for t in v.toks.clone() {
            let ts = st.tok_mut(t).clone();
            if single && ts.must_freed() && v.singleton() == Some(t) && self.definite
            {
                self.demote(
                    site,
                    Verdict::DefiniteDoubleFree,
                    Some(span),
                    "the object is already freed on every path reaching this free",
                );
            } else if !ts.freed_by.is_empty() {
                self.demote(
                    site,
                    Verdict::Unknown,
                    Some(span),
                    "the object may already be freed when this free runs",
                );
            }
            // This free *touches* the object (hidden-word read), so the
            // earlier frees see a use-after-free.
            for prev in ts.freed_by.iter().copied() {
                self.demote(
                    prev,
                    Verdict::Unknown,
                    Some(span),
                    "the freed object is freed again later",
                );
            }
            if ts.escaped {
                self.demote(
                    site,
                    Verdict::Unknown,
                    None,
                    "frees an object that escaped the function",
                );
            }
            if matches!(t, Tok::Old(_)) {
                self.demote(
                    site,
                    Verdict::Unknown,
                    None,
                    "frees an object summarized with older allocations",
                );
            }
            // Strong free only when the target is unambiguous AND the
            // pointer cannot be null (a null free is a runtime no-op that
            // leaves the object live). `Param` tokens get free-modulo-null
            // (a null argument makes the free a no-op in the caller too,
            // which is exactly what `frees_must` promises).
            let strong = v.singleton() == Some(t)
                || (matches!(t, Tok::Param(_))
                    && !v.top
                    && !v.interior
                    && v.toks.len() == 1
                    && v.heap.is_empty());
            let ts = st.tok_mut(t);
            ts.freed_by.insert(site);
            if strong {
                ts.may_live = false;
            }
        }
        // Freeing through a heap marker frees *some* object of the class:
        // never provably safe, and a second region-level free of the same
        // class may double-free.
        for c in v.heap.iter().copied().collect::<Vec<_>>() {
            self.demote(
                site,
                Verdict::Unknown,
                None,
                "frees a pointer loaded from the heap",
            );
            let prior: Vec<u32> = st
                .heap_freed
                .get(&c)
                .map(|x| x.iter().copied().collect())
                .unwrap_or_default();
            for prev in prior {
                self.demote(
                    prev,
                    Verdict::Unknown,
                    Some(span),
                    "an object in the freed heap region may be freed again",
                );
            }
            st.heap_freed.entry(c).or_default().insert(site);
            if self.mode == LintMode::Inter {
                self.acc_frees_heap.entry(c).or_default().insert(site);
            }
            self.weak_free_escaped_of_class(c, &[site], st);
        }
    }

    /// Recognizes the linear chain-free idiom
    /// `while (x != null) { var n = x->f; free(x); x = n; }` and, when the
    /// class's heap shape makes it provably exhaustive-and-once, executes
    /// its region-level effect without demoting the free site.
    ///
    /// Soundness: `fresh_store` guarantees every pointer stored into the
    /// class's fields is a *freshly allocated* object (or null), so the
    /// class's heap graph is a forest (in-degree ≤ 1, acyclic) — the
    /// traversal visits each reachable object exactly once and terminates.
    /// Exclusion from `global_classes` plus the pristine-entry checks rule
    /// out any alias path to the freed objects other than (a) the entry
    /// pointer itself (weakly freed below), (b) heap markers of the class
    /// (demoted via `heap_freed` on any later use), and (c) escaped local
    /// tokens stored into the region (weakly freed below).
    fn try_chain_free(&mut self, cond: &Expr, body: &[Stmt], st: &mut State) -> bool {
        if self.mode != LintMode::Inter {
            return false;
        }
        let x = match cond {
            Expr::Binary { op: BinOp::Ne, lhs, rhs } => {
                match (lhs.as_ref(), rhs.as_ref()) {
                    (Expr::Var(x), Expr::Null) | (Expr::Null, Expr::Var(x)) => {
                        x.clone()
                    }
                    _ => return false,
                }
            }
            _ => return false,
        };
        let (n, site) = match body {
            [Stmt::VarDecl {
                name: n,
                ty: Type::Ptr(_),
                init: Some(Expr::Field { base, .. }),
            }, Stmt::Free { expr: Expr::Var(fx), site, .. }, Stmt::Assign {
                lhs: LValue::Var(ax),
                rhs: Expr::Var(rn),
            }] if matches!(base.as_ref(), Expr::Var(b) if *b == x)
                && *fx == x
                && *ax == x
                && rn == n
                && *n != x =>
            {
                (n.clone(), *site)
            }
            _ => return false,
        };
        let Some(v) = st.vars.get(&x).cloned() else { return false };
        if v.top || v.interior {
            return false;
        }
        // Entry pointer: pristine parameters and/or heap markers, all of
        // one class.
        let mut classes: BTreeSet<usize> = v.heap.iter().copied().collect();
        for t in &v.toks {
            if !matches!(t, Tok::Param(_)) {
                return false;
            }
            if let Some(ts) = st.toks.get(t) {
                if ts.escaped || !ts.freed_by.is_empty() {
                    return false;
                }
            }
            match self.tok_class(*t) {
                Some(c) => {
                    classes.insert(c);
                }
                None => return false,
            }
        }
        if classes.len() != 1 {
            return false;
        }
        let c = *classes.iter().next().unwrap();
        if self.analysis.global_classes.contains(&c)
            || !self.analysis.fresh_store.contains(&c)
            || self.analysis.pointee_class.get(&c).copied() != Some(c)
            || st.heap_freed.get(&c).is_some_and(|s| !s.is_empty())
        {
            return false;
        }
        // Effects: the traversal dereferences and weakly frees the entry
        // object(s) and region-frees the class. The site itself stays
        // ProvablySafe — that is the point of the rule.
        for t in v.toks.iter().copied() {
            let ts = st.tok_mut(t);
            ts.used = true;
            ts.freed_by.insert(site);
        }
        st.heap_freed.entry(c).or_default().insert(site);
        self.acc_frees_heap.entry(c).or_default().insert(site);
        self.acc_uses_heap.insert(c);
        self.weak_free_escaped_of_class(c, &[site], st);
        // Post-loop: the cursor is null; the scratch variable may hold a
        // (possibly dangling) pointer into the region.
        st.vars.insert(x, AbsPtr::scalar());
        st.vars.insert(
            n,
            AbsPtr {
                may_null: true,
                top: true,
                interior: true,
                toks: BTreeSet::new(),
                heap: [c].into_iter().collect(),
            },
        );
        true
    }

    /// Transfers a statement sequence; `None` means every path returned.
    fn block(&mut self, stmts: &[Stmt], mut st: State) -> Option<State> {
        for s in stmts {
            match s {
                Stmt::VarDecl { name, init, .. } => {
                    let v = match init {
                        Some(e) => self.eval(e, &mut st),
                        None => AbsPtr::scalar(),
                    };
                    st.vars.insert(name.clone(), v);
                }
                Stmt::Assign { lhs: LValue::Var(name), rhs } => {
                    let v = self.eval(rhs, &mut st);
                    if st.vars.contains_key(name) {
                        st.vars.insert(name.clone(), v);
                    } else {
                        // Store to a global: the value escapes.
                        self.escape_value(&v, &mut st, Span::NONE);
                    }
                }
                Stmt::Assign { lhs: LValue::Field { base, span, .. }, rhs } => {
                    let rv = self.eval(rhs, &mut st);
                    let bv = self.eval(base, &mut st);
                    self.deref_use(&bv, *span, &mut st);
                    // Stored into the heap: reachable from elsewhere.
                    self.escape_value(&rv, &mut st, *span);
                }
                Stmt::Free { expr, site, span, .. } => {
                    self.do_free(*site, expr, *span, &mut st);
                }
                Stmt::If { cond, then, els } => {
                    self.eval(cond, &mut st);
                    let saved = self.definite;
                    self.definite = false;
                    let t = self.block(then, st.clone());
                    let e = self.block(els, st);
                    match (t, e) {
                        (None, None) => {
                            self.definite = saved;
                            return None;
                        }
                        (Some(a), None) | (None, Some(a)) => {
                            st = a;
                            // The surviving path is conditional from here.
                            self.definite = false;
                        }
                        (Some(mut a), Some(b)) => {
                            a.join_with(&b);
                            st = a;
                            self.definite = saved;
                        }
                    }
                }
                Stmt::While { cond, body } => {
                    if self.try_chain_free(cond, body, &mut st) {
                        // Chain free handled as one region-level effect;
                        // the loop body contains no returns by shape, so
                        // `definite` is unaffected.
                        continue;
                    }
                    let saved = self.definite;
                    self.definite = false;
                    let mut acc = st;
                    loop {
                        let mut head = acc.clone();
                        self.eval(cond, &mut head);
                        let mut next = acc.clone();
                        next.join_with(&head);
                        if let Some(out) = self.block(body, head) {
                            next.join_with(&out);
                        }
                        if next == acc {
                            break;
                        }
                        acc = next;
                    }
                    st = acc;
                    // After the loop, execution is definite again unless
                    // the body could have returned out of the function.
                    self.definite = saved && !contains_return(body);
                }
                Stmt::Return(e) => {
                    if self.mode == LintMode::Intra {
                        if let Some(e) = e {
                            let v = self.eval(e, &mut st);
                            self.escape_value(&v, &mut st, Span::NONE);
                        }
                        return None;
                    }
                    // Interprocedural: the return value flows into the
                    // summary's RetEffect instead of escaping — callers
                    // apply it precisely.
                    if let Some(e) = e {
                        let v = self.eval(e, &mut st);
                        let mut rv = v.clone();
                        let mut poisoned = false;
                        for t in v.toks.clone() {
                            match t {
                                Tok::Site(_) | Tok::Old(_) => {
                                    let ts = st.tok_mut(t).clone();
                                    // A freed local object becomes
                                    // caller-reachable through the return.
                                    let freed: Vec<u32> =
                                        ts.freed_by.iter().copied().collect();
                                    for site in freed {
                                        self.demote(
                                            site,
                                            Verdict::Unknown,
                                            None,
                                            "a freed object is returned to the caller",
                                        );
                                    }
                                    // An escaped local is also reachable
                                    // some other way the caller cannot
                                    // track: degrade to top.
                                    if ts.escaped {
                                        rv.toks.remove(&t);
                                        poisoned = true;
                                    }
                                }
                                Tok::Param(_) => {}
                            }
                        }
                        if poisoned {
                            rv.top = true;
                            rv.may_null = true;
                            rv.interior = true;
                        }
                        self.ret_acc = Some(match self.ret_acc.take() {
                            None => rv,
                            Some(prev) => prev.join(&rv),
                        });
                    }
                    self.exits.push(st.clone());
                    return None;
                }
                Stmt::Print(e) | Stmt::ExprStmt(e) => {
                    self.eval(e, &mut st);
                }
                Stmt::PoolInit { .. } | Stmt::PoolDestroy { .. } => {}
            }
        }
        Some(st)
    }
}

/// Best-effort span for diagnostics about a call argument.
fn call_span(e: &Expr) -> Span {
    match e {
        Expr::Field { span, .. }
        | Expr::Malloc { span, .. }
        | Expr::MallocArray { span, .. } => *span,
        Expr::Index { base, .. } => call_span(base),
        _ => Span::NONE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::parse::parse;

    fn lint_src(src: &str) -> LintReport {
        let prog = parse(src).unwrap();
        let a = analyze(&prog);
        lint(&prog, &a)
    }

    #[test]
    fn straight_line_uaf_is_definite() {
        let r = lint_src(
            "struct s { v: int }\nfn main() {\n  var p: ptr<s> = malloc(s);\n  free(p);\n  print(p->v);\n}",
        );
        assert_eq!(r.verdict(0), Verdict::DefiniteUAF);
        assert_eq!(r.diagnostics.len(), 1);
        let d = &r.diagnostics[0];
        assert_eq!((d.span.line, d.span.col), (4, 3));
        assert_eq!(d.offending_use.map(|s| s.line), Some(5));
        assert!(r.render().contains("definite use-after-free"), "{}", r.render());
    }

    #[test]
    fn alloc_use_free_is_provably_safe_and_elidable() {
        let r = lint_src(
            "struct s { v: int }
             fn main() {
               var i: int = 0;
               while (i < 10) {
                 var p: ptr<s> = malloc(s);
                 p->v = i;
                 print(p->v);
                 free(p);
                 i = i + 1;
               }
             }",
        );
        assert_eq!(r.verdict(0), Verdict::ProvablySafe);
        assert_eq!(r.elidable_classes.len(), 1);
        assert!(r.unchecked_malloc_sites.contains(&0));
        assert!(r.unchecked_free_sites.contains(&0));
    }

    #[test]
    fn figure_one_frees_are_unknown_not_elided() {
        let prog = parse(crate::parse::FIGURE_1).unwrap();
        let a = analyze(&prog);
        let r = lint(&prog, &a);
        // Figure 1 is genuinely buggy: `p->next->val = 7` writes through a
        // dangling pointer after `g` chain-frees the tail. Even the
        // interprocedural analysis must keep the site protected (the
        // dangling write reaches it through the heap-marker channel).
        assert_eq!(r.verdict(0), Verdict::Unknown);
        assert!(r.elidable_classes.is_empty());
        assert!(r.is_clean(), "no false definite findings: {}", r.render());
        // Intraprocedurally the verdict is the same, for a blunter reason.
        let ri = lint_intra(&prog, &a);
        assert_eq!(ri.verdict(0), Verdict::Unknown);
    }

    #[test]
    fn must_free_through_callee_claims_definite_uaf_in_caller() {
        let r = lint_src(
            "struct s { v: int }
             fn kill(p: ptr<s>) { free(p); }
             fn main() {
               var p: ptr<s> = malloc(s);
               kill(p);
               print(p->v);
             }",
        );
        // The callee must-frees its argument; the caller's dereference is
        // definite.
        assert_eq!(r.verdict(0), Verdict::DefiniteUAF);
        assert!(r.render().contains("definite use-after-free"), "{}", r.render());
        // The chain is attributed.
        assert!(
            r.summary_chain.get(&0).is_some_and(|c| c[0].contains("main -> kill")),
            "{:?}",
            r.summary_chain
        );
    }

    #[test]
    fn double_free_through_callees_is_definite() {
        let r = lint_src(
            "struct s { v: int }
             fn kill(p: ptr<s>) { free(p); }
             fn main() {
               var p: ptr<s> = malloc(s);
               kill(p);
               kill(p);
             }",
        );
        assert_eq!(r.verdict(0), Verdict::DefiniteDoubleFree);
        assert!(r.render().contains("definite double free"), "{}", r.render());
    }

    #[test]
    fn conditionally_freeing_callee_stays_unknown() {
        let r = lint_src(
            "struct s { v: int }
             fn maybe(p: ptr<s>, flag: int) { if (flag > 0) { free(p); } }
             fn main() {
               var p: ptr<s> = malloc(s);
               maybe(p, 0);
               print(p->v);
             }",
        );
        // May-free + may-use: never definite, never safe.
        assert_eq!(r.verdict(0), Verdict::Unknown);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn helper_session_loop_is_safe_inter_but_unknown_intra() {
        let src = "struct sess { n: int }
             fn open_session(id: int) -> ptr<sess> {
               var s: ptr<sess> = malloc(sess);
               s->n = id;
               return s;
             }
             fn touch(s: ptr<sess>) { s->n = s->n + 1; }
             fn close_session(s: ptr<sess>) { free(s); }
             fn main() {
               var i: int = 0;
               while (i < 4) {
                 var s: ptr<sess> = open_session(i);
                 touch(s);
                 close_session(s);
                 i = i + 1;
               }
             }";
        let prog = parse(src).unwrap();
        let a = analyze(&prog);
        let inter = lint(&prog, &a);
        assert_eq!(inter.verdict(0), Verdict::ProvablySafe, "{:?}", inter.reasons);
        assert_eq!(inter.elidable_classes.len(), 1);
        assert!(inter.is_clean(), "{}", inter.render());
        let intra = lint_intra(&prog, &a);
        assert_eq!(intra.verdict(0), Verdict::Unknown);
        assert!(intra.elidable_classes.is_empty());
    }

    #[test]
    fn chain_free_of_fresh_forest_is_safe() {
        // free_all_but_head over a locally built list: the traversal free
        // is provably exhaustive-and-once.
        let r = lint_src(
            "struct node { val: int, next: ptr<node> }
             fn drain(p: ptr<node>) {
               var x: ptr<node> = p->next;
               while (x != null) {
                 var n: ptr<node> = x->next;
                 free(x);
                 x = n;
               }
             }
             fn main() {
               var head: ptr<node> = malloc(node);
               var cur: ptr<node> = head;
               var i: int = 0;
               while (i < 3) {
                 cur->next = malloc(node);
                 cur = cur->next;
                 i = i + 1;
               }
               cur->next = null;
               drain(head);
               print(head->val);
               free(head);
             }",
        );
        for (site, v) in &r.verdicts {
            assert_eq!(
                *v,
                Verdict::ProvablySafe,
                "site {site}: {:?}",
                r.reasons.get(site)
            );
        }
        // Both the chain site and free(head) are elided.
        assert!(r.unchecked_free_sites.contains(&0), "{:?}", r.unchecked_free_sites);
        assert!(r.unchecked_free_sites.contains(&1), "{:?}", r.unchecked_free_sites);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn use_after_chain_free_demotes_the_chain_site() {
        // Same drain, but main touches a chained node afterwards: the
        // heap-marker channel must demote the traversal's free site.
        let r = lint_src(
            "struct node { val: int, next: ptr<node> }
             fn drain(p: ptr<node>) {
               var x: ptr<node> = p->next;
               while (x != null) {
                 var n: ptr<node> = x->next;
                 free(x);
                 x = n;
               }
             }
             fn main() {
               var head: ptr<node> = malloc(node);
               head->next = malloc(node);
               drain(head);
               print(head->next->val);
             }",
        );
        assert_eq!(r.verdict(0), Verdict::Unknown, "{:?}", r.reasons);
        assert!(!r.unchecked_free_sites.contains(&0));
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn recursive_burner_converges_and_is_safe() {
        let r = lint_src(
            "struct s { v: int }
             fn burn(n: int) {
               if (n == 0) { return; }
               var p: ptr<s> = malloc(s);
               p->v = n;
               free(p);
               burn(n - 1);
             }
             fn main() { burn(5); }",
        );
        assert_eq!(r.verdict(0), Verdict::ProvablySafe, "{:?}", r.reasons);
        assert_eq!(r.elidable_classes.len(), 1);
    }

    #[test]
    fn mutually_recursive_frees_converge_and_are_safe() {
        let r = lint_src(
            "struct s { v: int }
             fn even(n: int) {
               if (n == 0) { return; }
               var p: ptr<s> = malloc(s);
               free(p);
               odd(n - 1);
             }
             fn odd(n: int) {
               if (n == 0) { return; }
               var q: ptr<s> = malloc(s);
               free(q);
               even(n - 1);
             }
             fn main() { even(6); }",
        );
        assert_eq!(r.verdict(0), Verdict::ProvablySafe, "{:?}", r.reasons);
        assert_eq!(r.verdict(1), Verdict::ProvablySafe, "{:?}", r.reasons);
        // even's and odd's objects are distinct classes; both elide.
        assert_eq!(r.elidable_classes.len(), 2);
    }

    #[test]
    fn aliased_arguments_block_safety() {
        let r = lint_src(
            "struct s { v: int }
             fn kill_use(a: ptr<s>, b: ptr<s>) { free(a); print(b->v); }
             fn main() {
               var p: ptr<s> = malloc(s);
               kill_use(p, p);
             }",
        );
        // Both parameters target the same object: the callee's free is a
        // runtime UAF when `b->v` reads it back.
        assert_eq!(r.verdict(0), Verdict::Unknown, "{:?}", r.reasons);
        assert!(r.elidable_classes.is_empty());
    }

    #[test]
    fn report_json_has_schema_and_site_rows() {
        let prog = parse(crate::parse::FIGURE_1).unwrap();
        let a = analyze(&prog);
        let r = lint(&prog, &a);
        let j = r.to_json(&a);
        assert_eq!(j.get("schema_version").and_then(|v| v.as_i64()), Some(1));
        assert_eq!(j.get("mode").and_then(|v| v.as_str()), Some("inter"));
        let sites = j.get("sites").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(sites.len(), r.verdicts.len());
        assert!(sites[0].get("verdict").is_some());
        assert!(j.get("counts").and_then(|c| c.get("safe")).is_some());
    }

    #[test]
    fn double_free_is_definite() {
        let r = lint_src(
            "struct s { v: int }
             fn main() {
               var p: ptr<s> = malloc(s);
               free(p);
               free(p);
             }",
        );
        assert_eq!(r.verdict(1), Verdict::DefiniteDoubleFree);
        // The first free's object is touched again: not safe either.
        assert_eq!(r.verdict(0), Verdict::Unknown);
        assert!(r.render().contains("definite double free"));
    }

    #[test]
    fn escaped_pointers_are_never_safe() {
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
}
