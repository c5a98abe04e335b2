//! Static well-formedness checking for pool-transformed programs.
//!
//! The interpreter would eventually crash on malformed transform output,
//! but late and with poor attribution. [`validate`] checks the structural
//! contract of the Figure 2 form up front:
//!
//! 1. every `poolalloc`/`poolfree` names a pool descriptor that is in
//!    scope (a pool parameter or a `poolinit` of the enclosing function);
//! 2. every call passes exactly the pool arguments its callee declares,
//!    all of them in scope at the call site;
//! 3. every pool a function `poolinit`s is `pooldestroy`ed exactly once on
//!    *every* exit path (before each `return` and at fall-through), and
//!    nothing destroys a pool it does not own;
//! 4. no `malloc`/`free` is left un-annotated when the analysis knows its
//!    class (`pool_allocate` output never is).
//!
//! The property tests run it over every randomly generated program.

use crate::ast::*;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A structural violation in a transformed program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateError {
    /// Function in which the violation occurred.
    pub func: String,
    /// Source location of the violation (NONE when the construct was
    /// synthesized and carries no span).
    pub span: Span,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_known() {
            write!(f, "in `{}` at {}: {}", self.func, self.span, self.message)
        } else {
            write!(f, "in `{}`: {}", self.func, self.message)
        }
    }
}

impl std::error::Error for ValidateError {}

struct Checker<'p> {
    prog: &'p Program,
    func: &'p FuncDef,
    errors: Vec<ValidateError>,
}

impl Checker<'_> {
    fn err(&mut self, message: String) {
        self.err_at(Span::NONE, message);
    }

    fn err_at(&mut self, span: Span, message: String) {
        self.errors.push(ValidateError {
            func: self.func.name.clone(),
            span,
            message,
        });
    }

    fn check_pool_ref(&mut self, pool: &Option<PoolRef>, scope: &HashSet<String>, what: &str) {
        match pool {
            None => self.err(format!("{what} without a pool annotation")),
            Some(p) if !scope.contains(p) => {
                self.err(format!("{what} uses pool `{p}` which is not in scope"))
            }
            Some(_) => {}
        }
    }

    fn check_expr(&mut self, e: &Expr, scope: &HashSet<String>) {
        match e {
            Expr::Malloc { pool, .. } => {
                self.check_pool_ref(pool, scope, "poolalloc");
            }
            Expr::MallocArray { pool, count, .. } => {
                self.check_expr(count, scope);
                self.check_pool_ref(pool, scope, "poolalloc_array");
            }
            Expr::Index { base, index } => {
                self.check_expr(base, scope);
                self.check_expr(index, scope);
            }
            Expr::Field { base, .. } => self.check_expr(base, scope),
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs, scope);
                self.check_expr(rhs, scope);
            }
            Expr::Call { callee, args, pool_args, .. } => {
                for a in args {
                    self.check_expr(a, scope);
                }
                match self.prog.func(callee) {
                    Some(f) => {
                        if f.pool_params.len() != pool_args.len() {
                            self.err(format!(
                                "call to `{callee}` passes {} pool args, callee declares {}",
                                pool_args.len(),
                                f.pool_params.len()
                            ));
                        }
                    }
                    None => self.err(format!("call to undefined function `{callee}`")),
                }
                for p in pool_args {
                    if !scope.contains(p) {
                        self.err(format!(
                            "call to `{callee}` passes pool `{p}` which is not in scope"
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    /// Walks a block. `scope` is the set of visible pool descriptors;
    /// `open` the pools inited in this function and not yet destroyed.
    /// Returns `true` if the block always returns (all paths end in
    /// `return`).
    fn check_block(
        &mut self,
        stmts: &[Stmt],
        scope: &mut HashSet<String>,
        open: &mut HashSet<String>,
    ) -> bool {
        for (i, s) in stmts.iter().enumerate() {
            match s {
                Stmt::VarDecl { init, .. } => {
                    if let Some(e) = init {
                        self.check_expr(e, scope);
                    }
                }
                Stmt::Assign { lhs, rhs } => {
                    if let LValue::Field { base, .. } = lhs {
                        self.check_expr(base, scope);
                    }
                    self.check_expr(rhs, scope);
                }
                Stmt::Free { expr, pool, span, .. } => {
                    self.check_expr(expr, scope);
                    // A transformed free may legitimately carry no pool:
                    // when the points-to analysis finds NO malloc site in
                    // the freed pointer's class, the (sound,
                    // over-approximating) unification guarantees the
                    // pointer can only be null at run time, and
                    // `free(null)` is a no-op. Only a *named but
                    // out-of-scope* pool is an error here; source-mode
                    // validation rejects the class-less free itself (see
                    // `validate`).
                    if let Some(pname) = pool {
                        if !scope.contains(pname) {
                            self.err_at(
                                *span,
                                format!(
                                    "poolfree uses pool `{pname}` which is not in scope"
                                ),
                            );
                        }
                    }
                }
                Stmt::If { cond, then, els } => {
                    self.check_expr(cond, scope);
                    let mut open_t = open.clone();
                    let mut open_e = open.clone();
                    let rt = self.check_block(then, scope, &mut open_t);
                    let re = self.check_block(els, scope, &mut open_e);
                    match (rt, re) {
                        (true, true) => return self.tail_unreachable(&stmts[i + 1..]),
                        (true, false) => *open = open_e,
                        (false, true) => *open = open_t,
                        (false, false) => {
                            if open_t != open_e {
                                self.err(
                                    "branches of `if` disagree on which pools are open"
                                        .to_string(),
                                );
                            }
                            *open = open_t;
                        }
                    }
                }
                Stmt::While { cond, body } => {
                    self.check_expr(cond, scope);
                    let mut open_b = open.clone();
                    self.check_block(body, scope, &mut open_b);
                    if open_b != *open {
                        self.err("`while` body changes which pools are open".to_string());
                    }
                }
                Stmt::Return(e) => {
                    if let Some(e) = e {
                        self.check_expr(e, scope);
                    }
                    if !open.is_empty() {
                        let mut names: Vec<&String> = open.iter().collect();
                        names.sort();
                        self.err(format!("return with pools still open: {names:?}"));
                    }
                    return self.tail_unreachable(&stmts[i + 1..]);
                }
                Stmt::Print(e) | Stmt::ExprStmt(e) => self.check_expr(e, scope),
                Stmt::PoolInit { pool, .. } => {
                    if scope.contains(pool) {
                        self.err(format!("pool `{pool}` initialized twice"));
                    }
                    scope.insert(pool.clone());
                    open.insert(pool.clone());
                }
                Stmt::PoolDestroy { pool } => {
                    if !open.remove(pool) {
                        self.err(format!(
                            "pooldestroy of `{pool}` which this function does not have open"
                        ));
                    }
                }
            }
        }
        false
    }

    fn tail_unreachable(&mut self, rest: &[Stmt]) -> bool {
        if !rest.is_empty() {
            self.err("unreachable statements after a returning construct".to_string());
        }
        true
    }
}

/// Program-wide free-site checks:
///
/// 1. duplicate free-site ids (always an error — the parser numbers sites
///    uniquely, so a duplicate means a corrupted or hand-built AST, and
///    every downstream map keyed by site id would silently merge them);
/// 2. in source mode (`require_pools == false`): a `free` of a pointer
///    whose alias class contains no allocation site — nothing this
///    pointer can legally hold besides null, so the free is almost
///    certainly a bug. (In transformed programs the same shape is the
///    sanctioned pool-less encoding of a provably-null free.)
fn check_free_sites(
    prog: &Program,
    require_pools: bool,
    errors: &mut Vec<ValidateError>,
) {
    let analysis = if require_pools {
        None
    } else {
        Some(crate::analysis::analyze(prog))
    };
    if let Some(a) = &analysis {
        check_calls_into_classless_frees(prog, a, errors);
    }
    let mut seen: HashMap<u32, Span> = HashMap::new();
    for func in &prog.funcs {
        visit_stmts(&func.body, &mut |s| {
            let Stmt::Free { expr, site, span, .. } = s else { return };
            if let Some(first) = seen.insert(*site, *span) {
                errors.push(ValidateError {
                    func: func.name.clone(),
                    span: *span,
                    message: format!(
                        "duplicate free-site id {site} (first seen at {first})"
                    ),
                });
            }
            if let Some(a) = &analysis {
                if !a.free_class.contains_key(site)
                    && !matches!(expr, Expr::Null)
                {
                    errors.push(ValidateError {
                        func: func.name.clone(),
                        span: *span,
                        message: format!(
                            "free (site {site}) of a pointer whose class has no \
                             allocation site: it can only ever be null"
                        ),
                    });
                }
            }
        });
    }
}

/// Transitive fixpoint of `(function, param index)` pairs where the
/// function may free its parameter through a free site the analysis could
/// not class — i.e. the freed pointer's alias class contains no allocation
/// site anywhere in the program. Direct case: `free(p)` of the parameter
/// itself with no `free_class` entry; transitive case: the parameter is
/// forwarded into an already-flagged position of a callee.
fn classless_param_frees(
    prog: &Program,
    a: &crate::analysis::Analysis,
) -> HashSet<(String, usize)> {
    let mut flagged: HashSet<(String, usize)> = HashSet::new();
    loop {
        let mut changed = false;
        for f in &prog.funcs {
            let param_idx = |name: &str| -> Option<usize> {
                f.params.iter().position(|(p, _)| p == name)
            };
            let mut found: Vec<usize> = Vec::new();
            visit_stmts(&f.body, &mut |s| {
                let Stmt::Free { expr: Expr::Var(v), site, .. } = s else { return };
                if !a.free_class.contains_key(site) {
                    if let Some(i) = param_idx(v) {
                        found.push(i);
                    }
                }
            });
            visit_exprs(&f.body, &mut |e| {
                let Expr::Call { callee, args, .. } = e else { return };
                for (j, arg) in args.iter().enumerate() {
                    let Expr::Var(v) = arg else { continue };
                    if flagged.contains(&(callee.clone(), j)) {
                        if let Some(i) = param_idx(v) {
                            found.push(i);
                        }
                    }
                }
            });
            for i in found {
                changed |= flagged.insert((f.name.clone(), i));
            }
        }
        if !changed {
            return flagged;
        }
    }
}

/// Source-mode call-site check paired with the class-less free check
/// above: a call that passes a non-null argument into a `(callee, param)`
/// position that (transitively) frees a never-allocated class contradicts
/// the callee's own free behaviour — nothing but null can ever legally
/// flow there, so the caller is the real bug site. Attributes a spanned
/// error at each offending call.
fn check_calls_into_classless_frees(
    prog: &Program,
    a: &crate::analysis::Analysis,
    errors: &mut Vec<ValidateError>,
) {
    let flagged = classless_param_frees(prog, a);
    if flagged.is_empty() {
        return;
    }
    for f in &prog.funcs {
        visit_exprs(&f.body, &mut |e| {
            let Expr::Call { callee, args, span, .. } = e else { return };
            for (j, arg) in args.iter().enumerate() {
                if matches!(arg, Expr::Null) {
                    continue;
                }
                if flagged.contains(&(callee.clone(), j)) {
                    errors.push(ValidateError {
                        func: f.name.clone(),
                        span: *span,
                        message: format!(
                            "call passes argument {j} to `{callee}`, which \
                             (transitively) frees it, but the argument's class \
                             has no allocation site: it can only ever be null"
                        ),
                    });
                }
            }
        });
    }
}

/// Validates a (transformed) program; untransformed programs are trivially
/// valid when their `malloc`/`free` carry no pool annotations and no pool
/// statements exist — pass `require_pools = false` for those.
///
/// # Errors
/// Returns every violation found (empty `Ok` means well-formed).
pub fn validate(prog: &Program, require_pools: bool) -> Result<(), Vec<ValidateError>> {
    let mut errors = Vec::new();
    check_free_sites(prog, require_pools, &mut errors);
    for f in &prog.funcs {
        let mut checker = Checker { prog, func: f, errors: Vec::new() };
        let mut scope: HashSet<String> = f.pool_params.iter().cloned().collect();
        let mut open = HashSet::new();
        if !require_pools {
            // Treat every malloc/free as validly un-annotated by giving an
            // empty program a pass: skip pool-annotation checks by running
            // only the structural ones. Simplest: nothing to do unless the
            // program actually contains pool constructs.
            let has_pools = !f.pool_params.is_empty()
                || f.body.iter().any(|s| {
                    matches!(s, Stmt::PoolInit { .. } | Stmt::PoolDestroy { .. })
                });
            if !has_pools {
                continue;
            }
        }
        let returned = checker.check_block(&f.body, &mut scope, &mut open);
        if !returned && !open.is_empty() {
            let mut names: Vec<&String> = open.iter().collect();
            names.sort();
            checker.err(format!("function ends with pools still open: {names:?}"));
        }
        errors.extend(checker.errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse, FIGURE_1};
    use crate::transform::pool_allocate;

    #[test]
    fn figure_one_transform_is_well_formed() {
        let (t, _) = pool_allocate(&parse(FIGURE_1).unwrap());
        validate(&t, true).unwrap();
    }

    #[test]
    fn untransformed_programs_pass_loosely() {
        let prog = parse(FIGURE_1).unwrap();
        validate(&prog, false).unwrap();
    }

    #[test]
    fn missing_annotation_reported() {
        let prog = parse("struct s { v: int } fn main() { var p: ptr<s> = malloc(s); }").unwrap();
        let errs = validate(&prog, true).unwrap_err();
        assert!(errs[0].to_string().contains("without a pool annotation"), "{errs:?}");
    }

    #[test]
    fn out_of_scope_pool_reported() {
        let src = "struct s { v: int } fn main() { var p: ptr<s> = malloc(s); }";
        let mut prog = parse(src).unwrap();
        // Annotate with a pool that was never inited.
        if let Stmt::VarDecl { init: Some(Expr::Malloc { pool, .. }), .. } =
            &mut prog.funcs[0].body[0]
        {
            *pool = Some("__pool9".to_string());
        }
        let errs = validate(&prog, true).unwrap_err();
        assert!(errs[0].to_string().contains("not in scope"), "{errs:?}");
    }

    #[test]
    fn undestroyed_pool_reported() {
        let mut prog = parse("fn main() { print(1); }").unwrap();
        prog.funcs[0]
            .body
            .insert(0, Stmt::PoolInit { pool: "__pool0".into(), elem_size: 8 });
        let errs = validate(&prog, true).unwrap_err();
        assert!(errs[0].to_string().contains("still open"), "{errs:?}");
    }

    #[test]
    fn return_with_open_pool_reported() {
        let mut prog = parse("fn main() { return; }").unwrap();
        prog.funcs[0]
            .body
            .insert(0, Stmt::PoolInit { pool: "__pool0".into(), elem_size: 8 });
        let errs = validate(&prog, true).unwrap_err();
        assert!(errs[0].to_string().contains("return with pools still open"), "{errs:?}");
    }

    #[test]
    fn foreign_destroy_reported() {
        let mut prog = parse("fn main() { print(1); }").unwrap();
        prog.funcs[0].body.push(Stmt::PoolDestroy { pool: "__pool7".into() });
        let errs = validate(&prog, true).unwrap_err();
        assert!(errs[0].to_string().contains("does not have open"), "{errs:?}");
    }

    #[test]
    fn wrong_pool_arg_count_reported() {
        let src = "struct s { v: int }
                   fn callee(p: ptr<s>) { free(p); }
                   fn main() { var p: ptr<s> = malloc(s); callee(p); }";
        let (mut t, _) = pool_allocate(&parse(src).unwrap());
        // Damage the call: drop its pool argument.
        fn strip(stmts: &mut Vec<Stmt>) {
            for s in stmts {
                if let Stmt::ExprStmt(Expr::Call { pool_args, .. }) = s {
                    pool_args.clear();
                }
            }
        }
        let main = t.funcs.iter_mut().find(|f| f.name == "main").unwrap();
        strip(&mut main.body);
        let errs = validate(&t, true).unwrap_err();
        assert!(
            errs.iter().any(|e| e.to_string().contains("pool args")),
            "{errs:?}"
        );
    }

    #[test]
    fn never_allocated_class_free_rejected_in_source_mode() {
        let src = "struct s { v: int }
fn main() {
    var p: ptr<s> = null;
    free(p);
}";
        let errs = validate(&parse(src).unwrap(), false).unwrap_err();
        assert!(
            errs[0].to_string().contains("no allocation site"),
            "{errs:?}"
        );
        // The error points at the actual `free` line.
        assert_eq!(errs[0].span.line, 4);

        // A literal free(null) stays a legal no-op.
        validate(&parse("fn main() { free(null); }").unwrap(), false).unwrap();

        // With a malloc in the class, the same shape is fine.
        let ok = "struct s { v: int }
                  fn main() { var p: ptr<s> = malloc(s); free(p); }";
        validate(&parse(ok).unwrap(), false).unwrap();
    }

    #[test]
    fn call_into_classless_free_rejected_at_call_site() {
        let src = "struct s { v: int }
fn kill(p: ptr<s>) { free(p); }
fn outer(p: ptr<s>) { kill(p); }
fn main() {
    var p: ptr<s> = null;
    outer(p);
}";
        let errs = validate(&parse(src).unwrap(), false).unwrap_err();
        // The free site itself is flagged (existing check)...
        assert!(
            errs.iter().any(|e| e.to_string().contains("no allocation site")),
            "{errs:?}"
        );
        // ...and so is every call forwarding into it, spanned at the call.
        let call_errs: Vec<&ValidateError> = errs
            .iter()
            .filter(|e| e.message.contains("(transitively) frees"))
            .collect();
        assert_eq!(call_errs.len(), 2, "{errs:?}");
        let in_main = call_errs.iter().find(|e| e.func == "main").expect("main call flagged");
        assert_eq!(in_main.span.line, 6);
        let in_outer =
            call_errs.iter().find(|e| e.func == "outer").expect("outer call flagged");
        assert_eq!(in_outer.span.line, 3);

        // Passing a literal null into the same position stays legal.
        let ok_null = "struct s { v: int }
                       fn kill(p: ptr<s>) { free(null); }
                       fn main() { kill(null); }";
        validate(&parse(ok_null).unwrap(), false).unwrap();

        // Once the class has an allocation site, the callee's free is
        // classed and no call-site error fires.
        let ok = "struct s { v: int }
                  fn kill(p: ptr<s>) { free(p); }
                  fn main() { var p: ptr<s> = malloc(s); kill(p); }";
        validate(&parse(ok).unwrap(), false).unwrap();
    }

    #[test]
    fn duplicate_free_site_ids_rejected() {
        let mut prog = parse(
            "struct s { v: int }
             fn main() {
                 var p: ptr<s> = malloc(s);
                 var q: ptr<s> = malloc(s);
                 free(p);
                 free(q);
             }",
        )
        .unwrap();
        // Corrupt the AST: both frees claim site 0.
        fn clobber(stmts: &mut [Stmt]) {
            for s in stmts {
                if let Stmt::Free { site, .. } = s {
                    *site = 0;
                }
            }
        }
        clobber(&mut prog.funcs[0].body);
        let errs = validate(&prog, false).unwrap_err();
        assert!(
            errs.iter().any(|e| e.to_string().contains("duplicate free-site id")),
            "{errs:?}"
        );
        // Duplicates are structural corruption in transformed mode too.
        assert!(validate(&prog, true).is_err());
    }

    #[test]
    fn branchy_transforms_validate() {
        let src = "
            struct s { v: int }
            fn main() {
                var p: ptr<s> = malloc(s);
                if (p != null) {
                    free(p);
                    return;
                } else {
                    free(p);
                }
                print(1);
            }";
        let (t, _) = pool_allocate(&parse(src).unwrap());
        validate(&t, true).unwrap();
    }
}
