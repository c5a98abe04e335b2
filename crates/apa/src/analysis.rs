//! Points-to and escape analysis for Automatic Pool Allocation.
//!
//! The paper's transform is built on LLVM's Data Structure Analysis. We
//! implement the essential core it needs as a **unification-based
//! (Steensgaard-style), field-insensitive, context-insensitive** analysis:
//!
//! * every variable, parameter, return slot, global and allocation site is
//!   an abstract cell in a union-find structure; each cell has at most one
//!   *pointee* cell (unifying two cells recursively unifies their
//!   pointees);
//! * assignments, field reads/writes and call bindings emit equality
//!   constraints;
//! * the equivalence classes containing at least one `malloc` site become
//!   **heap classes** — the candidates for pools;
//! * a class **escapes** a function if its representative is reachable
//!   (through pointee edges) from the function's parameters or return slot,
//!   or from any global — the "traditional escape analysis (reachability
//!   analysis from function arguments, globals and return values)" of the
//!   paper's §2.2;
//! * pool **ownership** then follows the paper: the pool for a class is
//!   created in a function that uses the class but from which it does not
//!   escape; classes reachable from globals fall back to `main` (the
//!   long-lived pools of §3.4). Functions that need a class's pool but do
//!   not own it receive it as an extra pool parameter, threaded through
//!   call sites.
//!
//! This is coarser than real DSA (no field sensitivity, no context
//! sensitivity), so it may merge pools DSA would keep apart — which is
//! *sound* for the detector (merging only delays page recycling) and
//! matches the paper's remark that escape analysis "can be less precise"
//! than what static dangling-pointer detection would need.

use crate::ast::*;
use std::collections::{HashMap, HashSet};

/// Union-find over abstract cells, each with an optional pointee.
#[derive(Debug, Default)]
struct Cells {
    parent: Vec<u32>,
    pointee: Vec<Option<u32>>,
}

impl Cells {
    fn fresh(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.pointee.push(None);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Unifies two cells, recursively unifying pointees (Steensgaard join).
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        self.parent[rb as usize] = ra;
        let pa = self.pointee[ra as usize];
        let pb = self.pointee[rb as usize];
        match (pa, pb) {
            (None, Some(p)) => self.pointee[ra as usize] = Some(p),
            (Some(p), Some(q)) => self.union(p, q),
            _ => {}
        }
    }

    /// The pointee cell of `x`, created on demand.
    fn deref(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        if let Some(p) = self.pointee[r as usize] {
            return self.find(p);
        }
        let p = self.fresh();
        let r = self.find(x);
        self.pointee[r as usize] = Some(p);
        p
    }
}

/// One heap class: an equivalence class of abstract objects containing at
/// least one allocation site. One pool per class (per owning activation).
#[derive(Clone, Debug)]
pub struct HeapClass {
    /// The malloc sites in this class.
    pub sites: Vec<u32>,
    /// Element-size hint: the (max) struct size allocated at these sites.
    pub elem_size: usize,
}

/// Results of the points-to / escape analysis consumed by the transform.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Heap classes, indexed by class id.
    pub classes: Vec<HeapClass>,
    /// malloc site id -> class id.
    pub site_class: HashMap<u32, usize>,
    /// free site id -> class id (when the freed pointer's class is known).
    pub free_class: HashMap<u32, usize>,
    /// (function, class) pairs where the class escapes the function.
    pub escapes: HashSet<(String, usize)>,
    /// function -> classes whose pool must be *in scope* there (owned or
    /// received as a parameter).
    pub requires: HashMap<String, Vec<usize>>,
    /// function -> classes whose pool it owns (creates/destroys).
    pub owns: HashMap<String, Vec<usize>>,
    /// Classes reachable from any global variable.
    pub global_classes: HashSet<usize>,
    /// (function, parameter index) -> class of the parameter's pointee,
    /// when the parameter points into a known heap class.
    pub param_class: HashMap<(String, usize), usize>,
    /// Classes whose objects are only ever stored into heap fields as
    /// literal `malloc(...)` results (or `null`): their heap graph is a
    /// forest of freshly-built chains (in-degree <= 1, acyclic), the
    /// precondition for the lint's linear-traversal free rule.
    pub fresh_store: HashSet<usize>,
    /// Class -> class of the pointers stored in its objects' fields.
    pub pointee_class: HashMap<usize, usize>,
}

impl Analysis {
    /// Classes `func` receives as pool parameters (requires minus owns),
    /// in canonical (ascending) order.
    pub fn pool_params_of(&self, func: &str) -> Vec<usize> {
        let owned: HashSet<usize> =
            self.owns.get(func).map(|v| v.iter().copied().collect()).unwrap_or_default();
        let mut v: Vec<usize> = self
            .requires
            .get(func)
            .map(|v| v.iter().filter(|c| !owned.contains(c)).copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v.dedup();
        v
    }
}

struct Builder<'p> {
    prog: &'p Program,
    cells: Cells,
    /// "func::var" or "::global" -> cell.
    var_cell: HashMap<String, u32>,
    /// function -> return-slot cell.
    ret_cell: HashMap<String, u32>,
    /// malloc site -> object cell.
    site_obj: HashMap<u32, u32>,
    /// free site -> object cell of the freed pointer's target.
    free_obj: HashMap<u32, u32>,
    current_func: String,
    /// Pointer stores into heap fields: (contents cell, what was stored).
    field_stores: Vec<(u32, StoreRhs)>,
}

/// Classification of the right-hand side of a pointer store into a heap
/// field, for the fresh-store facts.
enum StoreRhs {
    /// A literal `malloc(...)` — the stored object is brand new.
    Fresh,
    /// `null` — no heap edge.
    Null,
    /// Anything else that may be a pointer (vars, loads, calls, arrays).
    Other,
}

impl<'p> Builder<'p> {
    fn new(prog: &'p Program) -> Builder<'p> {
        Builder {
            prog,
            cells: Cells::default(),
            var_cell: HashMap::new(),
            ret_cell: HashMap::new(),
            site_obj: HashMap::new(),
            free_obj: HashMap::new(),
            current_func: String::new(),
            field_stores: Vec::new(),
        }
    }

    /// Conservative pointer-store classification of a field-store rhs.
    /// `None` means the store is provably an integer (no heap edge); when
    /// in doubt the answer is `Other`, which only *loses* precision.
    fn store_rhs_kind(&self, e: &Expr) -> Option<StoreRhs> {
        match e {
            Expr::Malloc { .. } => Some(StoreRhs::Fresh),
            Expr::Null => Some(StoreRhs::Null),
            Expr::Int(_) | Expr::Binary { .. } => None,
            Expr::MallocArray { .. } | Expr::Index { .. } => Some(StoreRhs::Other),
            Expr::Var(name) => match self.var_type(name) {
                Some(Type::Int) => None,
                _ => Some(StoreRhs::Other),
            },
            Expr::Field { field, .. } => {
                // Field-name type across all structs; pointer if any agrees.
                let mut known = false;
                let mut ptrish = false;
                for sd in &self.prog.structs {
                    for (fname, ty) in &sd.fields {
                        if fname == field {
                            known = true;
                            ptrish |= ty.is_ptr();
                        }
                    }
                }
                if known && !ptrish { None } else { Some(StoreRhs::Other) }
            }
            Expr::Call { callee, .. } => {
                match self.prog.func(callee).and_then(|f| f.ret.as_ref()) {
                    Some(Type::Int) | None => None,
                    Some(Type::Ptr(_)) => Some(StoreRhs::Other),
                }
            }
        }
    }

    /// Declared type of `name` in the current function (params shadow
    /// globals; conflicting shadowed declarations answer pointer-ish).
    fn var_type(&self, name: &str) -> Option<Type> {
        if let Some(f) = self.prog.func(&self.current_func) {
            for (p, ty) in &f.params {
                if p == name {
                    return Some(ty.clone());
                }
            }
            let mut found = Vec::new();
            visit_stmts(&f.body, &mut |s| {
                if let Stmt::VarDecl { name: n, ty, .. } = s {
                    if n == name {
                        found.push(ty);
                    }
                }
            });
            if let Some(ty) = found.iter().find(|ty| ty.is_ptr()).or(found.first()) {
                return Some((*ty).clone());
            }
        }
        self.prog.globals.iter().find(|(g, _)| g == name).map(|(_, ty)| ty.clone())
    }

    fn var(&mut self, name: &str) -> u32 {
        // Locals shadow globals; globals are registered up front under "::".
        let local_key = format!("{}::{}", self.current_func, name);
        if let Some(&c) = self.var_cell.get(&local_key) {
            return c;
        }
        let global_key = format!("::{name}");
        if let Some(&c) = self.var_cell.get(&global_key) {
            return c;
        }
        let c = self.cells.fresh();
        self.var_cell.insert(local_key, c);
        c
    }

    fn ret(&mut self, func: &str) -> u32 {
        if let Some(&c) = self.ret_cell.get(func) {
            return c;
        }
        let c = self.cells.fresh();
        self.ret_cell.insert(func.to_string(), c);
        c
    }

    /// The cell holding the value of `e` (for unification purposes).
    fn expr_cell(&mut self, e: &Expr) -> u32 {
        match e {
            Expr::Int(_) | Expr::Null => self.cells.fresh(),
            Expr::Var(name) => self.var(name),
            Expr::Malloc { site, .. } => {
                // The expression is a pointer whose pointee is the site's
                // object cell.
                let obj = match self.site_obj.get(site) {
                    Some(&o) => o,
                    None => {
                        let o = self.cells.fresh();
                        self.site_obj.insert(*site, o);
                        o
                    }
                };
                let tmp = self.cells.fresh();
                let p = self.cells.deref(tmp);
                self.cells.union(p, obj);
                tmp
            }
            Expr::MallocArray { count, site, .. } => {
                self.expr_cell(count);
                // Same shape as Malloc: the array is one abstract object.
                let obj = match self.site_obj.get(site) {
                    Some(&o) => o,
                    None => {
                        let o = self.cells.fresh();
                        self.site_obj.insert(*site, o);
                        o
                    }
                };
                let tmp = self.cells.fresh();
                let ptr = self.cells.deref(tmp);
                self.cells.union(ptr, obj);
                tmp
            }
            Expr::Index { base, index } => {
                // base[i] points into the same abstract object as base
                // (field- and element-insensitive).
                self.expr_cell(index);
                self.expr_cell(base)
            }
            Expr::Field { base, .. } => {
                // Field-insensitive: base->f is the contents of *base.
                let b = self.expr_cell(base);
                let obj = self.cells.deref(b);
                self.cells.deref(obj)
            }
            Expr::Binary { lhs, rhs, .. } => {
                // Arithmetic/comparison results are not pointers, but the
                // operands must still be visited for nested effects.
                self.expr_cell(lhs);
                self.expr_cell(rhs);
                self.cells.fresh()
            }
            Expr::Call { callee, args, .. } => {
                self.bind_call(callee, args);
                self.ret(callee)
            }
        }
    }

    fn bind_call(&mut self, callee: &str, args: &[Expr]) {
        let arg_cells: Vec<u32> = args.iter().map(|a| self.expr_cell(a)).collect();
        if let Some(f) = self.prog.func(callee) {
            for (i, (pname, _)) in f.params.iter().enumerate() {
                if let Some(&ac) = arg_cells.get(i) {
                    let key = format!("{}::{}", f.name, pname);
                    let pc = match self.var_cell.get(&key) {
                        Some(&c) => c,
                        None => {
                            let c = self.cells.fresh();
                            self.var_cell.insert(key, c);
                            c
                        }
                    };
                    self.cells.union(pc, ac);
                }
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::VarDecl { name, init, .. } => {
                let v = self.var(name);
                if let Some(e) = init {
                    let c = self.expr_cell(e);
                    self.cells.union(v, c);
                }
            }
            Stmt::Assign { lhs, rhs } => {
                let rc = self.expr_cell(rhs);
                match lhs {
                    LValue::Var(name) => {
                        let v = self.var(name);
                        self.cells.union(v, rc);
                    }
                    LValue::Field { base, .. } => {
                        let b = self.expr_cell(base);
                        let obj = self.cells.deref(b);
                        let contents = self.cells.deref(obj);
                        self.cells.union(contents, rc);
                        if let Some(kind) = self.store_rhs_kind(rhs) {
                            self.field_stores.push((contents, kind));
                        }
                    }
                }
            }
            Stmt::Free { expr, site, .. } => {
                let c = self.expr_cell(expr);
                let obj = self.cells.deref(c);
                self.free_obj.insert(*site, obj);
            }
            Stmt::If { cond, then, els } => {
                self.expr_cell(cond);
                then.iter().for_each(|s| self.stmt(s));
                els.iter().for_each(|s| self.stmt(s));
            }
            Stmt::While { cond, body } => {
                self.expr_cell(cond);
                body.iter().for_each(|s| self.stmt(s));
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    let c = self.expr_cell(e);
                    let func = self.current_func.clone();
                    let r = self.ret(&func);
                    self.cells.union(r, c);
                }
            }
            Stmt::Print(e) | Stmt::ExprStmt(e) => {
                self.expr_cell(e);
            }
            Stmt::PoolInit { .. } | Stmt::PoolDestroy { .. } => {}
        }
    }
}

/// Which functions contain `malloc`/`free` sites of each class (direct
/// needs, before call-graph propagation).
fn direct_needs(prog: &Program, site_class: &HashMap<u32, usize>, free_class: &HashMap<u32, usize>) -> HashMap<String, HashSet<usize>> {
    let mut needs: HashMap<String, HashSet<usize>> = HashMap::new();
    for f in &prog.funcs {
        let entry = needs.entry(f.name.clone()).or_default();
        visit_exprs(&f.body, &mut |e| {
            if let Expr::Malloc { site, .. } | Expr::MallocArray { site, .. } = e {
                entry.extend(site_class.get(site));
            }
        });
        visit_stmts(&f.body, &mut |s| {
            if let Stmt::Free { site, .. } = s {
                entry.extend(free_class.get(site));
            }
        });
    }
    needs
}

/// Call graph: function -> callees (direct calls only; MiniC has no
/// function pointers).
pub fn call_graph(prog: &Program) -> HashMap<String, HashSet<String>> {
    prog.funcs
        .iter()
        .map(|f| {
            let mut callees = HashSet::new();
            visit_exprs(&f.body, &mut |e| {
                if let Expr::Call { callee, .. } = e {
                    callees.insert(callee.clone());
                }
            });
            (f.name.clone(), callees)
        })
        .collect()
}

/// Runs the full analysis over `prog`.
pub fn analyze(prog: &Program) -> Analysis {
    let mut b = Builder::new(prog);

    // Register globals under the "::" namespace.
    for (g, _) in &prog.globals {
        let c = b.cells.fresh();
        b.var_cell.insert(format!("::{g}"), c);
    }
    // Pre-register parameters so call-site bindings and body uses agree.
    for f in &prog.funcs {
        for (p, _) in &f.params {
            let c = b.cells.fresh();
            b.var_cell.insert(format!("{}::{}", f.name, p), c);
        }
    }
    for f in &prog.funcs {
        b.current_func = f.name.clone();
        for s in &f.body {
            b.stmt(s);
        }
    }

    // Heap classes: group malloc sites by representative.
    let mut rep_to_class: HashMap<u32, usize> = HashMap::new();
    let mut classes: Vec<HeapClass> = Vec::new();
    let mut site_class: HashMap<u32, usize> = HashMap::new();
    let mut sites: Vec<u32> = b.site_obj.keys().copied().collect();
    sites.sort_unstable();
    // Map site -> struct size for elem hints.
    let mut site_size: HashMap<u32, usize> = HashMap::new();
    for f in &prog.funcs {
        visit_exprs(&f.body, &mut |e| {
            if let Expr::Malloc { site, struct_name, .. }
            | Expr::MallocArray { site, struct_name, .. } = e
            {
                site_size.insert(*site, prog.struct_def(struct_name).map_or(8, StructDef::size));
            }
        });
    }
    for site in sites {
        let obj = b.site_obj[&site];
        let rep = b.cells.find(obj);
        let cid = *rep_to_class.entry(rep).or_insert_with(|| {
            classes.push(HeapClass { sites: Vec::new(), elem_size: 0 });
            classes.len() - 1
        });
        classes[cid].sites.push(site);
        let sz = site_size.get(&site).copied().unwrap_or(8);
        classes[cid].elem_size = classes[cid].elem_size.max(sz);
        site_class.insert(site, cid);
    }

    // Free sites -> class.
    let mut free_class: HashMap<u32, usize> = HashMap::new();
    let free_sites: Vec<(u32, u32)> = b.free_obj.iter().map(|(&s, &o)| (s, o)).collect();
    for (site, obj) in free_sites {
        let rep = b.cells.find(obj);
        if let Some(&cid) = rep_to_class.get(&rep) {
            free_class.insert(site, cid);
        }
    }

    // Escape analysis: reachability from params/returns/globals.
    let reachable_from = |cells: &mut Cells, starts: Vec<u32>| -> HashSet<u32> {
        let mut seen = HashSet::new();
        let mut work: Vec<u32> = starts.into_iter().map(|c| cells.find(c)).collect();
        while let Some(c) = work.pop() {
            if !seen.insert(c) {
                continue;
            }
            if let Some(p) = cells.pointee[c as usize] {
                let pr = cells.find(p);
                work.push(pr);
            }
        }
        seen
    };

    let global_cells: Vec<u32> = prog
        .globals
        .iter()
        .filter_map(|(g, _)| b.var_cell.get(&format!("::{g}")).copied())
        .collect();
    let global_reach = reachable_from(&mut b.cells, global_cells);

    let mut escapes: HashSet<(String, usize)> = HashSet::new();
    for f in &prog.funcs {
        let mut starts: Vec<u32> = f
            .params
            .iter()
            .filter_map(|(p, _)| b.var_cell.get(&format!("{}::{}", f.name, p)).copied())
            .collect();
        if let Some(&r) = b.ret_cell.get(&f.name) {
            starts.push(r);
        }
        let reach = reachable_from(&mut b.cells, starts);
        for (rep, &cid) in &rep_to_class {
            let r = b.cells.find(*rep);
            if reach.contains(&r) || global_reach.contains(&r) {
                escapes.insert((f.name.clone(), cid));
            }
        }
    }

    // Requirement propagation over the call graph, stopping at owners.
    let needs = direct_needs(prog, &site_class, &free_class);
    let cg = call_graph(prog);
    let callers: HashMap<String, Vec<String>> = {
        let mut m: HashMap<String, Vec<String>> = HashMap::new();
        for (caller, callees) in &cg {
            for callee in callees {
                m.entry(callee.clone()).or_default().push(caller.clone());
            }
        }
        m
    };

    let mut requires: HashMap<String, HashSet<usize>> = HashMap::new();
    for (f, cs) in &needs {
        requires.entry(f.clone()).or_default().extend(cs.iter().copied());
    }
    let is_owner = |f: &str, cid: usize, escapes: &HashSet<(String, usize)>| -> bool {
        !escapes.contains(&(f.to_string(), cid))
    };
    // Fixpoint: a function that requires a class it does not own passes the
    // requirement to its callers.
    loop {
        let mut changed = false;
        let snapshot: Vec<(String, Vec<usize>)> = requires
            .iter()
            .map(|(f, cs)| (f.clone(), cs.iter().copied().collect()))
            .collect();
        for (f, cs) in snapshot {
            for cid in cs {
                if is_owner(&f, cid, &escapes) {
                    continue;
                }
                if let Some(cs) = callers.get(&f) {
                    for caller in cs {
                        if requires.entry(caller.clone()).or_default().insert(cid) {
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Ownership: a function owns every required class that does not escape
    // it. Anything that still escapes everywhere lands in main.
    let mut owns: HashMap<String, Vec<usize>> = HashMap::new();
    let mut owned_somewhere: HashSet<usize> = HashSet::new();
    for f in &prog.funcs {
        if let Some(cs) = requires.get(&f.name) {
            for &cid in cs {
                if is_owner(&f.name, cid, &escapes) {
                    owns.entry(f.name.clone()).or_default().push(cid);
                    owned_somewhere.insert(cid);
                }
            }
        }
    }
    for cid in 0..classes.len() {
        if !owned_somewhere.contains(&cid) {
            // Globally reachable (or otherwise unplaced): main owns it.
            owns.entry("main".to_string()).or_default().push(cid);
            requires.entry("main".to_string()).or_default().insert(cid);
        }
    }
    for v in owns.values_mut() {
        v.sort_unstable();
        v.dedup();
    }

    // Classes reachable from globals (summary widening and the linear
    // traversal rule both refuse to reason about these).
    let mut global_classes: HashSet<usize> = HashSet::new();
    for (rep, &cid) in &rep_to_class {
        let r = b.cells.find(*rep);
        if global_reach.contains(&r) {
            global_classes.insert(cid);
        }
    }
    // Fresh-store classes: remove any class whose objects are stored into
    // heap fields by something other than a literal malloc/null.
    let mut fresh_store: HashSet<usize> = (0..classes.len()).collect();
    let stores: Vec<(u32, bool)> = b
        .field_stores
        .iter()
        .map(|(c, k)| (*c, matches!(k, StoreRhs::Other)))
        .collect();
    for (contents, other) in stores {
        if !other {
            continue;
        }
        let cc = b.cells.find(contents);
        let Some(p) = b.cells.pointee[cc as usize] else { continue };
        let rep = b.cells.find(p);
        if let Some(&d) = rep_to_class.get(&rep) {
            fresh_store.remove(&d);
        }
    }
    // Class of the pointers held in each class's fields.
    let mut pointee_class: HashMap<usize, usize> = HashMap::new();
    for (rep, &cid) in &rep_to_class {
        let or = b.cells.find(*rep);
        let Some(cc) = b.cells.pointee[or as usize] else { continue };
        let ccr = b.cells.find(cc);
        let Some(p) = b.cells.pointee[ccr as usize] else { continue };
        let pr = b.cells.find(p);
        if let Some(&d) = rep_to_class.get(&pr) {
            pointee_class.insert(cid, d);
        }
    }

    // Pointee class of each pointer parameter, for summary application.
    let mut param_class: HashMap<(String, usize), usize> = HashMap::new();
    for f in &prog.funcs {
        for (i, (p, _)) in f.params.iter().enumerate() {
            if let Some(&c) = b.var_cell.get(&format!("{}::{}", f.name, p)) {
                let obj = b.cells.deref(c);
                let rep = b.cells.find(obj);
                if let Some(&cid) = rep_to_class.get(&rep) {
                    param_class.insert((f.name.clone(), i), cid);
                }
            }
        }
    }

    Analysis {
        classes,
        site_class,
        free_class,
        escapes,
        requires: requires
            .into_iter()
            .map(|(f, cs)| {
                let mut v: Vec<usize> = cs.into_iter().collect();
                v.sort_unstable();
                (f, v)
            })
            .collect(),
        owns,
        global_classes,
        param_class,
        fresh_store,
        pointee_class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse, FIGURE_1};

    #[test]
    fn figure_one_single_class_owned_by_f() {
        let prog = parse(FIGURE_1).unwrap();
        let a = analyze(&prog);
        assert_eq!(a.classes.len(), 1, "both malloc sites unify into one list class");
        assert_eq!(a.classes[0].sites.len(), 2);
        assert_eq!(a.classes[0].elem_size, 16);
        // The class escapes g (reachable from its parameter) but not f.
        assert!(a.escapes.contains(&("g".into(), 0)));
        assert!(a.escapes.contains(&("free_all_but_head".into(), 0)));
        assert!(!a.escapes.contains(&("f".into(), 0)));
        assert_eq!(a.owns.get("f"), Some(&vec![0]));
        // g and free_all_but_head need the pool as a parameter.
        assert_eq!(a.pool_params_of("g"), vec![0]);
        assert_eq!(a.pool_params_of("free_all_but_head"), vec![0]);
        assert_eq!(a.pool_params_of("f"), Vec::<usize>::new());
        // The free site belongs to the same class.
        assert_eq!(a.free_class.get(&0), Some(&0));
    }

    #[test]
    fn disjoint_structures_get_distinct_classes() {
        let src = "
            struct a { v: int }
            struct b { v: int }
            fn main() {
                var x: ptr<a> = malloc(a);
                var y: ptr<b> = malloc(b);
                free(x);
                free(y);
            }";
        let a = analyze(&parse(src).unwrap());
        assert_eq!(a.classes.len(), 2);
        assert_eq!(a.owns.get("main").map(Vec::len), Some(2));
    }

    #[test]
    fn assignment_unifies_classes() {
        let src = "
            struct s { v: int }
            fn main() {
                var x: ptr<s> = malloc(s);
                var y: ptr<s> = malloc(s);
                y = x;
                free(y);
            }";
        let a = analyze(&parse(src).unwrap());
        assert_eq!(a.classes.len(), 1, "x and y unified by assignment");
    }

    #[test]
    fn global_reachable_class_owned_by_main() {
        let src = "
            struct s { v: int }
            global head: ptr<s>;
            fn install() {
                head = malloc(s);
            }
            fn main() {
                install();
            }";
        let a = analyze(&parse(src).unwrap());
        assert_eq!(a.classes.len(), 1);
        assert!(a.escapes.contains(&("install".into(), 0)));
        assert!(a.escapes.contains(&("main".into(), 0)), "global classes escape everything");
        assert_eq!(a.owns.get("main"), Some(&vec![0]), "falls back to main");
    }

    #[test]
    fn returned_object_owned_by_caller() {
        let src = "
            struct s { v: int }
            fn make() -> ptr<s> {
                return malloc(s);
            }
            fn main() {
                var p: ptr<s> = make();
                free(p);
            }";
        let a = analyze(&parse(src).unwrap());
        assert!(a.escapes.contains(&("make".into(), 0)), "escapes via return");
        assert_eq!(a.owns.get("main"), Some(&vec![0]));
        assert_eq!(a.pool_params_of("make"), vec![0]);
    }

    #[test]
    fn requirement_propagates_through_middle_functions() {
        // main -> outer -> inner(malloc). inner's requirement must
        // propagate through outer up to main (where the class is local).
        let src = "
            struct s { v: int }
            fn inner(p: ptr<s>) {
                p->v = 1;
                free(p);
            }
            fn outer(p: ptr<s>) {
                inner(p);
            }
            fn main() {
                var p: ptr<s> = malloc(s);
                outer(p);
            }";
        let a = analyze(&parse(src).unwrap());
        assert_eq!(a.owns.get("main"), Some(&vec![0]));
        assert_eq!(a.pool_params_of("inner"), vec![0]);
        assert_eq!(a.pool_params_of("outer"), vec![0], "transitive pool threading");
    }

    #[test]
    fn recursion_terminates() {
        let src = "
            struct s { next: ptr<s>, v: int }
            fn build(n: int) -> ptr<s> {
                if (n == 0) { return null; }
                var node: ptr<s> = malloc(s);
                node->next = build(n - 1);
                return node;
            }
            fn main() {
                var list: ptr<s> = build(10);
            }";
        let a = analyze(&parse(src).unwrap());
        assert_eq!(a.classes.len(), 1);
        assert_eq!(a.owns.get("main"), Some(&vec![0]));
    }

    #[test]
    fn mutually_recursive_functions_terminate_and_place_pools() {
        let src = "
            struct s { next: ptr<s>, v: int }
            fn even(n: int, p: ptr<s>) {
                if (n > 0) { odd(n - 1, p); }
            }
            fn odd(n: int, p: ptr<s>) {
                p->next = malloc(s);
                if (n > 0) { even(n - 1, p->next); }
            }
            fn main() {
                var p: ptr<s> = malloc(s);
                even(6, p);
            }";
        let a = analyze(&parse(src).unwrap());
        assert_eq!(a.classes.len(), 1);
        // The class escapes both even and odd (reachable from params), so
        // main owns it and both receive pool parameters transitively.
        assert_eq!(a.owns.get("main"), Some(&vec![0]));
        assert_eq!(a.pool_params_of("even"), vec![0]);
        assert_eq!(a.pool_params_of("odd"), vec![0]);
    }

    #[test]
    fn shared_helper_threads_multiple_pools() {
        // Two distinct classes flow through the same helper: the helper
        // must receive the (unified or distinct) pools it needs. With
        // context-insensitive unification the two classes MERGE at the
        // helper's parameter — the sound, conservative outcome.
        let src = "
            struct s { v: int }
            fn sink(p: ptr<s>) { free(p); }
            fn main() {
                var a: ptr<s> = malloc(s);
                var b: ptr<s> = malloc(s);
                sink(a);
                sink(b);
            }";
        let a = analyze(&parse(src).unwrap());
        assert_eq!(a.classes.len(), 1, "unification merges both at sink's parameter");
        assert_eq!(a.owns.get("main"), Some(&vec![0]));
        assert_eq!(a.pool_params_of("sink"), vec![0]);
    }

    #[test]
    fn unreachable_malloc_still_gets_a_pool() {
        // Dead code still needs well-formed transform output.
        let src = "
            struct s { v: int }
            fn never_called() { var p: ptr<s> = malloc(s); free(p); }
            fn main() { print(1); }";
        let a = analyze(&parse(src).unwrap());
        assert_eq!(a.classes.len(), 1);
        assert_eq!(a.owns.get("never_called"), Some(&vec![0]));
    }

    #[test]
    fn two_independent_lists_two_pools() {
        let src = "
            struct s { next: ptr<s>, v: int }
            fn main() {
                var a: ptr<s> = malloc(s);
                a->next = malloc(s);
                a = a->next;
                var b: ptr<s> = malloc(s);
                b->next = malloc(s);
                b = b->next;
            }";
        let a = analyze(&parse(src).unwrap());
        // Traversal (`a = a->next`) unifies each list into one recursive
        // class, but the two lists never flow together: 2 classes, as DSA
        // would produce 2 pools.
        assert_eq!(a.classes.len(), 2);
    }
}
