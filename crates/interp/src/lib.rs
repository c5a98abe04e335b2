//! # dangle-interp — executing MiniC on the simulated machine
//!
//! The interpreter closes the end-to-end loop of the reproduction: a MiniC
//! program (optionally pool-transformed by `dangle-apa`) executes with its
//! heap in **simulated memory**, so a dangling pointer dereference in the
//! program becomes a real protection fault in the simulated MMU, caught and
//! attributed by the detector — exactly the paper's run-time story.
//!
//! * [`backend`] defines the [`Backend`] interface and one implementation
//!   per scheme under study (plain malloc, PA, PA+dummy-syscalls, shadow,
//!   shadow+pools, Electric Fence, memcheck, capability).
//! * [`run`] executes a program's `main` against a backend with a fuel
//!   limit, returning the printed output — the observable behaviour used by
//!   the semantics-preservation property tests.
//!
//! Two execution engines share that contract: the tree-walking AST
//! interpreter ([`run`], [`Engine::Ast`]) and the register-bytecode
//! compiler + VM ([`compile`](fn@compile) → [`run_compiled`],
//! [`Engine::Bytecode`]), which resolves every name to a numeric slot ahead
//! of time for ~10x the host throughput. The engines are differentially
//! tested to produce identical output, steps, simulated clock, detections
//! and trap reports; [`run_with`] selects one.
//!
//! ```rust
//! use dangle_apa::{parse, pool_allocate, FIGURE_1};
//! use dangle_interp::{backend::ShadowPoolBackend, run, RunError};
//! use dangle_vmm::Machine;
//!
//! let (program, _) = pool_allocate(&parse(FIGURE_1).unwrap());
//! let mut machine = Machine::new();
//! let mut backend = ShadowPoolBackend::new();
//! let err = run(&program, &mut machine, &mut backend, 1_000_000).unwrap_err();
//! // The Figure 1 dangling write is detected, not silently executed:
//! assert!(matches!(err, RunError::Backend(e) if e.is_detection()));
//! ```

pub mod backend;
pub mod bytecode;
pub mod compile;
pub mod vm;

pub use backend::{Backend, BackendError, PoolHandle};
pub use bytecode::BcProgram;
pub use compile::{compile, CompileError};
pub use vm::run_compiled;

use dangle_apa::ast::*;
use dangle_telemetry::Category;
use dangle_vmm::{Machine, VirtAddr};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Result of a completed run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Values printed by `print(e)` statements, in order.
    pub output: Vec<i64>,
    /// Interpreter steps consumed (expressions + statements).
    pub steps_used: u64,
}

/// The most MiniC call frames, `main` included, that may be live at once.
/// A call that would go deeper fails with [`RunError::CallDepthExceeded`].
/// Both engines recurse on the host stack once per MiniC call, so without a
/// limit unbounded recursion overflows the host stack and aborts the
/// process. On x86-64, a one-line recursive function reaches this depth in
/// under 1 MiB of host stack in a release build, well inside the default
/// 8 MiB main-thread stack, and in 8 to 16 MiB in a debug build, so a
/// debug run that may hit the limit needs a larger thread stack.
pub const MAX_CALL_DEPTH: u32 = 1_000;

/// Errors terminating a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A memory event failed — for detecting backends this is where
    /// dangling-use detections surface (check
    /// [`BackendError::is_detection`]).
    Backend(BackendError),
    /// Dereference of the null pointer.
    NullDereference,
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Unknown variable.
    UndefinedVariable(String),
    /// Unknown function.
    UndefinedFunction(String),
    /// Unknown struct or field.
    UndefinedField(String),
    /// A pool descriptor was not in scope (malformed transform output).
    UndefinedPool(String),
    /// Expression used as a struct pointer but its static type is not one.
    NotAPointer,
    /// The program has no `main`.
    NoMain,
    /// The fuel limit was exhausted.
    OutOfFuel,
    /// A call would have made more than [`MAX_CALL_DEPTH`] frames live.
    /// Both engines stop at the same point of the call, after its
    /// arguments are evaluated and before the callee's frame is pushed.
    CallDepthExceeded,
    /// The bytecode engine rejected the program before execution (static
    /// name errors the AST engine would only hit at run time).
    Compile(CompileError),
    /// A [`BcProgram`] failed bytecode verification; nothing ran. Only a
    /// hand-assembled or mutated program can fail: [`compile`](fn@compile)
    /// output always verifies.
    InvalidBytecode(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Backend(e) => write!(f, "{e}"),
            RunError::NullDereference => write!(f, "null pointer dereference"),
            RunError::DivisionByZero => write!(f, "division by zero"),
            RunError::UndefinedVariable(v) => write!(f, "undefined variable `{v}`"),
            RunError::UndefinedFunction(v) => write!(f, "undefined function `{v}`"),
            RunError::UndefinedField(v) => write!(f, "undefined struct or field `{v}`"),
            RunError::UndefinedPool(v) => write!(f, "pool descriptor `{v}` not in scope"),
            RunError::NotAPointer => write!(f, "expression is not a struct pointer"),
            RunError::NoMain => write!(f, "program has no `main` function"),
            RunError::OutOfFuel => write!(f, "fuel exhausted (possible infinite loop)"),
            RunError::CallDepthExceeded => write!(
                f,
                "call depth exceeds {MAX_CALL_DEPTH} frames (possible unbounded recursion)"
            ),
            RunError::Compile(e) => write!(f, "{e}"),
            RunError::InvalidBytecode(e) => write!(f, "invalid bytecode: {e}"),
        }
    }
}

impl Error for RunError {}

impl From<BackendError> for RunError {
    fn from(e: BackendError) -> RunError {
        RunError::Backend(e)
    }
}

/// Whether `err` is a *detected temporal memory error* (the signal the
/// evaluation harnesses count).
pub fn is_detection(err: &RunError) -> bool {
    matches!(err, RunError::Backend(e) if e.is_detection())
}

/// Which execution engine runs the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The tree-walking AST interpreter — the differential reference.
    Ast,
    /// The register-bytecode compiler + VM — same observable behaviour at
    /// several times the host throughput.
    Bytecode,
}

/// [`run`] through the selected engine. The bytecode engine compiles
/// first; static name errors surface as [`RunError::Compile`].
///
/// # Errors
/// See [`RunError`].
pub fn run_with(
    engine: Engine,
    prog: &Program,
    machine: &mut Machine,
    backend: &mut dyn Backend,
    fuel: u64,
) -> Result<RunOutcome, RunError> {
    match engine {
        Engine::Ast => run(prog, machine, backend, fuel),
        Engine::Bytecode => {
            let bc = compile(prog).map_err(RunError::Compile)?;
            run_compiled(&bc, machine, backend, fuel)
        }
    }
}

/// Static (pointee) type of an expression, interned against the program
/// so no `String` is cloned per access. This engine tracks it as it
/// evaluates; the compiler propagates it just far enough to resolve field
/// offsets at compile time.
#[derive(Clone, Copy)]
pub(crate) enum Sty<'p> {
    Int,
    /// Pointer to a known struct.
    Ptr(&'p StructDef),
    /// Pointer to an undeclared struct: dereferencing it is `NotAPointer`.
    PtrUndef,
    /// No static type (`null`, void calls).
    None,
}

#[derive(Default)]
struct Frame<'p> {
    vars: HashMap<Rc<str>, i64>,
    var_types: HashMap<Rc<str>, Sty<'p>>,
    pools: HashMap<Rc<str>, PoolHandle>,
}

enum Flow {
    Normal,
    Returned(i64),
}

struct Interp<'p, 'm, 'b> {
    /// Name-resolution tables built once per run: function and struct
    /// lookups are O(1) with no `FuncDef` clone per call, and every
    /// variable/pool key is a pre-interned `Rc<str>` so frame inserts are
    /// refcount bumps, not `String` allocations.
    funcs: HashMap<&'p str, &'p FuncDef>,
    structs: HashMap<&'p str, &'p StructDef>,
    names: HashMap<&'p str, Rc<str>>,
    machine: &'m mut Machine,
    backend: &'b mut dyn Backend,
    globals: Frame<'p>,
    output: Vec<i64>,
    fuel: u64,
    steps: u64,
    /// Live MiniC frames, `main` included.
    depth: u32,
}

pub(crate) fn to_sty<'p>(ty: Option<&'p Type>, structs: &HashMap<&str, &'p StructDef>) -> Sty<'p> {
    match ty {
        None => Sty::None,
        Some(Type::Int) => Sty::Int,
        Some(Type::Ptr(name)) => match structs.get(name.as_str()) {
            Some(def) => Sty::Ptr(def),
            None => Sty::PtrUndef,
        },
    }
}

/// Collects every name a run can insert into a frame (globals, params,
/// locals, pool descriptors) so they are interned exactly once.
fn collect_names<'p>(prog: &'p Program, names: &mut HashMap<&'p str, Rc<str>>) {
    fn add<'p>(names: &mut HashMap<&'p str, Rc<str>>, n: &'p str) {
        names.entry(n).or_insert_with(|| Rc::from(n));
    }
    for (g, _) in &prog.globals {
        add(names, g);
    }
    for f in &prog.funcs {
        for (p, _) in &f.params {
            add(names, p);
        }
        for p in &f.pool_params {
            add(names, p);
        }
        visit_stmts(&f.body, &mut |s| match s {
            Stmt::VarDecl { name, .. } => add(names, name),
            Stmt::PoolInit { pool, .. } => add(names, pool),
            _ => {}
        });
    }
}

/// Executes `prog`'s `main` against `backend`, with at most `fuel`
/// interpreter steps.
///
/// # Errors
/// See [`RunError`]; memory-safety detections surface as
/// [`RunError::Backend`].
pub fn run(
    prog: &Program,
    machine: &mut Machine,
    backend: &mut dyn Backend,
    fuel: u64,
) -> Result<RunOutcome, RunError> {
    let funcs: HashMap<&str, &FuncDef> =
        prog.funcs.iter().map(|f| (f.name.as_str(), f)).collect();
    let structs: HashMap<&str, &StructDef> =
        prog.structs.iter().map(|s| (s.name.as_str(), s)).collect();
    let mut names = HashMap::new();
    collect_names(prog, &mut names);
    let mut globals = Frame::default();
    for (g, t) in &prog.globals {
        let key = names[g.as_str()].clone();
        globals.vars.insert(key.clone(), 0);
        globals.var_types.insert(key, to_sty(Some(t), &structs));
    }
    let main = *funcs.get("main").ok_or(RunError::NoMain)?;
    let mut interp = Interp {
        funcs,
        structs,
        names,
        machine,
        backend,
        globals,
        output: Vec::new(),
        fuel,
        steps: 0,
        depth: 1,
    };
    let mut frame = Frame::default();
    enter_main(interp.machine);
    if let Err(e) = interp.exec_block(&main.body, &mut frame) {
        abort_frames(interp.machine, interp.depth);
        return Err(e);
    }
    interp.machine.span_exit();
    interp.machine.telemetry_mut().pop_call();
    Ok(RunOutcome { output: interp.output, steps_used: interp.steps })
}

/// Opens a run of either engine: drops the frames an earlier aborted run
/// left on `machine`'s shadow call stack (see [`abort_frames`]), then
/// pushes `main` and enters its span.
fn enter_main(machine: &mut Machine) {
    let t = machine.telemetry_mut();
    t.drop_stale_calls();
    t.push_call("main");
    machine.span_enter("main", Category::App);
}

/// Ends a run of either engine that failed (trap, runtime error, fuel)
/// with `depth` MiniC frames live, `main` included: an error path skips
/// the pops, so the shadow call stack is frozen at the faulting frame.
/// Closes the frames' spans, so later runs' spans do not nest under them,
/// and leaves the frames on the stack for the detector's trap report
/// (`use_stack`) until the next run on `machine` starts.
fn abort_frames(machine: &mut Machine, depth: u32) {
    for _ in 0..depth {
        machine.span_exit();
    }
    machine.telemetry_mut().mark_stale_calls(depth as usize);
}

/// Evaluates a binary operator: wrapping arithmetic, 0/1 comparisons,
/// non-short-circuit logicals, `DivisionByZero` on a zero divisor. The
/// AST engine's semantics, and the reference the bytecode's per-operator
/// opcodes must equal (`tests/engines.rs`).
fn binop(op: BinOp, a: i64, b: i64) -> Result<i64, RunError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(RunError::DivisionByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(RunError::DivisionByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::And => i64::from(a != 0 && b != 0),
        BinOp::Or => i64::from(a != 0 || b != 0),
    })
}

impl<'p> Interp<'p, '_, '_> {
    fn burn(&mut self) -> Result<(), RunError> {
        if self.fuel == 0 {
            return Err(RunError::OutOfFuel);
        }
        self.fuel -= 1;
        self.steps += 1;
        self.machine.tick(1); // ALU work
        Ok(())
    }

    fn struct_of(&self, ty: Sty<'p>) -> Option<&'p StructDef> {
        match ty {
            Sty::Ptr(def) => Some(def),
            _ => None,
        }
    }

    fn sty_of(&self, ty: Option<&'p Type>) -> Sty<'p> {
        to_sty(ty, &self.structs)
    }

    /// The pre-interned key for `name` (a refcount bump, not a `String`
    /// allocation; falls back to a fresh `Rc` for names outside the
    /// program, which cannot happen for well-formed input).
    fn intern(&self, name: &str) -> Rc<str> {
        self.names.get(name).map(Rc::clone).unwrap_or_else(|| Rc::from(name))
    }

    /// Evaluates `e`, returning its value and (for pointers) its static
    /// pointee struct type.
    fn eval(&mut self, e: &'p Expr, frame: &mut Frame<'p>) -> Result<(i64, Sty<'p>), RunError> {
        self.burn()?;
        match e {
            Expr::Int(v) => Ok((*v, Sty::Int)),
            Expr::Null => Ok((0, Sty::None)),
            Expr::Var(name) => {
                if let Some(&v) = frame.vars.get(name.as_str()) {
                    Ok((v, frame.var_types.get(name.as_str()).copied().unwrap_or(Sty::None)))
                } else if let Some(&v) = self.globals.vars.get(name.as_str()) {
                    Ok((
                        v,
                        self.globals
                            .var_types
                            .get(name.as_str())
                            .copied()
                            .unwrap_or(Sty::None),
                    ))
                } else {
                    Err(RunError::UndefinedVariable(name.clone()))
                }
            }
            Expr::Malloc { struct_name, pool, unchecked, .. } => {
                let def = *self
                    .structs
                    .get(struct_name.as_str())
                    .ok_or_else(|| RunError::UndefinedField(struct_name.clone()))?;
                let size = def.size();
                let nfields = def.fields.len();
                let handle = self.resolve_pool(pool.as_deref(), frame)?;
                let addr = if *unchecked {
                    self.backend.alloc_unchecked(self.machine, size, handle)?
                } else {
                    self.backend.alloc(self.machine, size, handle)?
                };
                // MiniC mallocs are zero-initialized (calloc semantics), so
                // program behaviour is deterministic across backends even
                // when the underlying allocator recycles dirty memory.
                for i in 0..nfields {
                    self.backend.store(self.machine, addr.add(i as u64 * 8), 8, 0)?;
                }
                Ok((addr.raw() as i64, Sty::Ptr(def)))
            }
            Expr::MallocArray { struct_name, count, pool, unchecked, .. } => {
                let def = *self
                    .structs
                    .get(struct_name.as_str())
                    .ok_or_else(|| RunError::UndefinedField(struct_name.clone()))?;
                let (n, _) = self.eval(count, frame)?;
                if !(0..=1 << 20).contains(&n) {
                    return Err(RunError::Backend(BackendError::Other(format!(
                        "malloc_array count {n} out of range"
                    ))));
                }
                let elem = def.size();
                let nfields = def.fields.len();
                let total = elem * (n.max(1) as usize);
                let handle = self.resolve_pool(pool.as_deref(), frame)?;
                let addr = if *unchecked {
                    self.backend.alloc_unchecked(self.machine, total, handle)?
                } else {
                    self.backend.alloc(self.machine, total, handle)?
                };
                for i in 0..nfields * n.max(1) as usize {
                    self.backend.store(self.machine, addr.add(i as u64 * 8), 8, 0)?;
                }
                Ok((addr.raw() as i64, Sty::Ptr(def)))
            }
            Expr::Index { base, index } => {
                let (bv, bt) = self.eval(base, frame)?;
                let (iv, _) = self.eval(index, frame)?;
                if bv == 0 {
                    return Err(RunError::NullDereference);
                }
                let def = self.struct_of(bt).ok_or(RunError::NotAPointer)?;
                let addr = (bv as u64).wrapping_add((iv as u64).wrapping_mul(def.size() as u64));
                Ok((addr as i64, bt))
            }
            Expr::Field { base, field, .. } => {
                let (bv, bt) = self.eval(base, frame)?;
                if bv == 0 {
                    return Err(RunError::NullDereference);
                }
                let def = self.struct_of(bt).ok_or(RunError::NotAPointer)?;
                let off = def
                    .offset_of(field)
                    .ok_or_else(|| RunError::UndefinedField(field.clone()))?;
                let fty = self.sty_of(def.type_of(field));
                let raw =
                    self.backend.load(self.machine, VirtAddr(bv as u64).add(off as u64), 8)?;
                Ok((raw as i64, fty))
            }
            Expr::Binary { op, lhs, rhs } => {
                let (a, _) = self.eval(lhs, frame)?;
                let (b, _) = self.eval(rhs, frame)?;
                Ok((binop(*op, a, b)?, Sty::Int))
            }
            Expr::Call { callee, args, pool_args, .. } => {
                let func = *self
                    .funcs
                    .get(callee.as_str())
                    .ok_or_else(|| RunError::UndefinedFunction(callee.clone()))?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?.0);
                }
                let mut callee_frame = Frame::default();
                for ((pname, pty), v) in func.params.iter().zip(vals) {
                    let key = self.intern(pname);
                    let sty = self.sty_of(Some(pty));
                    callee_frame.vars.insert(key.clone(), v);
                    callee_frame.var_types.insert(key, sty);
                }
                for (formal, actual) in func.pool_params.iter().zip(pool_args) {
                    let h = frame
                        .pools
                        .get(actual.as_str())
                        .copied()
                        .ok_or_else(|| RunError::UndefinedPool(actual.clone()))?;
                    callee_frame.pools.insert(self.intern(formal), h);
                }
                let ret_ty = self.sty_of(func.ret.as_ref());
                if self.depth >= MAX_CALL_DEPTH {
                    return Err(RunError::CallDepthExceeded);
                }
                // An error path keeps the callee frame on the shadow stack
                // so the trap report sees the full chain (see
                // [`abort_frames`]).
                self.depth += 1;
                self.machine.telemetry_mut().push_call(callee);
                self.machine.span_enter(callee, Category::App);
                let flow = self.exec_block(&func.body, &mut callee_frame)?;
                self.machine.span_exit();
                self.machine.telemetry_mut().pop_call();
                self.depth -= 1;
                match flow {
                    Flow::Returned(v) => Ok((v, ret_ty)),
                    Flow::Normal => Ok((0, ret_ty)),
                }
            }
        }
    }

    fn resolve_pool(
        &mut self,
        pool: Option<&str>,
        frame: &Frame<'p>,
    ) -> Result<Option<PoolHandle>, RunError> {
        match pool {
            None => Ok(None),
            Some(name) => frame
                .pools
                .get(name)
                .copied()
                .map(Some)
                .ok_or_else(|| RunError::UndefinedPool(name.to_string())),
        }
    }

    fn exec_block(&mut self, stmts: &'p [Stmt], frame: &mut Frame<'p>) -> Result<Flow, RunError> {
        for s in stmts {
            if let Flow::Returned(v) = self.exec_stmt(s, frame)? {
                return Ok(Flow::Returned(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &'p Stmt, frame: &mut Frame<'p>) -> Result<Flow, RunError> {
        self.burn()?;
        match s {
            Stmt::VarDecl { name, ty, init } => {
                let v = match init {
                    Some(e) => self.eval(e, frame)?.0,
                    None => 0,
                };
                let key = self.intern(name);
                let sty = self.sty_of(Some(ty));
                frame.vars.insert(key.clone(), v);
                frame.var_types.insert(key, sty);
                Ok(Flow::Normal)
            }
            Stmt::Assign { lhs, rhs } => {
                let v = self.eval(rhs, frame)?.0;
                match lhs {
                    LValue::Var(name) => {
                        if let Some(slot) = frame.vars.get_mut(name.as_str()) {
                            *slot = v;
                        } else if let Some(slot) = self.globals.vars.get_mut(name.as_str()) {
                            *slot = v;
                        } else {
                            return Err(RunError::UndefinedVariable(name.clone()));
                        }
                    }
                    LValue::Field { base, field, .. } => {
                        let (bv, bt) = self.eval(base, frame)?;
                        if bv == 0 {
                            return Err(RunError::NullDereference);
                        }
                        let def = self.struct_of(bt).ok_or(RunError::NotAPointer)?;
                        let off = def
                            .offset_of(field)
                            .ok_or_else(|| RunError::UndefinedField(field.clone()))?;
                        self.backend.store(
                            self.machine,
                            VirtAddr(bv as u64).add(off as u64),
                            8,
                            v as u64,
                        )?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Free { expr, pool, unchecked, .. } => {
                let (v, _) = self.eval(expr, frame)?;
                if v != 0 {
                    let handle = self.resolve_pool(pool.as_deref(), frame)?;
                    if *unchecked {
                        self.backend.free_unchecked(self.machine, VirtAddr(v as u64), handle)?;
                    } else {
                        self.backend.free(self.machine, VirtAddr(v as u64), handle)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then, els } => {
                let (c, _) = self.eval(cond, frame)?;
                if c != 0 {
                    self.exec_block(then, frame)
                } else {
                    self.exec_block(els, frame)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    let (c, _) = self.eval(cond, frame)?;
                    if c == 0 {
                        break;
                    }
                    if let Flow::Returned(v) = self.exec_block(body, frame)? {
                        return Ok(Flow::Returned(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, frame)?.0,
                    None => 0,
                };
                Ok(Flow::Returned(v))
            }
            Stmt::Print(e) => {
                let (v, _) = self.eval(e, frame)?;
                self.output.push(v);
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::PoolInit { pool, elem_size } => {
                let h = self.backend.pool_create(self.machine, *elem_size)?;
                frame.pools.insert(self.intern(pool), h);
                Ok(Flow::Normal)
            }
            Stmt::PoolDestroy { pool } => {
                let h = frame
                    .pools
                    .get(pool.as_str())
                    .copied()
                    .ok_or_else(|| RunError::UndefinedPool(pool.clone()))?;
                self.backend.pool_destroy(self.machine, h)?;
                Ok(Flow::Normal)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::backend::*;
    use super::*;
    use dangle_apa::{parse, pool_allocate, FIGURE_1};

    const FUEL: u64 = 2_000_000;

    fn run_native(src: &str) -> Result<RunOutcome, RunError> {
        let prog = parse(src).unwrap();
        run(&prog, &mut Machine::free_running(), &mut NativeBackend::new(), FUEL)
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run_native("fn main() { print(1 + 2 * 3); print(-4); print(7 % 3); }")
            .unwrap();
        assert_eq!(out.output, vec![7, -4, 1]);
    }

    #[test]
    fn control_flow() {
        let out = run_native(
            "fn main() {
                var i: int = 0;
                var sum: int = 0;
                while (i < 10) {
                    if (i % 2 == 0) { sum = sum + i; } else { sum = sum - 1; }
                    i = i + 1;
                }
                print(sum);
            }",
        )
        .unwrap();
        assert_eq!(out.output, vec![20 - 5]);
    }

    #[test]
    fn recursion_fibonacci() {
        let out = run_native(
            "fn fib(n: int) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { print(fib(15)); }",
        )
        .unwrap();
        assert_eq!(out.output, vec![610]);
    }

    #[test]
    fn linked_list_build_and_sum() {
        let out = run_native(
            "struct node { next: ptr<node>, val: int }
            fn main() {
                var head: ptr<node> = null;
                var i: int = 0;
                while (i < 5) {
                    var n: ptr<node> = malloc(node);
                    n->val = i;
                    n->next = head;
                    head = n;
                    i = i + 1;
                }
                var sum: int = 0;
                while (head != null) {
                    sum = sum + head->val;
                    var nxt: ptr<node> = head->next;
                    free(head);
                    head = nxt;
                }
                print(sum);
            }",
        )
        .unwrap();
        assert_eq!(out.output, vec![10]);
    }

    #[test]
    fn globals_persist_across_calls() {
        let out = run_native(
            "global counter: int;
            fn bump() { counter = counter + 1; }
            fn main() { bump(); bump(); bump(); print(counter); }",
        )
        .unwrap();
        assert_eq!(out.output, vec![3]);
    }

    #[test]
    fn runtime_errors() {
        assert_eq!(run_native("fn main() { print(1 / 0); }"), Err(RunError::DivisionByZero));
        assert_eq!(
            run_native("struct s { v: int } fn main() { var p: ptr<s> = null; print(p->v); }"),
            Err(RunError::NullDereference)
        );
        assert_eq!(run_native("fn main() { while (1) { } }"), Err(RunError::OutOfFuel));
        assert_eq!(run_native("fn f() {}"), Err(RunError::NoMain));
        assert!(matches!(
            run_native("fn main() { print(x); }"),
            Err(RunError::UndefinedVariable(_))
        ));
    }

    #[test]
    fn free_null_is_a_no_op() {
        assert!(run_native("struct s { v: int } fn main() { free(null); print(1); }").is_ok());
    }

    #[test]
    fn figure_one_native_runs_silently_wrong() {
        // Without the detector the dangling write lands in recycled memory:
        // the program completes and prints the list sum.
        let prog = parse(FIGURE_1).unwrap();
        let out =
            run(&prog, &mut Machine::free_running(), &mut NativeBackend::new(), FUEL).unwrap();
        assert_eq!(out.output, vec![45], "h() sums 0..=9");
    }

    #[test]
    fn figure_one_detected_by_shadow_heap() {
        let prog = parse(FIGURE_1).unwrap();
        let err = run(&prog, &mut Machine::free_running(), &mut ShadowBackend::new(), FUEL)
            .unwrap_err();
        assert!(is_detection(&err), "{err}");
        let RunError::Backend(BackendError::Trap { report: Some(r), .. }) = &err else {
            panic!("{err}");
        };
        assert!(r.contains("dangling write"), "{r}");
    }

    #[test]
    fn figure_one_transformed_detected_by_shadow_pool() {
        let (prog, _) = pool_allocate(&parse(FIGURE_1).unwrap());
        let mut machine = Machine::free_running();
        let mut backend = ShadowPoolBackend::new();
        let err = run(&prog, &mut machine, &mut backend, FUEL).unwrap_err();
        assert!(is_detection(&err), "{err}");
    }

    #[test]
    fn figure_one_detected_by_memcheck_and_capability() {
        let prog = parse(FIGURE_1).unwrap();
        for b in [true, false] {
            let err = if b {
                run(&prog, &mut Machine::free_running(), &mut MemcheckBackend::new(), FUEL)
            } else {
                run(&prog, &mut Machine::free_running(), &mut CapabilityBackend::new(), FUEL)
            }
            .unwrap_err();
            assert!(is_detection(&err), "{err}");
        }
    }

    #[test]
    fn figure_one_pa_only_misses_the_bug() {
        // Pool allocation alone is not a detector: the dangling write hits
        // pool memory and the program completes.
        let (prog, _) = pool_allocate(&parse(FIGURE_1).unwrap());
        let out = run(&prog, &mut Machine::free_running(), &mut PoolBackend::new(), FUEL)
            .unwrap();
        assert_eq!(out.output, vec![45]);
    }

    /// A correct (dangling-free) variant of the Figure 1 program.
    const FIGURE_1_FIXED: &str = "
        struct s { next: ptr<s>, val: int }
        fn build(n: int) -> ptr<s> {
            var head: ptr<s> = null;
            var i: int = 0;
            while (i < n) {
                var node: ptr<s> = malloc(s);
                node->val = i * i;
                node->next = head;
                head = node;
                i = i + 1;
            }
            return head;
        }
        fn total(p: ptr<s>) -> int {
            var sum: int = 0;
            while (p != null) {
                sum = sum + p->val;
                p = p->next;
            }
            return sum;
        }
        fn drop_all(p: ptr<s>) {
            while (p != null) {
                var nxt: ptr<s> = p->next;
                free(p);
                p = nxt;
            }
        }
        fn main() {
            var list: ptr<s> = build(20);
            print(total(list));
            drop_all(list);
            print(1234);
        }";

    #[test]
    fn transform_preserves_semantics_of_correct_programs() {
        let prog = parse(FIGURE_1_FIXED).unwrap();
        let (transformed, _) = pool_allocate(&prog);
        let reference =
            run(&prog, &mut Machine::free_running(), &mut NativeBackend::new(), FUEL)
                .unwrap()
                .output;
        assert_eq!(reference, vec![(0..20).map(|i| i * i).sum::<i64>(), 1234]);

        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(NativeBackend::new()),
            Box::new(PoolBackend::new()),
            Box::new(PoolBackend::with_dummy_syscalls()),
            Box::new(ShadowPoolBackend::new()),
        ];
        for b in &mut backends {
            let out = run(&transformed, &mut Machine::free_running(), b.as_mut(), FUEL)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(out.output, reference, "backend {}", b.name());
        }
        // And untransformed under the detecting backends.
        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(ShadowBackend::new()),
            Box::new(EFenceBackend::new()),
            Box::new(MemcheckBackend::new()),
            Box::new(CapabilityBackend::new()),
        ];
        for b in &mut backends {
            let out = run(&prog, &mut Machine::free_running(), b.as_mut(), FUEL)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(out.output, reference, "backend {}", b.name());
        }
    }

    #[test]
    fn pool_destroy_recycles_va_across_calls() {
        // Calling a pool-owning function repeatedly must not grow VA use
        // under the shadow-pool backend (the whole point of Insight 2).
        let src = "
            struct s { next: ptr<s>, val: int }
            fn episode() {
                var head: ptr<s> = null;
                var i: int = 0;
                while (i < 8) {
                    var n: ptr<s> = malloc(s);
                    n->next = head;
                    head = n;
                    i = i + 1;
                }
                print(head->val);
            }
            fn main() {
                var round: int = 0;
                while (round < 30) {
                    episode();
                    round = round + 1;
                }
            }";
        let (t, a) = pool_allocate(&parse(src).unwrap());
        assert_eq!(a.owns.get("episode").map(Vec::len), Some(1), "pool local to episode");
        let mut machine = Machine::free_running();
        let mut backend = ShadowPoolBackend::new();
        run(&t, &mut machine, &mut backend, FUEL).unwrap();
        // 30 episodes x 9 pages (1 canonical + 8 shadow); with recycling the
        // total VA consumed should be roughly one episode's worth.
        assert!(
            machine.virt_pages_consumed() < 30,
            "VA must plateau, consumed {}",
            machine.virt_pages_consumed()
        );
    }
}
