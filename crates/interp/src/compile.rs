//! MiniC → register-bytecode compiler.
//!
//! One pass over each function resolves every name to a numeric slot and
//! linearizes control flow with jump-patched labels, while tracking the
//! coalesced burn cost of each instruction (see [`crate::bytecode`] for
//! the cost-accounting contract that makes the two engines clock-exact).
//!
//! ## Control flow
//!
//! A condition whose last operation is a binary operator into a dead
//! temporary fuses with its branch into one compare-and-branch
//! instruction.
//!
//! * `if` is a branch to the `else` block when the condition is zero, the
//!   `then` block, and a jump over the `else` block.
//! * `while` is rotated: a guard branch to the exit when the condition is
//!   zero, the body, then the condition again as a branch back to the body
//!   when it is nonzero. That bottom branch is the fused form of the
//!   negated comparison (`Lt`↔`Ge`, `Le`↔`Gt`, `Eq`↔`Ne`), or `brz.Eq v,
//!   #0` on the condition's value `v` for any other condition. An
//!   iteration thus ends in one branch, with no back-edge `jump`; the
//!   keep-alive checksum loop is five instructions. The condition is
//!   compiled twice, so a call in it gets two call sites; both copies
//!   resolve names in the scope before the body, as the AST engine's one
//!   runtime map reads them when no `var` in the body has run.
//!
//! ## Slot resolution
//!
//! * **Values** — one slot per `(function, name)`, parameters first, then
//!   local declarations in first-occurrence order, then expression
//!   temporaries. Re-declaring a name reuses its slot (the AST engine's
//!   flat per-function `HashMap` does the same). Globals live in a
//!   separate table indexed at compile time; a global read is snapshotted
//!   into a temporary at its AST evaluation point, so later side effects
//!   (a call mutating the global) cannot be observed early.
//! * **Pools** — a separate register file per function: pool parameters
//!   first, then `poolinit` registers. Pool names resolve at compile
//!   time, so a malformed transform output fails here, not mid-run.
//! * **Fields/structs** — field offsets and struct sizes are burned into
//!   the instruction; the static type of every expression is propagated
//!   exactly as the AST engine's `Option<Type>` results would be.
//!
//! ## Static diagnostics
//!
//! Name errors the AST engine only hits at run time — undefined
//! variables, functions, structs/fields and out-of-scope pool descriptors
//! — surface here as [`CompileError`]s carrying the same message text
//! (plus a source span where the AST records one). Value-dependent errors
//! (null dereference, division by zero, dereferencing a non-pointer)
//! remain run-time errors with the AST engine's exact check order.
//! Two classes of programs are rejected statically that the AST engine
//! would start executing before failing: use of a variable before any
//! declaration in program order, and call-arity mismatches — both are
//! run-time errors under the AST engine on every path that reaches them.
//! A third class the AST engine runs: a `var` named like a global. There
//! the name reads the global until the `var` runs and the local after
//! (on a later loop trip, say), which no one slot per name can mirror.

use crate::bytecode::{binary_forms, BcFunc, BcProgram, CallSite, Insn, POOL_NONE, SLOT_NONE};
use crate::{to_sty, Sty};
use dangle_apa::ast::{visit_stmts, BinOp, Expr, FuncDef, LValue, Program, Span, Stmt, StructDef};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A compile-time diagnostic, shaped like `dangle_apa::ValidateError`:
/// the function it occurred in, a source span when the AST carries one,
/// and the same message text the AST engine's run-time error renders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Function being compiled.
    pub func: String,
    /// Source location (`Span::NONE` when the AST has none for the node).
    pub span: Span,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.is_known() {
            write!(f, "in `{}` at {}: {}", self.func, self.span, self.message)
        } else {
            write!(f, "in `{}`: {}", self.func, self.message)
        }
    }
}

impl Error for CompileError {}

/// Compiles every function of `prog` to bytecode.
///
/// # Errors
/// [`CompileError`] on undefined variable/function/struct/field/pool
/// names, use of a variable before its declaration in program order, a
/// `var` named like a global, or call-arity mismatches.
pub fn compile(prog: &Program) -> Result<BcProgram, CompileError> {
    let structs: HashMap<&str, &StructDef> =
        prog.structs.iter().map(|s| (s.name.as_str(), s)).collect();
    let func_idx: HashMap<&str, u16> = prog
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i as u16))
        .collect();
    let globals: HashMap<&str, (u16, Sty)> = prog
        .globals
        .iter()
        .enumerate()
        .map(|(i, (name, ty))| (name.as_str(), (i as u16, to_sty(Some(ty), &structs))))
        .collect();

    let mut funcs = Vec::with_capacity(prog.funcs.len());
    for f in &prog.funcs {
        funcs.push(FuncCompiler::new(prog, f, &structs, &func_idx, &globals).compile()?);
    }
    Ok(BcProgram {
        funcs,
        main: func_idx.get("main").copied(),
        global_names: prog.globals.iter().map(|(n, _)| n.clone()).collect(),
    })
}

/// The comparison whose value is zero exactly when `op`'s is nonzero, for
/// the six comparisons; `None` for every other operator.
fn negated(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Ge => BinOp::Lt,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        _ => return None,
    })
}

struct FuncCompiler<'p, 'c> {
    prog: &'p Program,
    func: &'p FuncDef,
    structs: &'c HashMap<&'p str, &'p StructDef>,
    func_idx: &'c HashMap<&'p str, u16>,
    globals: &'c HashMap<&'p str, (u16, Sty<'p>)>,
    /// Declared (visible) variables: slot + current static type.
    vars: HashMap<&'p str, (u16, Sty<'p>)>,
    /// Slots reserved for `var` declarations not yet reached.
    reserved: HashMap<&'p str, u16>,
    /// Pool registers in scope.
    pools: HashMap<&'p str, u16>,
    npools: u16,
    /// First temporary slot (= number of named slots).
    first_temp: u16,
    cur_temp: u16,
    max_slot: u16,
    /// Burns accumulated (in AST evaluation order) since the last emitted
    /// instruction; flushed into the next instruction's `cost`.
    pending: u32,
    code: Vec<Insn>,
    calls: Vec<CallSite>,
    /// Forward-jump patch list: `(insn index, label)`.
    patches: Vec<(usize, u32)>,
    labels: Vec<Option<u32>>,
    slot_names: Vec<String>,
}

impl<'p, 'c> FuncCompiler<'p, 'c> {
    fn new(
        prog: &'p Program,
        func: &'p FuncDef,
        structs: &'c HashMap<&'p str, &'p StructDef>,
        func_idx: &'c HashMap<&'p str, u16>,
        globals: &'c HashMap<&'p str, (u16, Sty<'p>)>,
    ) -> Self {
        let mut vars = HashMap::new();
        let mut slot_names = Vec::new();
        for (name, ty) in &func.params {
            let slot = slot_names.len() as u16;
            vars.insert(name.as_str(), (slot, to_sty(Some(ty), structs)));
            slot_names.push(name.clone());
        }
        // Reserve a stable slot for every `var` name, in first-occurrence
        // order, so temporaries form a contiguous suffix.
        let mut reserved = HashMap::new();
        visit_stmts(&func.body, &mut |s| {
            let Stmt::VarDecl { name, .. } = s else { return };
            if !vars.contains_key(name.as_str()) && !reserved.contains_key(name.as_str()) {
                reserved.insert(name.as_str(), slot_names.len() as u16);
                slot_names.push(name.clone());
            }
        });
        let mut pools = HashMap::new();
        for (i, p) in func.pool_params.iter().enumerate() {
            pools.insert(p.as_str(), i as u16);
        }
        let first_temp = slot_names.len() as u16;
        FuncCompiler {
            prog,
            func,
            structs,
            func_idx,
            globals,
            vars,
            reserved,
            npools: func.pool_params.len() as u16,
            pools,
            first_temp,
            cur_temp: first_temp,
            max_slot: first_temp,
            pending: 0,
            code: Vec::new(),
            calls: Vec::new(),
            patches: Vec::new(),
            labels: Vec::new(),
            slot_names,
        }
    }

    fn err(&self, span: Span, message: String) -> CompileError {
        CompileError { func: self.func.name.clone(), span, message }
    }

    fn compile(mut self) -> Result<BcFunc, CompileError> {
        self.block(&self.func.body)?;
        // Implicit `return 0` at the end of the body (AST `Flow::Normal`),
        // carrying any trailing pending burns.
        let cost = self.take_pending();
        self.code.push(Insn::Ret { cost, src: SLOT_NONE });
        // Patch forward jumps.
        for (at, label) in std::mem::take(&mut self.patches) {
            let target = self.labels[label as usize].expect("label bound");
            match &mut self.code[at] {
                Insn::Jump { target: t, .. }
                | Insn::JumpIfZero { target: t, .. }
                | binary_forms!(brz { target: t, .. })
                | binary_forms!(brz_imm { target: t, .. }) => *t = target,
                other => unreachable!("patched non-jump {other:?}"),
            }
        }
        Ok(BcFunc {
            name: self.func.name.clone(),
            nparams: self.func.params.len() as u16,
            nslots: self.max_slot,
            npool_params: self.func.pool_params.len() as u16,
            npools: self.npools,
            code: self.code,
            calls: self.calls,
            slot_names: self.slot_names,
        })
    }

    // ---- emission helpers -------------------------------------------------

    fn take_pending(&mut self) -> u32 {
        std::mem::take(&mut self.pending)
    }

    /// Emits `insn` after folding the pending burns into its cost. Every
    /// instruction goes through here, so a burn can never float past an
    /// instruction that precedes it in AST evaluation order.
    fn emit(&mut self, insn: Insn) -> usize {
        debug_assert_eq!(self.pending, 0, "emit after fold_cost");
        self.code.push(insn);
        self.code.len() - 1
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(None);
        (self.labels.len() - 1) as u32
    }

    /// Binds `label` to the next instruction index. Pending burns must be
    /// flushed first ([`Self::flush`]): a cost attached to the instruction
    /// *after* a join point would be charged on every path through it.
    fn bind(&mut self, label: u32) {
        assert_eq!(self.pending, 0, "pending burns must not cross a label");
        self.labels[label as usize] = Some(self.code.len() as u32);
    }

    /// Emits an explicit `Tick` for any pending burns (before a label).
    fn flush(&mut self) {
        if self.pending > 0 {
            let cost = self.take_pending();
            self.emit(Insn::Tick { cost });
        }
    }

    fn jump_to(&mut self, label: u32) {
        let cost = self.take_pending();
        let at = self.emit(Insn::Jump { cost, target: 0 });
        self.patches.push((at, label));
    }

    /// Compiles `cond` and branches to `label` when its truth is `taken`:
    /// when it is zero for `false`, nonzero for `true`. A trailing binary
    /// op whose result lives in a dead temporary (the common `while (i <
    /// n)` shape) fuses into the branch: as itself for `false`, and for
    /// `true` as the comparison that is zero exactly when it is nonzero
    /// ([`negated`]). Any other condition branches on its value, with
    /// `jz` for `false` and `brz.Eq v, #0` for `true`. Safe to pop the op:
    /// it was emitted just now (no label binds after it, and `patches`
    /// only references jump instructions), and the fused replacement
    /// takes the same index, so a label bound at the condition's first
    /// instruction still lands correctly.
    fn branch_if(&mut self, cond: &'p Expr, taken: bool, label: u32) -> Result<(), CompileError> {
        let mark = self.code.len();
        let temps_from = self.cur_temp;
        let (c, _) = self.expr_value(cond)?;
        if self.code.len() > mark && c >= temps_from {
            let last = *self.code.last().expect("non-empty past mark");
            let op = last.operator().and_then(|op| if taken { negated(op) } else { Some(op) });
            let fused = match (op, last) {
                (Some(op), binary_forms!(bin { cost, dst, lhs, rhs })) if dst == c => {
                    Some(Insn::brz(op, cost + self.pending, lhs, rhs, 0))
                }
                (Some(op), binary_forms!(bin_imm { cost, dst, lhs, imm })) if dst == c => {
                    Some(Insn::brz_imm(op, cost + self.pending, lhs, imm, 0))
                }
                _ => None,
            };
            if let Some(branch) = fused {
                self.code.pop();
                self.pending = 0;
                let at = self.emit(branch);
                self.patches.push((at, label));
                return Ok(());
            }
        }
        let cost = self.take_pending();
        let branch = match taken {
            false => Insn::JumpIfZero { cost, cond: c, target: 0 },
            true => Insn::brz_imm(BinOp::Eq, cost, c, 0, 0),
        };
        let at = self.emit(branch);
        self.patches.push((at, label));
        Ok(())
    }

    fn temp(&mut self) -> u16 {
        let t = self.cur_temp;
        self.cur_temp += 1;
        self.max_slot = self.max_slot.max(self.cur_temp);
        t
    }

    // ---- expressions ------------------------------------------------------

    /// Compiles `e` to a readable slot. Local variables return their own
    /// slot without emitting anything (safe: expressions cannot write
    /// locals); everything else materializes into a temporary.
    fn expr_value(&mut self, e: &'p Expr) -> Result<(u16, Sty<'p>), CompileError> {
        if let Expr::Var(name) = e {
            self.pending += 1; // the AST's per-node burn
            if let Some(&(slot, sty)) = self.vars.get(name.as_str()) {
                return Ok((slot, sty));
            }
            let dst = self.temp();
            let sty = self.global_get(name, dst)?;
            return Ok((dst, sty));
        }
        let dst = self.temp();
        let sty = self.expr_into(e, dst)?;
        Ok((dst, sty))
    }

    fn global_get(&mut self, name: &'p str, dst: u16) -> Result<Sty<'p>, CompileError> {
        let &(idx, sty) = self
            .globals
            .get(name)
            .ok_or_else(|| self.err(Span::NONE, format!("undefined variable `{name}`")))?;
        let cost = self.take_pending();
        self.emit(Insn::GlobalGet { cost, dst, idx });
        Ok(sty)
    }

    fn resolve_pool(&self, pool: Option<&'p String>, span: Span) -> Result<u16, CompileError> {
        match pool {
            None => Ok(POOL_NONE),
            Some(name) => self.pools.get(name.as_str()).copied().ok_or_else(|| {
                self.err(span, format!("pool descriptor `{name}` not in scope"))
            }),
        }
    }

    fn struct_lookup(&self, name: &'p str, span: Span) -> Result<&'p StructDef, CompileError> {
        self.structs
            .get(name)
            .copied()
            .ok_or_else(|| self.err(span, format!("undefined struct or field `{name}`")))
    }

    /// Compiles `e` into `dst`. `dst` may alias a slot read by the
    /// expression: every instruction writes its destination last.
    fn expr_into(&mut self, e: &'p Expr, dst: u16) -> Result<Sty<'p>, CompileError> {
        self.pending += 1; // the AST's per-node burn
        match e {
            Expr::Int(v) => {
                let cost = self.take_pending();
                self.emit(Insn::Const { cost, dst, val: *v });
                Ok(Sty::Int)
            }
            Expr::Null => {
                let cost = self.take_pending();
                self.emit(Insn::Const { cost, dst, val: 0 });
                Ok(Sty::None)
            }
            Expr::Var(name) => {
                if let Some(&(slot, sty)) = self.vars.get(name.as_str()) {
                    let cost = self.take_pending();
                    self.emit(Insn::Copy { cost, dst, src: slot });
                    return Ok(sty);
                }
                self.global_get(name, dst)
            }
            Expr::Malloc { struct_name, pool, unchecked, span, .. } => {
                let def = self.struct_lookup(struct_name, *span)?;
                let pool = self.resolve_pool(pool.as_ref(), *span)?;
                let cost = self.take_pending();
                self.emit(Insn::Malloc {
                    cost,
                    dst,
                    size: def.size() as u32,
                    nfields: def.fields.len() as u16,
                    pool,
                    unchecked: *unchecked,
                });
                Ok(Sty::Ptr(def))
            }
            Expr::MallocArray { struct_name, count, pool, unchecked, span, .. } => {
                let def = self.struct_lookup(struct_name, *span)?;
                let pool = self.resolve_pool(pool.as_ref(), *span)?;
                let (count, _) = self.expr_value(count)?;
                let cost = self.take_pending();
                self.emit(Insn::MallocArray {
                    cost,
                    dst,
                    count,
                    elem_size: def.size() as u32,
                    nfields: def.fields.len() as u16,
                    pool,
                    unchecked: *unchecked,
                });
                Ok(Sty::Ptr(def))
            }
            Expr::Index { base, index } => {
                let (bslot, bty) = self.expr_value(base)?;
                let (islot, _) = self.expr_value(index)?;
                let cost = self.take_pending();
                match bty {
                    Sty::Ptr(def) => {
                        self.emit(Insn::Index {
                            cost,
                            dst,
                            base: bslot,
                            index: islot,
                            elem_size: def.size() as u32,
                        });
                        Ok(bty)
                    }
                    _ => {
                        self.emit(Insn::FailNotPtr { cost, base: bslot });
                        Ok(Sty::None)
                    }
                }
            }
            Expr::Field { base, field, span } => {
                let (bslot, bty) = self.expr_value(base)?;
                let cost = self.take_pending();
                match bty {
                    Sty::Ptr(def) => {
                        let off = def.offset_of(field).ok_or_else(|| {
                            self.err(*span, format!("undefined struct or field `{field}`"))
                        })?;
                        self.emit(Insn::LoadField {
                            cost,
                            dst,
                            base: bslot,
                            offset: off as u32,
                        });
                        Ok(to_sty(def.type_of(field), self.structs))
                    }
                    _ => {
                        self.emit(Insn::FailNotPtr { cost, base: bslot });
                        Ok(Sty::None)
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let (l, _) = self.expr_value(lhs)?;
                // A literal right operand folds into the instruction; its
                // per-node burn joins the pending batch, charged (as the
                // `Const` would have been) after the left operand.
                if let Expr::Int(imm) = **rhs {
                    self.pending += 1;
                    let cost = self.take_pending();
                    self.emit(Insn::bin_imm(*op, cost, dst, l, imm));
                    return Ok(Sty::Int);
                }
                let (r, _) = self.expr_value(rhs)?;
                let cost = self.take_pending();
                self.emit(Insn::bin(*op, cost, dst, l, r));
                Ok(Sty::Int)
            }
            Expr::Call { callee, args, pool_args, .. } => {
                let &fidx = self.func_idx.get(callee.as_str()).ok_or_else(|| {
                    self.err(Span::NONE, format!("undefined function `{callee}`"))
                })?;
                let target = &self.prog.funcs[fidx as usize];
                if target.params.len() != args.len() {
                    return Err(self.err(
                        Span::NONE,
                        format!(
                            "call to `{callee}` passes {} value argument(s), `{callee}` \
                             declares {}",
                            args.len(),
                            target.params.len()
                        ),
                    ));
                }
                if target.pool_params.len() != pool_args.len() {
                    return Err(self.err(
                        Span::NONE,
                        format!(
                            "call to `{callee}` passes {} pool argument(s), `{callee}` \
                             declares {}",
                            pool_args.len(),
                            target.pool_params.len()
                        ),
                    ));
                }
                let mut arg_slots = Vec::with_capacity(args.len());
                for a in args {
                    arg_slots.push(self.expr_value(a)?.0);
                }
                let mut pool_slots = Vec::with_capacity(pool_args.len());
                for p in pool_args {
                    pool_slots.push(self.resolve_pool(Some(p), Span::NONE)?);
                }
                let site = self.calls.len() as u32;
                self.calls.push(CallSite { func: fidx, args: arg_slots, pool_args: pool_slots });
                let cost = self.take_pending();
                self.emit(Insn::Call { cost, dst, site });
                Ok(to_sty(target.ret.as_ref(), self.structs))
            }
        }
    }

    // ---- statements -------------------------------------------------------

    fn block(&mut self, stmts: &'p [Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.cur_temp = self.first_temp; // temporaries are per-statement
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &'p Stmt) -> Result<(), CompileError> {
        self.pending += 1; // the AST's per-statement burn
        match s {
            Stmt::VarDecl { name, ty, init } => {
                // The AST engine looks names up at run time, so a local
                // named like a global takes over that name only once its
                // `var` has run (on a later loop trip, say). A compiled
                // name means one slot for the whole function: reject the
                // shadowing rather than guess.
                if self.globals.contains_key(name.as_str()) {
                    return Err(self.err(Span::NONE, format!("local `{name}` shadows a global")));
                }
                let slot = match self.vars.get(name.as_str()) {
                    Some(&(slot, _)) => slot,
                    None => self.reserved[name.as_str()],
                };
                // The initializer runs before the name becomes visible
                // (`var x: int = x;` reads the *outer* x or fails).
                match init {
                    Some(e) => {
                        self.expr_into(e, slot)?;
                    }
                    None => {
                        let cost = self.take_pending();
                        self.emit(Insn::Const { cost, dst: slot, val: 0 });
                    }
                }
                self.vars.insert(name.as_str(), (slot, to_sty(Some(ty), self.structs)));
                Ok(())
            }
            Stmt::Assign { lhs, rhs } => match lhs {
                LValue::Var(name) => {
                    if let Some(&(slot, _)) = self.vars.get(name.as_str()) {
                        self.expr_into(rhs, slot)?;
                        return Ok(());
                    }
                    let &(idx, _) = self.globals.get(name.as_str()).ok_or_else(|| {
                        self.err(Span::NONE, format!("undefined variable `{name}`"))
                    })?;
                    let (src, _) = self.expr_value(rhs)?;
                    let cost = self.take_pending();
                    self.emit(Insn::GlobalSet { cost, idx, src });
                    Ok(())
                }
                LValue::Field { base, field, span } => {
                    // AST order: rhs first, then the base.
                    let (src, _) = self.expr_value(rhs)?;
                    let (bslot, bty) = self.expr_value(base)?;
                    let cost = self.take_pending();
                    match bty {
                        Sty::Ptr(def) => {
                            let off = def.offset_of(field).ok_or_else(|| {
                                self.err(
                                    *span,
                                    format!("undefined struct or field `{field}`"),
                                )
                            })?;
                            self.emit(Insn::StoreField {
                                cost,
                                base: bslot,
                                offset: off as u32,
                                src,
                            });
                        }
                        _ => {
                            self.emit(Insn::FailNotPtr { cost, base: bslot });
                        }
                    }
                    Ok(())
                }
            },
            Stmt::Free { expr, pool, unchecked, span, .. } => {
                let pool = self.resolve_pool(pool.as_ref(), *span)?;
                let (src, _) = self.expr_value(expr)?;
                let cost = self.take_pending();
                self.emit(Insn::Free { cost, src, pool, unchecked: *unchecked });
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let else_l = self.new_label();
                let end_l = self.new_label();
                self.branch_if(cond, false, else_l)?;
                self.block(then)?;
                self.jump_to(end_l);
                self.bind(else_l);
                self.block(els)?;
                self.flush();
                self.bind(end_l);
                Ok(())
            }
            Stmt::While { cond, body } => {
                // Rotated: a guard test at entry, then the body, then the
                // condition again as a branch back to the body, so no
                // iteration pays a back-edge jump. The statement's own
                // burn rides on the guard's first instruction, which no
                // label precedes, so it is charged once; the body's
                // trailing burns ride on the bottom test's first, which
                // the AST engine charges just before it too. The bottom
                // test resolves names in the scope the guard saw, before
                // the body: a `var` in a branch of the body that never
                // runs must not change what the condition reads.
                let body_l = self.new_label();
                let exit = self.new_label();
                let temps = self.cur_temp;
                let head_vars = self.vars.clone();
                self.branch_if(cond, false, exit)?;
                self.bind(body_l);
                self.block(body)?;
                let body_vars = std::mem::replace(&mut self.vars, head_vars);
                self.cur_temp = temps;
                self.branch_if(cond, true, body_l)?;
                self.vars = body_vars;
                self.bind(exit);
                Ok(())
            }
            Stmt::Return(e) => {
                let src = match e {
                    Some(e) => self.expr_value(e)?.0,
                    None => SLOT_NONE,
                };
                let cost = self.take_pending();
                self.emit(Insn::Ret { cost, src });
                Ok(())
            }
            Stmt::Print(e) => {
                let (src, _) = self.expr_value(e)?;
                let cost = self.take_pending();
                self.emit(Insn::Print { cost, src });
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                // Result discarded; a bare `x;` emits nothing and its
                // burns ride on the next instruction.
                self.expr_value(e)?;
                Ok(())
            }
            Stmt::PoolInit { pool, elem_size } => {
                let reg = match self.pools.get(pool.as_str()) {
                    Some(&r) => r,
                    None => {
                        let r = self.npools;
                        self.npools += 1;
                        self.pools.insert(pool.as_str(), r);
                        r
                    }
                };
                let cost = self.take_pending();
                self.emit(Insn::PoolCreate { cost, dst: reg, elem_size: *elem_size as u32 });
                Ok(())
            }
            Stmt::PoolDestroy { pool } => {
                let reg = self.resolve_pool(Some(pool), Span::NONE)?;
                let cost = self.take_pending();
                self.emit(Insn::PoolDestroy { cost, pool: reg });
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_apa::parse;

    fn compile_err(src: &str) -> CompileError {
        compile(&parse(src).unwrap()).unwrap_err()
    }

    #[test]
    fn undefined_variable_is_a_compile_error() {
        let err = compile_err("fn main() { print(x); }");
        assert_eq!(err.to_string(), "in `main`: undefined variable `x`");
    }

    #[test]
    fn undefined_function_is_a_compile_error() {
        let err = compile_err("fn main() { frobnicate(1); }");
        assert_eq!(err.to_string(), "in `main`: undefined function `frobnicate`");
    }

    #[test]
    fn out_of_scope_pool_is_a_spanned_compile_error() {
        // The parser has no pool syntax — pool annotations are stamped by
        // the transform — so mutate a parsed AST the way a buggy transform
        // would: a `free` naming a pool descriptor nothing declared.
        let mut prog = parse(
            "struct s { v: int }\n\
             fn main() {\n    \
                 var p: ptr<s> = malloc(s);\n    \
                 free(p);\n\
             }",
        )
        .unwrap();
        let Stmt::Free { pool, .. } = &mut prog.funcs[0].body[1] else { panic!() };
        *pool = Some("__pool9".into());
        let err = compile(&prog).unwrap_err();
        assert_eq!(
            err.to_string(),
            "in `main` at 4:5: pool descriptor `__pool9` not in scope"
        );
    }

    #[test]
    fn undefined_struct_is_a_spanned_compile_error() {
        let err = compile_err("fn main() {\n    var p: ptr<t> = malloc(t);\n}");
        assert_eq!(err.to_string(), "in `main` at 2:21: undefined struct or field `t`");
    }

    #[test]
    fn undefined_field_is_a_compile_error() {
        let err =
            compile_err("struct s { v: int }\nfn main() { var p: ptr<s> = malloc(s); p->w = 1; }");
        assert_eq!(err.message, "undefined struct or field `w`");
    }

    #[test]
    fn use_before_declaration_is_a_compile_error() {
        // The AST engine would execute the first print before failing;
        // compilation rejects the whole program (documented divergence).
        let err = compile_err("fn main() { print(1); print(n); var n: int = 2; }");
        assert_eq!(err.message, "undefined variable `n`");
    }

    #[test]
    fn call_arity_mismatch_is_a_compile_error() {
        let err = compile_err("fn f(a: int) -> int { return a; } fn main() { print(f(1, 2)); }");
        assert_eq!(
            err.to_string(),
            "in `main`: call to `f` passes 2 value argument(s), `f` declares 1"
        );
    }

    #[test]
    fn no_main_compiles_and_fails_at_run_time() {
        let bc = compile(&parse("fn f() {}").unwrap()).unwrap();
        assert_eq!(bc.main, None);
    }
}
