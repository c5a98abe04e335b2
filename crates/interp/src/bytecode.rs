//! The MiniC register-bytecode ISA.
//!
//! [`compile`](fn@crate::compile) lowers a (possibly pool-transformed) MiniC
//! [`Program`](dangle_apa::ast::Program) into one flat [`Vec<Insn>`] per
//! function. Every name the AST interpreter resolves per access —
//! variables, globals, pool descriptors, struct fields, callees — is
//! resolved here **once**, to a numeric slot, byte offset or function
//! index, so the [`vm`](crate::vm) dispatch loop touches only dense
//! arrays.
//!
//! ## Cost accounting
//!
//! The AST interpreter burns one fuel unit (and one machine cycle) per
//! expression node and per statement. The compiler coalesces those burns:
//! each instruction carries the `cost` of every AST burn that happens, in
//! AST evaluation order, since the previous instruction. Because
//! `Machine::tick` funnels into a single clock add, charging `cost` at
//! once is cycle-exact as long as the cumulative charge before every
//! backend operation (and at every span/call boundary) equals the AST
//! engine's — which the compiler guarantees by flushing pending burns into
//! the *next* emitted instruction and never letting them float past a
//! jump-target label (an explicit [`Insn::Tick`] is emitted instead).
//! The differential suite in `tests/engines.rs` holds both engines to
//! identical clocks, steps, outputs, detections and trap reports.

use dangle_apa::ast::BinOp;
use std::fmt;

/// Marker for "no slot" (`Ret` without a value).
pub const SLOT_NONE: u16 = u16::MAX;
/// Marker for "no pool annotation" on `Malloc`/`Free`.
pub const POOL_NONE: u16 = u16::MAX;

/// One register-bytecode instruction.
///
/// Slots index the current frame's value registers; `pool` operands index
/// the frame's pool-descriptor registers; `target`s are instruction
/// indexes within the same function. Every variant's `cost` is the number
/// of coalesced AST burns charged (fuel, steps and clock) *before* the
/// instruction's own effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insn {
    /// `dst = val`.
    Const { cost: u32, dst: u16, val: i64 },
    /// `dst = src` (register move; also materializes call arguments).
    Copy { cost: u32, dst: u16, src: u16 },
    /// `dst = globals[idx]`.
    GlobalGet { cost: u32, dst: u16, idx: u16 },
    /// `globals[idx] = src`.
    GlobalSet { cost: u32, idx: u16, src: u16 },
    /// `dst = lhs <op> rhs` (Div/Rem trap on a zero divisor).
    Bin { cost: u32, op: BinOp, dst: u16, lhs: u16, rhs: u16 },
    /// `dst = lhs <op> imm` — a [`Insn::Bin`] whose right operand was an
    /// integer literal, folded into the instruction so loops don't
    /// re-materialize constants through `Const` every iteration. The
    /// literal's AST burn is part of `cost`.
    BinImm { cost: u32, op: BinOp, dst: u16, lhs: u16, imm: i64 },
    /// Unconditional branch.
    Jump { cost: u32, target: u32 },
    /// Branch to `target` when `cond == 0`.
    JumpIfZero { cost: u32, cond: u16, target: u32 },
    /// Fused compare-and-branch: branch to `target` when
    /// `lhs <op> rhs == 0`. Emitted when a condition's final binary op
    /// feeds only the branch (its destination was a dead temporary);
    /// Div/Rem still trap on a zero divisor first.
    BrZero { cost: u32, op: BinOp, lhs: u16, rhs: u16, target: u32 },
    /// [`Insn::BrZero`] with a literal right operand.
    BrZeroImm { cost: u32, op: BinOp, lhs: u16, imm: i64, target: u32 },
    /// Charge `cost` and do nothing else — flushes pending burns before a
    /// jump-target label so costs never migrate across control-flow joins.
    Tick { cost: u32 },
    /// `dst = base + index * elem_size`; traps `NullDereference` when
    /// `base == 0` (the AST's `Expr::Index` check order).
    Index { cost: u32, dst: u16, base: u16, index: u16, elem_size: u32 },
    /// `dst = *(base + offset)` through the backend (8-byte load); traps
    /// `NullDereference` when `base == 0`.
    LoadField { cost: u32, dst: u16, base: u16, offset: u32 },
    /// `*(base + offset) = src` through the backend; traps on null base.
    StoreField { cost: u32, base: u16, offset: u32, src: u16 },
    /// `dst = alloc(size)` (+ calloc-style zero-init of `nfields` words),
    /// from pool register `pool` unless `POOL_NONE`. `unchecked` carries
    /// the dangle-lint elision stamp to `Backend::alloc_unchecked`.
    Malloc { cost: u32, dst: u16, size: u32, nfields: u16, pool: u16, unchecked: bool },
    /// Array form: `count` register holds the element count (range-checked
    /// to `0..=1<<20` like the AST engine).
    MallocArray {
        cost: u32,
        dst: u16,
        count: u16,
        elem_size: u32,
        nfields: u16,
        pool: u16,
        unchecked: bool,
    },
    /// `free(src)` — a no-op when `src == 0`; `unchecked` routes to
    /// `Backend::free_unchecked`.
    Free { cost: u32, src: u16, pool: u16, unchecked: bool },
    /// `pools[dst] = backend.pool_create(elem_size)`.
    PoolCreate { cost: u32, dst: u16, elem_size: u32 },
    /// `backend.pool_destroy(pools[pool])`.
    PoolDestroy { cost: u32, pool: u16 },
    /// `dst = call(sites[site])` — argument and pool-argument slot lists
    /// live in the function's [`CallSite`] side table to keep `Insn`
    /// small and `Copy`.
    Call { cost: u32, dst: u16, site: u32 },
    /// Return `src` (or 0 when `SLOT_NONE`) to the caller.
    Ret { cost: u32, src: u16 },
    /// Append `src` to the program output.
    Print { cost: u32, src: u16 },
    /// Raises `NullDereference` when `base == 0`, else `NotAPointer` —
    /// compiled for dereferences of statically non-pointer expressions
    /// (null literal, `int`, unknown struct), preserving the AST engine's
    /// check order.
    FailNotPtr { cost: u32, base: u16 },
}

impl Insn {
    /// The coalesced-burn cost charged before this instruction executes.
    pub fn cost(&self) -> u32 {
        match self {
            Insn::Const { cost, .. }
            | Insn::Copy { cost, .. }
            | Insn::GlobalGet { cost, .. }
            | Insn::GlobalSet { cost, .. }
            | Insn::Bin { cost, .. }
            | Insn::BinImm { cost, .. }
            | Insn::Jump { cost, .. }
            | Insn::JumpIfZero { cost, .. }
            | Insn::BrZero { cost, .. }
            | Insn::BrZeroImm { cost, .. }
            | Insn::Tick { cost }
            | Insn::Index { cost, .. }
            | Insn::LoadField { cost, .. }
            | Insn::StoreField { cost, .. }
            | Insn::Malloc { cost, .. }
            | Insn::MallocArray { cost, .. }
            | Insn::Free { cost, .. }
            | Insn::PoolCreate { cost, .. }
            | Insn::PoolDestroy { cost, .. }
            | Insn::Call { cost, .. }
            | Insn::Ret { cost, .. }
            | Insn::Print { cost, .. }
            | Insn::FailNotPtr { cost, .. } => *cost,
        }
    }
}

/// A call site's operand lists, referenced by [`Insn::Call`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Callee function index in [`BcProgram::funcs`].
    pub func: u16,
    /// Caller slots holding the evaluated value arguments, in order.
    pub args: Vec<u16>,
    /// Caller pool registers threaded to the callee's pool parameters.
    pub pool_args: Vec<u16>,
}

/// One compiled function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BcFunc {
    /// Source name (telemetry spans and the shadow call stack use it).
    pub name: String,
    /// Value parameters (copied into slots `0..nparams` at entry).
    pub nparams: u16,
    /// Total value slots: parameters, named variables, then temporaries.
    pub nslots: u16,
    /// Pool-descriptor parameters (pool registers `0..npool_params`).
    pub npool_params: u16,
    /// Total pool registers.
    pub npools: u16,
    /// Flat instruction stream.
    pub code: Vec<Insn>,
    /// Call-site operand lists ([`Insn::Call`]'s `site` indexes here).
    pub calls: Vec<CallSite>,
    /// Slot names for the named prefix (parameters + variables), for the
    /// disassembler; temporaries print as `t<N>`.
    pub slot_names: Vec<String>,
}

/// A compiled MiniC program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BcProgram {
    /// Compiled functions; [`CallSite::func`] and `main` index here.
    pub funcs: Vec<BcFunc>,
    /// Index of `main` in `funcs` (`None` compiles fine but fails at run
    /// time with `RunError::NoMain`, exactly like the AST engine).
    pub main: Option<u16>,
    /// Global-variable names; the VM allocates one zero-initialized slot
    /// per entry, in order.
    pub global_names: Vec<String>,
}

impl BcProgram {
    /// Human-readable listing of every function — the stable text the
    /// pinned-disassembly snapshot tests compare against.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.funcs.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&f.disassemble());
        }
        out
    }
}

impl BcFunc {
    fn slot(&self, s: u16) -> String {
        if s == SLOT_NONE {
            return "_".into();
        }
        match self.slot_names.get(s as usize) {
            Some(name) => format!("%{name}"),
            None => format!("%t{}", s as usize - self.slot_names.len()),
        }
    }

    fn pool(&self, p: u16) -> String {
        if p == POOL_NONE {
            "-".into()
        } else {
            format!("$p{p}")
        }
    }

    /// Listing of this function, one instruction per line:
    /// `<pc>: [+cost] <op> <operands>`.
    pub fn disassemble(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fn {} (params {}, slots {}, pools {}/{})",
            self.name, self.nparams, self.nslots, self.npool_params, self.npools
        );
        for (pc, insn) in self.code.iter().enumerate() {
            let _ = write!(out, "  {pc:3}: [+{}] ", insn.cost());
            let line = match *insn {
                Insn::Const { dst, val, .. } => format!("const {} <- {val}", self.slot(dst)),
                Insn::Copy { dst, src, .. } => {
                    format!("copy {} <- {}", self.slot(dst), self.slot(src))
                }
                Insn::GlobalGet { dst, idx, .. } => {
                    format!("gget {} <- g{idx}", self.slot(dst))
                }
                Insn::GlobalSet { idx, src, .. } => {
                    format!("gset g{idx} <- {}", self.slot(src))
                }
                Insn::Bin { op, dst, lhs, rhs, .. } => format!(
                    "bin.{op:?} {} <- {}, {}",
                    self.slot(dst),
                    self.slot(lhs),
                    self.slot(rhs)
                ),
                Insn::BinImm { op, dst, lhs, imm, .. } => format!(
                    "bin.{op:?} {} <- {}, #{imm}",
                    self.slot(dst),
                    self.slot(lhs)
                ),
                Insn::Jump { target, .. } => format!("jump {target}"),
                Insn::JumpIfZero { cond, target, .. } => {
                    format!("jz {} -> {target}", self.slot(cond))
                }
                Insn::BrZero { op, lhs, rhs, target, .. } => format!(
                    "brz.{op:?} {}, {} -> {target}",
                    self.slot(lhs),
                    self.slot(rhs)
                ),
                Insn::BrZeroImm { op, lhs, imm, target, .. } => {
                    format!("brz.{op:?} {}, #{imm} -> {target}", self.slot(lhs))
                }
                Insn::Tick { .. } => "tick".into(),
                Insn::Index { dst, base, index, elem_size, .. } => format!(
                    "index {} <- {} [{} * {elem_size}]",
                    self.slot(dst),
                    self.slot(base),
                    self.slot(index)
                ),
                Insn::LoadField { dst, base, offset, .. } => format!(
                    "load {} <- [{} + {offset}]",
                    self.slot(dst),
                    self.slot(base)
                ),
                Insn::StoreField { base, offset, src, .. } => format!(
                    "store [{} + {offset}] <- {}",
                    self.slot(base),
                    self.slot(src)
                ),
                Insn::Malloc { dst, size, nfields, pool, unchecked, .. } => format!(
                    "malloc{} {} <- size {size} ({nfields} fields, pool {})",
                    if unchecked { ".unchecked" } else { "" },
                    self.slot(dst),
                    self.pool(pool)
                ),
                Insn::MallocArray { dst, count, elem_size, nfields, pool, unchecked, .. } => {
                    format!(
                        "malloc_array{} {} <- {} x {elem_size} ({nfields} fields, pool {})",
                        if unchecked { ".unchecked" } else { "" },
                        self.slot(dst),
                        self.slot(count),
                        self.pool(pool)
                    )
                }
                Insn::Free { src, pool, unchecked, .. } => format!(
                    "free{} {} (pool {})",
                    if unchecked { ".unchecked" } else { "" },
                    self.slot(src),
                    self.pool(pool)
                ),
                Insn::PoolCreate { dst, elem_size, .. } => {
                    format!("poolcreate {} <- elem {elem_size}", self.pool(dst))
                }
                Insn::PoolDestroy { pool, .. } => format!("pooldestroy {}", self.pool(pool)),
                Insn::Call { dst, site, .. } => {
                    let cs = &self.calls[site as usize];
                    let args: Vec<String> = cs.args.iter().map(|&a| self.slot(a)).collect();
                    let pools: Vec<String> =
                        cs.pool_args.iter().map(|&p| self.pool(p)).collect();
                    format!(
                        "call {} <- f{}({}){}",
                        self.slot(dst),
                        cs.func,
                        args.join(", "),
                        if pools.is_empty() {
                            String::new()
                        } else {
                            format!(" pools [{}]", pools.join(", "))
                        }
                    )
                }
                Insn::Ret { src, .. } => format!("ret {}", self.slot(src)),
                Insn::Print { src, .. } => format!("print {}", self.slot(src)),
                Insn::FailNotPtr { base, .. } => format!("fail.notptr {}", self.slot(base)),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}
