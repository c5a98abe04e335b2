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
//! AST evaluation order, since the previous instruction, and never lets
//! one float past a jump-target label (an explicit [`Insn::Tick`] is
//! emitted instead) — so the fuel consumed before every backend
//! operation, call boundary and exhaustion point equals the AST engine's.
//!
//! The VM charges `cost` against the fuel only. Fuel is its one
//! per-instruction counter, which each frame counts down in a local copy
//! of its caller's and hands back when it returns or fails; the machine
//! clock learns of the burns at a *flush*, which ticks it with the fuel
//! consumed since the last flush. Nothing reads the clock between
//! flushes, and the VM flushes
//!
//! * before every `Backend` call (`alloc`, `alloc_unchecked`, `free`,
//!   `free_unchecked`, `load`, `store`, `pool_create`, `pool_destroy`);
//! * before a `Call`'s `push_call`/`span_enter`, and again before its
//!   `span_exit`/`pop_call`;
//! * on every exit from [`run_compiled`](crate::run_compiled), `Ok` or
//!   `Err`.
//!
//! Span attribution is additive, so each flush lands its burns in the
//! span the AST engine ticked them in: the machine, the event ring, the
//! flight recorder and every backend see the AST engine's clock exactly.
//! A VM that pauses mid-run (the planned resumable VM yielding at
//! `request_exit`) must keep the fuel left and flush before it yields.
//! The differential suite in `tests/engines.rs` holds both engines to
//! identical clocks at every backend call, ring events, folded spans,
//! steps, outputs, detections and trap reports.

use dangle_apa::ast::BinOp;
use std::fmt;

/// Marker for "no slot" (`Ret` without a value).
pub const SLOT_NONE: u16 = u16::MAX;
/// Marker for "no pool annotation" on `Malloc`/`Free`.
pub const POOL_NONE: u16 = u16::MAX;

/// The binary-operator table, declared once: one row per MiniC operator.
///
/// A row names the operator's four opcodes and gives its value:
///
/// * the register form, named after its [`BinOp`]: `dst = lhs <op> rhs`;
/// * the literal form, `dst = lhs <op> imm`: a right operand that was an
///   integer literal, folded into the instruction so loops don't
///   re-materialize constants through `Const` every iteration (the
///   literal's AST burn is part of `cost`);
/// * two fused compare-and-branch forms, which branch to `target` when
///   `lhs <op> rhs` (or `lhs <op> imm`) is zero. The compiler emits them
///   when a condition's final binary op feeds only the branch (its
///   destination was a dead temporary);
/// * the value, as a `Result` of the left operand `a` and the right
///   operand `b`: wrapping arithmetic, 0/1 comparisons, non-short-circuit
///   logicals, and `DivisionByZero` on a zero divisor, in every form.
///   Division and remainder by a positive power of two take a shift and
///   mask instead of a hardware divide ([`div`], [`rem`]).
///
/// `binary_ops!(m)` expands the macro `m` on the rows, and
/// `binary_ops!(m! { args })` on `args` followed by the rows. [`Insn`],
/// its constructors, `binary_forms!` and the VM's dispatch all expand
/// from here, so each operator has its own opcode per form and the VM
/// never matches on a [`BinOp`]. The AST engine's `binop` is the
/// reference these values must equal (`tests/engines.rs`).
macro_rules! binary_ops {
    ($then:ident $(! { $($args:tt)* })?) => {
        $then! {
            $($($args)*)?
            Add AddImm BrzAdd BrzAddImm = |a, b| Ok(a.wrapping_add(b));
            Sub SubImm BrzSub BrzSubImm = |a, b| Ok(a.wrapping_sub(b));
            Mul MulImm BrzMul BrzMulImm = |a, b| Ok(a.wrapping_mul(b));
            Div DivImm BrzDiv BrzDivImm = |a, b| match b {
                0 => Err($crate::RunError::DivisionByZero),
                _ => Ok($crate::bytecode::div(a, b)),
            };
            Rem RemImm BrzRem BrzRemImm = |a, b| match b {
                0 => Err($crate::RunError::DivisionByZero),
                _ => Ok($crate::bytecode::rem(a, b)),
            };
            Lt LtImm BrzLt BrzLtImm = |a, b| Ok(i64::from(a < b));
            Le LeImm BrzLe BrzLeImm = |a, b| Ok(i64::from(a <= b));
            Gt GtImm BrzGt BrzGtImm = |a, b| Ok(i64::from(a > b));
            Ge GeImm BrzGe BrzGeImm = |a, b| Ok(i64::from(a >= b));
            Eq EqImm BrzEq BrzEqImm = |a, b| Ok(i64::from(a == b));
            Ne NeImm BrzNe BrzNeImm = |a, b| Ok(i64::from(a != b));
            And AndImm BrzAnd BrzAndImm = |a, b| Ok(i64::from(a != 0 && b != 0));
            Or OrImm BrzOr BrzOrImm = |a, b| Ok(i64::from(a != 0 || b != 0));
        }
    };
}
pub(crate) use binary_ops;

/// `a.wrapping_div(b)` for a nonzero `b`, by an arithmetic shift when `b`
/// is a positive power of two. The shift rounds toward minus infinity, so
/// a negative dividend is first biased by `b - 1` to round toward zero,
/// as the divide does; `a + bias` cannot overflow, since the bias is only
/// added to a negative `a`. The one quotient that wraps, `i64::MIN / -1`,
/// has a negative divisor and takes the divide.
#[inline(always)]
pub(crate) fn div(a: i64, b: i64) -> i64 {
    if b > 0 && b & (b - 1) == 0 {
        (a + ((a >> 63) & (b - 1))) >> b.trailing_zeros()
    } else {
        a.wrapping_div(b)
    }
}

/// `a.wrapping_rem(b)` for a nonzero `b`, by a mask when `b` is a positive
/// power of two: `a` minus its quotient times `b`, that product being the
/// biased dividend of [`div`] with its low bits cleared. A nonzero
/// result has the sign of `a`, as the divide's does.
#[inline(always)]
pub(crate) fn rem(a: i64, b: i64) -> i64 {
    if b > 0 && b & (b - 1) == 0 {
        a - ((a + ((a >> 63) & (b - 1))) & -b)
    } else {
        a.wrapping_rem(b)
    }
}

/// Expands, in pattern position, to the or-pattern of one form of every
/// operator in [`binary_ops!`], each alternative with the same fields:
/// `binary_forms!(bin { dst, lhs, rhs, .. })` matches every register form,
/// and `bin_imm`, `brz` and `brz_imm` select the literal and the two
/// branch forms.
macro_rules! binary_forms {
    ($form:ident $fields:tt) => {
        $crate::bytecode::binary_ops!(binary_forms! { @$form $fields })
    };
    (@bin $fields:tt $($bin:ident $bin_imm:ident $brz:ident $brz_imm:ident = $value:expr;)*) => {
        $($crate::bytecode::Insn::$bin $fields)|*
    };
    (@bin_imm $fields:tt $($bin:ident $bin_imm:ident $brz:ident $brz_imm:ident = $value:expr;)*) => {
        $($crate::bytecode::Insn::$bin_imm $fields)|*
    };
    (@brz $fields:tt $($bin:ident $bin_imm:ident $brz:ident $brz_imm:ident = $value:expr;)*) => {
        $($crate::bytecode::Insn::$brz $fields)|*
    };
    (@brz_imm $fields:tt $($bin:ident $bin_imm:ident $brz:ident $brz_imm:ident = $value:expr;)*) => {
        $($crate::bytecode::Insn::$brz_imm $fields)|*
    };
}
pub(crate) use binary_forms;

/// Expands [`Insn`] from the rows of [`binary_ops!`]: the instructions
/// that are not binary operators, written out here, then four per row.
macro_rules! define_insn {
    ($($bin:ident $bin_imm:ident $brz:ident $brz_imm:ident = $value:expr;)*) => {
        /// One register-bytecode instruction.
        ///
        /// Slots index the current frame's value registers; `pool` operands
        /// index the frame's pool-descriptor registers; `target`s are
        /// instruction indexes within the same function. Every variant's
        /// `cost` is the number of coalesced AST burns charged (fuel, steps
        /// and clock) *before* the instruction's own effect. Each binary
        /// operator has four variants of its own, one per form of the
        /// crate's operator table (`binary_ops!`).
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
            /// Unconditional branch.
            Jump { cost: u32, target: u32 },
            /// Branch to `target` when `cond == 0`.
            JumpIfZero { cost: u32, cond: u16, target: u32 },
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
            $(
                #[doc = concat!("`dst = lhs <op> rhs` for [`BinOp::", stringify!($bin), "`].")]
                $bin { cost: u32, dst: u16, lhs: u16, rhs: u16 },
                #[doc = concat!("`dst = lhs <op> imm` for [`BinOp::", stringify!($bin), "`].")]
                $bin_imm { cost: u32, dst: u16, lhs: u16, imm: i64 },
                #[doc = concat!(
                    "Branch to `target` when `lhs <op> rhs == 0`, for [`BinOp::",
                    stringify!($bin),
                    "`]."
                )]
                $brz { cost: u32, lhs: u16, rhs: u16, target: u32 },
                #[doc = concat!(
                    "Branch to `target` when `lhs <op> imm == 0`, for [`BinOp::",
                    stringify!($bin),
                    "`]."
                )]
                $brz_imm { cost: u32, lhs: u16, imm: i64, target: u32 },
            )*
        }

        impl Insn {
            /// The coalesced-burn cost charged before this instruction executes.
            pub fn cost(&self) -> u32 {
                match self {
                    Insn::Const { cost, .. }
                    | Insn::Copy { cost, .. }
                    | Insn::GlobalGet { cost, .. }
                    | Insn::GlobalSet { cost, .. }
                    | Insn::Jump { cost, .. }
                    | Insn::JumpIfZero { cost, .. }
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
                    | Insn::FailNotPtr { cost, .. }
                    $(
                        | Insn::$bin { cost, .. }
                        | Insn::$bin_imm { cost, .. }
                        | Insn::$brz { cost, .. }
                        | Insn::$brz_imm { cost, .. }
                    )* => *cost,
                }
            }

            /// The operator of a binary-operator instruction, in any form.
            pub fn operator(&self) -> Option<BinOp> {
                match self {
                    $(
                        Insn::$bin { .. }
                        | Insn::$bin_imm { .. }
                        | Insn::$brz { .. }
                        | Insn::$brz_imm { .. } => Some(BinOp::$bin),
                    )*
                    _ => None,
                }
            }

            /// `dst = lhs <op> rhs`: the register form of `op`.
            pub fn bin(op: BinOp, cost: u32, dst: u16, lhs: u16, rhs: u16) -> Insn {
                match op {
                    $(BinOp::$bin => Insn::$bin { cost, dst, lhs, rhs },)*
                }
            }

            /// `dst = lhs <op> imm`: the literal form of `op`.
            pub fn bin_imm(op: BinOp, cost: u32, dst: u16, lhs: u16, imm: i64) -> Insn {
                match op {
                    $(BinOp::$bin => Insn::$bin_imm { cost, dst, lhs, imm },)*
                }
            }

            /// Branch to `target` when `lhs <op> rhs == 0`.
            pub fn brz(op: BinOp, cost: u32, lhs: u16, rhs: u16, target: u32) -> Insn {
                match op {
                    $(BinOp::$bin => Insn::$brz { cost, lhs, rhs, target },)*
                }
            }

            /// Branch to `target` when `lhs <op> imm == 0`.
            pub fn brz_imm(op: BinOp, cost: u32, lhs: u16, imm: i64, target: u32) -> Insn {
                match op {
                    $(BinOp::$bin => Insn::$brz_imm { cost, lhs, imm, target },)*
                }
            }
        }
    };
}
binary_ops!(define_insn);

// The dispatch loop reads one instruction per step.
const _: () = assert!(std::mem::size_of::<Insn>() <= 24);

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
            let op = insn.operator().map_or(String::new(), |op| format!("{op:?}"));
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
                Insn::Jump { target, .. } => format!("jump {target}"),
                Insn::JumpIfZero { cond, target, .. } => {
                    format!("jz {} -> {target}", self.slot(cond))
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
                binary_forms!(bin { dst, lhs, rhs, .. }) => format!(
                    "bin.{op} {} <- {}, {}",
                    self.slot(dst),
                    self.slot(lhs),
                    self.slot(rhs)
                ),
                binary_forms!(bin_imm { dst, lhs, imm, .. }) => {
                    format!("bin.{op} {} <- {}, #{imm}", self.slot(dst), self.slot(lhs))
                }
                binary_forms!(brz { lhs, rhs, target, .. }) => {
                    format!("brz.{op} {}, {} -> {target}", self.slot(lhs), self.slot(rhs))
                }
                binary_forms!(brz_imm { lhs, imm, target, .. }) => {
                    format!("brz.{op} {}, #{imm} -> {target}", self.slot(lhs))
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::{div, rem};

    #[test]
    fn shift_and_mask_equal_the_divide() {
        // Every positive power of two (the shift and mask path) and its
        // negation (the divide), against dividends at and next to every
        // power of two, at the edges, and from a fixed pseudo-random walk.
        let powers: Vec<i64> = (0..63).map(|k| 1i64 << k).collect();
        let mut divisors = powers.clone();
        divisors.extend(powers.iter().map(|&p| -p));
        divisors.extend([i64::MIN, i64::MAX, 3, -3, 6, 65535, 65537]);
        let mut dividends = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        for &p in &powers {
            for d in [-1, 0, 1] {
                dividends.extend([p + d, -p + d]);
            }
        }
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..256 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            dividends.push(x as i64);
        }
        for &b in &divisors {
            for &a in &dividends {
                assert_eq!(div(a, b), a.wrapping_div(b), "{a} / {b}");
                assert_eq!(rem(a, b), a.wrapping_rem(b), "{a} % {b}");
            }
        }
    }
}
