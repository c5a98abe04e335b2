//! Dispatch-loop VM for the register bytecode.
//!
//! Executes [`BcProgram`]s against the exact same [`Backend`] hooks as
//! the AST interpreter — alloc/free (including the `unchecked` lint
//! stamps), load/store, pool create/destroy — and the same telemetry:
//! `push_call`/`pop_call` shadow-call-stack frames and `App` spans around
//! `main` and every call, with the `?` on the callee body deliberately
//! skipping the pops so an abnormal exit freezes the stack at the
//! faulting frame (trap-report provenance is byte-identical between
//! engines). The aborted run still closes its spans on the way out; its
//! frames stay readable until the next run on the machine starts.
//!
//! Frames are contiguous windows of one shared value stack (and one pool
//! stack); slot accesses are plain indexed loads, which is where the
//! engine's host-throughput win over the `HashMap`-per-access tree
//! walker comes from. Every instruction is one arm of one `match`: each
//! binary operator's four forms have arms of their own, expanded from the
//! operator table, so no instruction dispatches twice. The `match` reads
//! the instruction in place, so each arm loads only its own operands.
//!
//! Fuel is the only per-instruction counter: the machine clock is ticked
//! at flush points, not per instruction (see the
//! [`bytecode`](crate::bytecode) module's *Cost accounting*). The loop
//! keeps its hot state in locals, which the host compiler holds in
//! registers: the fuel counter, and the frame's slot window (a pointer to
//! `stack[base]`). Each frame counts the fuel down in a local copy of its
//! caller's, handed back when the frame returns or fails; a `Call` hands
//! the callee a copy in turn. Only a `Call` can grow the value stack, so
//! the window is re-derived after each one.

use crate::backend::{Backend, BackendError, PoolHandle};
use crate::bytecode::{binary_forms, binary_ops, BcProgram, Insn, POOL_NONE, SLOT_NONE};
use crate::{RunError, RunOutcome, MAX_CALL_DEPTH};
use dangle_telemetry::Category;
use dangle_vmm::{Machine, VirtAddr};

struct Vm<'p, 'm, 'b> {
    prog: &'p BcProgram,
    machine: &'m mut Machine,
    backend: &'b mut dyn Backend,
    globals: Vec<i64>,
    /// Shared value stack; each frame is `stack[base..base + nslots]`.
    stack: Vec<i64>,
    /// Shared pool-register stack, windowed like `stack`.
    pool_stack: Vec<PoolHandle>,
    output: Vec<i64>,
    /// Fuel left at the last [`Vm::flush`]: the steps burnt since then are
    /// not yet on the machine clock.
    flushed: u64,
    /// Live MiniC frames, `main` included.
    depth: u32,
}

/// Checks the static invariants the dispatch loop's unchecked accesses
/// rely on: `main`, when present, names a real function; every slot
/// operand is in `0..nslots` (or `SLOT_NONE` where a variant allows it),
/// pool operands are in `0..npools` (or `POOL_NONE`), global indexes are
/// in range, jump targets stay inside the function, call sites reference
/// real functions with matching argument counts, and the code is
/// non-empty with an unconditional terminator last — so straight-line
/// execution can never run off the end. `compile` output satisfies this
/// by construction; hand-built programs are rejected here.
///
/// One O(code) pass per run, amortized over every executed instruction.
fn verify(prog: &BcProgram) -> Result<(), String> {
    if let Some(main) = prog.main {
        if usize::from(main) >= prog.funcs.len() {
            return Err(format!("main {main} out of {} functions", prog.funcs.len()));
        }
    }
    for f in &prog.funcs {
        let n = f.nslots;
        let len = f.code.len() as u32;
        let slot = |s: u16, what: &str| {
            if s < n { Ok(()) } else { Err(format!("{}: {what} slot {s} out of {n}", f.name)) }
        };
        let pool = |p: u16| {
            if p == POOL_NONE || p < f.npools {
                Ok(())
            } else {
                Err(format!("{}: pool register {p} out of {}", f.name, f.npools))
            }
        };
        let target = |t: u32| {
            if t < len { Ok(()) } else { Err(format!("{}: jump target {t} out of {len}", f.name)) }
        };
        if f.nparams > n {
            return Err(format!("{}: {} params exceed {n} slots", f.name, f.nparams));
        }
        if f.npool_params > f.npools {
            return Err(format!("{}: pool params exceed pool registers", f.name));
        }
        match f.code.last() {
            Some(Insn::Ret { .. }) => {}
            other => return Err(format!("{}: last insn {other:?} is not ret", f.name)),
        }
        for insn in &f.code {
            match *insn {
                Insn::Const { dst, .. } => slot(dst, "const dst")?,
                Insn::Copy { dst, src, .. } => {
                    slot(dst, "copy dst")?;
                    slot(src, "copy src")?;
                }
                Insn::GlobalGet { dst, idx, .. } => {
                    slot(dst, "gget dst")?;
                    if idx as usize >= prog.global_names.len() {
                        return Err(format!("{}: global {idx} out of range", f.name));
                    }
                }
                Insn::GlobalSet { idx, src, .. } => {
                    slot(src, "gset src")?;
                    if idx as usize >= prog.global_names.len() {
                        return Err(format!("{}: global {idx} out of range", f.name));
                    }
                }
                binary_forms!(bin { dst, lhs, rhs, .. }) => {
                    slot(dst, "bin dst")?;
                    slot(lhs, "bin lhs")?;
                    slot(rhs, "bin rhs")?;
                }
                binary_forms!(bin_imm { dst, lhs, .. }) => {
                    slot(dst, "binimm dst")?;
                    slot(lhs, "binimm lhs")?;
                }
                Insn::Jump { target: t, .. } => target(t)?,
                Insn::JumpIfZero { cond, target: t, .. } => {
                    slot(cond, "jz cond")?;
                    target(t)?;
                }
                binary_forms!(brz { lhs, rhs, target: t, .. }) => {
                    slot(lhs, "brz lhs")?;
                    slot(rhs, "brz rhs")?;
                    target(t)?;
                }
                binary_forms!(brz_imm { lhs, target: t, .. }) => {
                    slot(lhs, "brz lhs")?;
                    target(t)?;
                }
                Insn::Tick { .. } => {}
                Insn::Index { dst, base, index, .. } => {
                    slot(dst, "index dst")?;
                    slot(base, "index base")?;
                    slot(index, "index index")?;
                }
                Insn::LoadField { dst, base, .. } => {
                    slot(dst, "load dst")?;
                    slot(base, "load base")?;
                }
                Insn::StoreField { base, src, .. } => {
                    slot(base, "store base")?;
                    slot(src, "store src")?;
                }
                Insn::Malloc { dst, pool: p, .. } => {
                    slot(dst, "malloc dst")?;
                    pool(p)?;
                }
                Insn::MallocArray { dst, count, pool: p, .. } => {
                    slot(dst, "malloc_array dst")?;
                    slot(count, "malloc_array count")?;
                    pool(p)?;
                }
                Insn::Free { src, pool: p, .. } => {
                    slot(src, "free src")?;
                    pool(p)?;
                }
                Insn::PoolCreate { dst, .. } => pool(dst).and(if dst == POOL_NONE {
                    Err(format!("{}: poolcreate into POOL_NONE", f.name))
                } else {
                    Ok(())
                })?,
                Insn::PoolDestroy { pool: p, .. } => {
                    pool(p)?;
                    if p == POOL_NONE {
                        return Err(format!("{}: pooldestroy of POOL_NONE", f.name));
                    }
                }
                Insn::Call { dst, site, .. } => {
                    slot(dst, "call dst")?;
                    let cs = f
                        .calls
                        .get(site as usize)
                        .ok_or_else(|| format!("{}: call site {site} out of range", f.name))?;
                    let callee = prog
                        .funcs
                        .get(cs.func as usize)
                        .ok_or_else(|| format!("{}: callee {} out of range", f.name, cs.func))?;
                    if cs.args.len() != callee.nparams as usize {
                        return Err(format!("{}: arity mismatch calling {}", f.name, callee.name));
                    }
                    if cs.pool_args.len() != callee.npool_params as usize {
                        return Err(format!(
                            "{}: pool arity mismatch calling {}",
                            f.name, callee.name
                        ));
                    }
                    for &a in &cs.args {
                        slot(a, "call arg")?;
                    }
                    for &p in &cs.pool_args {
                        pool(p)?;
                        if p == POOL_NONE {
                            return Err(format!("{}: POOL_NONE passed as pool arg", f.name));
                        }
                    }
                }
                Insn::Ret { src, .. } => {
                    if src != SLOT_NONE {
                        slot(src, "ret src")?;
                    }
                }
                Insn::Print { src, .. } => slot(src, "print src")?,
                Insn::FailNotPtr { base, .. } => slot(base, "fail base")?,
            }
        }
    }
    Ok(())
}

/// Executes a compiled program's `main`, with at most `fuel` interpreter
/// steps — the bytecode twin of [`crate::run`].
///
/// # Errors
/// [`RunError::InvalidBytecode`] when the program fails bytecode
/// verification, before any fuel is burnt or the machine is touched
/// ([`compile`](fn@crate::compile) output always verifies; only a
/// hand-assembled [`BcProgram`] can fail). Otherwise see [`RunError`];
/// behaviour (output, steps, simulated clock, detections, trap
/// provenance) is identical to the AST engine's.
pub fn run_compiled(
    prog: &BcProgram,
    machine: &mut Machine,
    backend: &mut dyn Backend,
    fuel: u64,
) -> Result<RunOutcome, RunError> {
    verify(prog).map_err(RunError::InvalidBytecode)?;
    let Some(main) = prog.main else {
        return Err(RunError::NoMain);
    };
    let mut vm = Vm {
        prog,
        machine,
        backend,
        globals: vec![0; prog.global_names.len()],
        stack: Vec::with_capacity(256),
        pool_stack: Vec::new(),
        output: Vec::new(),
        flushed: fuel,
        depth: 1,
    };
    let f = &prog.funcs[main as usize];
    vm.stack.resize(f.nslots as usize, 0);
    vm.pool_stack.resize(f.npools as usize, 0);
    crate::enter_main(vm.machine);
    let mut left = fuel;
    let res = vm.exec(&mut left, main, 0, 0);
    vm.flush(left);
    if let Err(e) = res {
        crate::abort_frames(vm.machine, vm.depth);
        return Err(e);
    }
    vm.machine.span_exit();
    vm.machine.telemetry_mut().pop_call();
    // Fuel is the only per-instruction counter, so the step count is just
    // the fuel consumed.
    Ok(RunOutcome { output: vm.output, steps_used: fuel - left })
}

/// Expands to one `match *$insn` holding the `$arms` given and four arms
/// per row of the operator table, one per form, each computing its own
/// operator inline: a binary instruction costs one dispatch, like every
/// other.
macro_rules! dispatch {
    ($insn:ident, $fuel:ident, $slots:ident, $pc:ident, { $($arms:tt)* }
     $($bin:ident $bin_imm:ident $brz:ident $brz_imm:ident = |$a:ident, $b:ident| $value:expr;)*) => {
        match *$insn {
            $($arms)*
            $(
                Insn::$bin { cost, dst, lhs, rhs } => {
                    charge($fuel, cost)?;
                    let $a = $slots.get(lhs);
                    let $b = $slots.get(rhs);
                    let v: Result<i64, RunError> = $value;
                    $slots.set(dst, v?);
                }
                Insn::$bin_imm { cost, dst, lhs, imm } => {
                    charge($fuel, cost)?;
                    let $a = $slots.get(lhs);
                    let $b = imm;
                    let v: Result<i64, RunError> = $value;
                    $slots.set(dst, v?);
                }
                Insn::$brz { cost, lhs, rhs, target } => {
                    charge($fuel, cost)?;
                    let $a = $slots.get(lhs);
                    let $b = $slots.get(rhs);
                    let v: Result<i64, RunError> = $value;
                    if v? == 0 {
                        $pc = target as usize;
                    }
                }
                Insn::$brz_imm { cost, lhs, imm, target } => {
                    charge($fuel, cost)?;
                    let $a = $slots.get(lhs);
                    let $b = imm;
                    let v: Result<i64, RunError> = $value;
                    if v? == 0 {
                        $pc = target as usize;
                    }
                }
            )*
        }
    };
}

/// Charges `cost` coalesced burns against `fuel`, the fuel left;
/// exhaustion mid-charge still burns the remaining fuel before failing,
/// matching the AST engine's one-burn-at-a-time exhaustion point. The
/// burns reach the machine clock at the next [`Vm::flush`].
#[inline(always)]
fn charge(fuel: &mut u64, cost: u32) -> Result<(), RunError> {
    let cost = u64::from(cost);
    if *fuel < cost {
        *fuel = 0;
        return Err(RunError::OutOfFuel);
    }
    *fuel -= cost;
    Ok(())
}

/// A frame's value slots, `stack[base..base + nslots]`, as the pointer
/// [`Vm::exec`] keeps in a register: a slot access adds the slot to it,
/// without reloading the stack's buffer first.
#[derive(Clone, Copy)]
struct Slots {
    ptr: *mut i64,
    /// The frame's `nslots`, for the debug-build bounds check.
    len: u16,
}

impl Slots {
    /// Reads slot `s`.
    ///
    /// Contract (callers): `s` is a slot operand of the frame's own code,
    /// and `self` was derived after the frame's last `Call` returned.
    #[inline(always)]
    fn get(self, s: u16) -> i64 {
        debug_assert!(s < self.len);
        // SAFETY: [`verify`] checked every slot operand of the function
        // against its `nslots`, so `s` is inside the window. The window
        // was derived from the value stack at frame entry or after the
        // frame's last `Call`; a `Call` is the only instruction that
        // resizes the stack, and it truncates it back to at least
        // `base + nslots`, so the buffer has not moved since.
        unsafe { *self.ptr.add(usize::from(s)) }
    }

    /// Writes slot `s`; same contract as [`Slots::get`].
    #[inline(always)]
    fn set(self, s: u16, v: i64) {
        debug_assert!(s < self.len);
        // SAFETY: as in [`Slots::get`]: `s < nslots` by [`verify`], and
        // the window was re-derived after the frame's last `Call`.
        unsafe { *self.ptr.add(usize::from(s)) = v }
    }
}

impl Vm<'_, '_, '_> {
    /// Ticks the machine with the fuel burnt since the last flush, `fuel`
    /// being the fuel left now. Nothing reads the clock between two
    /// flushes, so the VM flushes only where the AST engine's per-burn
    /// clock is observable: before every `Backend` call, before a call's
    /// `push_call`/`span_enter` and again before its `span_exit`/`pop_call`,
    /// and on every exit from [`run_compiled`]. Each flush lands the burns
    /// in the span the AST engine ticked them in, so clocks, event stamps
    /// and span attribution are identical between engines. A VM that
    /// yields mid-run must keep the fuel left and flush first.
    #[inline(always)]
    fn flush(&mut self, fuel: u64) {
        let burnt = self.flushed - fuel;
        if burnt > 0 {
            self.machine.tick(burnt);
            self.flushed = fuel;
        }
    }

    /// The slot window of a frame of `nslots` slots at `base`.
    #[inline(always)]
    fn slots(&mut self, base: usize, nslots: u16) -> Slots {
        let window = &mut self.stack[base..base + usize::from(nslots)];
        Slots { ptr: window.as_mut_ptr(), len: nslots }
    }

    /// Runs function `fidx` in the frame at `base` (value stack) and
    /// `pbase` (pool stack), counting `fuel`, the fuel left, down however
    /// the frame ends.
    fn exec(
        &mut self,
        fuel: &mut u64,
        fidx: u16,
        base: usize,
        pbase: usize,
    ) -> Result<i64, RunError> {
        let mut left = *fuel;
        let res = self.run_frame(&mut left, fidx, base, pbase);
        *fuel = left;
        res
    }

    /// The dispatch loop of [`Vm::exec`], inlined into it so that `fuel`
    /// points at a local whose address never escapes: the host compiler
    /// then holds it in a register. Counted through `exec`'s own `&mut`,
    /// every charge would load and store it.
    #[inline(always)]
    fn run_frame(
        &mut self,
        fuel: &mut u64,
        fidx: u16,
        base: usize,
        pbase: usize,
    ) -> Result<i64, RunError> {
        let prog = self.prog;
        let func = &prog.funcs[fidx as usize];
        let code = func.code.as_slice();
        let mut slots = self.slots(base, func.nslots);
        let mut pc = 0usize;
        loop {
            // SAFETY: pc starts at 0 on non-empty code; [`verify`] checked
            // every jump target is in-bounds and the last instruction is
            // an unconditional `ret`, so fall-through never passes the end.
            debug_assert!(pc < code.len());
            let insn = unsafe { code.get_unchecked(pc) };
            pc += 1;
            // One flat `match`: the arms below, plus the operator table's
            // four forms per operator.
            binary_ops!(dispatch! { insn, fuel, slots, pc, {
                Insn::Const { cost, dst, val } => {
                    charge(fuel, cost)?;
                    slots.set(dst, val);
                }
                Insn::Copy { cost, dst, src } => {
                    charge(fuel, cost)?;
                    slots.set(dst, slots.get(src));
                }
                Insn::GlobalGet { cost, dst, idx } => {
                    charge(fuel, cost)?;
                    // SAFETY: `idx` verified against `global_names`, and
                    // `globals` is sized from it in `run_compiled`.
                    let v = unsafe { *self.globals.get_unchecked(idx as usize) };
                    slots.set(dst, v);
                }
                Insn::GlobalSet { cost, idx, src } => {
                    charge(fuel, cost)?;
                    let v = slots.get(src);
                    // SAFETY: as in `GlobalGet`.
                    unsafe {
                        *self.globals.get_unchecked_mut(idx as usize) = v;
                    }
                }
                Insn::Jump { cost, target } => {
                    charge(fuel, cost)?;
                    pc = target as usize;
                }
                Insn::JumpIfZero { cost, cond, target } => {
                    charge(fuel, cost)?;
                    if slots.get(cond) == 0 {
                        pc = target as usize;
                    }
                }
                Insn::Tick { cost } => {
                    charge(fuel, cost)?;
                }
                Insn::Index { cost, dst, base: b, index, elem_size } => {
                    charge(fuel, cost)?;
                    let bv = slots.get(b);
                    let iv = slots.get(index);
                    if bv == 0 {
                        return Err(RunError::NullDereference);
                    }
                    let addr =
                        (bv as u64).wrapping_add((iv as u64).wrapping_mul(u64::from(elem_size)));
                    slots.set(dst, addr as i64);
                }
                Insn::LoadField { cost, dst, base: b, offset } => {
                    charge(fuel, cost)?;
                    let bv = slots.get(b);
                    if bv == 0 {
                        return Err(RunError::NullDereference);
                    }
                    self.flush(*fuel);
                    let raw = self.backend.load(
                        self.machine,
                        VirtAddr(bv as u64).add(u64::from(offset)),
                        8,
                    )?;
                    slots.set(dst, raw as i64);
                }
                Insn::StoreField { cost, base: b, offset, src } => {
                    charge(fuel, cost)?;
                    let v = slots.get(src);
                    let bv = slots.get(b);
                    if bv == 0 {
                        return Err(RunError::NullDereference);
                    }
                    self.flush(*fuel);
                    self.backend.store(
                        self.machine,
                        VirtAddr(bv as u64).add(u64::from(offset)),
                        8,
                        v as u64,
                    )?;
                }
                Insn::Malloc { cost, dst, size, nfields, pool, unchecked } => {
                    charge(fuel, cost)?;
                    let handle = self.pool_handle(pbase, pool);
                    self.flush(*fuel);
                    let addr = if unchecked {
                        self.backend.alloc_unchecked(self.machine, size as usize, handle)?
                    } else {
                        self.backend.alloc(self.machine, size as usize, handle)?
                    };
                    // Calloc semantics, one word per field — the AST
                    // engine's exact store sequence. Nothing is charged
                    // between these calls, so there is nothing to flush.
                    for i in 0..u64::from(nfields) {
                        self.backend.store(self.machine, addr.add(i * 8), 8, 0)?;
                    }
                    slots.set(dst, addr.raw() as i64);
                }
                Insn::MallocArray { cost, dst, count, elem_size, nfields, pool, unchecked } => {
                    charge(fuel, cost)?;
                    let n = slots.get(count);
                    if !(0..=1 << 20).contains(&n) {
                        return Err(RunError::Backend(BackendError::Other(format!(
                            "malloc_array count {n} out of range"
                        ))));
                    }
                    let total = elem_size as usize * (n.max(1) as usize);
                    let handle = self.pool_handle(pbase, pool);
                    self.flush(*fuel);
                    let addr = if unchecked {
                        self.backend.alloc_unchecked(self.machine, total, handle)?
                    } else {
                        self.backend.alloc(self.machine, total, handle)?
                    };
                    for i in 0..u64::from(nfields) * n.max(1) as u64 {
                        self.backend.store(self.machine, addr.add(i * 8), 8, 0)?;
                    }
                    slots.set(dst, addr.raw() as i64);
                }
                Insn::Free { cost, src, pool, unchecked } => {
                    charge(fuel, cost)?;
                    let v = slots.get(src);
                    if v != 0 {
                        let handle = self.pool_handle(pbase, pool);
                        self.flush(*fuel);
                        if unchecked {
                            self.backend.free_unchecked(
                                self.machine,
                                VirtAddr(v as u64),
                                handle,
                            )?;
                        } else {
                            self.backend.free(self.machine, VirtAddr(v as u64), handle)?;
                        }
                    }
                }
                Insn::PoolCreate { cost, dst, elem_size } => {
                    charge(fuel, cost)?;
                    self.flush(*fuel);
                    let h = self.backend.pool_create(self.machine, elem_size as usize)?;
                    self.pool_stack[pbase + dst as usize] = h;
                }
                Insn::PoolDestroy { cost, pool } => {
                    charge(fuel, cost)?;
                    let h = self.pool_stack[pbase + pool as usize];
                    self.flush(*fuel);
                    self.backend.pool_destroy(self.machine, h)?;
                }
                Insn::Call { cost, dst, site } => {
                    charge(fuel, cost)?;
                    // The AST engine's check point: arguments evaluated,
                    // callee frame not yet pushed.
                    if self.depth >= MAX_CALL_DEPTH {
                        return Err(RunError::CallDepthExceeded);
                    }
                    let cs = &func.calls[site as usize];
                    let callee = &prog.funcs[cs.func as usize];
                    let nbase = self.stack.len();
                    self.stack.resize(nbase + callee.nslots as usize, 0);
                    for (i, &a) in cs.args.iter().enumerate() {
                        self.stack[nbase + i] = self.stack[base + a as usize];
                    }
                    let npbase = self.pool_stack.len();
                    self.pool_stack.resize(npbase + callee.npools as usize, 0);
                    for (i, &p) in cs.pool_args.iter().enumerate() {
                        self.pool_stack[npbase + i] = self.pool_stack[pbase + p as usize];
                    }
                    // An error path keeps the callee on the shadow stack,
                    // exactly like the AST engine.
                    self.depth += 1;
                    self.flush(*fuel);
                    self.machine.telemetry_mut().push_call(&callee.name);
                    self.machine.span_enter(&callee.name, Category::App);
                    // The callee counts down a copy, on error too, so
                    // that `fuel`'s local stays in a register.
                    let mut left = *fuel;
                    let v = self.exec(&mut left, cs.func, nbase, npbase);
                    *fuel = left;
                    let v = v?;
                    self.flush(*fuel);
                    self.machine.span_exit();
                    self.machine.telemetry_mut().pop_call();
                    self.depth -= 1;
                    self.stack.truncate(nbase);
                    self.pool_stack.truncate(npbase);
                    // The callee's frame may have moved the stack's buffer.
                    slots = self.slots(base, func.nslots);
                    slots.set(dst, v);
                }
                Insn::Ret { cost, src } => {
                    charge(fuel, cost)?;
                    return Ok(if src == SLOT_NONE { 0 } else { slots.get(src) });
                }
                Insn::Print { cost, src } => {
                    charge(fuel, cost)?;
                    self.output.push(slots.get(src));
                }
                Insn::FailNotPtr { cost, base: b } => {
                    charge(fuel, cost)?;
                    return Err(if slots.get(b) == 0 {
                        RunError::NullDereference
                    } else {
                        RunError::NotAPointer
                    });
                }
            }});
        }
    }

    #[inline]
    fn pool_handle(&self, pbase: usize, pool: u16) -> Option<PoolHandle> {
        if pool == POOL_NONE {
            None
        } else {
            Some(self.pool_stack[pbase + pool as usize])
        }
    }
}
