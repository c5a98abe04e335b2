//! The bytecode verifier, one rule at a time.
//!
//! The VM's dispatch loop indexes slots, globals and code without bounds
//! checks; the verifier is the whole argument that this is sound. Each test
//! here makes one minimal mutation of a compiled program that would break
//! one of the verifier's rules, and asserts that `run_compiled` returns
//! [`RunError::InvalidBytecode`] naming it, before any fuel is burnt or
//! the machine or the backend is touched.

use dangle_apa::ast::BinOp;
use dangle_apa::{parse, pool_allocate};
use dangle_interp::backend::ShadowPoolBackend;
use dangle_interp::bytecode::{BcFunc, BcProgram, Insn, POOL_NONE, SLOT_NONE};
use dangle_interp::{compile, run_compiled, RunError};
use dangle_vmm::Machine;
use std::collections::HashSet;
use std::mem::discriminant;

const FUEL: u64 = 1_000_000;

/// The program every test mutates, pool-transformed so that it has pool
/// registers, a pool argument, a global, a rotated loop, an `if`/`else`
/// (whose `jump` over the `else` block is the only `jump`) and a call
/// with arguments:
///
/// ```text
/// fn push (params 2, slots 3, pools 1/1)
///     0: [+2] malloc %n <- size 16 (2 fields, pool $p0)
///     1: [+3] store [%n + 8] <- %v
///     2: [+3] store [%n + 0] <- %head
///     3: [+2] ret %n
///     4: [+0] ret _
///
/// fn main (params 0, slots 4, pools 0/1)
///     0: [+1] poolcreate $p0 <- elem 16
///     1: [+2] const %head <- 0
///     2: [+2] const %i <- 0
///     3: [+4] brz.Lt %i, #3 -> 10
///     4: [+4] call %head <- f0(%head, %i) pools [$p0]
///     5: [+3] gget %t1 <- g0
///     6: [+1] bin.Add %t0 <- %t1, %i
///     7: [+0] gset g0 <- %t0
///     8: [+4] bin.Add %i <- %i, #1
///     9: [+3] brz.Ge %i, #3 -> 4
///    10: [+4] brz.Eq %i, #3 -> 13
///    11: [+2] free %head (pool $p0)
///    12: [+0] jump 14
///    13: [+2] print %i
///    14: [+2] gget %t0 <- g0
///    15: [+0] print %t0
///    16: [+1] pooldestroy $p0
///    17: [+0] ret _
/// ```
fn base() -> BcProgram {
    let src = "
        struct node { next: ptr<node>, val: int }
        global total: int;
        fn push(head: ptr<node>, v: int) -> ptr<node> {
            var n: ptr<node> = malloc(node);
            n->val = v;
            n->next = head;
            return n;
        }
        fn main() {
            var head: ptr<node> = null;
            var i: int = 0;
            while (i < 3) {
                head = push(head, i);
                total = total + i;
                i = i + 1;
            }
            if (i == 3) {
                free(head);
            } else {
                print(i);
            }
            print(total);
        }";
    let (pooled, _) = pool_allocate(&parse(src).unwrap());
    compile(&pooled).unwrap()
}

fn func<'a>(prog: &'a mut BcProgram, name: &str) -> &'a mut BcFunc {
    prog.funcs.iter_mut().find(|f| f.name == name).unwrap()
}

/// Index of the first instruction of `f` matching `pred`.
fn find(f: &BcFunc, pred: impl Fn(&Insn) -> bool) -> usize {
    f.code.iter().position(pred).unwrap()
}

/// Asserts that `prog` is rejected with a message containing `want`,
/// leaving the machine exactly as it found it.
fn assert_rejected(prog: &BcProgram, want: &str) {
    let mut machine = Machine::new();
    let mut backend = ShadowPoolBackend::new();
    let before = machine.metrics_snapshot();
    match run_compiled(prog, &mut machine, &mut backend, FUEL) {
        Err(RunError::InvalidBytecode(msg)) => {
            assert!(msg.contains(want), "rejected for {msg:?}, expected {want:?}");
        }
        other => panic!("expected InvalidBytecode({want:?}), got {other:?}"),
    }
    assert_eq!(machine.clock(), 0, "{want}: cycles charged");
    assert_eq!(machine.metrics_snapshot(), before, "{want}: machine touched");
    assert!(machine.telemetry().call_stack().is_empty(), "{want}: frames pushed");
}

/// Every slot operand of `insn` (the `SLOT_NONE` of a valueless `ret`
/// excluded).
fn slot_operands(insn: &mut Insn) -> Vec<&mut u16> {
    match insn {
        Insn::Const { dst, .. } | Insn::GlobalGet { dst, .. } | Insn::Malloc { dst, .. } => {
            vec![dst]
        }
        Insn::Call { dst, .. } => vec![dst],
        Insn::Copy { dst, src, .. } => vec![dst, src],
        Insn::GlobalSet { src, .. } | Insn::Print { src, .. } | Insn::Free { src, .. } => vec![src],
        Insn::JumpIfZero { cond, .. } => vec![cond],
        Insn::Index { dst, base, index, .. } => vec![dst, base, index],
        Insn::LoadField { dst, base, .. } => vec![dst, base],
        Insn::StoreField { base, src, .. } => vec![base, src],
        Insn::MallocArray { dst, count, .. } => vec![dst, count],
        Insn::FailNotPtr { base, .. } => vec![base],
        Insn::Ret { src, .. } if *src != SLOT_NONE => vec![src],
        Insn::Ret { .. }
        | Insn::Jump { .. }
        | Insn::Tick { .. }
        | Insn::PoolCreate { .. }
        | Insn::PoolDestroy { .. } => vec![],
        Insn::Add { dst, lhs, rhs, .. }
        | Insn::Sub { dst, lhs, rhs, .. }
        | Insn::Mul { dst, lhs, rhs, .. }
        | Insn::Div { dst, lhs, rhs, .. }
        | Insn::Rem { dst, lhs, rhs, .. }
        | Insn::Lt { dst, lhs, rhs, .. }
        | Insn::Le { dst, lhs, rhs, .. }
        | Insn::Gt { dst, lhs, rhs, .. }
        | Insn::Ge { dst, lhs, rhs, .. }
        | Insn::Eq { dst, lhs, rhs, .. }
        | Insn::Ne { dst, lhs, rhs, .. }
        | Insn::And { dst, lhs, rhs, .. }
        | Insn::Or { dst, lhs, rhs, .. } => vec![dst, lhs, rhs],
        Insn::AddImm { dst, lhs, .. }
        | Insn::SubImm { dst, lhs, .. }
        | Insn::MulImm { dst, lhs, .. }
        | Insn::DivImm { dst, lhs, .. }
        | Insn::RemImm { dst, lhs, .. }
        | Insn::LtImm { dst, lhs, .. }
        | Insn::LeImm { dst, lhs, .. }
        | Insn::GtImm { dst, lhs, .. }
        | Insn::GeImm { dst, lhs, .. }
        | Insn::EqImm { dst, lhs, .. }
        | Insn::NeImm { dst, lhs, .. }
        | Insn::AndImm { dst, lhs, .. }
        | Insn::OrImm { dst, lhs, .. } => vec![dst, lhs],
        Insn::BrzAdd { lhs, rhs, .. }
        | Insn::BrzSub { lhs, rhs, .. }
        | Insn::BrzMul { lhs, rhs, .. }
        | Insn::BrzDiv { lhs, rhs, .. }
        | Insn::BrzRem { lhs, rhs, .. }
        | Insn::BrzLt { lhs, rhs, .. }
        | Insn::BrzLe { lhs, rhs, .. }
        | Insn::BrzGt { lhs, rhs, .. }
        | Insn::BrzGe { lhs, rhs, .. }
        | Insn::BrzEq { lhs, rhs, .. }
        | Insn::BrzNe { lhs, rhs, .. }
        | Insn::BrzAnd { lhs, rhs, .. }
        | Insn::BrzOr { lhs, rhs, .. } => vec![lhs, rhs],
        Insn::BrzAddImm { lhs, .. }
        | Insn::BrzSubImm { lhs, .. }
        | Insn::BrzMulImm { lhs, .. }
        | Insn::BrzDivImm { lhs, .. }
        | Insn::BrzRemImm { lhs, .. }
        | Insn::BrzLtImm { lhs, .. }
        | Insn::BrzLeImm { lhs, .. }
        | Insn::BrzGtImm { lhs, .. }
        | Insn::BrzGeImm { lhs, .. }
        | Insn::BrzEqImm { lhs, .. }
        | Insn::BrzNeImm { lhs, .. }
        | Insn::BrzAndImm { lhs, .. }
        | Insn::BrzOrImm { lhs, .. } => vec![lhs],
    }
}

#[test]
fn the_unmutated_program_verifies_and_runs() {
    let mut machine = Machine::new();
    let out = run_compiled(&base(), &mut machine, &mut ShadowPoolBackend::new(), FUEL);
    assert_eq!(out.map(|o| o.output), Ok(vec![3]));
}

#[test]
fn slot_out_of_range() {
    // Every slot operand of every instruction, one at a time, then a call
    // argument.
    let prog = base();
    let mut mutations = 0;
    for (fi, f) in prog.funcs.iter().enumerate() {
        for pc in 0..f.code.len() {
            let mut insn = f.code[pc];
            for k in 0..slot_operands(&mut insn).len() {
                let mut bad = prog.clone();
                let nslots = bad.funcs[fi].nslots;
                *slot_operands(&mut bad.funcs[fi].code[pc]).swap_remove(k) = nslots;
                assert_rejected(&bad, &format!("slot {nslots} out of {nslots}"));
                mutations += 1;
            }
        }
    }
    assert!(mutations >= 20, "only {mutations} slot operands mutated");

    let mut prog = base();
    let main = func(&mut prog, "main");
    main.calls[0].args[1] = main.nslots;
    assert_rejected(&prog, "call arg slot 4 out of 4");
}

#[test]
fn pool_register_out_of_range() {
    // The `malloc` in `push`, the `free` in `main`, then the pool ops and
    // the pool argument.
    for name in ["push", "main"] {
        let mut prog = base();
        let f = func(&mut prog, name);
        let npools = f.npools;
        let pc = find(f, |i| matches!(i, Insn::Malloc { .. } | Insn::Free { .. }));
        match &mut f.code[pc] {
            Insn::Malloc { pool, .. } | Insn::Free { pool, .. } => *pool = npools,
            _ => unreachable!(),
        }
        assert_rejected(&prog, &format!("pool register {npools} out of {npools}"));
    }

    let mut prog = base();
    let main = func(&mut prog, "main");
    let pc = find(main, |i| matches!(i, Insn::PoolCreate { .. }));
    main.code[pc] = Insn::PoolCreate { cost: 1, dst: 1, elem_size: 16 };
    assert_rejected(&prog, "pool register 1 out of 1");

    let mut prog = base();
    let main = func(&mut prog, "main");
    let pc = find(main, |i| matches!(i, Insn::PoolDestroy { .. }));
    main.code[pc] = Insn::PoolDestroy { cost: 1, pool: 1 };
    assert_rejected(&prog, "pool register 1 out of 1");

    let mut prog = base();
    func(&mut prog, "main").calls[0].pool_args[0] = 1;
    assert_rejected(&prog, "pool register 1 out of 1");
}

#[test]
fn global_index_out_of_range() {
    let mut prog = base();
    let main = func(&mut prog, "main");
    let pc = find(main, |i| matches!(i, Insn::GlobalGet { .. }));
    if let Insn::GlobalGet { idx, .. } = &mut main.code[pc] {
        *idx = 1;
    }
    assert_rejected(&prog, "global 1 out of range");

    let mut prog = base();
    let main = func(&mut prog, "main");
    let pc = find(main, |i| matches!(i, Insn::GlobalSet { .. }));
    if let Insn::GlobalSet { idx, .. } = &mut main.code[pc] {
        *idx = 1;
    }
    assert_rejected(&prog, "global 1 out of range");
}

#[test]
fn jump_target_out_of_range() {
    for pick in [
        |i: &Insn| matches!(i, Insn::Jump { .. }),
        |i: &Insn| matches!(i, Insn::BrzLtImm { .. }),
    ] {
        let mut prog = base();
        let main = func(&mut prog, "main");
        let len = main.code.len() as u32;
        let pc = find(main, pick);
        match &mut main.code[pc] {
            Insn::Jump { target, .. } | Insn::BrzLtImm { target, .. } => *target = len,
            _ => unreachable!(),
        }
        assert_rejected(&prog, &format!("jump target {len} out of {len}"));
    }
}

#[test]
fn every_binary_form_is_verified() {
    // Each operator's four forms in turn take the place of `main`'s
    // `bin.Add %t0 <- %t1, %i` (the register and literal forms) or of its
    // loop guard `brz.Lt %i, #3 -> 10` (the branch forms). Each placed
    // form verifies; then each of its slot operands, and each branch
    // form's target, goes out of range.
    let prog = base();
    let main = prog.funcs.iter().position(|f| f.name == "main").unwrap();
    let code = &prog.funcs[main].code;
    let (nslots, len) = (prog.funcs[main].nslots, code.len() as u32);
    let bin_pc = find(&prog.funcs[main], |i| matches!(i, Insn::Add { .. }));
    let Insn::Add { cost, dst, lhs, rhs } = code[bin_pc] else { unreachable!() };
    let brz_pc = find(&prog.funcs[main], |i| matches!(i, Insn::BrzLtImm { .. }));
    let Insn::BrzLtImm { cost: bcost, lhs: cond, imm, target } = code[brz_pc] else {
        unreachable!()
    };
    let mut forms = HashSet::new();
    for op in [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::And,
        BinOp::Or,
    ] {
        let branch_to = |t: u32| {
            [Insn::brz(op, bcost, cond, lhs, t), Insn::brz_imm(op, bcost, cond, imm, t)]
        };
        let placed = [
            (bin_pc, Insn::bin(op, cost, dst, lhs, rhs)),
            (bin_pc, Insn::bin_imm(op, cost, dst, lhs, 7)),
            (brz_pc, branch_to(target)[0]),
            (brz_pc, branch_to(target)[1]),
        ];
        for (pc, form) in placed {
            assert_eq!(form.operator(), Some(op), "{form:?}");
            forms.insert(discriminant(&form));
            let mut good = prog.clone();
            good.funcs[main].code[pc] = form;
            let res = run_compiled(&good, &mut Machine::new(), &mut ShadowPoolBackend::new(), 1000);
            assert!(!matches!(res, Err(RunError::InvalidBytecode(_))), "{form:?}: {res:?}");
            for k in 0..slot_operands(&mut form.clone()).len() {
                let mut bad = good.clone();
                *slot_operands(&mut bad.funcs[main].code[pc]).swap_remove(k) = nslots;
                assert_rejected(&bad, &format!("slot {nslots} out of {nslots}"));
            }
        }
        for form in branch_to(len) {
            let mut bad = prog.clone();
            bad.funcs[main].code[brz_pc] = form;
            assert_rejected(&bad, &format!("jump target {len} out of {len}"));
        }
    }
    assert_eq!(forms.len(), 13 * 4, "every operator has four forms of its own");
}

#[test]
fn call_site_out_of_range() {
    let mut prog = base();
    let main = func(&mut prog, "main");
    let pc = find(main, |i| matches!(i, Insn::Call { .. }));
    if let Insn::Call { site, .. } = &mut main.code[pc] {
        *site = 1;
    }
    assert_rejected(&prog, "call site 1 out of range");
}

#[test]
fn callee_out_of_range() {
    let mut prog = base();
    func(&mut prog, "main").calls[0].func = 2;
    assert_rejected(&prog, "callee 2 out of range");
}

#[test]
fn arity_mismatch() {
    let mut prog = base();
    func(&mut prog, "main").calls[0].args.pop();
    assert_rejected(&prog, "main: arity mismatch calling push");
}

#[test]
fn pool_arity_mismatch() {
    let mut prog = base();
    func(&mut prog, "main").calls[0].pool_args.clear();
    assert_rejected(&prog, "main: pool arity mismatch calling push");
}

#[test]
fn pool_none_where_a_pool_is_required() {
    let mut prog = base();
    let main = func(&mut prog, "main");
    let pc = find(main, |i| matches!(i, Insn::PoolCreate { .. }));
    main.code[pc] = Insn::PoolCreate { cost: 1, dst: POOL_NONE, elem_size: 16 };
    assert_rejected(&prog, "poolcreate into POOL_NONE");

    let mut prog = base();
    let main = func(&mut prog, "main");
    let pc = find(main, |i| matches!(i, Insn::PoolDestroy { .. }));
    main.code[pc] = Insn::PoolDestroy { cost: 1, pool: POOL_NONE };
    assert_rejected(&prog, "pooldestroy of POOL_NONE");

    let mut prog = base();
    func(&mut prog, "main").calls[0].pool_args[0] = POOL_NONE;
    assert_rejected(&prog, "POOL_NONE passed as pool arg");
}

#[test]
fn empty_code_or_a_last_instruction_that_is_not_ret() {
    let mut prog = base();
    func(&mut prog, "push").code.clear();
    assert_rejected(&prog, "push: last insn None is not ret");

    let mut prog = base();
    let main = func(&mut prog, "main");
    *main.code.last_mut().unwrap() = Insn::Tick { cost: 0 };
    assert_rejected(&prog, "main: last insn Some(Tick { cost: 0 }) is not ret");

    let mut prog = base();
    let main = func(&mut prog, "main");
    *main.code.last_mut().unwrap() = Insn::Jump { cost: 0, target: 0 };
    assert_rejected(&prog, "is not ret");
}

#[test]
fn params_exceeding_slots() {
    let mut prog = base();
    let push = func(&mut prog, "push");
    push.nparams = push.nslots + 1;
    assert_rejected(&prog, "push: 4 params exceed 3 slots");
}

#[test]
fn pool_params_exceeding_pool_registers() {
    let mut prog = base();
    let push = func(&mut prog, "push");
    push.npool_params = push.npools + 1;
    assert_rejected(&prog, "push: pool params exceed pool registers");
}

#[test]
fn main_out_of_range() {
    let mut prog = base();
    prog.main = Some(2);
    assert_rejected(&prog, "main 2 out of 2 functions");
}
