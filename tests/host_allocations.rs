//! Host heap allocations of the detector's pool lifecycle and of a MiniC
//! keep-alive connection.
//!
//! The paper's production configuration pays for detection once per pool:
//! `poolinit`, a shadow alias per object, `PROT_NONE` per free and a
//! `pooldestroy` that recycles every page. After a warm-up, none of that
//! should allocate on the host: the pool set recycles destroyed pools'
//! storage and keeps its destroy buffers, the syscalls validate in place,
//! the event counters are cached and the object registry keeps call
//! stacks as ids of an interned depot. A connection run by the bytecode VM
//! adds its MiniC calls, whose shadow-call-stack frames reuse the popped
//! frames' storage. This binary installs a counting global allocator and
//! counts only on the thread of the test that switched counting on.

use dangle_apa::{corpus, lint_with_mode, parse, pool_allocate, stamp_unchecked, LintMode};
use dangle_interp::backend::{Backend, ShadowPoolBackend};
use dangle_interp::{compile, run_compiled, BcProgram};
use dangle_vmm::{Machine, MachineConfig, VirtAddr, PAGE_SIZE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations (and reallocations) of
/// a thread that switched counting on.
struct Counting;

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counting touches only
// const-initialised thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Host allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// Payload sizes of one lifecycle: six size classes and one object over a
/// page, so one shadow alias spans two pages.
const SIZES: [usize; 8] = [16, 24, 48, 100, 256, 1000, PAGE_SIZE + 904, 64];

/// `lifecycles` pool lifecycles: create a pool, allocate every size in it,
/// free every other object and destroy the pool. On a multi-core machine
/// each lifecycle runs on the next core, so `pooldestroy` unmaps pages
/// other cores' TLBs may hold.
fn run_lifecycles(machine: &mut Machine, backend: &mut dyn Backend, lifecycles: usize) {
    let cores = machine.core_count();
    let mut objects = [VirtAddr::NULL; SIZES.len()];
    for i in 0..lifecycles {
        machine.switch_core(i % cores);
        let pool = backend.pool_create(machine, 16).expect("poolinit");
        for (obj, &size) in objects.iter_mut().zip(&SIZES) {
            *obj = backend.alloc(machine, size, Some(pool)).expect("poolalloc");
        }
        for &obj in objects.iter().step_by(2) {
            backend.free(machine, obj, Some(pool)).expect("poolfree");
        }
        backend.pool_destroy(machine, pool).expect("pooldestroy");
    }
}

#[test]
fn pool_lifecycles_make_no_host_allocations_after_warm_up() {
    const WARM_UP: usize = 500;
    const LIFECYCLES: usize = 10_000;
    // The last case checks every object under a shadow call stack, as the
    // MiniC engines leave one, so the registry records an alloc and a free
    // stack per object.
    let cases: [(&str, usize, &[&str]); 3] = [
        ("1 core", 1, &[]),
        ("4 cores", 4, &[]),
        ("1 core, 3-frame stack", 1, &["main", "serve", "handle"]),
    ];
    for (name, cores, stack) in cases {
        let mut backend = ShadowPoolBackend::new();
        let mut machine = Machine::with_config(MachineConfig {
            cores,
            ..MachineConfig::default()
        });
        for frame in stack {
            machine.telemetry_mut().push_call(frame);
        }
        run_lifecycles(&mut machine, &mut backend, WARM_UP);
        let allocations = allocations_in(|| run_lifecycles(&mut machine, &mut backend, LIFECYCLES));
        // One per hundred lifecycles leaves room for the amortised growth
        // of the pool set's tombstone list, one entry per pool ever made.
        assert!(
            allocations * 100 <= LIFECYCLES as u64,
            "{name}: {allocations} host allocations in {LIFECYCLES} pool lifecycles"
        );
    }
}

/// `ghttpd_keepalive` serving one connection of `requests` requests,
/// through the toolchain perfbench's keepalive-vm runs: pool allocation,
/// the interprocedural lint's elision stamps, then bytecode.
fn keepalive_connection(requests: u64) -> BcProgram {
    let prog = parse(&corpus::ghttpd_keepalive(1, requests)).expect("corpus program parses");
    let (mut pooled, analysis) = pool_allocate(&prog);
    stamp_unchecked(&mut pooled, &lint_with_mode(&prog, &analysis, LintMode::Inter));
    compile(&pooled).expect("corpus program compiles")
}

#[test]
fn warm_keepalive_connections_make_at_most_three_host_allocations() {
    // Each connection is one `run_compiled` of `main` plus two MiniC calls
    // per request, on one machine with default telemetry, so every call
    // pushes a shadow-call-stack frame. What allocates is the run's value
    // stack, pool-register stack and output.
    const WARM_UP: usize = 50;
    const CONNECTIONS: usize = 1_000;
    let prog = keepalive_connection(10);
    let mut machine = Machine::new();
    let mut backend = ShadowPoolBackend::new();
    let mut connect = |machine: &mut Machine| {
        let out = run_compiled(&prog, machine, &mut backend, 10_000_000).expect("connection runs");
        assert_eq!(out.output.len(), 2, "one print per connection, then the total");
    };
    for _ in 0..WARM_UP {
        connect(&mut machine);
    }
    let allocations = allocations_in(|| {
        for _ in 0..CONNECTIONS {
            connect(&mut machine);
        }
    });
    // Three per connection, plus one per hundred connections for the
    // amortised growth of the pool set's tombstone list, which gains an
    // entry for each of a connection's pools.
    assert!(
        allocations <= 3 * CONNECTIONS as u64 + CONNECTIONS as u64 / 100,
        "{allocations} host allocations in {CONNECTIONS} warm connections"
    );
}
