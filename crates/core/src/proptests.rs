//! Random-trace tests of the protection core's one path: one alias syscall
//! per allocation and one `mprotect` per free.
//!
//! Seeded allocation/free/probe/pooldestroy traces run through
//! [`crate::ShadowPool`] and [`crate::ShadowHeap`] and are checked against
//! a host-side model after every operation. A live object loads what was
//! stored in its first and last words. A freed object traps on both, and
//! the detector explains each trap as a dangling read. Every double free
//! traps on the hidden-word read with a `DoubleFree` report. After every
//! operation the detector's object registry must pass its audit, and the
//! pool detector must also pass [`dangle_pool::PoolSet::audit_frames`]:
//! page recycling, in place or re-mapped, never lets two live pools share
//! a physical frame. At the end, the registry's record of every object
//! still tracked and the machine's trap total must match the model.
//!
//! A third trace drives the §3.4 collector ([`crate::gc::collect`]) over
//! two to four pools whose objects point at each other, and checks that
//! every freed object a live object still points to keeps trapping after
//! the collection and after the shared free list is drained, with both
//! audits after every operation.

use crate::diag::{DanglingKind, ObjectState};
use crate::protect::{CanonicalMemory, Protector};
use crate::{gc, ShadowHeap, ShadowPool};
use dangle_heap::{AllocError, Allocator, SysHeap};
use dangle_pool::{PoolError, PoolId};
use dangle_testkit::SeededRng as TestRng;
use dangle_vmm::{Machine, VirtAddr};

/// Sizes of the same-class bursts: three single-page classes and a
/// multi-page object whose shadow run spans two or three pages.
const SIZES: [usize; 4] = [16, 32, 64, 6000];

/// One tracked object and whether the trace freed it.
#[derive(Clone, Copy)]
struct Obj {
    addr: VirtAddr,
    size: usize,
    freed: bool,
}

impl Obj {
    /// The object's first and last words, with the values stored there.
    fn words(&self) -> [(VirtAddr, u64); 2] {
        let last = self.addr.add(self.size as u64 - 8);
        [(self.addr, self.addr.raw()), (last, !self.addr.raw())]
    }

    fn store(&self, m: &mut Machine) {
        for (a, v) in self.words() {
            m.store_u64(a, v).unwrap();
        }
    }
}

/// Loads both words of `o`. A live object yields what was stored; a freed
/// one traps on each word, as a dangling read the detector explains.
/// Counts the traps in `traps`.
fn probe<M: CanonicalMemory>(
    case: u64,
    m: &mut Machine,
    det: &Protector<M>,
    o: &Obj,
    traps: &mut u64,
) {
    for (a, v) in o.words() {
        match m.load_u64(a) {
            Ok(got) => {
                assert!(!o.freed, "case {case}: freed object readable at {a}");
                assert_eq!(got, v, "case {case}: live object at {a}");
            }
            Err(trap) => {
                assert!(o.freed, "case {case}: live object trapped at {a}: {trap}");
                let kind = det.explain(&trap).map(|r| r.kind);
                assert_eq!(kind, Some(DanglingKind::Read), "case {case}: {a}");
                *traps += 1;
            }
        }
    }
}

/// Checks the outcome of freeing `o`, given as `Err(is_trap)` on failure.
/// A first free succeeds; a double free traps on the hidden-word read and
/// is reported as a `DoubleFree`.
fn check_free<M: CanonicalMemory>(
    case: u64,
    det: &Protector<M>,
    o: &mut Obj,
    r: Result<(), bool>,
    traps: &mut u64,
) {
    if o.freed {
        assert_eq!(r, Err(true), "case {case}: double free of {} must trap", o.addr);
        let kind = det.last_report().map(|r| r.kind);
        assert_eq!(kind, Some(DanglingKind::DoubleFree), "case {case}: {}", o.addr);
        *traps += 1;
    } else {
        assert_eq!(r, Ok(()), "case {case}: free of {}", o.addr);
        o.freed = true;
    }
}

/// Checks the detector's object registry ([`crate::diag::ObjectRegistry::audit`]).
fn audit_registry<M: CanonicalMemory>(case: u64, det: &Protector<M>) {
    if let Err(e) = det.registry.audit() {
        panic!("case {case}: registry: {e}");
    }
}

/// Checks the pool detector's registry and its pools' frames
/// ([`dangle_pool::PoolSet::audit_frames`]).
fn audit_pool(case: u64, m: &Machine, sp: &ShadowPool) {
    audit_registry(case, sp);
    if let Err(e) = sp.pools().audit_frames(m) {
        panic!("case {case}: {e}");
    }
}

/// Probes every object of `objs` and checks its registry record.
fn final_sweep<M: CanonicalMemory>(
    case: u64,
    m: &mut Machine,
    det: &Protector<M>,
    objs: &[Obj],
    traps: &mut u64,
) {
    for o in objs {
        probe(case, m, det, o, traps);
        let rec = det.object_at(o.addr).expect("tracked in the registry");
        assert_eq!((rec.base, rec.size), (o.addr, o.size), "case {case}");
        let freed = matches!(rec.state, ObjectState::Freed { .. });
        assert_eq!(freed, o.freed, "case {case}: registry state of {}", o.addr);
    }
}

#[test]
fn shadow_pool_traces_match_the_model() {
    for case in 0..24u64 {
        let mut rng = TestRng::new(0xb17c_0de5 ^ (case.wrapping_mul(0x9e37_79b9)));
        let mut m = Machine::new();
        let mut sp = ShadowPool::new();
        let mut pools = vec![sp.create(16)];
        let mut destroyed = vec![false];
        let mut objs: Vec<Vec<Obj>> = vec![Vec::new()];
        let mut traps = 0;

        for _ in 0..40 {
            match rng.below(12) {
                0 => {
                    pools.push(sp.create(16));
                    destroyed.push(false);
                    objs.push(Vec::new());
                }
                1..=5 => {
                    let pi = rng.below(pools.len() as u64) as usize;
                    if destroyed[pi] {
                        continue;
                    }
                    let size = SIZES[rng.below(4) as usize];
                    let count = 4 + rng.below(12) as usize;
                    for _ in 0..count {
                        let addr = sp.alloc(&mut m, pools[pi], size).unwrap();
                        let o = Obj { addr, size, freed: false };
                        o.store(&mut m);
                        objs[pi].push(o);
                    }
                }
                6..=8 => {
                    let pi = rng.below(pools.len() as u64) as usize;
                    if destroyed[pi] || objs[pi].is_empty() {
                        continue;
                    }
                    let oi = rng.below(objs[pi].len() as u64) as usize;
                    let r = sp.free(&mut m, pools[pi], objs[pi][oi].addr);
                    let r = r.map_err(|e| matches!(e, PoolError::Alloc(AllocError::Trap(_))));
                    check_free(case, &sp, &mut objs[pi][oi], r, &mut traps);
                }
                9 | 10 => {
                    let pi = rng.below(pools.len() as u64) as usize;
                    if destroyed[pi] || objs[pi].is_empty() {
                        continue;
                    }
                    let o = objs[pi][rng.below(objs[pi].len() as u64) as usize];
                    probe(case, &mut m, &sp, &o, &mut traps);
                }
                _ => {
                    let pi = rng.below(pools.len() as u64) as usize;
                    if destroyed[pi] {
                        continue;
                    }
                    sp.destroy(&mut m, pools[pi]).unwrap();
                    destroyed[pi] = true;
                    objs[pi].clear();
                }
            }
            audit_pool(case, &m, &sp);
        }

        // Destroyed pools' lists are empty: their objects are forgotten.
        for list in &objs {
            final_sweep(case, &mut m, &sp, list, &mut traps);
        }
        assert_eq!(m.stats().traps, traps, "case {case}: trap total");
    }
}

#[test]
fn shadow_heap_traces_match_the_model() {
    for case in 0..16u64 {
        let mut rng = TestRng::new(0x5ead_0001 + case * 0x9e37_79b9);
        let mut m = Machine::new();
        let mut heap = ShadowHeap::new(SysHeap::new());
        let mut objs: Vec<Obj> = Vec::new();
        let mut traps = 0;

        for _ in 0..30 {
            match rng.below(8) {
                0..=4 => {
                    let size = SIZES[rng.below(4) as usize];
                    let count = 4 + rng.below(8) as usize;
                    for _ in 0..count {
                        let addr = heap.alloc(&mut m, size).unwrap();
                        let o = Obj { addr, size, freed: false };
                        o.store(&mut m);
                        objs.push(o);
                    }
                }
                5 | 6 => {
                    if objs.is_empty() {
                        continue;
                    }
                    let oi = rng.below(objs.len() as u64) as usize;
                    let r = heap.free(&mut m, objs[oi].addr);
                    let r = r.map_err(|e| matches!(e, AllocError::Trap(_)));
                    check_free(case, &heap, &mut objs[oi], r, &mut traps);
                }
                _ => {
                    if objs.is_empty() {
                        continue;
                    }
                    let o = objs[rng.below(objs.len() as u64) as usize];
                    probe(case, &mut m, &heap, &o, &mut traps);
                }
            }
            audit_registry(case, &heap);
        }

        final_sweep(case, &mut m, &heap, &objs, &mut traps);
        assert_eq!(m.stats().traps, traps, "case {case}: trap total");
    }
}

/// One object of the collector trace: its pool (an index into the trace's
/// pools), whether it was freed, and, per word, the object whose address
/// the trace stored there last.
struct Node {
    pool: usize,
    addr: VirtAddr,
    freed: bool,
    points_to: Vec<Option<usize>>,
}

fn alloc_node(
    m: &mut Machine,
    sp: &mut ShadowPool,
    pools: &[PoolId],
    pool: usize,
    size: usize,
) -> Node {
    let addr = sp.alloc(m, pools[pool], size).unwrap();
    Node { pool, addr, freed: false, points_to: vec![None; size / 8] }
}

/// Every pointer a live node holds is still in its word, and loads
/// through it trap exactly when its target was freed.
fn check_pointers(case: u64, m: &mut Machine, nodes: &[Node]) {
    for holder in nodes.iter().filter(|n| !n.freed) {
        for (w, target) in holder.points_to.iter().enumerate() {
            let Some(t) = *target else { continue };
            let word = holder.addr.add(8 * w as u64);
            assert_eq!(m.load_u64(word).unwrap(), nodes[t].addr.raw(), "case {case}: {word}");
            let traps = m.load_u64(nodes[t].addr).is_err();
            assert_eq!(traps, nodes[t].freed, "case {case}: load through {word}");
        }
    }
}

#[test]
fn gc_never_reclaims_a_span_a_live_object_points_to() {
    for case in 0..24u64 {
        let mut rng = TestRng::new(0x6c0_11ec7 ^ case.wrapping_mul(0x9e37_79b9));
        let mut m = Machine::new();
        let mut sp = ShadowPool::new();
        let pools: Vec<PoolId> = (0..2 + rng.below(3)).map(|_| sp.create(16)).collect();
        let mut nodes: Vec<Node> = Vec::new();

        for _ in 0..40 {
            let live: Vec<usize> = (0..nodes.len()).filter(|&i| !nodes[i].freed).collect();
            match rng.below(10) {
                0..=2 => {
                    let pool = rng.below(pools.len() as u64) as usize;
                    let size = SIZES[rng.below(4) as usize];
                    for _ in 0..2 + rng.below(6) {
                        nodes.push(alloc_node(&mut m, &mut sp, &pools, pool, size));
                    }
                }
                3..=5 if !live.is_empty() => {
                    let h = live[rng.below(live.len() as u64) as usize];
                    let t = live[rng.below(live.len() as u64) as usize];
                    let w = rng.below(nodes[h].points_to.len() as u64) as usize;
                    m.store_u64(nodes[h].addr.add(8 * w as u64), nodes[t].addr.raw()).unwrap();
                    nodes[h].points_to[w] = Some(t);
                }
                6 | 7 if !live.is_empty() => {
                    let n = &mut nodes[live[rng.below(live.len() as u64) as usize]];
                    sp.free(&mut m, pools[n.pool], n.addr).unwrap();
                    n.freed = true;
                }
                8 | 9 => {
                    let mask = 1 + rng.below((1 << pools.len()) - 1);
                    let seeds: Vec<PoolId> =
                        (0..pools.len()).filter(|i| mask >> i & 1 == 1).map(|i| pools[i]).collect();
                    gc::collect(&mut m, &mut sp, &seeds, &[]);
                    while sp.pools().free_page_count() > 0 {
                        let pool = rng.below(pools.len() as u64) as usize;
                        nodes.push(alloc_node(&mut m, &mut sp, &pools, pool, 16));
                    }
                    check_pointers(case, &mut m, &nodes);
                }
                _ => {}
            }
            audit_pool(case, &m, &sp);
        }
        check_pointers(case, &mut m, &nodes);
    }
}
