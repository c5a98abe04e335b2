//! Randomized model tests for the machine's core invariants: aliasing
//! coherence, protection monotonicity, frame refcounting, and VA non-reuse.
//!
//! Uses a small deterministic xorshift generator instead of an external
//! property-testing crate — the build environment is offline, and
//! reproducibility matters more than shrinking here (every failure prints
//! its case seed).

#![cfg(test)]

use crate::machine::{Machine, Protection};
use crate::VirtAddr;
use dangle_telemetry::EventKind;

use dangle_testkit::SeededRng as TestRng;

#[derive(Clone, Debug)]
enum Op {
    Mmap { pages: usize },
    Alias { of: usize },
    Protect { of: usize, prot: u8 },
    Unmap { of: usize },
    Store { of: usize, offset: usize, value: u64 },
    Load { of: usize, offset: usize },
}

/// Mirrors the old proptest weighting: 2:2:2:1:3:3.
fn random_op(rng: &mut TestRng) -> Op {
    match rng.below(13) {
        0 | 1 => Op::Mmap { pages: 1 + rng.below(3) as usize },
        2 | 3 => Op::Alias { of: rng.next() as usize },
        4 | 5 => Op::Protect { of: rng.next() as usize, prot: rng.below(3) as u8 },
        6 => Op::Unmap { of: rng.next() as usize },
        7..=9 => Op::Store {
            of: rng.next() as usize,
            offset: rng.below(4000) as usize,
            value: rng.next(),
        },
        _ => Op::Load { of: rng.next() as usize, offset: rng.below(4000) as usize },
    }
}

/// Host-side model of one mapped page-run.
#[derive(Clone, Debug)]
struct Region {
    base: VirtAddr,
    pages: usize,
    prot: Protection,
    /// Frame-sharing group this region belongs to (index into `group_data`).
    alias_group: usize,
    live: bool,
}

/// Model-based test: the machine agrees with a simple host-side model of
/// mappings, aliasing and protection under arbitrary syscall and access
/// sequences.
#[test]
fn machine_matches_reference_model() {
    for case in 0..64u64 {
        let mut rng = TestRng::new(0x6d6d_7531 + case * 0x9e37_79b9);
        let nops = 1 + rng.below(59) as usize;
        run_case(&mut rng, nops, case);
    }
}

fn run_case(rng: &mut TestRng, nops: usize, case: u64) {
    let mut m = Machine::free_running();
    let mut regions: Vec<Region> = Vec::new();
    // Model of memory contents per alias group: group -> bytes.
    let mut group_data: Vec<Vec<u8>> = Vec::new();

    for step in 0..nops {
        // The previous op (the loop's arms may `continue`) left the frame
        // bookkeeping consistent with the page table.
        m.audit().unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
        match random_op(rng) {
            Op::Mmap { pages } => {
                let base = m.mmap(pages).unwrap();
                // Fresh VA: must not overlap any previous region.
                for r in &regions {
                    let disjoint = base.raw() >= r.base.raw() + (r.pages * 4096) as u64
                        || r.base.raw() >= base.raw() + (pages * 4096) as u64;
                    assert!(disjoint, "case {case}: mmap must never reuse VA");
                }
                let group = group_data.len();
                group_data.push(vec![0u8; pages * 4096]);
                regions.push(Region {
                    base,
                    pages,
                    prot: Protection::ReadWrite,
                    alias_group: group,
                    live: true,
                });
            }
            Op::Alias { of } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                if !regions[i].live {
                    continue;
                }
                let (src, pages, group) =
                    (regions[i].base, regions[i].pages, regions[i].alias_group);
                let alias = m.mremap_alias(src, pages).unwrap();
                regions.push(Region {
                    base: alias,
                    pages,
                    prot: Protection::ReadWrite,
                    alias_group: group,
                    live: true,
                });
            }
            Op::Protect { of, prot } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                if !regions[i].live {
                    continue;
                }
                let p = match prot {
                    0 => Protection::None,
                    1 => Protection::Read,
                    _ => Protection::ReadWrite,
                };
                m.mprotect(regions[i].base, regions[i].pages, p).unwrap();
                regions[i].prot = p;
            }
            Op::Unmap { of } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                if !regions[i].live {
                    continue;
                }
                m.munmap(regions[i].base, regions[i].pages).unwrap();
                regions[i].live = false;
            }
            Op::Store { of, offset, value } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                let r = regions[i].clone();
                let offset = offset % (r.pages * 4096 - 7);
                let res = m.store_u64(r.base.add(offset as u64), value);
                if r.live && r.prot == Protection::ReadWrite {
                    assert!(res.is_ok(), "case {case}: store should succeed");
                    group_data[r.alias_group][offset..offset + 8]
                        .copy_from_slice(&value.to_le_bytes());
                } else {
                    assert!(res.is_err(), "case {case}: store must fail on {:?}", r.prot);
                }
            }
            Op::Load { of, offset } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                let r = regions[i].clone();
                let offset = offset % (r.pages * 4096 - 7);
                let res = m.load_u64(r.base.add(offset as u64));
                if r.live && r.prot != Protection::None {
                    let expect = u64::from_le_bytes(
                        group_data[r.alias_group][offset..offset + 8].try_into().unwrap(),
                    );
                    assert_eq!(res.unwrap(), expect, "case {case}: aliases must stay coherent");
                } else {
                    assert!(res.is_err(), "case {case}: load must fail on {:?}", r.prot);
                }
            }
        }
    }
    m.audit().unwrap_or_else(|e| panic!("case {case}: {e}"));
    // Frame accounting: number of frames in use equals the number of alias
    // groups with at least one live region (frames are per page, so weight
    // by pages).
    let mut live_group_pages = std::collections::HashMap::new();
    for r in &regions {
        if r.live {
            live_group_pages.insert(r.alias_group, r.pages as u64);
        }
    }
    let expected: u64 = live_group_pages.values().sum();
    assert_eq!(m.stats().phys_frames_in_use, expected, "case {case}: frame refcounting");
}

/// Telemetry accuracy: the registry's per-kind event counters must agree
/// with `MachineStats` for arbitrary syscall sequences.
#[test]
fn telemetry_counters_match_stats_under_random_syscalls() {
    for case in 0..16u64 {
        let mut rng = TestRng::new(0x7e1e_0001 + case);
        let mut m = Machine::free_running();
        let mut live: Vec<(VirtAddr, usize)> = Vec::new();
        for step in 0..200 {
            match rng.below(8) {
                0 => {
                    let pages = 1 + rng.below(3) as usize;
                    let a = m.mmap(pages).unwrap();
                    live.push((a, pages));
                }
                1 if !live.is_empty() => {
                    let (a, p) = live[rng.below(live.len() as u64) as usize];
                    let alias = m.mremap_alias(a, p).unwrap();
                    live.push((alias, p));
                }
                2 if !live.is_empty() => {
                    let (a, p) = live[rng.below(live.len() as u64) as usize];
                    m.mprotect(a, p, Protection::Read).unwrap();
                    m.mprotect(a, p, Protection::ReadWrite).unwrap();
                }
                3 if !live.is_empty() => {
                    let i = rng.below(live.len() as u64) as usize;
                    let (a, p) = live.swap_remove(i);
                    m.munmap(a, p).unwrap();
                }
                // A vectored munmap is ONE crossing: one family counter
                // bump and one ring event, however many ranges it carries;
                // an empty one is neither.
                4 => {
                    let k = (rng.below(3) as usize).min(live.len());
                    let batch: Vec<_> = (0..k)
                        .map(|_| live.swap_remove(rng.below(live.len() as u64) as usize))
                        .collect();
                    m.munmap_batch(&batch).unwrap();
                }
                // Recycling a live run in place: onto fresh frames, or
                // onto aliases of another live run's frames.
                5 if !live.is_empty() => {
                    let (a, p) = live[rng.below(live.len() as u64) as usize];
                    m.mmap_fixed(a, p).unwrap();
                }
                6 if !live.is_empty() => {
                    let (src, sp) = live[rng.below(live.len() as u64) as usize];
                    let (dst, dp) = live[rng.below(live.len() as u64) as usize];
                    m.alias_fixed(src, dst, sp.min(dp)).unwrap();
                }
                _ => m.dummy_syscall(),
            }
            m.audit().unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
        }
        let t = m.telemetry();
        let s = m.stats();
        assert_eq!(t.counter("event.mmap"), s.mmap_calls, "case {case}");
        assert_eq!(t.counter("event.mremap"), s.mremap_calls, "case {case}");
        assert_eq!(t.counter("event.mprotect"), s.mprotect_calls, "case {case}");
        assert_eq!(t.counter("event.munmap"), s.munmap_calls, "case {case}");
        assert_eq!(t.counter("event.dummy_syscall"), s.dummy_calls, "case {case}");
        // Every syscall event was recorded in the ring too.
        assert_eq!(m.telemetry().ring().total_recorded(), s.total_syscalls());
    }
}

/// A directed sequence with known counts, including trap events, plus the
/// machine-derived snapshot gauges.
#[test]
fn telemetry_counters_match_known_sequence() {
    let mut m = Machine::free_running();
    let a = m.mmap(2).unwrap(); // 1 mmap
    let b = m.mremap_alias(a, 2).unwrap(); // 1 mremap
    m.store_u64(a, 7).unwrap();
    m.mprotect(b, 2, Protection::None).unwrap(); // 1 mprotect
    assert!(m.load_u64(b).is_err()); // 1 trap
    m.dummy_syscall(); // 1 dummy
    m.munmap(a, 2).unwrap(); // 1 munmap
    let t = m.telemetry();
    assert_eq!(t.counter("event.mmap"), 1);
    assert_eq!(t.counter("event.mremap"), 1);
    assert_eq!(t.counter("event.mprotect"), 1);
    assert_eq!(t.counter("event.munmap"), 1);
    assert_eq!(t.counter("event.dummy_syscall"), 1);
    assert_eq!(t.counter("event.trap"), 1);
    let snap = m.metrics_snapshot();
    assert_eq!(snap.counter("vmm.traps"), 1);
    assert_eq!(snap.counter("vmm.loads"), m.stats().loads);
    assert_eq!(snap.counter("vmm.virt_pages_consumed"), m.virt_pages_consumed());
    // The ring saw the trap last-but-two (dummy + munmap follow).
    let tail = m.telemetry().tail(3);
    assert!(matches!(tail[0].kind, EventKind::Trap));
}
