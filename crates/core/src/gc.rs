//! §3.4 solution 2 — a conservative garbage collector for long-lived pools.
//!
//! The paper proposes running a conservative GC *infrequently* to reclaim
//! the virtual addresses tied up by freed objects in pools that never die
//! (globally reachable pools). Two observations make this much cheaper than
//! full GC-based memory management:
//!
//! 1. only the *virtual addresses* (and their page-table entries) are being
//!    reclaimed — physical memory was already recycled at `poolfree` — so
//!    the collector can run rarely (hours apart, under light load);
//! 2. a dynamic pool points-to graph would say which pools can hold
//!    pointers into the pools being collected, so only a subset of the
//!    heap need be scanned.
//!
//! This runtime records no such graph: nothing observes which pool a
//! stored pointer targets. So the seed pools only choose the *candidate*
//! spans, and the scan covers the canonical pages of **every** live pool.
//! The algorithm here: collect the freed shadow spans of the requested
//! seed pools, conservatively scan every word of every canonical page of
//! every live pool (plus caller-provided roots) for anything that looks
//! like a pointer into one of those spans, and reclaim every span no such
//! word references.
//!
//! Scanning canonical pages rather than a list of live objects is what
//! makes the scan see *every* object: shadow pages alias the canonical
//! frames, so the canonical pages hold the bytes of checked objects,
//! lint-elided (`alloc_unchecked`) objects and sampling-skipped objects
//! alike. The price is extra conservatism: stale words left in free
//! blocks and headers are scanned too, so they can keep a span alive that
//! an exact collector would reclaim. That only delays reclamation; it
//! never reclaims a referenced span.

use crate::pool_shadow::{FreedSpan, ShadowPool};
use dangle_pool::PoolId;
use dangle_vmm::{Machine, PageNum, VirtAddr, PAGE_SIZE};
use std::collections::HashSet;

/// What one collection accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Pools whose canonical pages were scanned: every live pool.
    pub pools_scanned: usize,
    /// 8-byte words examined.
    pub words_scanned: u64,
    /// Freed shadow spans proven unreferenced and reclaimed.
    pub spans_reclaimed: usize,
    /// Virtual pages returned to the shared free list.
    pub pages_reclaimed: usize,
    /// Spans kept because a conservative reference was found.
    pub spans_retained: usize,
}

/// Runs a conservative collection of the freed spans of `seed_pools` (or
/// of every live pool if empty), scanning every live pool's canonical
/// pages with `roots` as additional conservative root words (register /
/// global values in the real system).
///
/// Scanning costs are charged to the machine's clock at one memory access
/// per word, mirroring a real collector's traversal cost.
pub fn collect(
    machine: &mut Machine,
    detector: &mut ShadowPool,
    seed_pools: &[PoolId],
    roots: &[u64],
) -> GcReport {
    let mut report = GcReport::default();

    // 1. Every live pool is scanned; the live seed pools supply the
    //    candidates.
    let pools = detector.pools().live_pools();
    report.pools_scanned = pools.len();
    let seeds = pools.iter().filter(|p| seed_pools.is_empty() || seed_pools.contains(p));

    // 2. Candidate spans: freed shadow pages of the seed pools.
    let mut candidates: Vec<(PoolId, FreedSpan)> = Vec::new();
    let mut candidate_pages: HashSet<PageNum> = HashSet::new();
    for &p in seeds {
        for &span in detector.freed_spans(p) {
            for k in 0..span.span as u64 {
                candidate_pages.insert(span.base.add(k));
            }
            candidates.push((p, span));
        }
    }
    if candidates.is_empty() {
        machine.telemetry_mut().counter_add("gc.collections", 1);
        return report;
    }

    // 3. Conservative scan: roots plus every word of every canonical page
    //    of every live pool.
    let mut referenced: HashSet<PageNum> = HashSet::new();
    let note = |word: u64, referenced: &mut HashSet<PageNum>| {
        let page = VirtAddr(word).page();
        if candidate_pages.contains(&page) {
            referenced.insert(page);
        }
    };
    for &r in roots {
        report.words_scanned += 1;
        note(r, &mut referenced);
    }
    const WORDS_PER_PAGE: u64 = (PAGE_SIZE / 8) as u64;
    let access_cost = machine.config().cost.mem_access;
    for &p in &pools {
        for &page in detector.pools().pool_pages(p).unwrap_or_default() {
            for w in 0..WORDS_PER_PAGE {
                // Canonical pages are never protected; peek + explicit
                // charge keeps the scan out of the workload's load/store
                // counters while still costing cycles.
                if let Some(word) = machine.peek_u64(page.base().add(w * 8)) {
                    note(word, &mut referenced);
                }
            }
            report.words_scanned += WORDS_PER_PAGE;
            machine.tick(access_cost * WORDS_PER_PAGE);
        }
    }

    // 4. Reclaim unreferenced spans.
    for (pool, span) in candidates {
        let touched = (0..span.span as u64).any(|k| referenced.contains(&span.base.add(k)));
        if touched {
            report.spans_retained += 1;
        } else {
            let pages = detector.reclaim_span(pool, span);
            if pages > 0 {
                report.spans_reclaimed += 1;
                report.pages_reclaimed += pages;
            }
        }
    }

    let t = machine.telemetry_mut();
    t.counter_add("gc.collections", 1);
    t.counter_add("gc.words_scanned", report.words_scanned);
    t.counter_add("gc.pages_reclaimed", report.pages_reclaimed as u64);
    t.counter_add("gc.spans_retained", report.spans_retained as u64);
    t.observe("gc.pages_per_collection", report.pages_reclaimed as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaims_unreferenced_freed_spans() {
        let mut m = Machine::free_running();
        let mut sp = ShadowPool::new();
        let pp = sp.create(16);
        let a = sp.alloc(&mut m, pp, 16).unwrap();
        let b = sp.alloc(&mut m, pp, 16).unwrap();
        sp.free(&mut m, pp, a).unwrap();
        m.store_u64(b, 0).unwrap(); // b does NOT point at a

        let report = collect(&mut m, &mut sp, &[], &[]);
        assert_eq!(report.spans_reclaimed, 1);
        assert_eq!(report.pages_reclaimed, 1);
        assert_eq!(report.spans_retained, 0);
        assert!(sp.pools().free_page_count() >= 1);
    }

    #[test]
    fn retains_spans_referenced_by_live_objects() {
        let mut m = Machine::free_running();
        let mut sp = ShadowPool::new();
        let pp = sp.create(16);
        let a = sp.alloc(&mut m, pp, 16).unwrap();
        let b = sp.alloc(&mut m, pp, 16).unwrap();
        m.store_u64(b, a.raw()).unwrap(); // b holds a dangling pointer to a
        sp.free(&mut m, pp, a).unwrap();

        let report = collect(&mut m, &mut sp, &[], &[]);
        assert_eq!(report.spans_reclaimed, 0);
        assert_eq!(report.spans_retained, 1);
        // The dangling pointer in b must still trap.
        let stale = m.load_u64(b).unwrap();
        assert!(m.load_u64(VirtAddr(stale)).is_err());
    }

    #[test]
    fn retains_spans_referenced_by_unchecked_objects() {
        let mut m = Machine::free_running();
        let mut sp = ShadowPool::new();
        let pp = sp.create(16);
        let a = sp.alloc(&mut m, pp, 16).unwrap();
        let b = sp.alloc_unchecked(&mut m, pp, 16).unwrap();
        m.store_u64(b, a.raw()).unwrap(); // the lint-elided b holds a pointer to a
        sp.free(&mut m, pp, a).unwrap();

        let report = collect(&mut m, &mut sp, &[], &[]);
        assert!(report.words_scanned > 0, "{report:?}");
        assert_eq!(report.spans_reclaimed, 0, "{report:?}");
        assert_eq!(report.spans_retained, 1);
        // The next allocation gets a different shadow page, so the stale
        // pointer held by b still traps instead of reading the new object.
        let c = sp.alloc(&mut m, pp, 16).unwrap();
        m.store_u64(c, 7).unwrap();
        assert_ne!(c.page(), a.page());
        let stale = m.load_u64(b).unwrap();
        assert!(m.load_u64(VirtAddr(stale)).is_err());
    }

    #[test]
    fn retains_spans_referenced_by_roots() {
        let mut m = Machine::free_running();
        let mut sp = ShadowPool::new();
        let pp = sp.create(16);
        let a = sp.alloc(&mut m, pp, 16).unwrap();
        sp.free(&mut m, pp, a).unwrap();

        let report = collect(&mut m, &mut sp, &[], &[a.raw()]);
        assert_eq!(report.spans_reclaimed, 0);
        assert_eq!(report.spans_retained, 1);
        assert!(m.load_u64(a).is_err(), "guarantee preserved for rooted pointer");
    }

    #[test]
    fn seed_pools_choose_the_candidate_spans() {
        let mut m = Machine::free_running();
        let mut sp = ShadowPool::new();
        let global = sp.create(16);
        let other = sp.create(16);
        let x = sp.alloc(&mut m, other, 16).unwrap();
        sp.free(&mut m, other, x).unwrap();

        // Collecting `global` scans both pools but leaves `other`'s span.
        let report = collect(&mut m, &mut sp, &[global], &[]);
        assert_eq!(report.pools_scanned, 2);
        assert_eq!(report.spans_reclaimed, 0);
        let report = collect(&mut m, &mut sp, &[other], &[]);
        assert_eq!(report.spans_reclaimed, 1);
    }

    #[test]
    fn retains_spans_referenced_from_another_live_pool() {
        let mut m = Machine::free_running();
        let mut sp = ShadowPool::new();
        let global = sp.create(16);
        let other = sp.create(16);
        let x = sp.alloc(&mut m, global, 16).unwrap();
        let holder = sp.alloc(&mut m, other, 16).unwrap();
        m.store_u64(holder, x.raw()).unwrap(); // `other` points into `global`
        sp.free(&mut m, global, x).unwrap();

        let report = collect(&mut m, &mut sp, &[global], &[]);
        assert_eq!(report.pools_scanned, 2, "{report:?}");
        assert_eq!(report.spans_reclaimed, 0, "{report:?}");
        assert_eq!(report.spans_retained, 1);
        // The next `global` allocation takes another page, so the pointer
        // `other` holds still traps.
        let y = sp.alloc(&mut m, global, 16).unwrap();
        assert_ne!(y.page(), x.page());
        let stale = m.load_u64(holder).unwrap();
        assert!(m.load_u64(VirtAddr(stale)).is_err());
    }

    #[test]
    fn scan_is_charged_to_the_clock() {
        let mut m = Machine::new(); // calibrated costs
        let mut sp = ShadowPool::new();
        let pp = sp.create(64);
        let a = sp.alloc(&mut m, pp, 64).unwrap();
        let _keep = sp.alloc(&mut m, pp, 64).unwrap();
        sp.free(&mut m, pp, a).unwrap();
        let before = m.clock();
        let _ = collect(&mut m, &mut sp, &[], &[]);
        assert!(m.clock() > before, "GC work must cost cycles");
    }

    #[test]
    fn empty_heap_collection_is_a_no_op() {
        let mut m = Machine::free_running();
        let mut sp = ShadowPool::new();
        let _pp = sp.create(16);
        let report = collect(&mut m, &mut sp, &[], &[]);
        assert_eq!(report, GcReport { pools_scanned: 1, ..GcReport::default() });
    }
}
