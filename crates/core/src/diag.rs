//! Diagnostics: turning raw MMU traps into actionable dangling-pointer
//! reports.
//!
//! The real system catches SIGSEGV and maps the faulting address back to an
//! object. The simulator does the same: the detector keeps a registry from
//! shadow pages to object records (allocation site, free site, extent), and
//! [`explain`](crate::Protector::explain) converts a [`Trap`] into a
//! [`DanglingReport`].

use dangle_telemetry::TrapReport;
use dangle_vmm::{AccessKind, Machine, PageNum, Trap, VirtAddr};
use std::collections::HashMap;
use std::fmt;

/// An interned source location ("site"): a `malloc`/`free` call site, a
/// function name, a line — whatever granularity the embedder wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The anonymous site used when the caller does not tag operations.
    pub const UNKNOWN: SiteId = SiteId(0);
}

/// Interns human-readable site labels.
#[derive(Debug, Clone)]
pub struct SiteTable {
    names: Vec<String>,
}

impl SiteTable {
    /// Creates a table containing only the `<unknown>` site.
    pub fn new() -> SiteTable {
        SiteTable { names: vec!["<unknown>".to_string()] }
    }

    /// Interns `name`, returning its id (existing id if already interned).
    pub fn intern(&mut self, name: &str) -> SiteId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return SiteId(i as u32);
        }
        self.names.push(name.to_string());
        SiteId(self.names.len() as u32 - 1)
    }

    /// The label of `site`.
    pub fn name(&self, site: SiteId) -> &str {
        self.names.get(site.0 as usize).map_or("<invalid site>", String::as_str)
    }
}

impl Default for SiteTable {
    fn default() -> SiteTable {
        SiteTable::new()
    }
}

/// Lifecycle state of a tracked object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectState {
    /// Allocated, not yet freed.
    Live,
    /// Freed; its shadow pages are protected.
    Freed {
        /// Where the free happened.
        free_site: SiteId,
    },
}

/// What the detector knows about one allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectRecord {
    /// The (shadow) address handed to the program.
    pub base: VirtAddr,
    /// Requested size in bytes.
    pub size: usize,
    /// Where the allocation happened.
    pub alloc_site: SiteId,
    /// Live or freed.
    pub state: ObjectState,
    /// Whether this object was protected by a *probabilistic* sampling
    /// draw (1 < N < ∞). Deterministic protection — sampling off, or
    /// N = 1 — leaves this `false`, which is what makes the N = 1 trap
    /// reports byte-identical to the unsampled detector's.
    pub sampled: bool,
}

/// The kind of dangling use detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DanglingKind {
    /// A load through a pointer to freed memory.
    Read,
    /// A store through a pointer to freed memory.
    Write,
    /// A second `free` of the same object.
    DoubleFree,
}

impl fmt::Display for DanglingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DanglingKind::Read => write!(f, "dangling read"),
            DanglingKind::Write => write!(f, "dangling write"),
            DanglingKind::DoubleFree => write!(f, "double free"),
        }
    }
}

/// A fully attributed dangling-pointer diagnosis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DanglingReport {
    /// The kind of misuse.
    pub kind: DanglingKind,
    /// The faulting address.
    pub fault_addr: VirtAddr,
    /// The object the fault landed in.
    pub object: ObjectRecord,
}

impl DanglingReport {
    /// Renders the report with site names from `sites`.
    pub fn render(&self, sites: &SiteTable) -> String {
        let free_site = match self.object.state {
            ObjectState::Freed { free_site } => sites.name(free_site).to_string(),
            ObjectState::Live => "<not freed>".to_string(),
        };
        format!(
            "{} at {} (offset {} into {}-byte object allocated at `{}`, freed at `{}`)",
            self.kind,
            self.fault_addr,
            self.fault_addr.raw().saturating_sub(self.object.base.raw()),
            self.object.size,
            sites.name(self.object.alloc_site),
            free_site,
        )
    }

    /// Builds the structured, JSON-serializable [`TrapReport`] for this
    /// diagnosis: site names resolved through `sites`, the machine's clock
    /// as the trap time, and the last `context_events` entries of the
    /// machine's event ring as trailing context (GWP-ASan style).
    pub fn to_telemetry(
        &self,
        sites: &SiteTable,
        machine: &Machine,
        use_site: &str,
        context_events: usize,
        registry: &ObjectRegistry,
    ) -> TrapReport {
        let free_site = match self.object.state {
            ObjectState::Freed { free_site } => Some(sites.name(free_site).to_string()),
            ObjectState::Live => None,
        };
        let (alloc_stack, free_stack) = registry
            .stacks(self.object.base)
            .map(|(a, f)| (a.to_vec(), f.to_vec()))
            .unwrap_or_default();
        let ring = machine.telemetry().ring();
        TrapReport {
            kind: self.kind.to_string(),
            fault_addr: self.fault_addr.raw(),
            clock: machine.clock(),
            object_base: self.object.base.raw(),
            object_size: self.object.size as u64,
            sampled: self.object.sampled,
            alloc_site: sites.name(self.object.alloc_site).to_string(),
            alloc_stack,
            free_site,
            free_stack,
            use_site: use_site.to_string(),
            use_stack: machine.telemetry().call_stack().to_vec(),
            ring_capacity: ring.capacity() as u64,
            ring_dropped: ring.dropped(),
            events: machine.telemetry().tail(context_events),
        }
    }
}

/// Registry from shadow pages to object records.
///
/// One record per allocation; multi-page objects register every page. For
/// the heap detector records persist forever (shadow pages are never
/// reused); for the pool detector records are dropped when their pool is
/// destroyed (the APA contract says no pointer can fault there any more).
/// A record no page entry reaches any more is unreachable, so its slot is
/// reused by the next insert: the registry's size follows the tracked
/// pages, not the allocations ever made.
#[derive(Debug, Default)]
pub struct ObjectRegistry {
    records: Vec<ObjectRecord>,
    by_page: HashMap<PageNum, usize>,
    /// Full call stacks at allocation time, parallel to `records`. Kept in
    /// side tables so [`ObjectRecord`] stays `Copy`; empty when the program
    /// did not run under the interpreter's shadow call stack.
    alloc_stacks: Vec<Vec<String>>,
    /// Full call stacks at free time, parallel to `records` (empty while
    /// the object is live).
    free_stacks: Vec<Vec<String>>,
    /// Page entries in `by_page` pointing at each record, parallel to
    /// `records`; a slot whose count drops to zero joins `free_slots`.
    page_refs: Vec<u32>,
    free_slots: Vec<usize>,
    /// The slot of the most recent insert, which `note_alloc_stack` and
    /// `note_sampled` annotate.
    last: usize,
}

impl ObjectRegistry {
    /// Creates an empty registry.
    pub fn new() -> ObjectRegistry {
        ObjectRegistry::default()
    }

    /// Registers a new live object whose payload starts at `base` (shadow
    /// address) and spans `size` bytes, on the `span` contiguous shadow
    /// pages from `start`, the page containing the detector's hidden word.
    pub fn insert_range(
        &mut self,
        base: VirtAddr,
        size: usize,
        alloc_site: SiteId,
        start: PageNum,
        span: usize,
    ) {
        let idx = self.new_slot(base, size, alloc_site);
        for i in 0..span as u64 {
            self.map_page(start.add(i), idx);
        }
    }

    /// A fresh live record with empty stacks and no page entries yet: a
    /// reused slot when one is free, a new one otherwise.
    fn new_slot(&mut self, base: VirtAddr, size: usize, alloc_site: SiteId) -> usize {
        let record =
            ObjectRecord { base, size, alloc_site, state: ObjectState::Live, sampled: false };
        let idx = match self.free_slots.pop() {
            Some(idx) => {
                self.records[idx] = record;
                idx
            }
            None => {
                self.records.push(record);
                self.alloc_stacks.push(Vec::new());
                self.free_stacks.push(Vec::new());
                self.page_refs.push(0);
                self.records.len() - 1
            }
        };
        self.last = idx;
        idx
    }

    fn map_page(&mut self, page: PageNum, idx: usize) {
        self.page_refs[idx] += 1;
        if let Some(old) = self.by_page.insert(page, idx) {
            self.unref(old);
        }
    }

    fn unmap_page(&mut self, page: PageNum) {
        if let Some(old) = self.by_page.remove(&page) {
            self.unref(old);
        }
    }

    /// Drops one page entry of record `idx`; once none is left the record
    /// is unreachable, so its stacks go and its slot is free for reuse.
    fn unref(&mut self, idx: usize) {
        self.page_refs[idx] -= 1;
        if self.page_refs[idx] == 0 {
            self.alloc_stacks[idx].clear();
            self.free_stacks[idx].clear();
            self.free_slots.push(idx);
        }
    }

    /// Attaches the full call stack at allocation time to the most
    /// recently inserted object. Detector alloc paths call this right
    /// after `insert_range` when a shadow call stack is live.
    pub fn note_alloc_stack(&mut self, stack: &[String]) {
        if let Some(slot) = self.alloc_stacks.get_mut(self.last) {
            slot.clear();
            slot.extend_from_slice(stack);
        }
    }

    /// Marks the most recently inserted object as probabilistically
    /// sampled (see [`ObjectRecord::sampled`]). Detector alloc paths call
    /// this right after `insert_range` when the sampling policy's
    /// draw — not a deterministic rule — chose protection.
    pub fn note_sampled(&mut self, sampled: bool) {
        if let Some(rec) = self.records.get_mut(self.last) {
            rec.sampled = sampled;
        }
    }

    /// Marks the object at `base` freed, recording the full call stack at
    /// free time (empty when no shadow call stack is live).
    pub fn mark_freed_traced(&mut self, base: VirtAddr, free_site: SiteId, stack: &[String]) {
        if let Some(&idx) = self.by_page.get(&base.page()) {
            self.records[idx].state = ObjectState::Freed { free_site };
            let slot = &mut self.free_stacks[idx];
            slot.clear();
            slot.extend_from_slice(stack);
        }
    }

    /// Looks up the object owning `addr`, if any.
    pub fn lookup(&self, addr: VirtAddr) -> Option<&ObjectRecord> {
        self.by_page.get(&addr.page()).map(|&i| &self.records[i])
    }

    /// The (alloc, free) call stacks of the object owning `addr`, if
    /// tracked. Either side is empty when no shadow call stack was live at
    /// the corresponding operation.
    pub fn stacks(&self, addr: VirtAddr) -> Option<(&[String], &[String])> {
        self.by_page
            .get(&addr.page())
            .map(|&i| (self.alloc_stacks[i].as_slice(), self.free_stacks[i].as_slice()))
    }

    /// Drops the records registered for `pages` (pool destroy).
    pub fn forget_pages(&mut self, pages: &[PageNum]) {
        for &p in pages {
            self.unmap_page(p);
        }
    }

    /// [`ObjectRegistry::forget_pages`] for a contiguous run starting at
    /// `start` — the recycling/GC paths drop whole spans at once.
    pub fn forget_range(&mut self, start: PageNum, span: usize) {
        for i in 0..span as u64 {
            self.unmap_page(start.add(i));
        }
    }

    /// Number of page entries currently tracked.
    pub fn tracked_pages(&self) -> usize {
        self.by_page.len()
    }

    /// Builds a [`DanglingReport`] for `trap` if it falls in a tracked
    /// object. `double_free` forces the kind (used by `free` paths, where
    /// the faulting access is the detector's own header read).
    pub fn explain(&self, trap: &Trap, double_free: bool) -> Option<DanglingReport> {
        let addr = trap.addr()?;
        if !trap.is_access_violation() {
            return None;
        }
        let object = *self.lookup(addr)?;
        let kind = if double_free {
            DanglingKind::DoubleFree
        } else {
            match trap {
                Trap::Protection { access: AccessKind::Write, .. }
                | Trap::Unmapped { access: AccessKind::Write, .. } => DanglingKind::Write,
                _ => DanglingKind::Read,
            }
        };
        Some(DanglingReport { kind, fault_addr: addr, object })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_vmm::Protection;

    #[test]
    fn site_table_interns_and_dedups() {
        let mut t = SiteTable::new();
        let a = t.intern("f");
        let b = t.intern("g");
        assert_eq!(t.intern("f"), a);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "f");
        assert_eq!(t.name(SiteId::UNKNOWN), "<unknown>");
        assert_eq!(t.name(SiteId(999)), "<invalid site>");
    }

    #[test]
    fn registry_lookup_by_any_page_of_span() {
        let mut r = ObjectRegistry::new();
        let base = PageNum(10).base().add(100);
        r.insert_range(base, 8000, SiteId(1), PageNum(10), 2);
        assert!(r.lookup(PageNum(10).base().add(4000)).is_some());
        assert!(r.lookup(PageNum(11).base()).is_some());
        assert!(r.lookup(PageNum(12).base()).is_none());
    }

    #[test]
    fn explain_classifies_kinds() {
        let mut r = ObjectRegistry::new();
        let base = PageNum(5).base().add(8);
        r.insert_range(base, 16, SiteId(2), PageNum(5), 1);
        r.mark_freed_traced(base, SiteId(3), &[]);

        let read_trap = Trap::Protection {
            addr: base,
            prot: Protection::None,
            access: AccessKind::Read,
        };
        let rep = r.explain(&read_trap, false).unwrap();
        assert_eq!(rep.kind, DanglingKind::Read);
        assert_eq!(rep.object.state, ObjectState::Freed { free_site: SiteId(3) });

        let write_trap = Trap::Protection {
            addr: base.add(4),
            prot: Protection::None,
            access: AccessKind::Write,
        };
        assert_eq!(r.explain(&write_trap, false).unwrap().kind, DanglingKind::Write);
        assert_eq!(r.explain(&write_trap, true).unwrap().kind, DanglingKind::DoubleFree);
    }

    #[test]
    fn explain_ignores_untracked_and_non_access_traps() {
        let r = ObjectRegistry::new();
        let t = Trap::Protection {
            addr: VirtAddr(0x9000),
            prot: Protection::None,
            access: AccessKind::Read,
        };
        assert!(r.explain(&t, false).is_none());
        assert!(r.explain(&Trap::OutOfPhysicalMemory, false).is_none());
    }

    #[test]
    fn forget_pages_removes_entries() {
        let mut r = ObjectRegistry::new();
        r.insert_range(PageNum(1).base(), 8, SiteId(0), PageNum(1), 1);
        r.insert_range(PageNum(2).base(), 8, SiteId(0), PageNum(2), 1);
        assert_eq!(r.tracked_pages(), 2);
        r.forget_pages(&[PageNum(1)]);
        assert_eq!(r.tracked_pages(), 1);
        assert!(r.lookup(PageNum(1).base()).is_none());
    }

    #[test]
    fn forget_range_matches_forget_pages() {
        let mut by_slice = ObjectRegistry::new();
        let mut by_range = ObjectRegistry::new();
        let base = PageNum(20).base().add(8);
        by_slice.insert_range(base, 9000, SiteId(4), PageNum(20), 3);
        by_range.insert_range(base, 9000, SiteId(4), PageNum(20), 3);
        by_slice.forget_pages(&[PageNum(20), PageNum(21)]);
        by_range.forget_range(PageNum(20), 2);
        assert_eq!(by_slice.tracked_pages(), by_range.tracked_pages());
        assert!(by_range.lookup(PageNum(20).base()).is_none());
        assert!(by_range.lookup(PageNum(22).base()).is_some());
    }

    #[test]
    fn stack_side_tables_follow_the_object() {
        let mut r = ObjectRegistry::new();
        let base = PageNum(7).base().add(8);
        r.insert_range(base, 32, SiteId(1), PageNum(7), 1);
        r.note_alloc_stack(&["main".to_string(), "make_node".to_string()]);
        // A second object without stacks must not disturb the first.
        r.insert_range(PageNum(8).base(), 8, SiteId(2), PageNum(8), 1);
        r.mark_freed_traced(base, SiteId(3), &["main".to_string(), "drop_node".to_string()]);
        let (alloc, free) = r.stacks(base).unwrap();
        assert_eq!(alloc, ["main", "make_node"]);
        assert_eq!(free, ["main", "drop_node"]);
        let (alloc2, free2) = r.stacks(PageNum(8).base()).unwrap();
        assert!(alloc2.is_empty());
        assert!(free2.is_empty());
    }

    #[test]
    fn unreachable_slots_are_reused_without_their_old_contents() {
        let mut r = ObjectRegistry::new();
        let old = PageNum(30).base().add(8);
        r.insert_range(old, 5000, SiteId(1), PageNum(30), 2);
        r.note_alloc_stack(&["main".to_string(), "old_alloc".to_string()]);
        r.note_sampled(true);
        r.mark_freed_traced(old, SiteId(2), &["main".to_string(), "old_free".to_string()]);
        r.forget_range(PageNum(30), 1);
        // One page entry still reaches the old record: its slot stays taken.
        let keep = PageNum(50).base().add(8);
        r.insert_range(keep, 8, SiteId(5), PageNum(50), 1);
        assert_eq!(r.records.len(), 2);
        r.forget_pages(&[PageNum(31)]);

        let new = PageNum(40).base().add(8);
        r.insert_range(new, 24, SiteId(3), PageNum(40), 1);
        assert_eq!(r.records.len(), 2, "the unreachable slot was reused");
        let rec = *r.lookup(new).unwrap();
        assert_eq!(
            rec,
            ObjectRecord {
                base: new,
                size: 24,
                alloc_site: SiteId(3),
                state: ObjectState::Live,
                sampled: false
            }
        );
        assert_eq!(r.stacks(new).unwrap(), (&[][..], &[][..]));
        // Annotations go to the newest record, not to the table's last slot.
        r.note_sampled(true);
        r.note_alloc_stack(&["main".to_string()]);
        assert!(r.lookup(new).unwrap().sampled);
        assert!(!r.lookup(keep).unwrap().sampled);
        assert_eq!(r.stacks(new).unwrap().0, ["main"]);
        assert!(r.stacks(keep).unwrap().0.is_empty());

        // Re-registering a page frees the slot of the record it reached.
        r.insert_range(PageNum(50).base(), 16, SiteId(6), PageNum(50), 1);
        assert_eq!(r.lookup(keep).unwrap().alloc_site, SiteId(6));
        assert_eq!(r.records.len(), 3);
        r.insert_range(PageNum(60).base(), 8, SiteId(7), PageNum(60), 1);
        assert_eq!(r.records.len(), 3, "keep's old slot was taken again");
        assert_eq!(r.tracked_pages(), 3);
    }

    #[test]
    fn report_renders_sites() {
        let mut sites = SiteTable::new();
        let a = sites.intern("create_list");
        let f = sites.intern("free_all_but_head");
        let rep = DanglingReport {
            kind: DanglingKind::Read,
            fault_addr: VirtAddr(0x5010),
            object: ObjectRecord {
                base: VirtAddr(0x5008),
                size: 24,
                alloc_site: a,
                state: ObjectState::Freed { free_site: f },
                sampled: false,
            },
        };
        let s = rep.render(&sites);
        assert!(s.contains("dangling read"), "{s}");
        assert!(s.contains("create_list"), "{s}");
        assert!(s.contains("free_all_but_head"), "{s}");
        assert!(s.contains("24-byte"), "{s}");
    }
}
