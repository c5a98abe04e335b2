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
        let (alloc_stack, free_stack) = registry.stacks(self.object.base).unwrap_or_default();
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
///
/// The page map is a table indexed by page number. The machine hands page
/// numbers out from a bump pointer, so the table is as long as the address
/// space the detector has registered, at 4 bytes a page, and every insert,
/// lookup, free and forget is one array index. Call stacks are two ids per
/// record into a stack depot; their names are rendered only for a trap
/// report.
#[derive(Debug, Default)]
pub struct ObjectRegistry {
    slots: Vec<Slot>,
    /// The slot index plus one of the object on each page, indexed by page
    /// number; 0 for none. It grows only when a page is inserted, so a page
    /// past its end is untracked.
    by_page: Vec<u32>,
    /// Non-zero entries of `by_page`.
    tracked: usize,
    /// Slots no page entry names, ready for reuse.
    free_slots: Vec<usize>,
    /// The slot of the most recent insert, which `note_alloc_stack` and
    /// `note_sampled` annotate.
    last: usize,
    depot: StackDepot,
}

/// One record of an [`ObjectRegistry`], with its call stacks beside it so
/// that [`ObjectRecord`] stays the `Copy` value reports carry.
#[derive(Clone, Copy, Debug)]
struct Slot {
    record: ObjectRecord,
    /// The call stack at allocation time.
    alloc_stack: StackId,
    /// The call stack at free time (empty while the object is live).
    free_stack: StackId,
    /// Entries of `by_page` naming this slot; at zero it joins
    /// `free_slots`.
    page_refs: u32,
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
        let slot = Slot {
            record: ObjectRecord {
                base,
                size,
                alloc_site,
                state: ObjectState::Live,
                sampled: false,
            },
            alloc_stack: StackId::EMPTY,
            free_stack: StackId::EMPTY,
            page_refs: 0,
        };
        let idx = match self.free_slots.pop() {
            Some(idx) => {
                self.slots[idx] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.last = idx;
        idx
    }

    /// The slot of the object on `page`, if any. A page past the table's
    /// end, or whose number does not fit a `usize`, has none.
    fn slot_of(&self, page: PageNum) -> Option<usize> {
        let entry = *usize::try_from(page.raw()).ok().and_then(|i| self.by_page.get(i))?;
        (entry as usize).checked_sub(1)
    }

    fn map_page(&mut self, page: PageNum, idx: usize) {
        let entry = u32::try_from(idx + 1).expect("fewer than 2^32 registry records");
        let i = usize::try_from(page.raw()).expect("a mapped page number fits a usize");
        if i >= self.by_page.len() {
            self.by_page.resize(i + 1, 0);
        }
        self.slots[idx].page_refs += 1;
        match std::mem::replace(&mut self.by_page[i], entry) {
            0 => self.tracked += 1,
            old => self.unref(old as usize - 1),
        }
    }

    fn unmap_page(&mut self, page: PageNum) {
        let Some(entry) = usize::try_from(page.raw()).ok().and_then(|i| self.by_page.get_mut(i))
        else {
            return;
        };
        let old = std::mem::take(entry);
        if old != 0 {
            self.tracked -= 1;
            self.unref(old as usize - 1);
        }
    }

    /// Drops one page entry of slot `idx`; once none is left the record is
    /// unreachable and its slot is free for reuse.
    fn unref(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        slot.page_refs -= 1;
        if slot.page_refs == 0 {
            self.free_slots.push(idx);
        }
    }

    /// Attaches the full call stack at allocation time to the most
    /// recently inserted object. Detector alloc paths call this right
    /// after `insert_range` when a shadow call stack is live.
    pub fn note_alloc_stack(&mut self, stack: &[String]) {
        if let Some(slot) = self.slots.get_mut(self.last) {
            slot.alloc_stack = self.depot.intern(stack);
        }
    }

    /// Marks the most recently inserted object as probabilistically
    /// sampled (see [`ObjectRecord::sampled`]). Detector alloc paths call
    /// this right after `insert_range` when the sampling policy's
    /// draw — not a deterministic rule — chose protection.
    pub fn note_sampled(&mut self, sampled: bool) {
        if let Some(slot) = self.slots.get_mut(self.last) {
            slot.record.sampled = sampled;
        }
    }

    /// Marks the object at `base` freed, recording the full call stack at
    /// free time (empty when no shadow call stack is live).
    pub fn mark_freed_traced(&mut self, base: VirtAddr, free_site: SiteId, stack: &[String]) {
        if let Some(idx) = self.slot_of(base.page()) {
            let slot = &mut self.slots[idx];
            slot.record.state = ObjectState::Freed { free_site };
            slot.free_stack = self.depot.intern(stack);
        }
    }

    /// Looks up the object owning `addr`, if any.
    pub fn lookup(&self, addr: VirtAddr) -> Option<&ObjectRecord> {
        self.slot_of(addr.page()).map(|i| &self.slots[i].record)
    }

    /// The (alloc, free) call stacks of the object owning `addr`, if
    /// tracked, as frame names outermost first. Either side is empty when
    /// no shadow call stack was live at the corresponding operation.
    pub fn stacks(&self, addr: VirtAddr) -> Option<(Vec<String>, Vec<String>)> {
        let slot = &self.slots[self.slot_of(addr.page())?];
        Some((self.depot.frames(slot.alloc_stack), self.depot.frames(slot.free_stack)))
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
        self.tracked
    }

    /// Checks the registry's bookkeeping against its page table: every
    /// page entry names an in-range record that is not on the free-slot
    /// list, each record's page count equals the entries naming it, the
    /// free slots are exactly the unreferenced records, each listed once,
    /// and [`ObjectRegistry::tracked_pages`] equals the entry count.
    ///
    /// # Errors
    /// A description of the first disagreement found.
    pub fn audit(&self) -> Result<(), String> {
        let mut refs = vec![0u32; self.slots.len()];
        let mut entries = 0;
        for (page, &entry) in self.by_page.iter().enumerate() {
            let Some(idx) = (entry as usize).checked_sub(1) else { continue };
            let Some(n) = refs.get_mut(idx) else {
                return Err(format!("page {page:#x} names record {idx} of {}", self.slots.len()));
            };
            *n += 1;
            entries += 1;
        }
        let mut listed = vec![false; self.slots.len()];
        for &idx in &self.free_slots {
            match listed.get_mut(idx) {
                None => return Err(format!("free slot {idx} of {}", self.slots.len())),
                Some(true) => return Err(format!("free slot {idx} listed twice")),
                Some(seen) => *seen = true,
            }
        }
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot.page_refs != refs[idx] {
                return Err(format!(
                    "record {idx} counts {} page entries, the table has {}",
                    slot.page_refs, refs[idx]
                ));
            }
            if listed[idx] != (refs[idx] == 0) {
                return Err(format!(
                    "record {idx} has {} page entries but is{} on the free-slot list",
                    refs[idx],
                    if listed[idx] { "" } else { " not" }
                ));
            }
        }
        if self.tracked != entries {
            return Err(format!("{} tracked pages, {entries} page entries", self.tracked));
        }
        Ok(())
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

/// A call stack interned in a [`StackDepot`]: the empty stack, or the trie
/// node of its innermost frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct StackId(u32);

impl StackId {
    /// The stack of an operation made outside the interpreter.
    const EMPTY: StackId = StackId(0);
}

/// Interned call stacks, GWP-ASan's stack depot over the interpreter's
/// frame names. Each distinct name is stored once, and each stack is a
/// node of a trie of `(parent, frame)` pairs, so a stack seen before is
/// found again without a host allocation. The depot grows with the
/// distinct stacks objects are allocated and freed under, not with the
/// objects.
#[derive(Debug, Default)]
struct StackDepot {
    /// Frame names by frame id.
    names: Vec<String>,
    /// The frame id of each name.
    frame_ids: HashMap<String, u32>,
    /// The `(parent, frame id)` of stack `i + 1`.
    nodes: Vec<(StackId, u32)>,
    /// The stack of each `(parent, frame id)` node.
    children: HashMap<(StackId, u32), StackId>,
}

impl StackDepot {
    /// The id of `stack` (outermost frame first), interning what is new.
    /// The empty stack touches nothing.
    fn intern(&mut self, stack: &[String]) -> StackId {
        let mut id = StackId::EMPTY;
        for name in stack {
            let frame = match self.frame_ids.get(name.as_str()) {
                Some(&frame) => frame,
                None => {
                    let frame = u32::try_from(self.names.len()).expect("fewer than 2^32 frames");
                    self.names.push(name.clone());
                    self.frame_ids.insert(name.clone(), frame);
                    frame
                }
            };
            id = match self.children.get(&(id, frame)) {
                Some(&child) => child,
                None => {
                    self.nodes.push((id, frame));
                    let child =
                        StackId(u32::try_from(self.nodes.len()).expect("fewer than 2^32 stacks"));
                    self.children.insert((id, frame), child);
                    child
                }
            };
        }
        id
    }

    /// The frame names of `id`, outermost first.
    fn frames(&self, id: StackId) -> Vec<String> {
        let mut frames = Vec::new();
        let mut at = id;
        while let Some(node) = (at.0 as usize).checked_sub(1) {
            let (parent, frame) = self.nodes[node];
            frames.push(self.names[frame as usize].clone());
            at = parent;
        }
        frames.reverse();
        frames
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
    fn stacks_follow_the_object() {
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
        assert_eq!(r.slots.len(), 2);
        r.forget_pages(&[PageNum(31)]);

        let new = PageNum(40).base().add(8);
        r.insert_range(new, 24, SiteId(3), PageNum(40), 1);
        assert_eq!(r.slots.len(), 2, "the unreachable slot was reused");
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
        assert_eq!(r.stacks(new).unwrap(), (vec![], vec![]));
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
        assert_eq!(r.slots.len(), 3);
        r.insert_range(PageNum(60).base(), 8, SiteId(7), PageNum(60), 1);
        assert_eq!(r.slots.len(), 3, "keep's old slot was taken again");
        assert_eq!(r.tracked_pages(), 3);
        r.audit().unwrap();
    }

    #[test]
    fn untracked_pages_miss_without_growing_the_table() {
        let mut r = ObjectRegistry::new();
        let base = PageNum(20).base().add(8);
        r.insert_range(base, 16, SiteId(1), PageNum(20), 1);
        r.mark_freed_traced(base, SiteId(2), &[]);
        let len = r.by_page.len();
        // The machine's guard region (pages 0 to 15), a wild address past
        // every page handed out, and the top of the address space.
        let misses =
            [VirtAddr(8), PageNum(15).base(), VirtAddr(0x7777_0000), VirtAddr(u64::MAX - 7)];
        for addr in misses {
            assert!(r.lookup(addr).is_none(), "{addr}");
            assert!(r.stacks(addr).is_none(), "{addr}");
            for access in [AccessKind::Read, AccessKind::Write] {
                let trap = Trap::Protection { addr, prot: Protection::None, access };
                assert!(r.explain(&trap, false).is_none(), "{addr}");
                assert!(r.explain(&trap, true).is_none(), "{addr}");
                let trap = Trap::Unmapped { addr, access };
                assert!(r.explain(&trap, false).is_none(), "{addr}");
            }
            r.mark_freed_traced(addr, SiteId(3), &["main".to_string()]);
            r.forget_range(addr.page(), 1);
        }
        assert_eq!(r.by_page.len(), len, "misses leave the table as it was");
        assert_eq!(r.tracked_pages(), 1);
        assert!(r.depot.names.is_empty(), "a miss interns no stack");
        assert!(r.lookup(base).is_some(), "the tracked page still hits");
    }

    #[test]
    fn stack_depot_shares_prefixes_and_renders_names() {
        let mut d = StackDepot::default();
        let stack = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        assert_eq!(d.intern(&[]), StackId::EMPTY);
        assert!(d.frames(StackId::EMPTY).is_empty());
        let deep = d.intern(&stack(&["main", "handle", "make_node"]));
        let other = d.intern(&stack(&["main", "handle", "drop_node"]));
        let recursive = d.intern(&stack(&["main", "main"]));
        assert_eq!(d.intern(&stack(&["main", "handle", "make_node"])), deep);
        assert_ne!(deep, other);
        assert_eq!(d.frames(deep), ["main", "handle", "make_node"]);
        assert_eq!(d.frames(other), ["main", "handle", "drop_node"]);
        assert_eq!(d.frames(recursive), ["main", "main"]);
        assert_eq!(d.names.len(), 4, "each name once");
        assert_eq!(d.nodes.len(), 5, "main, main/handle and three leaves");
    }

    #[test]
    fn audit_names_each_broken_invariant() {
        let fresh = || {
            let mut r = ObjectRegistry::new();
            r.insert_range(PageNum(16).base().add(8), 5000, SiteId(1), PageNum(16), 2);
            r.insert_range(PageNum(20).base().add(8), 8, SiteId(2), PageNum(20), 1);
            r.insert_range(PageNum(21).base().add(8), 8, SiteId(3), PageNum(21), 1);
            r.forget_range(PageNum(20), 1);
            r.audit().unwrap();
            r
        };
        let mut r = fresh();
        r.by_page[17] = 9;
        assert!(r.audit().unwrap_err().contains("names record 8"));
        let mut r = fresh();
        r.by_page[21] = 1;
        assert!(r.audit().unwrap_err().contains("counts"));
        let mut r = fresh();
        r.free_slots.push(0);
        assert!(r.audit().unwrap_err().contains("is on the free-slot list"));
        let mut r = fresh();
        r.free_slots.clear();
        assert!(r.audit().unwrap_err().contains("is not on the free-slot list"));
        let mut r = fresh();
        r.free_slots.push(1);
        assert!(r.audit().unwrap_err().contains("listed twice"));
        let mut r = fresh();
        r.tracked += 1;
        assert!(r.audit().unwrap_err().contains("tracked pages"));
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
