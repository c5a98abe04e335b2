//! Span tracing and cycle attribution — the flight recorder.
//!
//! A [`SpanTracer`] maintains a zero-alloc-on-the-hot-path stack of live
//! spans (per-connection, per-request, per-call, per-detector-operation)
//! plus an aggregation tree keyed by call path. Every simulated-cycle
//! charge is folded into the *innermost* live span's self-time and into a
//! five-way attribution table:
//!
//! * **app** — cycles the program itself would pay natively;
//! * **detector_metadata** — cycles spent inside detector bookkeeping
//!   (hidden-word maintenance, registry updates, shadow accounting);
//! * **protection_syscalls** — kernel crossings (`mmap`/`mremap`/
//!   `mprotect`/`munmap`, page zeroing, dummy crossings);
//! * **tlb_l1_penalty** — the extra TLB and L1 misses the shadow aliasing
//!   induces;
//! * **pool_recycling** — kernel crossings and bookkeeping attributable to
//!   pool-destroy page recycling.
//!
//! The attribution table sums to the machine's total clock *exactly*
//! (±0): every `clock += n` in the simulator routes through one funnel
//! that charges the tracer, so no cycle can escape or be double-counted.
//! The span tree exports as collapsed-stack text
//! ([`SpanTracer::fold`]) ready for standard flamegraph tooling.

/// Attribution category for a block of simulated cycles.
///
/// The five categories mirror the paper's overhead decomposition (Tables
/// 1–3 split syscall vs TLB cost) extended with the pool-recycling bucket
/// the §3.4 GC work needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Application work — what a native run would also pay.
    App,
    /// Detector bookkeeping (registry, hidden words, shadow accounting).
    DetectorMetadata,
    /// Kernel crossings for protection and aliasing.
    ProtectionSyscalls,
    /// TLB and L1 misses (the aliasing dilutes locality).
    TlbL1Penalty,
    /// Pool-destroy page recycling (syscalls and bookkeeping both).
    PoolRecycling,
}

impl Category {
    /// Every category, in stable export order.
    pub const ALL: [Category; 5] = [
        Category::App,
        Category::DetectorMetadata,
        Category::ProtectionSyscalls,
        Category::TlbL1Penalty,
        Category::PoolRecycling,
    ];

    /// Stable lower-case name used in JSON exports.
    pub fn name(&self) -> &'static str {
        match self {
            Category::App => "app",
            Category::DetectorMetadata => "detector_metadata",
            Category::ProtectionSyscalls => "protection_syscalls",
            Category::TlbL1Penalty => "tlb_l1_penalty",
            Category::PoolRecycling => "pool_recycling",
        }
    }

    fn index(self) -> usize {
        match self {
            Category::App => 0,
            Category::DetectorMetadata => 1,
            Category::ProtectionSyscalls => 2,
            Category::TlbL1Penalty => 3,
            Category::PoolRecycling => 4,
        }
    }
}

/// How a block of cycles was incurred, as seen at the charge site inside
/// the simulator. The tracer resolves it to a [`Category`] using the live
/// span context (e.g. a syscall issued under a recycling span bills to
/// `pool_recycling`, not `protection_syscalls`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Charge {
    /// Ordinary computation or memory-access cycles: billed to the
    /// innermost span's category (app at the root).
    Plain,
    /// A kernel crossing (syscall base/per-page/per-range cost, page
    /// zeroing): billed to `protection_syscalls`, or `pool_recycling`
    /// when incurred under a recycling span.
    Syscall,
    /// A TLB or L1 miss penalty: always billed to `tlb_l1_penalty`.
    TlbPenalty,
}

/// Identifier of one node in the aggregated span tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One aggregated node: all dynamic spans sharing the same name *and* the
/// same path from the root fold into one node.
#[derive(Clone, Debug)]
struct SpanNode {
    name: String,
    category: Category,
    children: Vec<usize>,
    self_cycles: u64,
    count: u64,
}

/// One live (entered, not yet exited) span.
#[derive(Clone, Copy, Debug)]
struct LiveFrame {
    node: usize,
    enter_clock: u64,
}

/// The flight recorder: live span stack + aggregated span tree + the
/// five-way cycle-attribution table. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct SpanTracer {
    nodes: Vec<SpanNode>,
    stack: Vec<LiveFrame>,
    categories: [u64; 5],
}

impl Default for SpanTracer {
    fn default() -> Self {
        SpanTracer::new()
    }
}

impl SpanTracer {
    /// An empty tracer. The root pseudo-span (category `app`) is always
    /// live; cycles charged outside any explicit span bill to it.
    pub fn new() -> SpanTracer {
        let root = SpanNode {
            name: String::new(),
            category: Category::App,
            children: Vec::new(),
            self_cycles: 0,
            count: 1,
        };
        SpanTracer { nodes: vec![root], stack: vec![LiveFrame { node: 0, enter_clock: 0 }], categories: [0; 5] }
    }

    /// Enters a span at simulated time `clock`. Spans with the same name
    /// under the same parent aggregate into one tree node.
    pub fn enter(&mut self, name: &str, category: Category, clock: u64) -> SpanId {
        let parent = self.stack.last().map_or(0, |f| f.node);
        let existing = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let node = match existing {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(SpanNode {
                    name: name.to_string(),
                    category,
                    children: Vec::new(),
                    self_cycles: 0,
                    count: 0,
                });
                self.nodes[parent].children.push(i);
                i
            }
        };
        self.nodes[node].count += 1;
        self.stack.push(LiveFrame { node, enter_clock: clock });
        SpanId(node)
    }

    /// Exits the innermost span, returning its total (inclusive) duration
    /// in simulated cycles given the exit-time `clock`. Exiting with only
    /// the root live is a no-op returning 0.
    pub fn exit(&mut self, clock: u64) -> u64 {
        if self.stack.len() <= 1 {
            return 0;
        }
        let frame = self.stack.pop().expect("stack non-empty");
        clock.saturating_sub(frame.enter_clock)
    }

    /// Folds `cycles` into the innermost live span's self-time and the
    /// attribution table. This is the single funnel the simulator's clock
    /// advances route through.
    pub fn charge(&mut self, cycles: u64, charge: Charge) {
        let top = self.stack.last().map_or(0, |f| f.node);
        let span_cat = self.nodes[top].category;
        let cat = match charge {
            Charge::Plain => span_cat,
            Charge::Syscall => {
                if span_cat == Category::PoolRecycling {
                    Category::PoolRecycling
                } else {
                    Category::ProtectionSyscalls
                }
            }
            Charge::TlbPenalty => Category::TlbL1Penalty,
        };
        self.categories[cat.index()] += cycles;
        self.nodes[top].self_cycles += cycles;
    }

    /// Depth of the live stack, excluding the root pseudo-span.
    pub fn depth(&self) -> usize {
        self.stack.len() - 1
    }

    /// Total cycles attributed so far (equals the machine clock advance
    /// since tracing started, exactly).
    pub fn total(&self) -> u64 {
        self.categories.iter().sum()
    }

    /// The attribution table as stable `(name, cycles)` pairs in
    /// [`Category::ALL`] order.
    pub fn categories(&self) -> Vec<(&'static str, u64)> {
        Category::ALL
            .iter()
            .map(|c| (c.name(), self.categories[c.index()]))
            .collect()
    }

    /// Cycles attributed to one category.
    pub fn category_cycles(&self, category: Category) -> u64 {
        self.categories[category.index()]
    }

    /// Collapsed-stack export: one `path;to;span cycles` line per tree
    /// node with nonzero self-time, ready for `flamegraph.pl` and
    /// compatible tooling. Root self-time exports as `(root)`.
    pub fn fold(&self) -> String {
        let mut out = String::new();
        let mut path: Vec<&str> = Vec::new();
        self.fold_node(0, &mut path, &mut out);
        out
    }

    fn fold_node<'a>(&'a self, node: usize, path: &mut Vec<&'a str>, out: &mut String) {
        let n = &self.nodes[node];
        let label = if node == 0 { "(root)" } else { n.name.as_str() };
        path.push(label);
        if n.self_cycles > 0 {
            out.push_str(&path.join(";"));
            out.push(' ');
            out.push_str(&n.self_cycles.to_string());
            out.push('\n');
        }
        for &c in &n.children {
            self.fold_node(c, path, out);
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_sum_to_total_charged() {
        let mut t = SpanTracer::new();
        t.charge(10, Charge::Plain); // root → app
        t.enter("shadow.free", Category::DetectorMetadata, 10);
        t.charge(5, Charge::Plain); // → detector_metadata
        t.charge(400, Charge::Syscall); // → protection_syscalls
        t.charge(30, Charge::TlbPenalty); // → tlb_l1_penalty
        assert_eq!(t.exit(445), 435);
        t.enter("pool.destroy", Category::PoolRecycling, 445);
        t.charge(200, Charge::Syscall); // recycling span claims the syscall
        t.charge(7, Charge::Plain);
        t.exit(652);
        assert_eq!(t.total(), 652);
        assert_eq!(t.category_cycles(Category::App), 10);
        assert_eq!(t.category_cycles(Category::DetectorMetadata), 5);
        assert_eq!(t.category_cycles(Category::ProtectionSyscalls), 400);
        assert_eq!(t.category_cycles(Category::TlbL1Penalty), 30);
        assert_eq!(t.category_cycles(Category::PoolRecycling), 207);
        let table = t.categories();
        assert_eq!(table.iter().map(|&(_, v)| v).sum::<u64>(), t.total());
        assert_eq!(table[0].0, "app");
    }

    #[test]
    fn same_path_aggregates_into_one_node() {
        let mut t = SpanTracer::new();
        for i in 0..3u64 {
            t.enter("request", Category::App, i * 100);
            t.charge(40, Charge::Plain);
            assert_eq!(t.exit(i * 100 + 40), 40);
        }
        let folded = t.fold();
        assert_eq!(folded, "(root);request 120\n");
    }

    #[test]
    fn fold_emits_full_paths() {
        let mut t = SpanTracer::new();
        t.charge(1, Charge::Plain);
        t.enter("conn", Category::App, 1);
        t.enter("request", Category::App, 1);
        t.charge(10, Charge::Plain);
        t.enter("shadow.alloc", Category::DetectorMetadata, 11);
        t.charge(5, Charge::Syscall);
        t.exit(16);
        t.exit(16);
        t.exit(16);
        let folded = t.fold();
        assert!(folded.contains("(root) 1\n"));
        assert!(folded.contains("(root);conn;request 10\n"));
        assert!(folded.contains("(root);conn;request;shadow.alloc 5\n"));
    }

    #[test]
    fn exit_at_root_is_noop_and_durations_are_inclusive() {
        let mut t = SpanTracer::new();
        assert_eq!(t.exit(100), 0);
        assert_eq!(t.depth(), 0);
        t.enter("outer", Category::App, 50);
        t.enter("inner", Category::DetectorMetadata, 60);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.exit(70), 10);
        assert_eq!(t.exit(90), 40, "outer span duration includes inner");
    }
}
