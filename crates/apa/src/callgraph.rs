//! Call-graph condensation for the interprocedural lint.
//!
//! The summary computation in [`crate::dataflow`] walks functions
//! bottom-up so every *direct* callee's summary exists before its callers
//! are analysed. Recursion makes that ordering impossible within a cycle,
//! so the graph is condensed into strongly connected components first
//! (Tarjan); members of a non-trivial SCC are iterated to a joint
//! fixpoint and widened if the iteration budget runs out.

use crate::analysis::call_graph;
use crate::ast::{visit_stmts, Program, Stmt};
use std::collections::{HashMap, HashSet};

/// SCC-condensed call graph in bottom-up order.
pub struct CallGraph {
    /// function -> direct callees (defined functions only).
    pub callees: HashMap<String, HashSet<String>>,
    /// Strongly connected components in reverse topological order:
    /// every function called by `sccs[i]` lives in `sccs[j]` with `j <= i`.
    pub sccs: Vec<Vec<String>>,
    /// function -> index into `sccs`.
    pub scc_of: HashMap<String, usize>,
}

impl CallGraph {
    /// Builds the condensation for `prog`.
    pub fn build(prog: &Program) -> CallGraph {
        // Restrict edges to defined functions; calls to undefined names are
        // a validation error and get the opaque fallback during lint.
        let defined: HashSet<&str> = prog.funcs.iter().map(|f| f.name.as_str()).collect();
        let mut callees = call_graph(prog);
        for cs in callees.values_mut() {
            cs.retain(|c| defined.contains(c.as_str()));
        }

        // Tarjan over a stable function order (program order) so the SCC
        // numbering — and therefore summary iteration — is deterministic.
        let order: Vec<&str> = prog.funcs.iter().map(|f| f.name.as_str()).collect();
        let mut t = Tarjan {
            callees: &callees,
            index: HashMap::new(),
            low: HashMap::new(),
            on_stack: HashSet::new(),
            stack: Vec::new(),
            next: 0,
            sccs: Vec::new(),
        };
        for f in &order {
            if !t.index.contains_key(*f) {
                t.strongconnect(f);
            }
        }
        // Tarjan emits SCCs in reverse topological order already (an SCC is
        // popped only after all its descendants).
        let sccs = t.sccs;
        let mut scc_of = HashMap::new();
        for (i, scc) in sccs.iter().enumerate() {
            for f in scc {
                scc_of.insert(f.clone(), i);
            }
        }
        CallGraph { callees, sccs, scc_of }
    }

    /// True when `f` sits in a non-trivial SCC (recursion, direct or
    /// mutual): its own SCC contains another member or a self edge.
    pub fn is_recursive(&self, f: &str) -> bool {
        match self.scc_of.get(f) {
            Some(&i) => {
                self.sccs[i].len() > 1
                    || self.callees.get(f).is_some_and(|cs| cs.contains(f))
            }
            None => false,
        }
    }

    /// Free sites syntactically contained in `f` or any function reachable
    /// from it — the sound havoc set for widened or opaque calls.
    pub fn transitive_free_sites(&self, prog: &Program) -> HashMap<String, HashSet<u32>> {
        let mut direct: HashMap<String, HashSet<u32>> = HashMap::new();
        for f in &prog.funcs {
            let mut sites = HashSet::new();
            visit_stmts(&f.body, &mut |s| {
                if let Stmt::Free { site, .. } = s {
                    sites.insert(*site);
                }
            });
            direct.insert(f.name.clone(), sites);
        }
        // Propagate along SCCs bottom-up; within an SCC iterate to fixpoint
        // (cheap: sets only grow and the graph is small).
        let mut out: HashMap<String, HashSet<u32>> = direct.clone();
        for scc in &self.sccs {
            loop {
                let mut changed = false;
                for f in scc {
                    let mut acc: HashSet<u32> =
                        out.get(f.as_str()).cloned().unwrap_or_default();
                    if let Some(cs) = self.callees.get(f.as_str()) {
                        for c in cs {
                            if let Some(s) = out.get(c.as_str()) {
                                acc.extend(s.iter().copied());
                            }
                        }
                    }
                    let slot = out.entry(f.clone()).or_default();
                    if acc.len() != slot.len() {
                        *slot = acc;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        out
    }
}

struct Tarjan<'a> {
    callees: &'a HashMap<String, HashSet<String>>,
    index: HashMap<String, u32>,
    low: HashMap<String, u32>,
    on_stack: HashSet<String>,
    stack: Vec<String>,
    next: u32,
    sccs: Vec<Vec<String>>,
}

impl Tarjan<'_> {
    fn strongconnect(&mut self, v: &str) {
        self.index.insert(v.to_string(), self.next);
        self.low.insert(v.to_string(), self.next);
        self.next += 1;
        self.stack.push(v.to_string());
        self.on_stack.insert(v.to_string());

        // Deterministic successor order.
        let mut succs: Vec<String> = self
            .callees
            .get(v)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        succs.sort();
        for w in &succs {
            if !self.index.contains_key(w.as_str()) {
                self.strongconnect(w);
                let lw = self.low[w.as_str()];
                let lv = self.low.get_mut(v).unwrap();
                *lv = (*lv).min(lw);
            } else if self.on_stack.contains(w.as_str()) {
                let iw = self.index[w.as_str()];
                let lv = self.low.get_mut(v).unwrap();
                *lv = (*lv).min(iw);
            }
        }

        if self.low[v] == self.index[v] {
            let mut scc = Vec::new();
            while let Some(w) = self.stack.pop() {
                self.on_stack.remove(w.as_str());
                let done = w == v;
                scc.push(w);
                if done {
                    break;
                }
            }
            scc.reverse();
            self.sccs.push(scc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn sccs_are_bottom_up_and_recursion_detected() {
        let prog = parse(
            "struct s { v: int }
             fn leaf(x: int) -> int { return x; }
             fn even(n: int) -> int { if (n == 0) { return 1; } return odd(n - 1); }
             fn odd(n: int) -> int { if (n == 0) { return 0; } return even(n - 1); }
             fn selfy(n: int) -> int { if (n > 0) { return selfy(n - 1); } return leaf(n); }
             fn main() { print(even(4) + selfy(3)); }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        // even/odd share one SCC; it precedes main's.
        assert_eq!(cg.scc_of["even"], cg.scc_of["odd"]);
        assert!(cg.scc_of["even"] < cg.scc_of["main"]);
        assert!(cg.scc_of["leaf"] < cg.scc_of["selfy"]);
        assert!(cg.is_recursive("even"));
        assert!(cg.is_recursive("odd"));
        assert!(cg.is_recursive("selfy"));
        assert!(!cg.is_recursive("leaf"));
        assert!(!cg.is_recursive("main"));
    }

    #[test]
    fn transitive_free_sites_cross_call_boundaries() {
        let prog = parse(
            "struct s { v: int }
             fn inner(p: ptr<s>) { free(p); }
             fn outer(p: ptr<s>) { inner(p); }
             fn main() { var p: ptr<s> = malloc(s); outer(p); }",
        )
        .unwrap();
        let cg = CallGraph::build(&prog);
        let tf = cg.transitive_free_sites(&prog);
        assert_eq!(tf["inner"], [0].into_iter().collect());
        assert_eq!(tf["outer"], [0].into_iter().collect());
        assert_eq!(tf["main"], [0].into_iter().collect());
    }
}
