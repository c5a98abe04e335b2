//! Random well-named MiniC program generator.
//!
//! Shared by the engine-equivalence suite (`dangle-interp`), the sampling
//! differential (`tests/sampling.rs`) and the lint differentials
//! (`tests/lint.rs`): every variable
//! is declared before use and scoped lexically, every call has the
//! declared arity, and names are never reused — the fragment on which the
//! AST and bytecode engines promise identical behaviour (see `compile`'s
//! documented static rejections). Programs allocate, link, mutate and
//! free `node` records, so dangling uses and double frees arise naturally
//! and exercise the detector backends.

use crate::SeededRng;

struct Gen {
    rng: SeededRng,
    out: String,
    /// In-scope int variables.
    ints: Vec<String>,
    /// In-scope ptr<node> variables.
    ptrs: Vec<String>,
    next_name: usize,
    /// Helper functions emitted before main: (name, n_int_params).
    helpers: Vec<(String, usize)>,
}

impl Gen {
    fn fresh(&mut self) -> String {
        self.next_name += 1;
        format!("v{}", self.next_name)
    }

    fn int_expr(&mut self, depth: u32) -> String {
        match self.rng.below(if depth == 0 { 2 } else { 8 }) {
            0 => format!("{}", self.rng.below(19) as i64 - 4),
            1 if !self.ints.is_empty() => {
                let i = self.rng.below(self.ints.len() as u64) as usize;
                self.ints[i].clone()
            }
            1 => format!("{}", self.rng.below(7)),
            2..=4 => {
                let op = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"]
                    [self.rng.below(13) as usize];
                let a = self.int_expr(depth - 1);
                let b = self.int_expr(depth - 1);
                format!("({a} {op} {b})")
            }
            5 if !self.ptrs.is_empty() => {
                let i = self.rng.below(self.ptrs.len() as u64) as usize;
                format!("{}->val", self.ptrs[i])
            }
            6 if !self.helpers.is_empty() => {
                let i = self.rng.below(self.helpers.len() as u64) as usize;
                let (name, arity) = self.helpers[i].clone();
                let args: Vec<String> =
                    (0..arity).map(|_| self.int_expr(depth.saturating_sub(1))).collect();
                format!("{name}({})", args.join(", "))
            }
            _ => format!("{}", self.rng.below(11) as i64 - 2),
        }
    }

    fn ptr_expr(&mut self) -> String {
        match self.rng.below(4) {
            0 => "null".into(),
            1 | 2 => "malloc(node)".into(),
            _ if !self.ptrs.is_empty() => {
                let i = self.rng.below(self.ptrs.len() as u64) as usize;
                if self.rng.below(3) == 0 {
                    format!("{}->next", self.ptrs[i])
                } else {
                    self.ptrs[i].clone()
                }
            }
            _ => "malloc(node)".into(),
        }
    }

    fn stmt(&mut self, depth: u32, indent: usize) {
        let pad = "    ".repeat(indent);
        match self.rng.below(12) {
            0 | 1 => {
                let name = self.fresh();
                let e = self.int_expr(2);
                self.out.push_str(&format!("{pad}var {name}: int = {e};\n"));
                self.ints.push(name);
            }
            2 => {
                let name = self.fresh();
                let e = self.ptr_expr();
                self.out.push_str(&format!("{pad}var {name}: ptr<node> = {e};\n"));
                self.ptrs.push(name);
            }
            3 if !self.ints.is_empty() => {
                let i = self.rng.below(self.ints.len() as u64) as usize;
                let name = self.ints[i].clone();
                let e = self.int_expr(2);
                self.out.push_str(&format!("{pad}{name} = {e};\n"));
            }
            4 if !self.ptrs.is_empty() => {
                let i = self.rng.below(self.ptrs.len() as u64) as usize;
                let name = self.ptrs[i].clone();
                let e = self.ptr_expr();
                self.out.push_str(&format!("{pad}{name} = {e};\n"));
            }
            5 if !self.ptrs.is_empty() => {
                let i = self.rng.below(self.ptrs.len() as u64) as usize;
                let p = self.ptrs[i].clone();
                if self.rng.below(2) == 0 {
                    let e = self.int_expr(2);
                    self.out.push_str(&format!("{pad}{p}->val = {e};\n"));
                } else {
                    let q = self.ptr_expr();
                    self.out.push_str(&format!("{pad}{p}->next = {q};\n"));
                }
            }
            6 if !self.ptrs.is_empty() => {
                let i = self.rng.below(self.ptrs.len() as u64) as usize;
                let p = self.ptrs[i].clone();
                self.out.push_str(&format!("{pad}free({p});\n"));
            }
            7 if depth > 0 => {
                let c = self.int_expr(1);
                self.out.push_str(&format!("{pad}if ({c}) {{\n"));
                self.scoped_block(depth - 1, indent + 1);
                if self.rng.below(2) == 0 {
                    self.out.push_str(&format!("{pad}}} else {{\n"));
                    self.scoped_block(depth - 1, indent + 1);
                }
                self.out.push_str(&format!("{pad}}}\n"));
            }
            8 if depth > 0 => {
                let counter = self.fresh();
                let bound = 1 + self.rng.below(6);
                self.out
                    .push_str(&format!("{pad}var {counter}: int = 0;\n"));
                self.out.push_str(&format!("{pad}while ({counter} < {bound}) {{\n"));
                self.ints.push(counter.clone());
                self.scoped_block(depth - 1, indent + 1);
                self.out
                    .push_str(&format!("{}{counter} = {counter} + 1;\n", "    ".repeat(indent + 1)));
                self.out.push_str(&format!("{pad}}}\n"));
            }
            _ => {
                let e = self.int_expr(2);
                self.out.push_str(&format!("{pad}print({e});\n"));
            }
        }
    }

    /// A block whose declarations go out of scope at the closing brace
    /// (the generator never reads a conditionally-declared name later, a
    /// pattern on which the engines document divergence).
    fn scoped_block(&mut self, depth: u32, indent: usize) {
        let (ni, np) = (self.ints.len(), self.ptrs.len());
        for _ in 0..1 + self.rng.below(3) {
            self.stmt(depth, indent);
        }
        self.ints.truncate(ni);
        self.ptrs.truncate(np);
    }
}

/// Generates the random MiniC program for `seed`. Small consecutive
/// seeds are fine: the RNG state is golden-ratio-mixed first.
pub fn random_program(seed: u64) -> String {
    let mut g = Gen {
        rng: SeededRng::mixed(seed),
        out: String::from("struct node { next: ptr<node>, val: int }\n"),
        ints: Vec::new(),
        ptrs: Vec::new(),
        next_name: 0,
        helpers: Vec::new(),
    };
    // A couple of int helpers main can call.
    for h in 0..g.rng.below(3) {
        let name = format!("h{h}");
        let arity = 1 + g.rng.below(2) as usize;
        let params: Vec<String> = (0..arity).map(|i| format!("a{i}: int")).collect();
        g.out.push_str(&format!("fn {name}({}) -> int {{\n", params.join(", ")));
        g.ints = (0..arity).map(|i| format!("a{i}")).collect();
        g.ptrs.clear();
        for _ in 0..1 + g.rng.below(4) {
            g.stmt(1, 1);
        }
        let ret = g.int_expr(2);
        g.out.push_str(&format!("    return {ret};\n}}\n"));
        g.helpers.push((name, arity));
    }
    g.ints.clear();
    g.ptrs.clear();
    g.out.push_str("fn main() {\n");
    for _ in 0..3 + g.rng.below(8) {
        g.stmt(2, 1);
    }
    g.out.push_str("}\n");
    g.out
}
