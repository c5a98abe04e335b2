//! # dangle-apa — MiniC frontend and the Automatic Pool Allocation transform
//!
//! The compiler half of the paper's Insight 2. The original system uses
//! LLVM's Data Structure Analysis and the PLDI'05 pool-allocation pass on C
//! programs; reproducing *that* wholesale is out of scope, so this crate
//! implements the same pipeline on **MiniC**, a C fragment rich enough for
//! the paper's running example and for randomized semantics-preservation
//! testing:
//!
//! * [`lex`]/[`parse`](mod@parse)/[`ast`] — the MiniC frontend (structs, globals,
//!   functions, `malloc`/`free`, `p->f`, control flow);
//! * [`analysis`] — unification-based points-to analysis plus the escape
//!   analysis (reachability from arguments, globals and return values, as
//!   §2.2 describes) that bounds pool lifetimes;
//! * [`transform`] — the Figure 1 → Figure 2 rewrite: pool inference,
//!   `poolinit`/`pooldestroy` placement, pool-parameter threading, and
//!   `malloc`/`free` → `poolalloc`/`poolfree` rewriting;
//! * [`pretty`] — source renderer (the transformed running example prints
//!   exactly the shape of the paper's Figure 2);
//! * [`validate`](mod@validate) — static well-formedness checking of transformed
//!   programs (pool scoping, argument threading, destroy-on-every-path);
//! * [`dataflow`] — **dangle-lint**: the flow-sensitive free-site safety
//!   analysis that reports definite use-after-free/double-free at compile
//!   time and proves sites safe so runtime shadow protection can be
//!   elided ([`pool_allocate_with_lint`]).
//!
//! ```rust
//! use dangle_apa::{parse, pool_allocate, to_source, FIGURE_1};
//!
//! # fn main() -> Result<(), dangle_apa::ParseError> {
//! let program = parse(FIGURE_1)?;
//! let (transformed, analysis) = pool_allocate(&program);
//! assert_eq!(analysis.classes.len(), 1); // one list, one pool
//! assert!(to_source(&transformed).contains("poolinit(__pool0, 16);"));
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod ast;
pub mod callgraph;
pub mod corpus;
pub mod dataflow;
pub mod lex;
pub mod parse;
pub mod pretty;
pub mod summary;
pub mod transform;
pub mod validate;

pub use analysis::{analyze, Analysis, HeapClass};
pub use ast::{BinOp, Expr, FuncDef, LValue, Program, Span, Stmt, StructDef, Type};
pub use callgraph::CallGraph;
pub use dataflow::{
    lint, lint_intra, lint_with_mode, stamp_unchecked, Diagnostic, LintMode,
    LintReport, Verdict,
};
pub use summary::{FnSummary, ParamEffect, RetEffect};
pub use parse::{parse, ParseError, FIGURE_1};
pub use pretty::to_source;
pub use transform::{
    pool_allocate, pool_allocate_with_lint, pool_allocate_with_lint_mode, pool_name,
};
pub use validate::{validate, ValidateError};
