//! Abstract syntax of **MiniC**, the small C-like language the Automatic
//! Pool Allocation transform operates on.
//!
//! MiniC is deliberately the fragment of C the paper's running example
//! (Figure 1) needs: struct definitions with `int` and pointer fields,
//! functions, locals, globals, `malloc`/`free`, pointer field access
//! (`p->f`), arithmetic, `if`/`while`, calls and `print`. All scalar values
//! are 64-bit; every struct field occupies 8 bytes, so `sizeof(struct S)` is
//! `8 × fields`.
//!
//! After the pool transform ([`crate::transform`]) the same AST carries the
//! extra constructs of Figure 2: pool parameters on functions,
//! `poolinit`/`pooldestroy` statements, pool-annotated `malloc`/`free`, and
//! pool arguments at call sites.

use std::fmt;

pub use crate::lex::Span;

/// A MiniC type: 64-bit integer or pointer to a named struct.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// Pointer to `struct <name>`.
    Ptr(String),
}

impl Type {
    /// Whether the type is a pointer.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Ptr(s) => write!(f, "ptr<{s}>"),
        }
    }
}

/// A struct definition.
#[derive(Clone, Debug, PartialEq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<(String, Type)>,
}

impl StructDef {
    /// Byte size (8 bytes per field).
    pub fn size(&self) -> usize {
        self.fields.len() * 8
    }

    /// Byte offset of `field`, if present.
    pub fn offset_of(&self, field: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == field).map(|i| i * 8)
    }

    /// Type of `field`, if present.
    pub fn type_of(&self, field: &str) -> Option<&Type> {
        self.fields.iter().find(|(n, _)| n == field).map(|(_, t)| t)
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (traps on zero divisor at run time)
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&` (non-short-circuit, integer)
    And,
    /// `||` (non-short-circuit, integer)
    Or,
}

/// A reference to a pool descriptor variable, introduced by the transform.
/// Pool descriptors live in a separate namespace from program variables.
pub type PoolRef = String;

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// The null pointer.
    Null,
    /// Variable read.
    Var(String),
    /// `malloc(S)`, optionally pool-annotated after the transform.
    /// `site` is a unique allocation-site id assigned by the parser.
    Malloc {
        /// Struct being allocated.
        struct_name: String,
        /// Pool to allocate from (`None` before the transform).
        pool: Option<PoolRef>,
        /// Unique allocation-site id.
        site: u32,
        /// Set by dangle-lint when every free of this site's alias class is
        /// `ProvablySafe`: the backend may skip shadow protection.
        unchecked: bool,
        /// Source location of the `malloc` keyword.
        span: Span,
    },
    /// `malloc_array(S, n)`: a contiguous array of `n` structs,
    /// pool-annotated by the transform like a scalar `malloc`.
    MallocArray {
        /// Struct being allocated.
        struct_name: String,
        /// Element count expression.
        count: Box<Expr>,
        /// Pool to allocate from (`None` before the transform).
        pool: Option<PoolRef>,
        /// Unique allocation-site id (shared numbering with `Malloc`).
        site: u32,
        /// As for [`Expr::Malloc`]: shadow protection may be skipped.
        unchecked: bool,
        /// Source location of the `malloc_array` keyword.
        span: Span,
    },
    /// Array element address: `base[index]`, of the same pointer type.
    Index {
        /// Pointer to the array's first element.
        base: Box<Expr>,
        /// Element index.
        index: Box<Expr>,
    },
    /// Pointer field read: `base->field`.
    Field {
        /// Pointer expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// Source location of the `->` (the dereference diagnostics cite).
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Function call. `pool_args` is filled by the transform.
    Call {
        /// Callee name.
        callee: String,
        /// Value arguments.
        args: Vec<Expr>,
        /// Pool-descriptor arguments added by the transform.
        pool_args: Vec<PoolRef>,
        /// Source location of the call (eq-transparent metadata).
        span: Span,
    },
}

/// Assignable places.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// A local, parameter or global variable.
    Var(String),
    /// A pointer field: `base->field`.
    Field {
        /// Pointer expression.
        base: Expr,
        /// Field name.
        field: String,
        /// Source location of the `->` (the dereference diagnostics cite).
        span: Span,
    },
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Local declaration with optional initializer.
    VarDecl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Assignment.
    Assign {
        /// Target place.
        lhs: LValue,
        /// Source expression.
        rhs: Expr,
    },
    /// `free(e)`, optionally pool-annotated after the transform. `site` is
    /// a unique free-site id.
    Free {
        /// Pointer being freed.
        expr: Expr,
        /// Pool to free into (`None` before the transform).
        pool: Option<PoolRef>,
        /// Unique free-site id.
        site: u32,
        /// Set by dangle-lint when this site (and every site of its alias
        /// class) is `ProvablySafe`: the backend may skip the hidden-word
        /// check and `mprotect`.
        unchecked: bool,
        /// Source location of the `free` keyword.
        span: Span,
    },
    /// Conditional.
    If {
        /// Condition (non-zero = true).
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
    },
    /// Loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// Return from the function.
    Return(Option<Expr>),
    /// `print(e)`: appends the value to the program's observable output.
    Print(Expr),
    /// Expression statement (e.g. a call).
    ExprStmt(Expr),
    /// `poolinit(P, elem_size)` — inserted by the transform.
    PoolInit {
        /// Pool descriptor name.
        pool: PoolRef,
        /// Element-size hint.
        elem_size: usize,
    },
    /// `pooldestroy(P)` — inserted by the transform.
    PoolDestroy {
        /// Pool descriptor name.
        pool: PoolRef,
    },
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Value parameters.
    pub params: Vec<(String, Type)>,
    /// Pool-descriptor parameters added by the transform.
    pub pool_params: Vec<PoolRef>,
    /// Return type (`None` = void).
    pub ret: Option<Type>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A whole MiniC program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Global variables (zero/null initialized).
    pub globals: Vec<(String, Type)>,
    /// Functions. Execution starts at `main`.
    pub funcs: Vec<FuncDef>,
}

impl Program {
    /// Finds a struct by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Finds a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Total number of `malloc` sites (site ids are `0..n`).
    pub fn count_malloc_sites(&self) -> u32 {
        let mut n = 0;
        for f in &self.funcs {
            visit_exprs(&f.body, &mut |e| {
                if let Expr::Malloc { site, .. } | Expr::MallocArray { site, .. } = e {
                    n = n.max(site + 1);
                }
            });
        }
        n
    }
}

impl Expr {
    /// Calls `f` on this expression and then on each subexpression, in
    /// pre-order (operands left to right).
    pub fn visit<'p>(&'p self, f: &mut impl FnMut(&'p Expr)) {
        f(self);
        match self {
            Expr::MallocArray { count, .. } => count.visit(f),
            Expr::Index { base, index } => {
                base.visit(f);
                index.visit(f);
            }
            Expr::Field { base, .. } => base.visit(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| a.visit(f)),
            Expr::Int(_) | Expr::Null | Expr::Var(_) | Expr::Malloc { .. } => {}
        }
    }
}

impl Stmt {
    /// The statement's own top-level expressions, in program order: an
    /// assignment's field base before its right-hand side, and an
    /// `if`/`while` condition, but nothing inside a nested block.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (first, second) = match self {
            Stmt::VarDecl { init, .. } | Stmt::Return(init) => (init.as_ref(), None),
            Stmt::Assign { lhs, rhs } => match lhs {
                LValue::Field { base, .. } => (Some(base), Some(rhs)),
                LValue::Var(_) => (Some(rhs), None),
            },
            Stmt::Free { expr: e, .. }
            | Stmt::If { cond: e, .. }
            | Stmt::While { cond: e, .. }
            | Stmt::Print(e)
            | Stmt::ExprStmt(e) => (Some(e), None),
            Stmt::PoolInit { .. } | Stmt::PoolDestroy { .. } => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// Calls `f` on every statement of `stmts`, nested blocks included, in
/// program pre-order: a statement before the blocks it contains, and an
/// `if`'s then block before its else block.
pub fn visit_stmts<'p>(stmts: &'p [Stmt], f: &mut impl FnMut(&'p Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::If { then, els, .. } => {
                visit_stmts(then, f);
                visit_stmts(els, f);
            }
            Stmt::While { body, .. } => visit_stmts(body, f),
            _ => {}
        }
    }
}

/// Calls `f` on every expression of `stmts` and on each of its
/// subexpressions, in program pre-order: a statement's own expressions
/// ([`Stmt::exprs`]) before those of its nested blocks.
pub fn visit_exprs<'p>(stmts: &'p [Stmt], f: &mut impl FnMut(&'p Expr)) {
    visit_stmts(stmts, &mut |s| s.exprs().for_each(|e| e.visit(f)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_layout() {
        let s = StructDef {
            name: "s".into(),
            fields: vec![
                ("next".into(), Type::Ptr("s".into())),
                ("val".into(), Type::Int),
            ],
        };
        assert_eq!(s.size(), 16);
        assert_eq!(s.offset_of("next"), Some(0));
        assert_eq!(s.offset_of("val"), Some(8));
        assert_eq!(s.offset_of("nope"), None);
        assert_eq!(s.type_of("val"), Some(&Type::Int));
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::Ptr("s".into()).to_string(), "ptr<s>");
        assert!(Type::Ptr("s".into()).is_ptr());
        assert!(!Type::Int.is_ptr());
    }

    #[test]
    fn malloc_site_counting() {
        let p = Program {
            structs: vec![],
            globals: vec![],
            funcs: vec![FuncDef {
                name: "main".into(),
                params: vec![],
                pool_params: vec![],
                ret: None,
                body: vec![
                    Stmt::VarDecl {
                        name: "x".into(),
                        ty: Type::Ptr("s".into()),
                        init: Some(Expr::Malloc {
                            struct_name: "s".into(),
                            pool: None,
                            site: 0,
                            unchecked: false,
                            span: Span::NONE,
                        }),
                    },
                    Stmt::ExprStmt(Expr::Malloc {
                        struct_name: "s".into(),
                        pool: None,
                        site: 1,
                        unchecked: false,
                        span: Span::NONE,
                    }),
                ],
            }],
        };
        assert_eq!(p.count_malloc_sites(), 2);
    }

    #[test]
    fn visitors_walk_in_program_pre_order() {
        let p = crate::parse::parse(
            "fn main() {
                 var a: int = 1;
                 if (a < 2) { var b: int = a + 3; } else { print(4); }
                 while (a) { a = 5; }
             }",
        )
        .unwrap();
        let body = &p.funcs[0].body;
        let mut stmts = 0;
        visit_stmts(body, &mut |_| stmts += 1);
        assert_eq!(stmts, 6);
        let mut leaves = Vec::new();
        visit_exprs(body, &mut |e| match e {
            Expr::Int(v) => leaves.push(v.to_string()),
            Expr::Var(v) => leaves.push(v.clone()),
            _ => {}
        });
        assert_eq!(leaves, ["1", "a", "2", "a", "3", "4", "a", "5"]);
    }
}
