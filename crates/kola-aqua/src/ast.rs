//! The AQUA abstract syntax: a *variable-based* object algebra.
//!
//! AQUA \[25\] is the paper's §2 case study for why variables make rules hard:
//! anonymous functions are λ-expressions, so a rule that wants to compose or
//! decompose them must manipulate open terms — which demands renaming,
//! substitution and free-variable analysis (the "additional machinery" of
//! §2.1–2.3). This crate implements exactly the subset the paper's figures
//! use: `app`, `sel`, `flatten`, `join`, λ-functions, path expressions,
//! pairs, comparisons and conditionals.

use kola::value::{Sym, Value};
use std::sync::Arc;

/// Comparison operators usable in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Leq,
    /// `>`
    Gt,
    /// `>=`
    Geq,
    /// `in` (set membership)
    In,
}

/// A one-argument λ-abstraction: `λx. body`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lambda {
    /// The bound variable.
    pub var: Sym,
    /// The body (may reference `var` and any enclosing variables).
    pub body: Box<Expr>,
}

impl Lambda {
    /// Construct a lambda.
    pub fn new(var: &str, body: Expr) -> Lambda {
        Lambda {
            var: Arc::from(var),
            body: Box::new(body),
        }
    }
}

/// A two-argument λ-abstraction for `join`: `λ(x, y). body`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lambda2 {
    /// First bound variable.
    pub var1: Sym,
    /// Second bound variable.
    pub var2: Sym,
    /// The body.
    pub body: Box<Expr>,
}

impl Lambda2 {
    /// Construct a two-variable lambda.
    pub fn new(var1: &str, var2: &str, body: Expr) -> Lambda2 {
        Lambda2 {
            var1: Arc::from(var1),
            var2: Arc::from(var2),
            body: Box::new(body),
        }
    }
}

/// An AQUA expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A variable reference.
    Var(Sym),
    /// A literal value.
    Lit(Value),
    /// A named extent (`P`, `V`).
    Extent(Sym),
    /// Attribute access `e.attr`.
    Attr(Box<Expr>, Sym),
    /// Pair construction `[e1, e2]`.
    Pair(Box<Expr>, Box<Expr>),
    /// Comparison `e1 op e2`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `app(λx. e)(S)` — map `e` over the set `S`.
    App(Lambda, Box<Expr>),
    /// `sel(λx. p)(S)` — select elements of `S` satisfying `p`.
    Sel(Lambda, Box<Expr>),
    /// `flatten(S)` — union the members of a set of sets.
    Flatten(Box<Expr>),
    /// `join(λ(x,y). p, λ(x,y). f)([A, B])`.
    Join {
        /// The join predicate.
        pred: Lambda2,
        /// The pairing function.
        func: Lambda2,
        /// Left input set.
        left: Box<Expr>,
        /// Right input set.
        right: Box<Expr>,
    },
    /// `if p then e1 else e2` — produced by the code-motion transformation
    /// of §2.2.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(Arc::from(name))
    }

    /// Named extent.
    pub fn extent(name: &str) -> Expr {
        Expr::Extent(Arc::from(name))
    }

    /// Attribute access.
    pub fn attr(self, name: &str) -> Expr {
        Expr::Attr(Box::new(self), Arc::from(name))
    }

    /// Integer literal.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Value::Int(i))
    }

    /// Comparison.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// Pair.
    pub fn pair(a: Expr, b: Expr) -> Expr {
        Expr::Pair(Box::new(a), Box::new(b))
    }

    /// `app`.
    pub fn app(f: Lambda, s: Expr) -> Expr {
        Expr::App(f, Box::new(s))
    }

    /// `sel`.
    pub fn sel(p: Lambda, s: Expr) -> Expr {
        Expr::Sel(p, Box::new(s))
    }

    /// Node count (size accounting for the §4.2 experiment).
    pub fn size(&self) -> usize {
        match self {
            Expr::Var(_) | Expr::Lit(_) | Expr::Extent(_) => 1,
            Expr::Attr(e, _) | Expr::Not(e) | Expr::Flatten(e) => 1 + e.size(),
            Expr::Pair(a, b) | Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                1 + a.size() + b.size()
            }
            Expr::App(l, s) | Expr::Sel(l, s) => 1 + l.body.size() + s.size(),
            Expr::Join {
                pred,
                func,
                left,
                right,
            } => 1 + pred.body.size() + func.body.size() + left.size() + right.size(),
            Expr::If(p, a, b) => 1 + p.size() + a.size() + b.size(),
        }
    }

    /// Maximum number of λ-binders enclosing any point of the expression —
    /// the paper's `m`, the "degree of nesting" (§4.2).
    pub fn max_env_depth(&self) -> usize {
        fn go(e: &Expr, depth: usize, max: &mut usize) {
            *max = (*max).max(depth);
            match e {
                Expr::Var(_) | Expr::Lit(_) | Expr::Extent(_) => {}
                Expr::Attr(e, _) | Expr::Not(e) | Expr::Flatten(e) => go(e, depth, max),
                Expr::Pair(a, b) | Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                    go(a, depth, max);
                    go(b, depth, max);
                }
                Expr::App(l, s) | Expr::Sel(l, s) => {
                    go(&l.body, depth + 1, max);
                    go(s, depth, max);
                }
                Expr::Join {
                    pred,
                    func,
                    left,
                    right,
                } => {
                    go(&pred.body, depth + 2, max);
                    go(&func.body, depth + 2, max);
                    go(left, depth, max);
                    go(right, depth, max);
                }
                Expr::If(p, a, b) => {
                    go(p, depth, max);
                    go(a, depth, max);
                    go(b, depth, max);
                }
            }
        }
        let mut max = 0;
        go(self, 0, &mut max);
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        // app(λp. p.addr.city)(P)
        let q = Expr::app(
            Lambda::new("p", Expr::var("p").attr("addr").attr("city")),
            Expr::extent("P"),
        );
        match &q {
            Expr::App(l, s) => {
                assert_eq!(&*l.var, "p");
                assert_eq!(**s, Expr::extent("P"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn size_counts() {
        let e = Expr::cmp(CmpOp::Gt, Expr::var("x").attr("age"), Expr::int(25));
        // cmp + attr + var + lit
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn env_depth() {
        // A3: app(λp. [p, sel(λc. c.age > 25)(p.child)])(P): depth 2.
        let inner = Expr::sel(
            Lambda::new(
                "c",
                Expr::cmp(CmpOp::Gt, Expr::var("c").attr("age"), Expr::int(25)),
            ),
            Expr::var("p").attr("child"),
        );
        let a3 = Expr::app(
            Lambda::new("p", Expr::pair(Expr::var("p"), inner)),
            Expr::extent("P"),
        );
        assert_eq!(a3.max_env_depth(), 2);
        assert_eq!(Expr::extent("P").max_env_depth(), 0);
    }
}
