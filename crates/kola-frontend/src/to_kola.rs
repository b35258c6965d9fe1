//! The AQUA → KOLA combinator translator (\[11\] in the paper).
//!
//! λ-bound variables are compiled away by threading an *explicit
//! environment*: entering a λ under environment `e` evaluates the body
//! against the pair `[e, x]` (built by `(id, …)` and consumed by `iter`),
//! and a variable occurrence becomes a π-chain addressing its slot — the
//! scheme §5 describes ("combinators that permit generation of explicit
//! environments (id and ⟨⟩), and access to those environments (π1, π2 and
//! ∘)"). Applied to the garage query, the output is *literally* Figure 3's
//! KG1 (see the tests).
//!
//! Supported: the full [`Expr`] language except `join` under a non-empty
//! environment (the paper's translator is likewise scoped; see DESIGN.md).

use kola::builder as k;
use kola::term::{Func, Pred, Query};
use kola::value::Sym;
use kola_aqua::ast::{CmpOp, Expr, Lambda};
use std::fmt;

/// Errors the translator can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The variable is not bound by any enclosing λ.
    UnboundVar(Sym),
    /// A boolean expression appeared where a value was required (or vice
    /// versa).
    BoolValueMismatch,
    /// `join` under a non-empty environment is out of the supported subset.
    JoinUnderEnv,
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::UnboundVar(v) => write!(f, "unbound variable {v}"),
            TranslateError::BoolValueMismatch => {
                write!(f, "boolean used as value (or value as boolean)")
            }
            TranslateError::JoinUnderEnv => {
                write!(f, "join under a non-empty environment is unsupported")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

type TResult<T> = Result<T, TranslateError>;

/// Compose with `id`-collapse, so variable paths print exactly like the
/// paper's (`π1` rather than `id ∘ π1`).
fn compose(f: Func, g: Func) -> Func {
    match (f, g) {
        (Func::Id, g) => g,
        (f, Func::Id) => f,
        (f, g) => k::o(f, g),
    }
}

/// The environment: the stack of λ-bound variable names, outermost first.
/// Runtime encoding: `[…[[v1, v2], v3]…]` — entering a binder pairs the
/// current environment with the new value.
#[derive(Debug, Clone, Default)]
struct EnvStack(Vec<Sym>);

impl EnvStack {
    fn push(&self, v: &Sym) -> EnvStack {
        let mut next = self.0.clone();
        next.push(v.clone());
        EnvStack(next)
    }

    /// The π-chain accessing `v` in the current encoding.
    fn access(&self, v: &Sym) -> TResult<Func> {
        let pos = self
            .0
            .iter()
            .rposition(|x| x == v)
            .ok_or_else(|| TranslateError::UnboundVar(v.clone()))?;
        // Innermost variable: π2 (or id if it is the only binding).
        // Each enclosing level adds a ∘ π1.
        let depth_from_top = self.0.len() - 1 - pos;
        let mut path = if pos == 0 {
            // The bottom of the environment is the raw value, not a pair.
            Func::Id
        } else {
            Func::Pi2
        };
        for _ in 0..depth_from_top {
            path = compose(path, Func::Pi1);
        }
        Ok(path)
    }
}

/// Apply `f` to a translated query, fusing with an existing application so
/// nested `app`s become composition chains (`f ∘ g ! x` rather than
/// `f ! (g ! x)`) — the form the paper's figures print.
fn apply_fused(f: Func, mut q: Query) -> Query {
    // `Query` has a manual `Drop`, so its fields can't be moved out by
    // pattern; detach them with `mem::replace` instead.
    if let Query::App(g, base) = &mut q {
        let g = std::mem::replace(g, Func::Id);
        let base = std::mem::replace(&mut **base, Query::Lit(kola::Value::Unit));
        return Query::App(compose(f, g), Box::new(base));
    }
    k::app(f, q)
}

/// Translate a *closed* AQUA expression to a KOLA query.
pub fn translate_query(e: &Expr) -> TResult<Query> {
    let env = EnvStack::default();
    match e {
        Expr::Lit(v) => Ok(Query::Lit(v.clone())),
        Expr::Extent(s) => Ok(Query::Extent(s.clone())),
        Expr::Pair(a, b) => Ok(k::pairq(translate_query(a)?, translate_query(b)?)),
        Expr::Attr(inner, attr) => Ok(apply_fused(
            Func::Prim(attr.clone()),
            translate_query(inner)?,
        )),
        Expr::App(l, s) => Ok(apply_fused(
            k::iterate(k::kp(true), func_under(&env, l)?),
            translate_query(s)?,
        )),
        Expr::Sel(l, s) => Ok(apply_fused(
            k::iterate(pred_under(&env, l)?, Func::Id),
            translate_query(s)?,
        )),
        Expr::Flatten(s) => Ok(apply_fused(Func::Flat, translate_query(s)?)),
        Expr::Join {
            pred,
            func,
            left,
            right,
        } => {
            // Two-variable environment [x, y] encoded as the raw pair.
            let env2 = EnvStack(vec![pred.var1.clone(), pred.var2.clone()]);
            let p = translate_pred(&env2, &pred.body)?;
            let envf = EnvStack(vec![func.var1.clone(), func.var2.clone()]);
            let f = translate_func(&envf, &func.body)?;
            Ok(k::app(
                k::join(p, f),
                k::pairq(translate_query(left)?, translate_query(right)?),
            ))
        }
        Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => {
            let p = translate_pred(&env, e)?;
            // A closed boolean: test it against a dummy unit argument.
            Ok(Query::Test(
                strip_env_pred(p),
                Box::new(Query::Lit(kola::value::Value::Unit)),
            ))
        }
        Expr::If(..) | Expr::Var(_) => Err(TranslateError::BoolValueMismatch),
    }
}

/// A closed boolean translated under the empty env expects the env value
/// itself as input; any input works, so pass it through unchanged.
fn strip_env_pred(p: Pred) -> Pred {
    p
}

/// Enter a λ from environment `env` and translate its body as a function
/// over the extended environment.
fn func_under(env: &EnvStack, l: &Lambda) -> TResult<Func> {
    translate_func(&env.push(&l.var), &l.body)
}

fn pred_under(env: &EnvStack, l: &Lambda) -> TResult<Pred> {
    translate_pred(&env.push(&l.var), &l.body)
}

/// Translate an expression to a KOLA function of the environment.
fn translate_func(env: &EnvStack, e: &Expr) -> TResult<Func> {
    match e {
        Expr::Var(v) => env.access(v),
        Expr::Lit(v) => Ok(k::kf(v.clone())),
        Expr::Extent(s) => Ok(Func::ConstF(Box::new(Query::Extent(s.clone())))),
        Expr::Attr(inner, attr) => Ok(compose(
            Func::Prim(attr.clone()),
            translate_func(env, inner)?,
        )),
        Expr::Pair(a, b) => Ok(k::pairf(translate_func(env, a)?, translate_func(env, b)?)),
        Expr::App(l, s) => {
            // iter(Kp(T), T⟦body⟧(env+x)) ∘ (id, T⟦S⟧env)
            let body = func_under(env, l)?;
            let source = translate_func(env, s)?;
            Ok(compose(
                k::iter(k::kp(true), body),
                k::pairf(Func::Id, source),
            ))
        }
        Expr::Sel(l, s) => {
            // iter(P⟦p⟧(env+x), π2) ∘ (id, T⟦S⟧env)
            let p = pred_under(env, l)?;
            let source = translate_func(env, s)?;
            Ok(compose(k::iter(p, Func::Pi2), k::pairf(Func::Id, source)))
        }
        Expr::Flatten(s) => Ok(compose(Func::Flat, translate_func(env, s)?)),
        Expr::If(p, a, b) => Ok(k::con(
            translate_pred(env, p)?,
            translate_func(env, a)?,
            translate_func(env, b)?,
        )),
        Expr::Join { .. } => Err(TranslateError::JoinUnderEnv),
        Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => {
            Err(TranslateError::BoolValueMismatch)
        }
    }
}

/// Translate a boolean expression to a KOLA predicate on the environment.
fn translate_pred(env: &EnvStack, e: &Expr) -> TResult<Pred> {
    match e {
        Expr::Cmp(op, a, b) => {
            let fa = translate_func(env, a)?;
            let fb = translate_func(env, b)?;
            let base = match op {
                CmpOp::Eq => Pred::Eq,
                CmpOp::Lt => Pred::Lt,
                CmpOp::Leq => Pred::Leq,
                CmpOp::Gt => Pred::Gt,
                CmpOp::Geq => Pred::Geq,
                CmpOp::In => Pred::In,
            };
            Ok(k::oplus(base, k::pairf(fa, fb)))
        }
        Expr::And(a, b) => Ok(k::and(translate_pred(env, a)?, translate_pred(env, b)?)),
        Expr::Or(a, b) => Ok(k::or(translate_pred(env, a)?, translate_pred(env, b)?)),
        Expr::Not(a) => Ok(k::not(translate_pred(env, a)?)),
        _ => Err(TranslateError::BoolValueMismatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola_aqua::ast::Expr as E;
    use kola_aqua::rules::{query_a3, query_a4, query_t1, query_t2};

    #[test]
    fn t1_translates_to_nested_iterates() {
        let q = translate_query(&query_t1()).unwrap();
        assert_eq!(
            q.to_string(),
            "iterate(Kp(T), city) . iterate(Kp(T), addr) ! P"
        );
    }

    #[test]
    fn t2_translates_to_figure_4_start() {
        let q = translate_query(&query_t2()).unwrap();
        assert_eq!(
            q.to_string(),
            "iterate(Kp(T), age) . iterate(gt @ (age, Kf(25)), id) ! P"
        );
    }

    #[test]
    fn a3_a4_translate_to_structurally_distinct_kola() {
        // §3.2: the KOLA forms differ by π1 vs π2 — structure reveals what
        // the variable-based forms hide.
        let k3 = translate_query(&query_a3()).unwrap().to_string();
        let k4 = translate_query(&query_a4()).unwrap().to_string();
        assert_ne!(k3, k4);
        assert!(
            k3.contains("age . pi2"),
            "A3 tests the inner variable: {k3}"
        );
        assert!(
            k4.contains("age . pi1"),
            "A4 tests the outer variable: {k4}"
        );
    }

    #[test]
    fn garage_query_translates_to_kg1() {
        // app(λv. [v, flatten(app(λp. p.grgs)(sel(λc. v in c.cars)(P)))])(V)
        let sel = E::sel(
            Lambda::new(
                "c",
                E::cmp(CmpOp::In, E::var("v"), E::var("c").attr("cars")),
            ),
            E::extent("P"),
        );
        let app_grgs = E::app(Lambda::new("p", E::var("p").attr("grgs")), sel);
        let garage = E::app(
            Lambda::new("v", E::pair(E::var("v"), E::Flatten(Box::new(app_grgs)))),
            E::extent("V"),
        );
        let q = translate_query(&garage).unwrap();
        assert_eq!(q, kola_rewrite_free_kg1(), "translated: {q}\nexpected KG1");
    }

    /// Figure 3's KG1, built from its printed text.
    fn kola_rewrite_free_kg1() -> Query {
        kola::parse::parse_query(
            "iterate(Kp(T), (id, \
                flat . \
                iter(Kp(T), grgs . pi2) . \
                (id, iter(in @ (pi1, cars . pi2), pi2) . \
                (id, Kf(P))))) ! V",
        )
        .unwrap()
    }

    #[test]
    fn deep_variable_access_paths() {
        // Three levels: innermost body references all three binders.
        // app(λa. app(λb. app(λc. [a, [b, c]])(c0.child))(b0.child))(P)
        let inner = E::app(
            Lambda::new("c", E::pair(E::var("a"), E::pair(E::var("b"), E::var("c")))),
            E::var("b").attr("child"),
        );
        let mid = E::app(Lambda::new("b", inner), E::var("a").attr("child"));
        let q = E::app(Lambda::new("a", mid), E::extent("P"));
        let k = translate_query(&q).unwrap().to_string();
        // a is two levels up: pi1 . pi1; b: pi2 . pi1; c: pi2.
        assert!(k.contains("pi1 . pi1"), "{k}");
        assert!(k.contains("pi2 . pi1"), "{k}");
    }

    #[test]
    fn unbound_variable_rejected() {
        let q = E::app(Lambda::new("x", E::var("y")), E::extent("P"));
        assert_eq!(
            translate_query(&q),
            Err(TranslateError::UnboundVar(std::sync::Arc::from("y")))
        );
    }

    #[test]
    fn closed_join_translates() {
        let q = Expr::Join {
            pred: kola_aqua::ast::Lambda2::new(
                "x",
                "y",
                E::cmp(CmpOp::Eq, E::var("x"), E::var("y")),
            ),
            func: kola_aqua::ast::Lambda2::new("x", "y", E::var("x")),
            left: Box::new(E::extent("P")),
            right: Box::new(E::extent("P")),
        };
        let k = translate_query(&q).unwrap();
        assert_eq!(k.to_string(), "join(eq @ (pi1, pi2), pi1) ! [P, P]");
    }

    use kola_aqua::ast::Lambda;
}
