//! First-order matching of patterns against concrete terms.
//!
//! This is the "unification" the paper's §2.3 describes: a rule fires iff
//! its head pattern matches a (sub)term structurally, binding metavariables.
//! Because KOLA terms are variable-free, matching *is* sufficient — no
//! environment analysis or renaming is ever needed.
//!
//! ## Composition chains
//!
//! `∘` is associative (rule 1 of Figure 5), and the paper's rules are meant
//! to apply to any *window* of a composition chain (e.g. rule 11 fuses any
//! two adjacent `iterate`s in a longer pipeline). We therefore treat chains
//! specially at rule-application roots: [`match_func_prefix`] flattens both
//! pattern and term chains (right-normalized) and matches the pattern's
//! segments against a **prefix** of the term's segments, returning the
//! unconsumed suffix. A trailing function variable in the pattern absorbs
//! the whole remainder (so `con(p,f,g) ∘ $h` matches a `con` followed by any
//! pipeline). Interior windows are reached by the engine's traversal, which
//! recurses into chain tails.

use crate::subst::Subst;
use kola::intern::Tag;
use kola::pattern::{PFunc, PPred, PQuery};
use kola::term::{Func, Pred, Query};

/// Match a function pattern against a concrete function (exactly — the whole
/// term must be consumed).
pub fn match_func(pat: &PFunc, t: &Func, s: &mut Subst) -> bool {
    match (pat, t) {
        (PFunc::Var(v), _) => s.bind_func(v, t),
        (PFunc::Id, Func::Id)
        | (PFunc::Pi1, Func::Pi1)
        | (PFunc::Pi2, Func::Pi2)
        | (PFunc::Flat, Func::Flat)
        | (PFunc::Bagify, Func::Bagify)
        | (PFunc::Dedup, Func::Dedup)
        | (PFunc::BUnion, Func::BUnion)
        | (PFunc::BFlat, Func::BFlat)
        | (PFunc::SetUnion, Func::SetUnion)
        | (PFunc::SetIntersect, Func::SetIntersect)
        | (PFunc::SetDiff, Func::SetDiff) => true,
        (PFunc::Prim(a), Func::Prim(b)) => a == b,
        (PFunc::Compose(p1, p2), Func::Compose(t1, t2)) => {
            match_func(p1, t1, s) && match_func(p2, t2, s)
        }
        (PFunc::PairWith(p1, p2), Func::PairWith(t1, t2)) => {
            match_func(p1, t1, s) && match_func(p2, t2, s)
        }
        (PFunc::Times(p1, p2), Func::Times(t1, t2)) => {
            match_func(p1, t1, s) && match_func(p2, t2, s)
        }
        (PFunc::ConstF(pq), Func::ConstF(tq)) => match_query(pq, tq, s),
        (PFunc::CurryF(pf, pq), Func::CurryF(tf, tq)) => {
            match_func(pf, tf, s) && match_query(pq, tq, s)
        }
        (PFunc::Cond(pp, pf, pg), Func::Cond(tp, tf, tg)) => {
            match_pred(pp, tp, s) && match_func(pf, tf, s) && match_func(pg, tg, s)
        }
        (PFunc::Iterate(pp, pf), Func::Iterate(tp, tf))
        | (PFunc::Iter(pp, pf), Func::Iter(tp, tf))
        | (PFunc::Join(pp, pf), Func::Join(tp, tf))
        | (PFunc::BIterate(pp, pf), Func::BIterate(tp, tf)) => {
            // Note the pattern/term constructors must agree; the tuple match
            // above only pairs like with like because of the | arms' shape.
            matches_same_pf(pat, t) && match_pred(pp, tp, s) && match_func(pf, tf, s)
        }
        (PFunc::Nest(pf, pg), Func::Nest(tf, tg))
        | (PFunc::Unnest(pf, pg), Func::Unnest(tf, tg)) => {
            matches_same_pf(pat, t) && match_func(pf, tf, s) && match_func(pg, tg, s)
        }
        _ => false,
    }
}

/// Guard used by the or-patterns in [`match_func`]: confirms pattern and
/// term use the *same* constructor (`iterate` vs `iter` vs `join`, `nest` vs
/// `unnest`).
fn matches_same_pf(pat: &PFunc, t: &Func) -> bool {
    matches!(
        (pat, t),
        (PFunc::Iterate(..), Func::Iterate(..))
            | (PFunc::Iter(..), Func::Iter(..))
            | (PFunc::Join(..), Func::Join(..))
            | (PFunc::BIterate(..), Func::BIterate(..))
            | (PFunc::Nest(..), Func::Nest(..))
            | (PFunc::Unnest(..), Func::Unnest(..))
    )
}

/// Match a predicate pattern against a concrete predicate.
pub fn match_pred(pat: &PPred, t: &Pred, s: &mut Subst) -> bool {
    match (pat, t) {
        (PPred::Var(v), _) => s.bind_pred(v, t),
        (PPred::Eq, Pred::Eq)
        | (PPred::Lt, Pred::Lt)
        | (PPred::Leq, Pred::Leq)
        | (PPred::Gt, Pred::Gt)
        | (PPred::Geq, Pred::Geq)
        | (PPred::In, Pred::In) => true,
        (PPred::PrimP(a), Pred::PrimP(b)) => a == b,
        (PPred::ConstP(a), Pred::ConstP(b)) => a == b,
        (PPred::Oplus(pp, pf), Pred::Oplus(tp, tf)) => {
            match_pred(pp, tp, s) && match_func(pf, tf, s)
        }
        (PPred::And(p1, p2), Pred::And(t1, t2)) | (PPred::Or(p1, p2), Pred::Or(t1, t2)) => {
            matches!(
                (pat, t),
                (PPred::And(..), Pred::And(..)) | (PPred::Or(..), Pred::Or(..))
            ) && match_pred(p1, t1, s)
                && match_pred(p2, t2, s)
        }
        (PPred::Not(p), Pred::Not(t)) => match_pred(p, t, s),
        (PPred::Conv(p), Pred::Conv(t)) => match_pred(p, t, s),
        (PPred::CurryP(pp, pq), Pred::CurryP(tp, tq)) => {
            match_pred(pp, tp, s) && match_query(pq, tq, s)
        }
        _ => false,
    }
}

/// Match a query pattern against a concrete query.
pub fn match_query(pat: &PQuery, t: &Query, s: &mut Subst) -> bool {
    match (pat, t) {
        (PQuery::Var(v), _) => s.bind_obj(v, t),
        (PQuery::Lit(a), Query::Lit(b)) => a == b,
        (PQuery::Extent(a), Query::Extent(b)) => a == b,
        (PQuery::PairQ(p1, p2), Query::PairQ(t1, t2)) => {
            match_query(p1, t1, s) && match_query(p2, t2, s)
        }
        (PQuery::App(pf, pq), Query::App(tf, tq)) => {
            match_func(pf, tf, s) && match_query(pq, tq, s)
        }
        (PQuery::Test(pp, pq), Query::Test(tp, tq)) => {
            match_pred(pp, tp, s) && match_query(pq, tq, s)
        }
        (PQuery::Union(p1, p2), Query::Union(t1, t2))
        | (PQuery::Intersect(p1, p2), Query::Intersect(t1, t2))
        | (PQuery::Diff(p1, p2), Query::Diff(t1, t2)) => {
            matches!(
                (pat, t),
                (PQuery::Union(..), Query::Union(..))
                    | (PQuery::Intersect(..), Query::Intersect(..))
                    | (PQuery::Diff(..), Query::Diff(..))
            ) && match_query(p1, t1, s)
                && match_query(p2, t2, s)
        }
        _ => false,
    }
}

/// Flatten a composition chain into its segments, left to right.
/// `a ∘ (b ∘ c)` and `(a ∘ b) ∘ c` both yield `[a, b, c]`.
///
/// Iterative (explicit work stack): chains can be arbitrarily deep in
/// either association, and this runs inside the engine's hot path where a
/// recursive walk would overflow the native stack on adversarial input.
pub fn chain_segments(f: &Func) -> Vec<&Func> {
    let mut out = Vec::new();
    let mut work = vec![f];
    while let Some(f) = work.pop() {
        match f {
            Func::Compose(a, b) => {
                // Pop order: `a` must be emitted before `b`.
                work.push(b);
                work.push(a);
            }
            leaf => out.push(leaf),
        }
    }
    out
}

/// Flatten a pattern composition chain into its segments (iterative, see
/// [`chain_segments`]).
pub fn pchain_segments(f: &PFunc) -> Vec<&PFunc> {
    let mut out = Vec::new();
    let mut work = vec![f];
    while let Some(f) = work.pop() {
        match f {
            PFunc::Compose(a, b) => {
                work.push(b);
                work.push(a);
            }
            leaf => out.push(leaf),
        }
    }
    out
}

/// Rebuild a right-associated composition chain from owned segments.
/// The empty chain is the unit of `∘`: [`Func::Id`].
pub fn compose_chain(mut segs: Vec<Func>) -> Func {
    let Some(last) = segs.pop() else {
        return Func::Id;
    };
    segs.into_iter()
        .rev()
        .fold(last, |acc, f| Func::Compose(Box::new(f), Box::new(acc)))
}

/// Match a (possibly composite) function pattern against a *prefix* of the
/// term's composition chain.
///
/// Returns the number of term segments consumed. A trailing `$var` segment
/// in the pattern absorbs the entire remaining chain. Non-`Compose` patterns
/// must match exactly one leading segment.
pub fn match_func_prefix(pat: &PFunc, t: &Func, s: &mut Subst) -> Option<usize> {
    let psegs = pchain_segments(pat);
    let tsegs = chain_segments(t);
    let m = psegs.len();
    let n = tsegs.len();
    if m == 0 || n == 0 {
        return None;
    }
    // All but the last pattern segment match one term segment each.
    if m - 1 > n {
        return None;
    }
    for (p, t) in psegs[..m - 1].iter().zip(&tsegs) {
        if !match_func(p, t, s) {
            return None;
        }
    }
    let last = psegs[m - 1];
    match last {
        PFunc::Var(v) => {
            // Absorb the remainder (at least one segment).
            if n < m {
                return None;
            }
            let rest: Vec<Func> = tsegs[m - 1..].iter().map(|f| (*f).clone()).collect();
            if s.bind_func(v, &compose_chain(rest)) {
                Some(n)
            } else {
                None
            }
        }
        _ => {
            if n < m {
                return None;
            }
            if match_func(last, tsegs[m - 1], s) {
                Some(m)
            } else {
                None
            }
        }
    }
}

/// Constructor tag of a function pattern's root (`None` = metavariable).
/// Shared with the discrimination tree ([`crate::dtree`]), whose edge
/// alphabet is exactly these tags.
pub(crate) fn pfunc_tag(p: &PFunc) -> Option<Tag> {
    Some(match p {
        PFunc::Var(_) => return None,
        PFunc::Id => Tag::FId,
        PFunc::Pi1 => Tag::FPi1,
        PFunc::Pi2 => Tag::FPi2,
        PFunc::Prim(_) => Tag::FPrim,
        PFunc::Compose(..) => Tag::FCompose,
        PFunc::PairWith(..) => Tag::FPairWith,
        PFunc::Times(..) => Tag::FTimes,
        PFunc::ConstF(_) => Tag::FConstF,
        PFunc::CurryF(..) => Tag::FCurryF,
        PFunc::Cond(..) => Tag::FCond,
        PFunc::Flat => Tag::FFlat,
        PFunc::Iterate(..) => Tag::FIterate,
        PFunc::Iter(..) => Tag::FIter,
        PFunc::Join(..) => Tag::FJoin,
        PFunc::Nest(..) => Tag::FNest,
        PFunc::Unnest(..) => Tag::FUnnest,
        PFunc::Bagify => Tag::FBagify,
        PFunc::Dedup => Tag::FDedup,
        PFunc::BIterate(..) => Tag::FBIterate,
        PFunc::BUnion => Tag::FBUnion,
        PFunc::BFlat => Tag::FBFlat,
        PFunc::SetUnion => Tag::FSetUnion,
        PFunc::SetIntersect => Tag::FSetIntersect,
        PFunc::SetDiff => Tag::FSetDiff,
    })
}

/// Constructor tag of a predicate pattern's root (`None` = metavariable).
pub(crate) fn ppred_tag(p: &PPred) -> Option<Tag> {
    Some(match p {
        PPred::Var(_) => return None,
        PPred::Eq => Tag::PEq,
        PPred::Lt => Tag::PLt,
        PPred::Leq => Tag::PLeq,
        PPred::Gt => Tag::PGt,
        PPred::Geq => Tag::PGeq,
        PPred::In => Tag::PIn,
        PPred::PrimP(_) => Tag::PPrimP,
        PPred::Oplus(..) => Tag::POplus,
        PPred::And(..) => Tag::PAnd,
        PPred::Or(..) => Tag::POr,
        PPred::Not(_) => Tag::PNot,
        PPred::Conv(_) => Tag::PConv,
        PPred::ConstP(_) => Tag::PConstP,
        PPred::CurryP(..) => Tag::PCurryP,
    })
}

/// Constructor tag of a query pattern's root (`None` = metavariable).
pub(crate) fn pquery_tag(p: &PQuery) -> Option<Tag> {
    Some(match p {
        PQuery::Var(_) => return None,
        PQuery::Lit(_) => Tag::QLit,
        PQuery::Extent(_) => Tag::QExtent,
        PQuery::PairQ(..) => Tag::QPairQ,
        PQuery::App(..) => Tag::QApp,
        PQuery::Test(..) => Tag::QTest,
        PQuery::Union(..) => Tag::QUnion,
        PQuery::Intersect(..) => Tag::QIntersect,
        PQuery::Diff(..) => Tag::QDiff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::builder::*;
    use kola::parse::{parse_func, parse_pfunc, parse_ppred, parse_pquery, parse_query};

    fn fmatch(p: &str, t: &str) -> Option<Subst> {
        let pat = parse_pfunc(p).unwrap();
        let term = parse_func(t).unwrap();
        let mut s = Subst::new();
        match_func(&pat, &term, &mut s).then_some(s)
    }

    #[test]
    fn exact_leaf_matching() {
        assert!(fmatch("id", "id").is_some());
        assert!(fmatch("id", "pi1").is_none());
        assert!(fmatch("age", "age").is_some());
        assert!(fmatch("age", "addr").is_none());
    }

    #[test]
    fn var_binds_anything() {
        let s = fmatch("$f", "iterate(Kp(T), age)").unwrap();
        assert_eq!(
            s.funcs.get("f").unwrap(),
            &parse_func("iterate(Kp(T), age)").unwrap()
        );
    }

    #[test]
    fn consistency_across_occurrences() {
        assert!(fmatch("($f, $f)", "(age, age)").is_some());
        assert!(fmatch("($f, $f)", "(age, addr)").is_none());
    }

    #[test]
    fn structural_matching_descends() {
        let s = fmatch("iterate(%p, $f . $g)", "iterate(Kp(T), city . addr)").unwrap();
        assert_eq!(s.funcs.get("f").unwrap(), &prim("city"));
        assert_eq!(s.funcs.get("g").unwrap(), &prim("addr"));
        assert_eq!(s.preds.get("p").unwrap(), &kp(true));
    }

    #[test]
    fn iterate_iter_join_not_confused() {
        assert!(fmatch("iterate(%p, $f)", "iter(Kp(T), id)").is_none());
        assert!(fmatch("iter(%p, $f)", "iter(Kp(T), id)").is_some());
        assert!(fmatch("join(%p, $f)", "iterate(Kp(T), id)").is_none());
        assert!(fmatch("nest($f, $g)", "unnest(pi1, pi2)").is_none());
        assert!(fmatch("unnest($f, $g)", "unnest(pi1, pi2)").is_some());
    }

    #[test]
    fn pred_matching() {
        let pat = parse_ppred("%p @ ($f, Kf(^k))").unwrap();
        let t = kola::parse::parse_pred("gt @ (age, Kf(25))").unwrap();
        let mut s = Subst::new();
        assert!(match_pred(&pat, &t, &mut s));
        assert_eq!(s.preds.get("p").unwrap(), &gt());
        assert_eq!(s.funcs.get("f").unwrap(), &prim("age"));
        assert_eq!(s.objs.get("k").unwrap(), &int(25));
    }

    #[test]
    fn query_matching() {
        let pat = parse_pquery("iterate(Kp(T), (id, Kf(^B))) ! ^A").unwrap();
        let t = parse_query("iterate(Kp(T), (id, Kf(P))) ! V").unwrap();
        let mut s = Subst::new();
        assert!(match_query(&pat, &t, &mut s));
        assert_eq!(s.objs.get("B").unwrap(), &ext("P"));
        assert_eq!(s.objs.get("A").unwrap(), &ext("V"));
    }

    #[test]
    fn chain_segments_flatten_both_associations() {
        let t1 = parse_func("a . b . c").unwrap();
        let t2 = parse_func("(a . b) . c").unwrap();
        assert_eq!(chain_segments(&t1).len(), 3);
        assert_eq!(chain_segments(&t2).len(), 3);
        assert_eq!(
            compose_chain(chain_segments(&t2).into_iter().cloned().collect()),
            t1
        );
    }

    #[test]
    fn prefix_match_consumes_window() {
        // rule 11's head against a 3-chain: consumes the first two segments.
        let pat = parse_pfunc("iterate(%p, $f) . iterate(%q, $g)").unwrap();
        let t =
            parse_func("iterate(Kp(T), city) . iterate(Kp(T), addr) . iterate(Kp(T), id)").unwrap();
        let mut s = Subst::new();
        assert_eq!(match_func_prefix(&pat, &t, &mut s), Some(2));
        assert_eq!(s.funcs.get("f").unwrap(), &prim("city"));
        assert_eq!(s.funcs.get("g").unwrap(), &prim("addr"));
    }

    #[test]
    fn prefix_match_trailing_var_absorbs_rest() {
        // con(p,f,g) ∘ $h with a long tail.
        let pat = parse_pfunc("con(%p, $f, $g) . $h").unwrap();
        let t = parse_func("con(Kp(T), pi1, pi2) . a . b . c").unwrap();
        let mut s = Subst::new();
        assert_eq!(match_func_prefix(&pat, &t, &mut s), Some(4));
        assert_eq!(s.funcs.get("h").unwrap(), &parse_func("a . b . c").unwrap());
    }

    #[test]
    fn prefix_match_single_segment_rule() {
        // A non-compose head (rule 18) matches just the first segment.
        let pat = parse_pfunc("iterate(Kp(T), id)").unwrap();
        let t = parse_func("iterate(Kp(T), id) . age").unwrap();
        let mut s = Subst::new();
        assert_eq!(match_func_prefix(&pat, &t, &mut s), Some(1));
    }

    #[test]
    fn prefix_match_requires_all_pattern_segments() {
        let pat = parse_pfunc("iterate(%p, $f) . iterate(%q, $g)").unwrap();
        let t = parse_func("iterate(Kp(T), city)").unwrap();
        let mut s = Subst::new();
        assert_eq!(match_func_prefix(&pat, &t, &mut s), None);
    }

    #[test]
    fn compose_chain_of_nothing_is_id() {
        assert_eq!(compose_chain(Vec::new()), Func::Id);
    }

    #[test]
    fn chain_segments_survive_deep_chains() {
        // Deep in both associations; a recursive flatten would overflow.
        let mut left = prim("a");
        let mut right = prim("a");
        for _ in 0..100_000 {
            left = Func::Compose(Box::new(left), Box::new(Func::Id));
            right = Func::Compose(Box::new(Func::Id), Box::new(right));
        }
        assert_eq!(chain_segments(&left).len(), 100_001);
        assert_eq!(chain_segments(&right).len(), 100_001);
        // Plain drop is fine: `Func` tears down with an explicit worklist.
        drop(left);
        drop(right);
    }

    #[test]
    fn id_elimination_window() {
        // $f . id against a . id . c : f->a, id matches segment 2, rest left.
        let pat = parse_pfunc("$f . id").unwrap();
        let t = parse_func("a . id . c").unwrap();
        let mut s = Subst::new();
        assert_eq!(match_func_prefix(&pat, &t, &mut s), Some(2));
        assert_eq!(s.funcs.get("f").unwrap(), &prim("a"));
    }
}
