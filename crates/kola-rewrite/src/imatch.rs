//! Matching, instantiation and rule application over *interned* terms.
//!
//! Mirrors [`crate::matching`] / [`crate::subst`] / the `Rule::try_apply_*`
//! family exactly, but works on [`ITerm`] handles so that
//!
//! * metavariable binding consistency is an O(1) pointer comparison instead
//!   of a structural walk,
//! * instantiation shares every bound subterm instead of cloning it, and
//! * every term the fast engine constructs is hash-consed, so equal results
//!   are the same allocation.
//!
//! ## Normalization invariant
//!
//! The boxed engine re-normalizes the whole term after every rule
//! application (`applied.result.normalize()`). The interned path instead
//! maintains the invariant *incrementally*: [`icompose`] is the only way a
//! `∘` node is ever built here, and it re-associates on the fly, so any term
//! assembled from right-normalized parts is right-normalized. Differential
//! parity with the boxed engine (which this module is tested against on
//! thousands of fuzzed terms) depends on this invariant, and so does the
//! chain-prefix matcher's cost: it walks a chain in place and binds a
//! trailing `$var` to the suffix node itself, never rebuilding a chain.
//!
//! ## Allocation
//!
//! A rule consult allocates only the nodes instantiation constructs: the
//! bindings and the head's segments live in an [`IScratch`] the caller
//! keeps, and [`Interner::mk`] finds existing nodes by borrowed kids.

use crate::budget::RewriteError;
use crate::props::{PropDb, PropTerm};
use crate::rule::{Direction, Precondition, RewritePair, Rule};
use crate::subst::UnboundVar;
use kola::intern::{ITerm, Interner, Payload, PayloadRef, Tag};
use kola::pattern::{PFunc, PPred, PQuery};
use kola::value::Sym;

/// Metavariable bindings over interned terms (the [`crate::subst::Subst`]
/// analogue). Consistency checks are pointer comparisons. Each kind is a
/// small association list: a rule head binds a handful of variables, so a
/// linear scan beats a map, and a cleared substitution keeps its buffers
/// for the next match.
#[derive(Debug, Clone, Default)]
pub struct ISubst {
    funcs: Vec<(Sym, ITerm)>,
    preds: Vec<(Sym, ITerm)>,
    objs: Vec<(Sym, ITerm)>,
}

impl ISubst {
    /// An empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget every binding, keeping the buffers.
    pub fn clear(&mut self) {
        self.funcs.clear();
        self.preds.clear();
        self.objs.clear();
    }

    /// The function bound to `$v`, if any.
    pub fn func(&self, v: &Sym) -> Option<&ITerm> {
        ISubst::get(&self.funcs, v)
    }

    /// Bind `$v` to `t`; false iff `$v` is already bound to another term.
    pub fn bind_func(&mut self, v: &Sym, t: &ITerm) -> bool {
        ISubst::bind(&mut self.funcs, v, t)
    }

    fn get<'s>(list: &'s [(Sym, ITerm)], v: &Sym) -> Option<&'s ITerm> {
        list.iter().find(|(k, _)| k == v).map(|(_, t)| t)
    }

    fn bind(list: &mut Vec<(Sym, ITerm)>, v: &Sym, t: &ITerm) -> bool {
        match ISubst::get(list, v) {
            Some(existing) => existing.ptr_eq(t),
            None => {
                list.push((v.clone(), t.clone()));
                true
            }
        }
    }
}

/// Reusable buffers for [`itry_apply_func`] and its siblings, owned by
/// the caller so that a rule consult allocates nothing of its own.
#[derive(Debug, Default)]
pub struct IScratch<'p> {
    /// Bindings of the last successful match (read by precondition
    /// checks). Cleared before every alternative is tried.
    pub subst: ISubst,
    /// The current head's `∘`-segments.
    psegs: Vec<&'p PFunc>,
}

/// Split a right-normalized chain into its first segment and the suffix
/// chain after it (`None` when the chain is a single segment).
fn chain_split(t: &ITerm) -> (&ITerm, Option<&ITerm>) {
    if t.tag() == Tag::FCompose {
        let k = t.kids();
        debug_assert!(k[0].tag() != Tag::FCompose, "chain not right-normalized");
        (&k[0], Some(&k[1]))
    } else {
        (t, None)
    }
}

/// Push a pattern's `∘`-segments onto `out`, left to right (the
/// [`crate::matching::pchain_segments`] analogue). Iterates down the
/// right spine; only a left-nested pattern composition recurses, and rule
/// heads are small.
fn push_psegs<'p>(mut p: &'p PFunc, out: &mut Vec<&'p PFunc>) {
    while let PFunc::Compose(a, b) = p {
        push_psegs(a, out);
        p = b;
    }
    out.push(p);
}

/// Smart `∘` constructor: builds `a ∘ b` right-normalized. If `a` is itself
/// a chain, its segments are re-associated onto `b`, so the result never has
/// a `∘` as a left child (given `a` and `b` internally normalized). Only
/// that case allocates, for the segment stack.
pub fn icompose(it: &mut Interner, a: ITerm, b: ITerm) -> ITerm {
    if a.tag() != Tag::FCompose {
        return it.mk(Tag::FCompose, PayloadRef::None, &[a, b]);
    }
    let mut segs = Vec::new();
    let mut work = vec![&a];
    while let Some(f) = work.pop() {
        if f.tag() == Tag::FCompose {
            let kids = f.kids();
            work.push(&kids[1]);
            work.push(&kids[0]);
        } else {
            segs.push(f);
        }
    }
    let mut acc = b;
    for seg in segs.into_iter().rev() {
        acc = it.mk(Tag::FCompose, PayloadRef::None, &[seg.clone(), acc]);
    }
    acc
}

/// Match a function pattern against an interned function exactly (the
/// [`crate::matching::match_func`] analogue).
pub fn imatch_func(pat: &PFunc, t: &ITerm, s: &mut ISubst) -> bool {
    if let PFunc::Var(v) = pat {
        return s.bind_func(v, t);
    }
    let k = t.kids();
    match (pat, t.tag()) {
        (PFunc::Id, Tag::FId)
        | (PFunc::Pi1, Tag::FPi1)
        | (PFunc::Pi2, Tag::FPi2)
        | (PFunc::Flat, Tag::FFlat)
        | (PFunc::Bagify, Tag::FBagify)
        | (PFunc::Dedup, Tag::FDedup)
        | (PFunc::BUnion, Tag::FBUnion)
        | (PFunc::BFlat, Tag::FBFlat)
        | (PFunc::SetUnion, Tag::FSetUnion)
        | (PFunc::SetIntersect, Tag::FSetIntersect)
        | (PFunc::SetDiff, Tag::FSetDiff) => true,
        (PFunc::Prim(a), Tag::FPrim) => matches!(t.payload(), Payload::Sym(b) if a == b),
        (PFunc::Compose(p1, p2), Tag::FCompose)
        | (PFunc::PairWith(p1, p2), Tag::FPairWith)
        | (PFunc::Times(p1, p2), Tag::FTimes)
        | (PFunc::Nest(p1, p2), Tag::FNest)
        | (PFunc::Unnest(p1, p2), Tag::FUnnest) => {
            matches_same_pf(pat, t.tag()) && imatch_func(p1, &k[0], s) && imatch_func(p2, &k[1], s)
        }
        (PFunc::ConstF(pq), Tag::FConstF) => imatch_query(pq, &k[0], s),
        (PFunc::CurryF(pf, pq), Tag::FCurryF) => {
            imatch_func(pf, &k[0], s) && imatch_query(pq, &k[1], s)
        }
        (PFunc::Cond(pp, pf, pg), Tag::FCond) => {
            imatch_pred(pp, &k[0], s) && imatch_func(pf, &k[1], s) && imatch_func(pg, &k[2], s)
        }
        (PFunc::Iterate(pp, pf), Tag::FIterate)
        | (PFunc::Iter(pp, pf), Tag::FIter)
        | (PFunc::Join(pp, pf), Tag::FJoin)
        | (PFunc::BIterate(pp, pf), Tag::FBIterate) => {
            matches_same_pf(pat, t.tag()) && imatch_pred(pp, &k[0], s) && imatch_func(pf, &k[1], s)
        }
        _ => false,
    }
}

/// Guard for the or-pattern arms of [`imatch_func`]: pattern and term must
/// use the *same* constructor.
fn matches_same_pf(pat: &PFunc, tag: Tag) -> bool {
    matches!(
        (pat, tag),
        (PFunc::Compose(..), Tag::FCompose)
            | (PFunc::PairWith(..), Tag::FPairWith)
            | (PFunc::Times(..), Tag::FTimes)
            | (PFunc::Nest(..), Tag::FNest)
            | (PFunc::Unnest(..), Tag::FUnnest)
            | (PFunc::Iterate(..), Tag::FIterate)
            | (PFunc::Iter(..), Tag::FIter)
            | (PFunc::Join(..), Tag::FJoin)
            | (PFunc::BIterate(..), Tag::FBIterate)
    )
}

/// Match a predicate pattern against an interned predicate (the
/// [`crate::matching::match_pred`] analogue).
pub fn imatch_pred(pat: &PPred, t: &ITerm, s: &mut ISubst) -> bool {
    if let PPred::Var(v) = pat {
        return ISubst::bind(&mut s.preds, v, t);
    }
    let k = t.kids();
    match (pat, t.tag()) {
        (PPred::Eq, Tag::PEq)
        | (PPred::Lt, Tag::PLt)
        | (PPred::Leq, Tag::PLeq)
        | (PPred::Gt, Tag::PGt)
        | (PPred::Geq, Tag::PGeq)
        | (PPred::In, Tag::PIn) => true,
        (PPred::PrimP(a), Tag::PPrimP) => matches!(t.payload(), Payload::Sym(b) if a == b),
        (PPred::ConstP(a), Tag::PConstP) => matches!(t.payload(), Payload::Bool(b) if a == b),
        (PPred::Oplus(pp, pf), Tag::POplus) => {
            imatch_pred(pp, &k[0], s) && imatch_func(pf, &k[1], s)
        }
        (PPred::And(p1, p2), Tag::PAnd) | (PPred::Or(p1, p2), Tag::POr) => {
            matches!(
                (pat, t.tag()),
                (PPred::And(..), Tag::PAnd) | (PPred::Or(..), Tag::POr)
            ) && imatch_pred(p1, &k[0], s)
                && imatch_pred(p2, &k[1], s)
        }
        (PPred::Not(p), Tag::PNot) | (PPred::Conv(p), Tag::PConv) => {
            matches!(
                (pat, t.tag()),
                (PPred::Not(..), Tag::PNot) | (PPred::Conv(..), Tag::PConv)
            ) && imatch_pred(p, &k[0], s)
        }
        (PPred::CurryP(pp, pq), Tag::PCurryP) => {
            imatch_pred(pp, &k[0], s) && imatch_query(pq, &k[1], s)
        }
        _ => false,
    }
}

/// Match a query pattern against an interned query (the
/// [`crate::matching::match_query`] analogue).
pub fn imatch_query(pat: &PQuery, t: &ITerm, s: &mut ISubst) -> bool {
    if let PQuery::Var(v) = pat {
        return ISubst::bind(&mut s.objs, v, t);
    }
    let k = t.kids();
    match (pat, t.tag()) {
        (PQuery::Lit(a), Tag::QLit) => {
            matches!(t.payload(), Payload::Value(b) if b.as_ref() == a)
        }
        (PQuery::Extent(a), Tag::QExtent) => matches!(t.payload(), Payload::Sym(b) if a == b),
        (PQuery::PairQ(p1, p2), Tag::QPairQ)
        | (PQuery::Union(p1, p2), Tag::QUnion)
        | (PQuery::Intersect(p1, p2), Tag::QIntersect)
        | (PQuery::Diff(p1, p2), Tag::QDiff) => {
            matches!(
                (pat, t.tag()),
                (PQuery::PairQ(..), Tag::QPairQ)
                    | (PQuery::Union(..), Tag::QUnion)
                    | (PQuery::Intersect(..), Tag::QIntersect)
                    | (PQuery::Diff(..), Tag::QDiff)
            ) && imatch_query(p1, &k[0], s)
                && imatch_query(p2, &k[1], s)
        }
        (PQuery::App(pf, pq), Tag::QApp) => imatch_func(pf, &k[0], s) && imatch_query(pq, &k[1], s),
        (PQuery::Test(pp, pq), Tag::QTest) => {
            imatch_pred(pp, &k[0], s) && imatch_query(pq, &k[1], s)
        }
        _ => false,
    }
}

/// Match a function pattern, given as its `∘`-segments, against a
/// *prefix* of the interned chain `t` (the
/// [`crate::matching::match_func_prefix`] analogue). `t` must be
/// right-normalized, as every term the fast engine builds is (see the
/// module docs): its suffix chains are then nodes of `t` itself, so
/// the chain is walked in place and a trailing `$var` binds the remaining
/// suffix node as it is. Returns the unconsumed suffix (`None` when the
/// whole chain was consumed), or `None` on no match.
pub fn imatch_func_prefix(psegs: &[&PFunc], t: &ITerm, s: &mut ISubst) -> Option<Option<ITerm>> {
    let (last, init) = psegs.split_last()?;
    let mut cur = t;
    // All but the last pattern segment match one term segment each, and
    // the last needs at least one more.
    for p in init {
        let (seg, rest) = chain_split(cur);
        if !imatch_func(p, seg, s) {
            return None;
        }
        cur = rest?;
    }
    match last {
        // Absorb the remainder.
        PFunc::Var(v) => s.bind_func(v, cur).then_some(None),
        _ => {
            let (seg, rest) = chain_split(cur);
            imatch_func(last, seg, s).then(|| rest.cloned())
        }
    }
}

/// Instantiate a function pattern as an interned term (the
/// [`crate::subst::instantiate_func`] analogue). Every `∘` in the body goes
/// through [`icompose`], so the result is right-normalized by construction.
pub fn iinstantiate_func(pat: &PFunc, s: &ISubst, it: &mut Interner) -> Result<ITerm, UnboundVar> {
    macro_rules! leaf {
        ($tag:expr) => {
            it.mk($tag, PayloadRef::None, &[])
        };
    }
    Ok(match pat {
        PFunc::Var(v) => s.func(v).cloned().ok_or_else(|| UnboundVar(v.clone()))?,
        PFunc::Id => leaf!(Tag::FId),
        PFunc::Pi1 => leaf!(Tag::FPi1),
        PFunc::Pi2 => leaf!(Tag::FPi2),
        PFunc::Prim(n) => it.mk(Tag::FPrim, PayloadRef::Sym(n), &[]),
        PFunc::Compose(a, b) => {
            let ia = iinstantiate_func(a, s, it)?;
            let ib = iinstantiate_func(b, s, it)?;
            icompose(it, ia, ib)
        }
        PFunc::PairWith(a, b) => {
            let kids = [iinstantiate_func(a, s, it)?, iinstantiate_func(b, s, it)?];
            it.mk(Tag::FPairWith, PayloadRef::None, &kids)
        }
        PFunc::Times(a, b) => {
            let kids = [iinstantiate_func(a, s, it)?, iinstantiate_func(b, s, it)?];
            it.mk(Tag::FTimes, PayloadRef::None, &kids)
        }
        PFunc::ConstF(q) => {
            let kids = [iinstantiate_query(q, s, it)?];
            it.mk(Tag::FConstF, PayloadRef::None, &kids)
        }
        PFunc::CurryF(f, q) => {
            let kids = [iinstantiate_func(f, s, it)?, iinstantiate_query(q, s, it)?];
            it.mk(Tag::FCurryF, PayloadRef::None, &kids)
        }
        PFunc::Cond(p, f, g) => {
            let kids = [
                iinstantiate_pred(p, s, it)?,
                iinstantiate_func(f, s, it)?,
                iinstantiate_func(g, s, it)?,
            ];
            it.mk(Tag::FCond, PayloadRef::None, &kids)
        }
        PFunc::Flat => leaf!(Tag::FFlat),
        PFunc::Iterate(p, f) => {
            let kids = [iinstantiate_pred(p, s, it)?, iinstantiate_func(f, s, it)?];
            it.mk(Tag::FIterate, PayloadRef::None, &kids)
        }
        PFunc::Iter(p, f) => {
            let kids = [iinstantiate_pred(p, s, it)?, iinstantiate_func(f, s, it)?];
            it.mk(Tag::FIter, PayloadRef::None, &kids)
        }
        PFunc::Join(p, f) => {
            let kids = [iinstantiate_pred(p, s, it)?, iinstantiate_func(f, s, it)?];
            it.mk(Tag::FJoin, PayloadRef::None, &kids)
        }
        PFunc::Nest(f, g) => {
            let kids = [iinstantiate_func(f, s, it)?, iinstantiate_func(g, s, it)?];
            it.mk(Tag::FNest, PayloadRef::None, &kids)
        }
        PFunc::Unnest(f, g) => {
            let kids = [iinstantiate_func(f, s, it)?, iinstantiate_func(g, s, it)?];
            it.mk(Tag::FUnnest, PayloadRef::None, &kids)
        }
        PFunc::Bagify => leaf!(Tag::FBagify),
        PFunc::Dedup => leaf!(Tag::FDedup),
        PFunc::BUnion => leaf!(Tag::FBUnion),
        PFunc::BFlat => leaf!(Tag::FBFlat),
        PFunc::BIterate(p, f) => {
            let kids = [iinstantiate_pred(p, s, it)?, iinstantiate_func(f, s, it)?];
            it.mk(Tag::FBIterate, PayloadRef::None, &kids)
        }
        PFunc::SetUnion => leaf!(Tag::FSetUnion),
        PFunc::SetIntersect => leaf!(Tag::FSetIntersect),
        PFunc::SetDiff => leaf!(Tag::FSetDiff),
    })
}

/// Instantiate a predicate pattern as an interned term.
pub fn iinstantiate_pred(pat: &PPred, s: &ISubst, it: &mut Interner) -> Result<ITerm, UnboundVar> {
    macro_rules! leaf {
        ($tag:expr) => {
            it.mk($tag, PayloadRef::None, &[])
        };
    }
    Ok(match pat {
        PPred::Var(v) => ISubst::get(&s.preds, v)
            .cloned()
            .ok_or_else(|| UnboundVar(v.clone()))?,
        PPred::Eq => leaf!(Tag::PEq),
        PPred::Lt => leaf!(Tag::PLt),
        PPred::Leq => leaf!(Tag::PLeq),
        PPred::Gt => leaf!(Tag::PGt),
        PPred::Geq => leaf!(Tag::PGeq),
        PPred::In => leaf!(Tag::PIn),
        PPred::PrimP(n) => it.mk(Tag::PPrimP, PayloadRef::Sym(n), &[]),
        PPred::Oplus(p, f) => {
            let kids = [iinstantiate_pred(p, s, it)?, iinstantiate_func(f, s, it)?];
            it.mk(Tag::POplus, PayloadRef::None, &kids)
        }
        PPred::And(a, b) => {
            let kids = [iinstantiate_pred(a, s, it)?, iinstantiate_pred(b, s, it)?];
            it.mk(Tag::PAnd, PayloadRef::None, &kids)
        }
        PPred::Or(a, b) => {
            let kids = [iinstantiate_pred(a, s, it)?, iinstantiate_pred(b, s, it)?];
            it.mk(Tag::POr, PayloadRef::None, &kids)
        }
        PPred::Not(p) => {
            let kids = [iinstantiate_pred(p, s, it)?];
            it.mk(Tag::PNot, PayloadRef::None, &kids)
        }
        PPred::Conv(p) => {
            let kids = [iinstantiate_pred(p, s, it)?];
            it.mk(Tag::PConv, PayloadRef::None, &kids)
        }
        PPred::ConstP(b) => it.mk(Tag::PConstP, PayloadRef::Bool(*b), &[]),
        PPred::CurryP(p, q) => {
            let kids = [iinstantiate_pred(p, s, it)?, iinstantiate_query(q, s, it)?];
            it.mk(Tag::PCurryP, PayloadRef::None, &kids)
        }
    })
}

/// Instantiate a query pattern as an interned term.
pub fn iinstantiate_query(
    pat: &PQuery,
    s: &ISubst,
    it: &mut Interner,
) -> Result<ITerm, UnboundVar> {
    Ok(match pat {
        PQuery::Var(v) => ISubst::get(&s.objs, v)
            .cloned()
            .ok_or_else(|| UnboundVar(v.clone()))?,
        PQuery::Lit(v) => it.mk(Tag::QLit, PayloadRef::Value(v), &[]),
        PQuery::Extent(n) => it.mk(Tag::QExtent, PayloadRef::Sym(n), &[]),
        PQuery::PairQ(a, b) => {
            let kids = [iinstantiate_query(a, s, it)?, iinstantiate_query(b, s, it)?];
            it.mk(Tag::QPairQ, PayloadRef::None, &kids)
        }
        PQuery::App(f, q) => {
            let kids = [iinstantiate_func(f, s, it)?, iinstantiate_query(q, s, it)?];
            it.mk(Tag::QApp, PayloadRef::None, &kids)
        }
        PQuery::Test(p, q) => {
            let kids = [iinstantiate_pred(p, s, it)?, iinstantiate_query(q, s, it)?];
            it.mk(Tag::QTest, PayloadRef::None, &kids)
        }
        PQuery::Union(a, b) => {
            let kids = [iinstantiate_query(a, s, it)?, iinstantiate_query(b, s, it)?];
            it.mk(Tag::QUnion, PayloadRef::None, &kids)
        }
        PQuery::Intersect(a, b) => {
            let kids = [iinstantiate_query(a, s, it)?, iinstantiate_query(b, s, it)?];
            it.mk(Tag::QIntersect, PayloadRef::None, &kids)
        }
        PQuery::Diff(a, b) => {
            let kids = [iinstantiate_query(a, s, it)?, iinstantiate_query(b, s, it)?];
            it.mk(Tag::QDiff, PayloadRef::None, &kids)
        }
    })
}

/// Check a rule's declarative preconditions against interned bindings.
/// Only the one bound function a precondition actually inspects is reified.
pub fn ipreconditions_hold(pre: &[Precondition], s: &ISubst, props: &PropDb) -> bool {
    pre.iter().all(|p| match &p.subject {
        PropTerm::FuncVar(name) => s
            .func(name)
            .map(|f| props.holds(p.prop, &f.to_func()))
            .unwrap_or(false),
    })
}

fn rule_failed(rule: &Rule, e: UnboundVar) -> RewriteError {
    RewriteError::RuleFailed {
        rule_id: rule.id.clone(),
        detail: e.to_string(),
    }
}

/// Try the rule at the root of an interned function term (the
/// [`Rule::try_apply_func`] analogue, chain-prefix aware; `t` must be
/// right-normalized). On a match the bindings are left in
/// `scratch.subst` for the caller's precondition check.
pub fn itry_apply_func<'p>(
    rule: &'p Rule,
    t: &ITerm,
    dir: Direction,
    it: &mut Interner,
    scratch: &mut IScratch<'p>,
) -> Result<Option<ITerm>, RewriteError> {
    if dir == Direction::Backward && !rule.bidirectional {
        return Ok(None);
    }
    for alt in &rule.alts {
        let RewritePair::F(l, r) = alt else { continue };
        let (head, body) = match dir {
            Direction::Forward => (l, r),
            Direction::Backward => (r, l),
        };
        scratch.subst.clear();
        scratch.psegs.clear();
        push_psegs(head, &mut scratch.psegs);
        if let Some(tail) = imatch_func_prefix(&scratch.psegs, t, &mut scratch.subst) {
            let rewritten =
                iinstantiate_func(body, &scratch.subst, it).map_err(|e| rule_failed(rule, e))?;
            return Ok(Some(match tail {
                None => rewritten,
                Some(tail) => icompose(it, rewritten, tail),
            }));
        }
    }
    Ok(None)
}

/// Try the rule at the root of an interned predicate term (bindings left
/// in `scratch.subst`, as for [`itry_apply_func`]).
pub fn itry_apply_pred(
    rule: &Rule,
    t: &ITerm,
    dir: Direction,
    it: &mut Interner,
    scratch: &mut IScratch<'_>,
) -> Result<Option<ITerm>, RewriteError> {
    if dir == Direction::Backward && !rule.bidirectional {
        return Ok(None);
    }
    for alt in &rule.alts {
        let RewritePair::P(l, r) = alt else { continue };
        let (head, body) = match dir {
            Direction::Forward => (l, r),
            Direction::Backward => (r, l),
        };
        scratch.subst.clear();
        if imatch_pred(head, t, &mut scratch.subst) {
            let out =
                iinstantiate_pred(body, &scratch.subst, it).map_err(|e| rule_failed(rule, e))?;
            return Ok(Some(out));
        }
    }
    Ok(None)
}

/// Try the rule at the root of an interned query term (bindings left in
/// `scratch.subst`, as for [`itry_apply_func`]).
pub fn itry_apply_query(
    rule: &Rule,
    t: &ITerm,
    dir: Direction,
    it: &mut Interner,
    scratch: &mut IScratch<'_>,
) -> Result<Option<ITerm>, RewriteError> {
    if dir == Direction::Backward && !rule.bidirectional {
        return Ok(None);
    }
    for alt in &rule.alts {
        let RewritePair::Q(l, r) = alt else { continue };
        let (head, body) = match dir {
            Direction::Forward => (l, r),
            Direction::Backward => (r, l),
        };
        scratch.subst.clear();
        if imatch_query(head, t, &mut scratch.subst) {
            let out =
                iinstantiate_query(body, &scratch.subst, it).map_err(|e| rule_failed(rule, e))?;
            return Ok(Some(out));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::parse::{parse_func, parse_query};

    #[test]
    fn interned_rule_application_matches_boxed() {
        let mut it = Interner::new();
        let r = Rule::func(
            "11",
            "iterate-fuse",
            "iterate(%p, $f) . iterate(%q, $g)",
            "iterate(%q & %p @ $g, $f . $g)",
        );
        let t = parse_func("iterate(Kp(T), city) . iterate(Kp(T), addr) . flat")
            .unwrap()
            .normalize();
        let boxed = r
            .try_apply_func(&t, Direction::Forward)
            .unwrap()
            .unwrap()
            .0
            .normalize();
        let it_t = it.intern_func(&t);
        let mut sc = IScratch::default();
        let interned = itry_apply_func(&r, &it_t, Direction::Forward, &mut it, &mut sc)
            .unwrap()
            .unwrap();
        assert_eq!(interned.to_func(), boxed);
        // And it is the same node the boxed result interns to.
        assert!(interned.ptr_eq(&it.intern_func(&boxed)));
    }

    #[test]
    fn icompose_keeps_chains_right_normalized() {
        let mut it = Interner::new();
        let left = it.intern_func(&parse_func("(a . b) . c").unwrap());
        // `left` as interned is still left-nested; icompose onto another
        // segment must flatten it.
        let d = it.intern_func(&parse_func("d").unwrap());
        let out = icompose(&mut it, left, d);
        let want = it.intern_func(&parse_func("a . b . c . d").unwrap().normalize());
        assert!(out.ptr_eq(&want));
    }

    #[test]
    fn query_level_application() {
        let mut it = Interner::new();
        let r = Rule::query("app", "apply", "($f . $g) ! ^x", "$f ! ($g ! ^x)");
        let q = parse_query("(a . b) ! P").unwrap().normalize();
        let iq = it.intern_query(&q);
        let got = itry_apply_query(
            &r,
            &iq,
            Direction::Forward,
            &mut it,
            &mut IScratch::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(got.to_query(), parse_query("a ! (b ! P)").unwrap());
    }

    #[test]
    fn one_way_refuses_backward() {
        let mut it = Interner::new();
        let r = Rule::func("x", "oneway", "id . $f", "$f").one_way();
        let t = it.intern_func(&parse_func("age").unwrap());
        assert!(itry_apply_func(
            &r,
            &t,
            Direction::Backward,
            &mut it,
            &mut IScratch::default()
        )
        .unwrap()
        .is_none());
    }
}
