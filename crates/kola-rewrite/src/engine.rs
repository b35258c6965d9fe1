//! The rewrite engine: congruence traversal, rule application, tracing.
//!
//! One primitive does the work: [`rewrite_once_query`] applies the first rule (in
//! the given list, in the given orientations) that matches at the
//! leftmost-outermost position of a query — descending through query nodes,
//! the functions inside applications, the predicates inside formers, and the
//! payload queries inside `Kf`/`Cf`/`Cp`. Everything else (fixpoints,
//! step sequencing, the five-step hidden-join strategy, COKO blocks) is
//! built from it.

use crate::budget::{
    measure_query, Budget, CycleDetector, RewriteError, RewriteReport, StopReason,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::props::PropDb;
use crate::rule::{Direction, Precondition, Rule};
use crate::subst::Subst;
use kola::term::{Func, Pred, Query};
use std::fmt;

/// A rule together with the orientation in which to try it.
#[derive(Clone, Copy)]
pub struct Oriented<'a> {
    /// The rule.
    pub rule: &'a Rule,
    /// Orientation (forward = printed left-to-right).
    pub dir: Direction,
}

impl<'a> Oriented<'a> {
    /// Forward orientation.
    pub fn fwd(rule: &'a Rule) -> Self {
        Oriented {
            rule,
            dir: Direction::Forward,
        }
    }

    /// Backward orientation (`i⁻¹` in the paper).
    pub fn bwd(rule: &'a Rule) -> Self {
        Oriented {
            rule,
            dir: Direction::Backward,
        }
    }
}

/// One derivation step: which rule fired, which way, and the whole-query
/// result (so derivations can be printed exactly like Figures 4 and 6).
#[derive(Debug, Clone)]
pub struct Step {
    /// The id of the rule that fired (e.g. `"11"`).
    pub rule_id: String,
    /// Orientation it fired in.
    pub dir: Direction,
    /// The query after this step.
    pub after: Query,
}

impl Step {
    /// The paper's notation for the justification: `11` or `12-1`.
    pub fn justification(&self) -> String {
        match self.dir {
            Direction::Forward => self.rule_id.clone(),
            Direction::Backward => format!("{}-1", self.rule_id),
        }
    }
}

/// A full derivation: the start query and every step taken.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The steps, in order.
    pub steps: Vec<Step>,
}

impl Trace {
    /// New empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rule-id justifications in order (e.g. `["11", "6", "5"]`).
    pub fn justifications(&self) -> Vec<String> {
        self.steps.iter().map(Step::justification).collect()
    }

    /// Flatten each step to `(rule_id, dir, after-fingerprint, after-size)`
    /// using a scratch interner. Fingerprints depend only on structure, so
    /// any interner yields the same values — which is what lets a recorded
    /// trace be compared against a replay that ran in a different arena.
    pub fn records(
        &self,
        scratch: &mut kola::intern::Interner,
    ) -> Vec<(String, Direction, u64, usize)> {
        self.steps
            .iter()
            .map(|s| {
                let t = scratch.intern_query(&s.after);
                (s.rule_id.clone(), s.dir, t.fp(), t.size())
            })
            .collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            writeln!(f, "  =[{}]=> {}", step.justification(), step.after)?;
        }
        Ok(())
    }
}

fn preconditions_hold(pre: &[Precondition], s: &Subst, props: &PropDb) -> bool {
    pre.iter().all(|p| match &p.subject {
        crate::props::PropTerm::FuncVar(name) => s
            .funcs
            .get(name)
            .map(|f| props.holds(p.prop, f))
            .unwrap_or(false),
    })
}

/// Mutable governance state threaded through a traversal: the depth cap,
/// the fault plan being consulted, the quarantine threshold, the current
/// derivation step (for step-selective faults), and the report that
/// accumulates failures.
pub(crate) struct Gov<'a> {
    pub(crate) max_depth: usize,
    pub(crate) quarantine_after: usize,
    pub(crate) step: usize,
    pub(crate) faults: &'a FaultPlan,
    pub(crate) report: &'a mut RewriteReport,
}

impl<'a> Gov<'a> {
    pub(crate) fn new(
        budget: &Budget,
        faults: &'a FaultPlan,
        report: &'a mut RewriteReport,
        step: usize,
    ) -> Gov<'a> {
        Gov {
            max_depth: budget.max_depth,
            quarantine_after: budget.quarantine_after,
            step,
            faults,
            report,
        }
    }

    /// True (and flags the report) iff depth `d` is out of budget.
    pub(crate) fn clip(&mut self, d: usize) -> bool {
        if d >= self.max_depth {
            self.report.depth_clipped = true;
            true
        } else {
            false
        }
    }

    pub(crate) fn record_failure(&mut self, rule_id: &str, e: &RewriteError) {
        self.report
            .record_failure(rule_id, e, self.quarantine_after, self.step);
    }
}

/// The fault injected against `rule` at the current step, if any, applied
/// to a successful result: `Fail` turns it into an error, `Oversize(n)`
/// wraps the result in `n` inert identity layers.
fn injected<T>(
    o: &Oriented,
    gov: &Gov,
    out: T,
    inflate: fn(T, usize) -> T,
) -> Result<T, RewriteError> {
    match gov.faults.fault_for(&o.rule.id, gov.step) {
        None => Ok(out),
        Some(FaultKind::Oversize(n)) => Ok(inflate(out, *n)),
        Some(FaultKind::Fail) => Err(RewriteError::RuleFailed {
            rule_id: o.rule.id.clone(),
            detail: "injected failure".into(),
        }),
        // A poison rule's bug is not a contained error: it unwinds.
        Some(FaultKind::Panic) => crate::fault::poison_panic(&o.rule.id),
    }
}

fn inflate_func(f: Func, n: usize) -> Func {
    (0..n).fold(f, |acc, _| Func::Compose(Box::new(Func::Id), Box::new(acc)))
}

fn inflate_pred(p: Pred, n: usize) -> Pred {
    (0..n).fold(p, |acc, _| Pred::Oplus(Box::new(acc), Box::new(Func::Id)))
}

fn inflate_query(q: Query, n: usize) -> Query {
    (0..n).fold(q, |acc, _| Query::App(Func::Id, Box::new(acc)))
}

fn try_rule_func(
    o: &Oriented,
    f: &Func,
    props: &PropDb,
    gov: &Gov,
) -> Result<Option<Func>, RewriteError> {
    let Some((out, s)) = o.rule.try_apply_func(f, o.dir)? else {
        return Ok(None);
    };
    if !preconditions_hold(&o.rule.preconditions, &s, props) {
        return Ok(None);
    }
    injected(o, gov, out, inflate_func).map(Some)
}

fn try_rule_pred(
    o: &Oriented,
    p: &Pred,
    props: &PropDb,
    gov: &Gov,
) -> Result<Option<Pred>, RewriteError> {
    let Some((out, s)) = o.rule.try_apply_pred(p, o.dir)? else {
        return Ok(None);
    };
    if !preconditions_hold(&o.rule.preconditions, &s, props) {
        return Ok(None);
    }
    injected(o, gov, out, inflate_pred).map(Some)
}

fn try_rule_query(
    o: &Oriented,
    q: &Query,
    props: &PropDb,
    gov: &Gov,
) -> Result<Option<Query>, RewriteError> {
    let Some((out, s)) = o.rule.try_apply_query(q, o.dir)? else {
        return Ok(None);
    };
    if !preconditions_hold(&o.rule.preconditions, &s, props) {
        return Ok(None);
    }
    injected(o, gov, out, inflate_query).map(Some)
}

/// Scan `rules` at the current node: quarantined rules are skipped, rule
/// failures are contained (recorded in the report) and the scan continues
/// with the next rule.
macro_rules! rules_at {
    ($rules:expr, $t:expr, $props:expr, $gov:expr, $try:ident) => {
        for o in $rules {
            if $gov.report.is_quarantined(&o.rule.id) {
                continue;
            }
            match $try(o, $t, $props, $gov) {
                Ok(Some(result)) => {
                    return Some(Applied {
                        result,
                        rule_id: o.rule.id.clone(),
                        dir: o.dir,
                    });
                }
                Ok(None) => {}
                Err(e) => $gov.record_failure(&o.rule.id, &e),
            }
        }
    };
}

/// Result of a single successful application somewhere in a term.
pub struct Applied<T> {
    /// The rewritten whole term.
    pub result: T,
    /// Which rule fired.
    pub rule_id: String,
    /// Orientation.
    pub dir: Direction,
}

macro_rules! child {
    // Rebuild `$outer` with one rewritten child, keeping rule bookkeeping.
    ($hit:expr, $rebuild:expr) => {
        if let Some(a) = $hit {
            let rule_id = a.rule_id;
            let dir = a.dir;
            #[allow(clippy::redundant_closure_call)]
            let result = ($rebuild)(a.result);
            return Some(Applied {
                result,
                rule_id,
                dir,
            });
        }
    };
}

/// Apply the first matching rule at the leftmost-outermost position of a
/// function term (descending into subfunctions, predicates and payloads).
/// Ungoverned convenience wrapper over `ro_func` with default bounds.
pub fn rewrite_once_func(rules: &[Oriented], f: &Func, props: &PropDb) -> Option<Applied<Func>> {
    let faults = FaultPlan::default();
    let mut report = RewriteReport::new();
    let mut gov = Gov::new(&Budget::default(), &faults, &mut report, 0);
    ro_func(rules, f, props, 0, &mut gov)
}

pub(crate) fn ro_func(
    rules: &[Oriented],
    f: &Func,
    props: &PropDb,
    d: usize,
    gov: &mut Gov,
) -> Option<Applied<Func>> {
    // Depth governor: leave subterms beyond the cap untouched rather than
    // risking the native stack.
    if gov.clip(d) {
        return None;
    }
    // Try at root (function-level rules, chain-prefix aware).
    rules_at!(rules, f, props, gov, try_rule_func);
    // Descend.
    match f {
        Func::Id
        | Func::Pi1
        | Func::Pi2
        | Func::Prim(_)
        | Func::Flat
        | Func::Bagify
        | Func::Dedup
        | Func::BUnion
        | Func::BFlat
        | Func::SetUnion
        | Func::SetIntersect
        | Func::SetDiff => None,
        Func::Compose(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            child!(ro_func(rules, &a, props, d + 1, gov), |r| Func::Compose(
                Box::new(r),
                b.clone()
            ));
            child!(ro_func(rules, &b, props, d + 1, gov), |r| Func::Compose(
                a.clone(),
                Box::new(r)
            ));
            None
        }
        Func::PairWith(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            child!(ro_func(rules, &a, props, d + 1, gov), |r| Func::PairWith(
                Box::new(r),
                b.clone()
            ));
            child!(ro_func(rules, &b, props, d + 1, gov), |r| Func::PairWith(
                a.clone(),
                Box::new(r)
            ));
            None
        }
        Func::Times(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            child!(ro_func(rules, &a, props, d + 1, gov), |r| Func::Times(
                Box::new(r),
                b.clone()
            ));
            child!(ro_func(rules, &b, props, d + 1, gov), |r| Func::Times(
                a.clone(),
                Box::new(r)
            ));
            None
        }
        Func::ConstF(q) => {
            let q = q.clone();
            child!(ro_query(rules, &q, props, d + 1, gov), |r| Func::ConstF(
                Box::new(r)
            ));
            None
        }
        Func::CurryF(g, q) => {
            let (g, q) = (g.clone(), q.clone());
            child!(ro_func(rules, &g, props, d + 1, gov), |r| Func::CurryF(
                Box::new(r),
                q.clone()
            ));
            child!(ro_query(rules, &q, props, d + 1, gov), |r| Func::CurryF(
                g.clone(),
                Box::new(r)
            ));
            None
        }
        Func::Cond(p, g, h) => {
            let (p, g, h) = (p.clone(), g.clone(), h.clone());
            child!(ro_pred(rules, &p, props, d + 1, gov), |r| Func::Cond(
                Box::new(r),
                g.clone(),
                h.clone()
            ));
            child!(ro_func(rules, &g, props, d + 1, gov), |r| Func::Cond(
                p.clone(),
                Box::new(r),
                h.clone()
            ));
            child!(ro_func(rules, &h, props, d + 1, gov), |r| Func::Cond(
                p.clone(),
                g.clone(),
                Box::new(r)
            ));
            None
        }
        Func::Iterate(p, g) => {
            let (p, g) = (p.clone(), g.clone());
            child!(ro_pred(rules, &p, props, d + 1, gov), |r| Func::Iterate(
                Box::new(r),
                g.clone()
            ));
            child!(ro_func(rules, &g, props, d + 1, gov), |r| Func::Iterate(
                p.clone(),
                Box::new(r)
            ));
            None
        }
        Func::Iter(p, g) => {
            let (p, g) = (p.clone(), g.clone());
            child!(ro_pred(rules, &p, props, d + 1, gov), |r| Func::Iter(
                Box::new(r),
                g.clone()
            ));
            child!(ro_func(rules, &g, props, d + 1, gov), |r| Func::Iter(
                p.clone(),
                Box::new(r)
            ));
            None
        }
        Func::BIterate(p, g) => {
            let (p, g) = (p.clone(), g.clone());
            child!(ro_pred(rules, &p, props, d + 1, gov), |r| Func::BIterate(
                Box::new(r),
                g.clone()
            ));
            child!(ro_func(rules, &g, props, d + 1, gov), |r| Func::BIterate(
                p.clone(),
                Box::new(r)
            ));
            None
        }
        Func::Join(p, g) => {
            let (p, g) = (p.clone(), g.clone());
            child!(ro_pred(rules, &p, props, d + 1, gov), |r| Func::Join(
                Box::new(r),
                g.clone()
            ));
            child!(ro_func(rules, &g, props, d + 1, gov), |r| Func::Join(
                p.clone(),
                Box::new(r)
            ));
            None
        }
        Func::Nest(g, h) => {
            let (g, h) = (g.clone(), h.clone());
            child!(ro_func(rules, &g, props, d + 1, gov), |r| Func::Nest(
                Box::new(r),
                h.clone()
            ));
            child!(ro_func(rules, &h, props, d + 1, gov), |r| Func::Nest(
                g.clone(),
                Box::new(r)
            ));
            None
        }
        Func::Unnest(g, h) => {
            let (g, h) = (g.clone(), h.clone());
            child!(ro_func(rules, &g, props, d + 1, gov), |r| Func::Unnest(
                Box::new(r),
                h.clone()
            ));
            child!(ro_func(rules, &h, props, d + 1, gov), |r| Func::Unnest(
                g.clone(),
                Box::new(r)
            ));
            None
        }
    }
}

/// Apply the first matching rule at the leftmost-outermost position of a
/// predicate term. Ungoverned wrapper over `ro_pred` with default bounds.
pub fn rewrite_once_pred(rules: &[Oriented], p: &Pred, props: &PropDb) -> Option<Applied<Pred>> {
    let faults = FaultPlan::default();
    let mut report = RewriteReport::new();
    let mut gov = Gov::new(&Budget::default(), &faults, &mut report, 0);
    ro_pred(rules, p, props, 0, &mut gov)
}

pub(crate) fn ro_pred(
    rules: &[Oriented],
    p: &Pred,
    props: &PropDb,
    d: usize,
    gov: &mut Gov,
) -> Option<Applied<Pred>> {
    if gov.clip(d) {
        return None;
    }
    rules_at!(rules, p, props, gov, try_rule_pred);
    match p {
        Pred::Eq
        | Pred::Lt
        | Pred::Leq
        | Pred::Gt
        | Pred::Geq
        | Pred::In
        | Pred::PrimP(_)
        | Pred::ConstP(_) => None,
        Pred::Oplus(q, f) => {
            let (q, f) = (q.clone(), f.clone());
            child!(ro_pred(rules, &q, props, d + 1, gov), |r| Pred::Oplus(
                Box::new(r),
                f.clone()
            ));
            child!(ro_func(rules, &f, props, d + 1, gov), |r| Pred::Oplus(
                q.clone(),
                Box::new(r)
            ));
            None
        }
        Pred::And(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            child!(ro_pred(rules, &a, props, d + 1, gov), |r| Pred::And(
                Box::new(r),
                b.clone()
            ));
            child!(ro_pred(rules, &b, props, d + 1, gov), |r| Pred::And(
                a.clone(),
                Box::new(r)
            ));
            None
        }
        Pred::Or(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            child!(ro_pred(rules, &a, props, d + 1, gov), |r| Pred::Or(
                Box::new(r),
                b.clone()
            ));
            child!(ro_pred(rules, &b, props, d + 1, gov), |r| Pred::Or(
                a.clone(),
                Box::new(r)
            ));
            None
        }
        Pred::Not(q) => {
            let q = q.clone();
            child!(ro_pred(rules, &q, props, d + 1, gov), |r| Pred::Not(
                Box::new(r)
            ));
            None
        }
        Pred::Conv(q) => {
            let q = q.clone();
            child!(ro_pred(rules, &q, props, d + 1, gov), |r| Pred::Conv(
                Box::new(r)
            ));
            None
        }
        Pred::CurryP(q, payload) => {
            let (q, payload) = (q.clone(), payload.clone());
            child!(ro_pred(rules, &q, props, d + 1, gov), |r| Pred::CurryP(
                Box::new(r),
                payload.clone()
            ));
            child!(ro_query(rules, &payload, props, d + 1, gov), |r| {
                Pred::CurryP(q.clone(), Box::new(r))
            });
            None
        }
    }
}

/// Apply the first matching rule at the leftmost-outermost position of a
/// query. Ungoverned wrapper over `ro_query` with default bounds.
pub fn rewrite_once_query(rules: &[Oriented], q: &Query, props: &PropDb) -> Option<Applied<Query>> {
    let faults = FaultPlan::default();
    let mut report = RewriteReport::new();
    let mut gov = Gov::new(&Budget::default(), &faults, &mut report, 0);
    ro_query(rules, q, props, 0, &mut gov)
}

pub(crate) fn ro_query(
    rules: &[Oriented],
    q: &Query,
    props: &PropDb,
    d: usize,
    gov: &mut Gov,
) -> Option<Applied<Query>> {
    if gov.clip(d) {
        return None;
    }
    rules_at!(rules, q, props, gov, try_rule_query);
    match q {
        Query::Lit(_) | Query::Extent(_) => None,
        Query::App(f, inner) => {
            let (f, inner) = (f.clone(), inner.clone());
            child!(ro_func(rules, &f, props, d + 1, gov), |r| Query::App(
                r,
                inner.clone()
            ));
            child!(ro_query(rules, &inner, props, d + 1, gov), |r| Query::App(
                f.clone(),
                Box::new(r)
            ));
            None
        }
        Query::Test(p, inner) => {
            let (p, inner) = (p.clone(), inner.clone());
            child!(ro_pred(rules, &p, props, d + 1, gov), |r| Query::Test(
                r,
                inner.clone()
            ));
            child!(ro_query(rules, &inner, props, d + 1, gov), |r| Query::Test(
                p.clone(),
                Box::new(r)
            ));
            None
        }
        Query::PairQ(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            child!(ro_query(rules, &a, props, d + 1, gov), |r| Query::PairQ(
                Box::new(r),
                b.clone()
            ));
            child!(ro_query(rules, &b, props, d + 1, gov), |r| Query::PairQ(
                a.clone(),
                Box::new(r)
            ));
            None
        }
        Query::Union(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            child!(ro_query(rules, &a, props, d + 1, gov), |r| Query::Union(
                Box::new(r),
                b.clone()
            ));
            child!(ro_query(rules, &b, props, d + 1, gov), |r| Query::Union(
                a.clone(),
                Box::new(r)
            ));
            None
        }
        Query::Intersect(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            child!(
                ro_query(rules, &a, props, d + 1, gov),
                |r| Query::Intersect(Box::new(r), b.clone())
            );
            child!(
                ro_query(rules, &b, props, d + 1, gov),
                |r| Query::Intersect(a.clone(), Box::new(r))
            );
            None
        }
        Query::Diff(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            child!(ro_query(rules, &a, props, d + 1, gov), |r| Query::Diff(
                Box::new(r),
                b.clone()
            ));
            child!(ro_query(rules, &b, props, d + 1, gov), |r| Query::Diff(
                a.clone(),
                Box::new(r)
            ));
            None
        }
    }
}

/// Rewrite a query *bottom-up in one sweep*: children are normalized
/// first (recursively, to a local fixpoint with `fuel`), then rules are
/// applied at the node itself until none fires. This is the "apply one or
/// more rules in succession, and throughout a tree" firing policy §4.2
/// ascribes to COKO rule blocks (`BU { … }` in the COKO syntax).
///
/// Returns the rewritten query and the number of rule applications.
/// Ungoverned wrapper over [`rewrite_bottom_up_governed`] with default
/// bounds and no faults.
pub fn rewrite_bottom_up(
    rules: &[Oriented],
    q: &Query,
    props: &PropDb,
    fuel: usize,
) -> (Query, usize) {
    let faults = FaultPlan::default();
    let mut report = RewriteReport::new();
    rewrite_bottom_up_governed(
        rules,
        q,
        props,
        fuel,
        &Budget::default(),
        &faults,
        &mut report,
    )
}

/// Bottom-up sweep under governance: quarantined rules are skipped, rule
/// failures are contained into `report`, and subtrees beyond the depth cap
/// are left untouched.
pub fn rewrite_bottom_up_governed(
    rules: &[Oriented],
    q: &Query,
    props: &PropDb,
    fuel: usize,
    budget: &Budget,
    faults: &FaultPlan,
    report: &mut RewriteReport,
) -> (Query, usize) {
    let mut fires = 0;
    let mut gov = Gov::new(budget, faults, report, 0);
    let out = bu_query(rules, q, props, fuel, &mut fires, 0, &mut gov);
    (out, fires)
}

/// Exhaust `rules` at one node. Per-node loop macro shared by the three
/// syntactic levels: applies the first non-quarantined rule that fires,
/// normalizes, and repeats up to `fuel` times; failures are contained.
macro_rules! exhaust_at {
    ($rules:expr, $t:expr, $props:expr, $fuel:expr, $fires:expr, $gov:expr, $try:ident) => {
        for _ in 0..$fuel {
            let mut fired = false;
            for o in $rules {
                if $gov.report.is_quarantined(&o.rule.id) {
                    continue;
                }
                match $try(o, &$t, $props, $gov) {
                    Ok(Some(result)) => {
                        $t = result.normalize();
                        *$fires += 1;
                        fired = true;
                        break;
                    }
                    Ok(None) => {}
                    Err(e) => $gov.record_failure(&o.rule.id, &e),
                }
            }
            if !fired {
                break;
            }
        }
    };
}

fn exhaust_query(
    rules: &[Oriented],
    mut q: Query,
    props: &PropDb,
    fuel: usize,
    fires: &mut usize,
    gov: &mut Gov,
) -> Query {
    exhaust_at!(rules, q, props, fuel, fires, gov, try_rule_query);
    q
}

fn exhaust_func(
    rules: &[Oriented],
    mut f: Func,
    props: &PropDb,
    fuel: usize,
    fires: &mut usize,
    gov: &mut Gov,
) -> Func {
    exhaust_at!(rules, f, props, fuel, fires, gov, try_rule_func);
    f
}

fn exhaust_pred(
    rules: &[Oriented],
    mut p: Pred,
    props: &PropDb,
    fuel: usize,
    fires: &mut usize,
    gov: &mut Gov,
) -> Pred {
    exhaust_at!(rules, p, props, fuel, fires, gov, try_rule_pred);
    p
}

fn bu_query(
    rules: &[Oriented],
    q: &Query,
    props: &PropDb,
    fuel: usize,
    fires: &mut usize,
    d: usize,
    gov: &mut Gov,
) -> Query {
    if gov.clip(d) {
        return q.clone();
    }
    let rebuilt = match q {
        Query::Lit(_) | Query::Extent(_) => q.clone(),
        Query::PairQ(a, b) => Query::PairQ(
            Box::new(bu_query(rules, a, props, fuel, fires, d + 1, gov)),
            Box::new(bu_query(rules, b, props, fuel, fires, d + 1, gov)),
        ),
        Query::App(f, inner) => Query::App(
            bu_func(rules, f, props, fuel, fires, d + 1, gov),
            Box::new(bu_query(rules, inner, props, fuel, fires, d + 1, gov)),
        ),
        Query::Test(p, inner) => Query::Test(
            bu_pred(rules, p, props, fuel, fires, d + 1, gov),
            Box::new(bu_query(rules, inner, props, fuel, fires, d + 1, gov)),
        ),
        Query::Union(a, b) => Query::Union(
            Box::new(bu_query(rules, a, props, fuel, fires, d + 1, gov)),
            Box::new(bu_query(rules, b, props, fuel, fires, d + 1, gov)),
        ),
        Query::Intersect(a, b) => Query::Intersect(
            Box::new(bu_query(rules, a, props, fuel, fires, d + 1, gov)),
            Box::new(bu_query(rules, b, props, fuel, fires, d + 1, gov)),
        ),
        Query::Diff(a, b) => Query::Diff(
            Box::new(bu_query(rules, a, props, fuel, fires, d + 1, gov)),
            Box::new(bu_query(rules, b, props, fuel, fires, d + 1, gov)),
        ),
    };
    exhaust_query(rules, rebuilt.normalize(), props, fuel, fires, gov)
}

fn bu_func(
    rules: &[Oriented],
    f: &Func,
    props: &PropDb,
    fuel: usize,
    fires: &mut usize,
    d: usize,
    gov: &mut Gov,
) -> Func {
    if gov.clip(d) {
        return f.clone();
    }
    macro_rules! f2 {
        ($ctor:path, $a:expr, $b:expr) => {
            $ctor(
                Box::new(bu_func(rules, $a, props, fuel, fires, d + 1, gov)),
                Box::new(bu_func(rules, $b, props, fuel, fires, d + 1, gov)),
            )
        };
    }
    macro_rules! pf {
        ($ctor:path, $p:expr, $g:expr) => {
            $ctor(
                Box::new(bu_pred(rules, $p, props, fuel, fires, d + 1, gov)),
                Box::new(bu_func(rules, $g, props, fuel, fires, d + 1, gov)),
            )
        };
    }
    let rebuilt = match f {
        Func::Compose(a, b) => f2!(Func::Compose, a, b),
        Func::PairWith(a, b) => f2!(Func::PairWith, a, b),
        Func::Times(a, b) => f2!(Func::Times, a, b),
        Func::Nest(a, b) => f2!(Func::Nest, a, b),
        Func::Unnest(a, b) => f2!(Func::Unnest, a, b),
        Func::Iterate(p, g) => pf!(Func::Iterate, p, g),
        Func::Iter(p, g) => pf!(Func::Iter, p, g),
        Func::Join(p, g) => pf!(Func::Join, p, g),
        Func::BIterate(p, g) => pf!(Func::BIterate, p, g),
        Func::Cond(p, a, b) => Func::Cond(
            Box::new(bu_pred(rules, p, props, fuel, fires, d + 1, gov)),
            Box::new(bu_func(rules, a, props, fuel, fires, d + 1, gov)),
            Box::new(bu_func(rules, b, props, fuel, fires, d + 1, gov)),
        ),
        Func::ConstF(q) => {
            Func::ConstF(Box::new(bu_query(rules, q, props, fuel, fires, d + 1, gov)))
        }
        Func::CurryF(g, q) => Func::CurryF(
            Box::new(bu_func(rules, g, props, fuel, fires, d + 1, gov)),
            Box::new(bu_query(rules, q, props, fuel, fires, d + 1, gov)),
        ),
        leaf => leaf.clone(),
    };
    exhaust_func(rules, rebuilt.normalize(), props, fuel, fires, gov)
}

fn bu_pred(
    rules: &[Oriented],
    p: &Pred,
    props: &PropDb,
    fuel: usize,
    fires: &mut usize,
    d: usize,
    gov: &mut Gov,
) -> Pred {
    if gov.clip(d) {
        return p.clone();
    }
    let rebuilt = match p {
        Pred::Oplus(q, f) => Pred::Oplus(
            Box::new(bu_pred(rules, q, props, fuel, fires, d + 1, gov)),
            Box::new(bu_func(rules, f, props, fuel, fires, d + 1, gov)),
        ),
        Pred::And(a, b) => Pred::And(
            Box::new(bu_pred(rules, a, props, fuel, fires, d + 1, gov)),
            Box::new(bu_pred(rules, b, props, fuel, fires, d + 1, gov)),
        ),
        Pred::Or(a, b) => Pred::Or(
            Box::new(bu_pred(rules, a, props, fuel, fires, d + 1, gov)),
            Box::new(bu_pred(rules, b, props, fuel, fires, d + 1, gov)),
        ),
        Pred::Not(q) => Pred::Not(Box::new(bu_pred(rules, q, props, fuel, fires, d + 1, gov))),
        Pred::Conv(q) => Pred::Conv(Box::new(bu_pred(rules, q, props, fuel, fires, d + 1, gov))),
        Pred::CurryP(q, payload) => Pred::CurryP(
            Box::new(bu_pred(rules, q, props, fuel, fires, d + 1, gov)),
            Box::new(bu_query(rules, payload, props, fuel, fires, d + 1, gov)),
        ),
        leaf => leaf.clone(),
    };
    exhaust_pred(rules, rebuilt.normalize(), props, fuel, fires, gov)
}

/// Default bound on fixpoint iterations; generous for any realistic query.
pub const DEFAULT_FUEL: usize = 10_000;

/// One governed leftmost-outermost step, sharing an external report (used
/// by the strategy interpreter so accounting spans a whole strategy run).
pub(crate) fn rewrite_once_governed(
    rules: &[Oriented],
    q: &Query,
    props: &PropDb,
    budget: &Budget,
    faults: &FaultPlan,
    report: &mut RewriteReport,
) -> Option<Applied<Query>> {
    let step = report.steps;
    let mut gov = Gov::new(budget, faults, report, step);
    ro_query(rules, q, props, 0, &mut gov)
}

/// The outcome of a governed rewrite run: the chosen query (the normal form
/// on clean termination, the best — smallest — term seen on an abnormal
/// stop), the derivation trace, and the resource/failure report.
///
/// Invariant: `report.steps == trace.steps.len()`, and both never exceed
/// the budget's `max_steps`.
#[derive(Debug, Clone)]
pub struct Rewritten {
    /// The resulting query.
    pub query: Query,
    /// The derivation that produced it (or led to the best term).
    pub trace: Trace,
    /// Resource accounting and stop reason.
    pub report: RewriteReport,
}

/// [`rewrite_fix_with`] behind a panic boundary: a poison rule that
/// *unwinds* (a [`crate::fault::FaultKind::Panic`] fault, or a genuine rule
/// bug) is caught and classified instead of propagating into the caller.
/// All run state is function-local, so a caught panic leaves nothing
/// inconsistent — the caller can immediately retry with the offending rule
/// removed.
pub fn try_rewrite_fix_with(
    rules: &[Oriented],
    q: &Query,
    props: &PropDb,
    budget: &Budget,
    faults: &FaultPlan,
) -> Result<Rewritten, crate::fault::CaughtPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rewrite_fix_with(rules, q, props, budget, faults)
    }))
    .map_err(crate::fault::CaughtPanic::from_payload)
}

/// [`rewrite_fix_with`] without fault injection.
pub fn rewrite_fix_governed(
    rules: &[Oriented],
    q: &Query,
    props: &PropDb,
    budget: &Budget,
) -> Rewritten {
    rewrite_fix_with(rules, q, props, budget, &FaultPlan::default())
}

/// Apply `rules` to `q` repeatedly (leftmost-outermost, first matching
/// rule) under full governance: step/depth/size/deadline budgets, cycle
/// detection, rule-failure containment with quarantine, and fault
/// injection. Never panics; always returns a term and a report.
///
/// Cycle detection is sound as a stopping rule: the engine is
/// deterministic (given a term and the quarantine state it always picks
/// the same redex), so producing a term with an already-seen fingerprint
/// means the derivation has entered a loop that would never terminate.
/// On any abnormal stop the *best* (smallest) term seen is returned — the
/// derivation so far is a chain of equivalences, so every intermediate
/// term is a correct answer.
pub fn rewrite_fix_with(
    rules: &[Oriented],
    q: &Query,
    props: &PropDb,
    budget: &Budget,
    faults: &FaultPlan,
) -> Rewritten {
    let mut report = RewriteReport::new();
    let mut trace = Trace::new();
    let mut cur = q.normalize();
    let (cur_size, cur_fp) = measure_query(&cur);
    if cur_size > budget.max_term_size {
        let e = RewriteError::TermTooLarge {
            size: cur_size,
            limit: budget.max_term_size,
        };
        report.failures.push(e.to_string());
        report.stop = StopReason::TermTooLarge;
        return Rewritten {
            query: cur,
            trace,
            report,
        };
    }

    let mut seen = CycleDetector::new();
    seen.seen(cur_fp, &cur);
    let mut best = cur.clone();
    let mut best_size = cur_size;

    loop {
        if report.steps >= budget.max_steps {
            report.stop = StopReason::BudgetExhausted;
            return Rewritten {
                query: best,
                trace,
                report,
            };
        }
        if budget.expired() {
            report.stop = StopReason::DeadlineExpired;
            return Rewritten {
                query: best,
                trace,
                report,
            };
        }
        let step = report.steps;
        let mut gov = Gov::new(budget, faults, &mut report, step);
        let Some(applied) = ro_query(rules, &cur, props, 0, &mut gov) else {
            report.stop = StopReason::NormalForm;
            return Rewritten {
                query: cur,
                trace,
                report,
            };
        };
        let next = applied.result.normalize();
        let (next_size, next_fp) = measure_query(&next);
        if next_size > budget.max_term_size {
            // Reject the oversize result and charge the offending rule.
            // If that doesn't quarantine it, the engine would re-derive the
            // same result forever — stop instead.
            let e = RewriteError::TermTooLarge {
                size: next_size,
                limit: budget.max_term_size,
            };
            report.record_failure(&applied.rule_id, &e, budget.quarantine_after, report.steps);
            if !report.is_quarantined(&applied.rule_id) {
                report.stop = StopReason::TermTooLarge;
                return Rewritten {
                    query: best,
                    trace,
                    report,
                };
            }
            continue;
        }
        cur = next;
        report.steps += 1;
        report.record_fire(&applied.rule_id);
        trace.steps.push(Step {
            rule_id: applied.rule_id,
            dir: applied.dir,
            after: cur.clone(),
        });
        if next_size < best_size {
            best = cur.clone();
            best_size = next_size;
        }
        if seen.seen(next_fp, &cur) {
            report.stop = StopReason::CycleDetected;
            return Rewritten {
                query: best,
                trace,
                report,
            };
        }
    }
}

/// Apply `rules` to `q` repeatedly (leftmost-outermost, first matching rule)
/// until no rule applies or `fuel` steps have been taken. Returns the normal
/// form and the full derivation trace.
///
/// Legacy interface over [`rewrite_fix_governed`]: same step bound, default
/// depth/size governance, no deadline. On an abnormal stop (fuel out,
/// cycle) the best term seen so far is returned.
pub fn rewrite_fix(rules: &[Oriented], q: &Query, props: &PropDb, fuel: usize) -> (Query, Trace) {
    let r = rewrite_fix_governed(rules, q, props, &Budget::with_steps(fuel));
    (r.query, r.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use kola::parse::parse_query;

    fn props() -> PropDb {
        PropDb::new()
    }

    #[test]
    fn rewrite_inside_query() {
        let r = Rule::func("2", "id-left", "id . $f", "$f");
        let q = parse_query("iterate(Kp(T), id . age) ! P").unwrap();
        let rules = [Oriented::fwd(&r)];
        let a = rewrite_once_query(&rules, &q, &props()).unwrap();
        assert_eq!(a.result, parse_query("iterate(Kp(T), age) ! P").unwrap());
        assert_eq!(a.rule_id, "2");
    }

    #[test]
    fn rewrite_inside_pred_inside_func() {
        let r = Rule::pred("3", "oplus-id", "%p @ id", "%p");
        let q = parse_query("iterate(gt @ id, age) ! P").unwrap();
        let rules = [Oriented::fwd(&r)];
        let a = rewrite_once_query(&rules, &q, &props()).unwrap();
        assert_eq!(a.result, parse_query("iterate(gt, age) ! P").unwrap());
    }

    #[test]
    fn rewrite_inside_const_payload() {
        let r = Rule::query("u", "union-self", "^A union ^A", "^A");
        let q = parse_query("Kf(P union P) ! V").unwrap();
        let rules = [Oriented::fwd(&r)];
        let a = rewrite_once_query(&rules, &q, &props()).unwrap();
        assert_eq!(a.result, parse_query("Kf(P) ! V").unwrap());
    }

    #[test]
    fn fixpoint_terminates_and_traces() {
        let r = Rule::func("2", "id-left", "id . $f", "$f");
        let q = parse_query("id . id . id . age ! P").unwrap();
        let rules = [Oriented::fwd(&r)];
        let (out, trace) = rewrite_fix(&rules, &q, &props(), DEFAULT_FUEL);
        assert_eq!(out, parse_query("age ! P").unwrap());
        assert_eq!(trace.justifications(), vec!["2", "2", "2"]);
    }

    #[test]
    fn backward_direction_recorded() {
        let r = Rule::func("2", "id-left", "id . $f", "$f");
        let q = parse_query("age ! P").unwrap();
        let rules = [Oriented::bwd(&r)];
        let a = rewrite_once_query(&rules, &q, &props()).unwrap();
        assert_eq!(a.result, parse_query("id . age ! P").unwrap());
        assert_eq!(a.dir, Direction::Backward);
        let step = Step {
            rule_id: a.rule_id,
            dir: a.dir,
            after: a.result,
        };
        assert_eq!(step.justification(), "2-1");
    }

    #[test]
    fn precondition_gates_application() {
        use crate::props::{PropKind, PropTerm};
        // injective(f) :: iterate(Kp(T), $f) ! (^A intersect ^B) =>
        //                 (iterate(Kp(T), $f) ! ^A) intersect (... ^B)
        let r = Rule::query(
            "inj",
            "push-intersect",
            "iterate(Kp(T), $f) ! (^A intersect ^B)",
            "(iterate(Kp(T), $f) ! ^A) intersect (iterate(Kp(T), $f) ! ^B)",
        )
        .with_precondition(PropKind::Injective, PropTerm::func("f"));
        let q = parse_query("iterate(Kp(T), name) ! (P intersect Q)").unwrap();
        let rules = [Oriented::fwd(&r)];
        // Without the annotation: blocked.
        assert!(rewrite_once_query(&rules, &q, &PropDb::new()).is_none());
        // With `name` declared a key: fires.
        let mut db = PropDb::new();
        db.declare_injective("name");
        assert!(rewrite_once_query(&rules, &q, &db).is_some());
    }
}
