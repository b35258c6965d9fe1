//! Strategy combinators: deterministic control over rule firing.
//!
//! The paper's closing sections sketch COKO "rule blocks — sets of rules
//! that are used together, together with strategies for their firing". A
//! [`Strategy`] is that control language as data; the `kola-coko` crate
//! parses COKO source into it. The hidden-join pipeline of §4.1 is five
//! strategies run in sequence ([`crate::hidden_join`]).

use crate::budget::{
    measure_query, Budget, CycleDetector, RewriteError, RewriteReport, StopReason,
};
use crate::catalog::Catalog;
use crate::engine::{
    rewrite_bottom_up_governed, rewrite_once_governed, Oriented, Step, Trace, DEFAULT_FUEL,
};
use crate::fast::{Engine, EngineConfig};
use crate::fault::FaultPlan;
use crate::props::PropDb;
use kola::term::Query;
use std::fmt;

/// A firing strategy over the rule catalog.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Apply one rule once (leftmost-outermost). Reference syntax: `"11"`
    /// forward, `"12-1"` backward.
    Apply(String),
    /// Try each reference in order at each position; first match wins.
    /// Applies at most once.
    ApplyAny(Vec<String>),
    /// Run strategies in order; fails if any fails.
    Seq(Vec<Strategy>),
    /// First strategy that succeeds; fails if none do.
    Choice(Vec<Strategy>),
    /// Run the strategy; succeed even if it fails.
    Try(Box<Strategy>),
    /// Run the strategy repeatedly until it fails (bounded by fuel).
    /// Always succeeds.
    Repeat(Box<Strategy>),
    /// Exhaustively apply a rule set to fixpoint (bounded by fuel).
    /// Always succeeds. This is the workhorse for "push X everywhere".
    Fix(Vec<String>),
    /// One bottom-up sweep: normalize children first, then the node, with
    /// the rule set exhausted at each position (§4.2's "throughout a
    /// tree"). Always succeeds. COKO syntax: `BU { [r], … }`.
    BottomUp(Vec<String>),
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Apply(r) => write!(f, "{r}"),
            Strategy::ApplyAny(rs) => write!(f, "any({})", rs.join(", ")),
            Strategy::Seq(ss) => {
                write!(f, "(")?;
                for (i, s) in ss.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ; ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            Strategy::Choice(ss) => {
                write!(f, "(")?;
                for (i, s) in ss.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            Strategy::Try(s) => write!(f, "try {s}"),
            Strategy::Repeat(s) => write!(f, "repeat {s}"),
            Strategy::Fix(rs) => write!(f, "fix({})", rs.join(", ")),
            Strategy::BottomUp(rs) => write!(f, "bu({})", rs.join(", ")),
        }
    }
}

/// Outcome of running a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The strategy made at least the progress it demanded.
    Success,
    /// The strategy could not apply.
    Failure,
}

/// A strategy interpreter bound to a catalog and a property database,
/// governed by a [`Budget`] and an optional [`FaultPlan`].
pub struct Runner<'a> {
    /// Rule catalog used to resolve references.
    pub catalog: &'a Catalog,
    /// Property database for preconditions.
    pub props: &'a PropDb,
    /// Bound on strategy-level iterations (`Repeat`); kept distinct from
    /// the budget's step cap for backward compatibility.
    pub fuel: usize,
    /// Resource budget shared across the whole strategy run.
    pub budget: Budget,
    /// Injected faults (empty by default).
    pub faults: FaultPlan,
    /// The engine `Fix` fixpoints run on ([`crate::fast::Engine`]). The
    /// default, [`EngineConfig::naive`], is the boxed reference engine; the
    /// modes are differentially tested to be interchangeable.
    pub engine: EngineConfig,
}

impl<'a> Runner<'a> {
    /// A runner with default fuel, default budget, no faults.
    pub fn new(catalog: &'a Catalog, props: &'a PropDb) -> Self {
        Runner {
            catalog,
            props,
            fuel: DEFAULT_FUEL,
            budget: Budget::default(),
            faults: FaultPlan::default(),
            engine: EngineConfig::naive(),
        }
    }

    /// Replace the budget (builder style). The iteration fuel follows the
    /// budget's step cap.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.fuel = budget.max_steps;
        self.budget = budget;
        self
    }

    /// Attach a fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Run fixpoints on the engine the given configuration selects
    /// (builder style).
    pub fn with_engine(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    fn try_resolve_set(&self, refs: &[String]) -> Result<Vec<Oriented<'a>>, RewriteError> {
        refs.iter()
            .map(|spec| {
                let (rule, dir) = self.catalog.try_resolve(spec)?;
                Ok(Oriented { rule, dir })
            })
            .collect()
    }

    /// Resolve a rule set; on an unknown reference, record the error in the
    /// report and return `None` (the strategy degrades to `Failure` instead
    /// of panicking).
    fn resolve_or_report(
        &self,
        refs: &[String],
        report: &mut RewriteReport,
    ) -> Option<Vec<Oriented<'a>>> {
        match self.try_resolve_set(refs) {
            Ok(rules) => Some(rules),
            Err(e) => {
                if report.failures.len() < 8 {
                    report.failures.push(e.to_string());
                }
                None
            }
        }
    }

    /// Steps still available under the budget.
    fn remaining(&self, report: &RewriteReport) -> usize {
        self.budget.max_steps.saturating_sub(report.steps)
    }

    fn mark_stop(report: &mut RewriteReport, stop: StopReason) {
        if report.stop == StopReason::NormalForm {
            report.stop = stop;
        }
    }

    /// Run `strategy` on `q`, appending steps to `trace`. Returns the
    /// (possibly rewritten) query and whether the strategy succeeded.
    /// Convenience over [`Runner::run_governed`], discarding the report.
    pub fn run(&self, strategy: &Strategy, q: Query, trace: &mut Trace) -> (Query, Outcome) {
        let (q, out, _) = self.run_governed(strategy, q, trace);
        (q, out)
    }

    /// Run `strategy` on `q` under the runner's budget and fault plan.
    /// Also returns the accumulated [`RewriteReport`]: total steps, per-rule
    /// fire/fail counts, quarantined rules, and the first abnormal stop
    /// reason encountered anywhere in the run (or `NormalForm`).
    pub fn run_governed(
        &self,
        strategy: &Strategy,
        q: Query,
        trace: &mut Trace,
    ) -> (Query, Outcome, RewriteReport) {
        let mut report = RewriteReport::new();
        let (q, out) = self.go(strategy, q, trace, &mut report);
        (q, out, report)
    }

    /// [`Runner::run_governed`] behind a panic boundary: a rule that
    /// unwinds (a [`crate::fault::FaultKind::Panic`] fault or a genuine
    /// bug) is caught and classified instead of propagating — the per-rung
    /// entry point the optimization service's degradation ladder uses. On
    /// `Err`, `trace` holds whatever steps completed before the panic;
    /// treat it as diagnostic only.
    pub fn try_run_governed(
        &self,
        strategy: &Strategy,
        q: Query,
        trace: &mut Trace,
    ) -> Result<(Query, Outcome, RewriteReport), crate::fault::CaughtPanic> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_governed(strategy, q, trace)
        }))
        .map_err(crate::fault::CaughtPanic::from_payload)
    }

    fn go(
        &self,
        strategy: &Strategy,
        q: Query,
        trace: &mut Trace,
        report: &mut RewriteReport,
    ) -> (Query, Outcome) {
        match strategy {
            Strategy::Apply(spec) => self.apply_set(std::slice::from_ref(spec), q, trace, report),
            Strategy::ApplyAny(specs) => self.apply_set(specs, q, trace, report),
            Strategy::Seq(ss) => {
                let mut cur = q;
                for s in ss {
                    let (next, out) = self.go(s, cur, trace, report);
                    cur = next;
                    if out == Outcome::Failure {
                        return (cur, Outcome::Failure);
                    }
                }
                (cur, Outcome::Success)
            }
            Strategy::Choice(ss) => {
                let mut cur = q;
                for s in ss {
                    let (next, out) = self.go(s, cur, trace, report);
                    cur = next;
                    if out == Outcome::Success {
                        return (cur, Outcome::Success);
                    }
                }
                (cur, Outcome::Failure)
            }
            Strategy::Try(s) => {
                let (next, _) = self.go(s, q, trace, report);
                (next, Outcome::Success)
            }
            Strategy::Repeat(s) => {
                // Bounded by fuel AND the step budget, with cycle detection:
                // a repeated term fingerprint means the body is looping
                // (e.g. a forward/backward rule pair), so stop — repeating
                // is deterministic and would never converge.
                let mut cur = q;
                let mut seen = CycleDetector::new();
                seen.seen(measure_query(&cur).1, &cur);
                let mut converged = false;
                for _ in 0..self.fuel {
                    if self.remaining(report) == 0 {
                        break;
                    }
                    let (next, out) = self.go(s, cur, trace, report);
                    cur = next;
                    if out == Outcome::Failure {
                        converged = true;
                        break;
                    }
                    if seen.seen(measure_query(&cur).1, &cur) {
                        Self::mark_stop(report, StopReason::CycleDetected);
                        converged = true;
                        break;
                    }
                }
                if !converged && self.remaining(report) == 0 {
                    Self::mark_stop(report, StopReason::BudgetExhausted);
                }
                (cur, Outcome::Success)
            }
            Strategy::BottomUp(specs) => {
                let Some(rules) = self.resolve_or_report(specs, report) else {
                    return (q, Outcome::Failure);
                };
                let fuel = self.fuel.min(self.remaining(report).max(1));
                let (out, fires) = rewrite_bottom_up_governed(
                    &rules,
                    &q,
                    self.props,
                    fuel,
                    &self.budget,
                    &self.faults,
                    report,
                );
                report.steps += fires;
                // Record one summary step so traces stay readable.
                if fires > 0 {
                    trace.steps.push(Step {
                        rule_id: format!("bu×{fires}"),
                        dir: crate::rule::Direction::Forward,
                        after: out.clone(),
                    });
                }
                (out, Outcome::Success)
            }
            Strategy::Fix(specs) => {
                let Some(rules) = self.resolve_or_report(specs, report) else {
                    return (q, Outcome::Failure);
                };
                // Delegate to the governed fixpoint driver with whatever
                // budget is left, then fold its accounting into ours.
                let sub = Budget {
                    max_steps: self.remaining(report),
                    ..self.budget.clone()
                };
                let r = Engine::new(rules, self.props, self.engine.clone()).normalize_with(
                    &q,
                    &sub,
                    &self.faults,
                );
                trace.steps.extend(r.trace.steps);
                report.merge(&r.report);
                (r.query, Outcome::Success)
            }
        }
    }

    fn apply_set(
        &self,
        specs: &[String],
        q: Query,
        trace: &mut Trace,
        report: &mut RewriteReport,
    ) -> (Query, Outcome) {
        let Some(rules) = self.resolve_or_report(specs, report) else {
            return (q, Outcome::Failure);
        };
        let q = q.normalize();
        if self.remaining(report) == 0 {
            Self::mark_stop(report, StopReason::BudgetExhausted);
            return (q, Outcome::Failure);
        }
        match rewrite_once_governed(&rules, &q, self.props, &self.budget, &self.faults, report) {
            Some(applied) => {
                let result = applied.result.normalize();
                let (size, _) = measure_query(&result);
                if size > self.budget.max_term_size {
                    let e = RewriteError::TermTooLarge {
                        size,
                        limit: self.budget.max_term_size,
                    };
                    report.record_failure(
                        &applied.rule_id,
                        &e,
                        self.budget.quarantine_after,
                        report.steps,
                    );
                    return (q, Outcome::Failure);
                }
                report.steps += 1;
                report.record_fire(&applied.rule_id);
                trace.steps.push(Step {
                    rule_id: applied.rule_id,
                    dir: applied.dir,
                    after: result.clone(),
                });
                (result, Outcome::Success)
            }
            None => (q, Outcome::Failure),
        }
    }
}

/// Convenience: build a [`Strategy::Fix`] from string literals.
pub fn fix(refs: &[&str]) -> Strategy {
    Strategy::Fix(refs.iter().map(|s| s.to_string()).collect())
}

/// Convenience: build a [`Strategy::Seq`].
pub fn seq(ss: Vec<Strategy>) -> Strategy {
    Strategy::Seq(ss)
}

/// Convenience: build a [`Strategy::Apply`].
pub fn apply(r: &str) -> Strategy {
    Strategy::Apply(r.to_string())
}

/// Convenience: build a [`Strategy::Try`].
pub fn try_(s: Strategy) -> Strategy {
    Strategy::Try(Box::new(s))
}

/// Convenience: build a [`Strategy::Repeat`].
pub fn repeat(s: Strategy) -> Strategy {
    Strategy::Repeat(Box::new(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::parse::parse_query;

    fn setup() -> (Catalog, PropDb) {
        (Catalog::paper(), PropDb::new())
    }

    #[test]
    fn fix_runs_to_normal_form() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("id . id . age . id ! P").unwrap();
        let mut t = Trace::new();
        let (out, oc) = r.run(&fix(&["1", "2"]), q, &mut t);
        assert_eq!(oc, Outcome::Success);
        assert_eq!(out, parse_query("age ! P").unwrap());
    }

    #[test]
    fn fix_on_fast_engine_matches_reference() {
        let (c, p) = setup();
        let slow = Runner::new(&c, &p);
        let fast = Runner::new(&c, &p).with_engine(EngineConfig::fast());
        let q = parse_query("id . id . age . id ! P").unwrap();
        let strat = fix(&["1", "2"]);
        let (mut ts, mut tf) = (Trace::new(), Trace::new());
        let (out_s, oc_s) = slow.run(&strat, q.clone(), &mut ts);
        let (out_f, oc_f) = fast.run(&strat, q, &mut tf);
        assert_eq!(oc_s, oc_f);
        assert_eq!(out_s, out_f);
        assert_eq!(ts.justifications(), tf.justifications());
    }

    #[test]
    fn seq_fails_fast() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("age ! P").unwrap();
        let mut t = Trace::new();
        // "2" can't fire on `age`; the Seq must report failure.
        let (_, oc) = r.run(&seq(vec![apply("2"), apply("1")]), q, &mut t);
        assert_eq!(oc, Outcome::Failure);
    }

    #[test]
    fn try_masks_failure() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("age ! P").unwrap();
        let mut t = Trace::new();
        let (_, oc) = r.run(&try_(apply("2")), q, &mut t);
        assert_eq!(oc, Outcome::Success);
    }

    #[test]
    fn backward_reference() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("age ! P").unwrap();
        let mut t = Trace::new();
        let (out, oc) = r.run(&apply("2-1"), q, &mut t);
        assert_eq!(oc, Outcome::Success);
        assert_eq!(out, parse_query("id . age ! P").unwrap());
        assert_eq!(t.justifications(), vec!["2-1"]);
    }

    #[test]
    fn choice_takes_first_applicable() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("id . age ! P").unwrap();
        let mut t = Trace::new();
        let (out, oc) = r.run(&Strategy::Choice(vec![apply("1"), apply("2")]), q, &mut t);
        assert_eq!(oc, Outcome::Success);
        assert_eq!(out, parse_query("age ! P").unwrap());
        assert_eq!(t.justifications(), vec!["2"]);
    }
}
