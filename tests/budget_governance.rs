//! Integration tests for the resource-governance layer: budgets, cycle
//! detection, depth clipping, best-so-far degradation, and fault
//! quarantine, end to end through the public `kola-rewrite` API.

use kola::term::{Func, Query};
use kola_rewrite::budget::measure_query;
use kola_rewrite::strategy::{apply, repeat};
use kola_rewrite::{
    rewrite_fix_governed, rewrite_fix_with, Budget, Catalog, FaultKind, FaultPlan, FaultSpec,
    Oriented, PropDb, Rule, Runner, StepSelector, StopReason,
};
use std::sync::Arc;

/// `id ∘ id ∘ … ∘ id ∘ age ! P` with `n` identity layers. Built (and
/// later torn down by normal drop) iteratively-shallow enough for test
/// stacks at the sizes used here.
fn id_tower(n: usize) -> Query {
    let mut f = Func::Prim(Arc::from("age"));
    for _ in 0..n {
        f = Func::Compose(Box::new(Func::Id), Box::new(f));
    }
    Query::App(f, Box::new(Query::Extent(Arc::from("P"))))
}

#[test]
fn budget_exhaustion_returns_best_so_far_with_accurate_report() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = vec![Oriented::fwd(catalog.get("2").unwrap())];
    let q = id_tower(1_000);
    let (initial_size, _) = measure_query(&q.normalize());

    let budget = Budget::with_steps(10);
    let r = rewrite_fix_governed(&rules, &q, &props, &budget);

    assert_eq!(r.report.stop, StopReason::BudgetExhausted);
    assert_eq!(r.report.steps, 10, "{}", r.report);
    assert_eq!(r.trace.steps.len(), r.report.steps);
    assert_eq!(r.report.rule_stats["2"].fired, 10);
    // Each firing of rule 2 strips one `id ∘` layer (two nodes); the best
    // term under an exhausted budget is the furthest point reached.
    let (final_size, _) = measure_query(&r.query);
    assert_eq!(final_size, initial_size - 20);
}

#[test]
fn forward_backward_rule_pair_terminates_via_cycle_detection() {
    // A rule applied in both orientations ping-pongs forever; the
    // fingerprint seen-set must catch the revisit, not burn the budget.
    let flip = Rule::func("flip", "test", "id . $f", "$f . id");
    let rules = vec![Oriented::fwd(&flip), Oriented::bwd(&flip)];
    let props = PropDb::new();
    let q = kola::parse::parse_query("id . age ! P").unwrap();

    let r = rewrite_fix_governed(&rules, &q, &props, &Budget::default());
    assert_eq!(r.report.stop, StopReason::CycleDetected, "{}", r.report);
    assert!(
        r.report.steps <= 4,
        "cycle must be caught immediately, not after {} steps",
        r.report.steps
    );
    assert_eq!(r.trace.steps.len(), r.report.steps);
}

#[test]
fn ten_thousand_node_term_rewrites_without_overflow() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = vec![Oriented::fwd(catalog.get("2").unwrap())];
    // ~20k nodes: 10k id layers, each contributing a Compose and an Id.
    let q = id_tower(10_000);
    let (initial_size, _) = measure_query(&q);
    assert!(initial_size > 20_000);

    let budget = Budget::with_steps(50);
    let r = rewrite_fix_governed(&rules, &q, &props, &budget);
    assert_eq!(r.report.stop, StopReason::BudgetExhausted);
    assert_eq!(r.report.steps, 50);
    let (final_size, _) = measure_query(&r.query);
    assert_eq!(final_size, measure_query(&q.normalize()).0 - 100);
}

#[test]
fn descent_depth_is_clipped_not_overflowed() {
    // Rule 9 (`pi1 . ($f, $g)`) matches nowhere in an id tower, so the
    // engine must walk (and give up on) the whole term: the walk is
    // clipped at the budget's depth bound.
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = vec![Oriented::fwd(catalog.get("9").unwrap())];
    let q = id_tower(10_000);

    let budget = Budget::default().depth(64);
    let r = rewrite_fix_governed(&rules, &q, &props, &budget);
    assert_eq!(r.report.stop, StopReason::NormalForm);
    assert_eq!(r.report.steps, 0);
    assert!(r.report.depth_clipped, "{}", r.report);
}

#[test]
fn faulted_rule_is_quarantined_then_run_degrades_gracefully() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    // Rule 2 is the only rule that can fire on an id tower (rule 9 never
    // matches it); sabotaging rule 2 leaves the engine nothing to do.
    let rules = vec![
        Oriented::fwd(catalog.get("2").unwrap()),
        Oriented::fwd(catalog.get("9").unwrap()),
    ];
    let q = id_tower(8);
    let faults = FaultPlan::new().with(FaultSpec {
        rule_id: "2".to_string(),
        at: StepSelector::Always,
        kind: FaultKind::Fail,
    });
    let budget = Budget::default().quarantine_after(3);
    let r = rewrite_fix_with(&rules, &q, &props, &budget, &faults);

    assert!(r.report.is_quarantined("2"), "{}", r.report);
    assert_eq!(r.report.rule_stats["2"].fired, 0);
    assert!(r.report.rule_stats["2"].failed >= 3);
    // With its only productive rule quarantined the term is in normal form;
    // the run ends cleanly instead of erroring out.
    assert_eq!(r.report.stop, StopReason::NormalForm);
    assert_eq!(r.report.steps, 0);
    assert_eq!(r.query, q.normalize());
}

#[test]
fn strategy_runner_respects_budget_and_reports() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let runner = Runner::new(&catalog, &props).with_budget(Budget::with_steps(5));
    let q = id_tower(20);
    let mut trace = kola_rewrite::Trace::new();
    let (_, _, report) = runner.run_governed(&repeat(apply("2")), q, &mut trace);

    assert_eq!(report.steps, 5, "{report}");
    assert_eq!(trace.steps.len(), 5);
    assert_eq!(report.stop, StopReason::BudgetExhausted);
    assert_eq!(report.rule_stats["2"].fired, 5);
}

#[test]
fn unknown_rule_reference_degrades_instead_of_panicking() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let runner = Runner::new(&catalog, &props);
    let q = kola::parse::parse_query("id . age ! P").unwrap();
    let mut trace = kola_rewrite::Trace::new();
    let (out, outcome, report) = runner.run_governed(&apply("no-such-rule"), q.clone(), &mut trace);
    assert_eq!(outcome, kola_rewrite::strategy::Outcome::Failure);
    assert_eq!(out, q.normalize());
    assert_eq!(report.failures.len(), 1, "{report}");
    assert!(report.failures[0].contains("no-such-rule"));
}

#[test]
fn deadline_budget_stops_the_run() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = vec![Oriented::fwd(catalog.get("2").unwrap())];
    let q = id_tower(200);
    // A deadline already in the past: the run must stop before any step.
    let budget = Budget::default().timeout(std::time::Duration::from_secs(0));
    let r = rewrite_fix_governed(&rules, &q, &props, &budget);
    assert_eq!(r.report.stop, StopReason::DeadlineExpired);
    assert_eq!(r.report.steps, 0);
}

#[test]
fn deadline_bounds_a_saturating_request() {
    use kola_rewrite::{Engine, EngineConfig};
    use std::time::{Duration, Instant};
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented> = catalog.rules().iter().map(Oriented::fwd).collect();
    let q =
        kola_frontend::parse_any_query("select [p, (select c.age from c in p.child)] from p in P")
            .expect("request parses");
    let run = |budget: &Budget| {
        let mut engine = Engine::new(rules.clone(), &props, EngineConfig::saturating());
        let t0 = Instant::now();
        let out = engine.normalize(&q, budget);
        (out, t0.elapsed())
    };
    // Up to 200 steps the request is quick; at 250 its e-graph grows until
    // one match round alone runs far past 20 ms. The deadline is 20 ms, or
    // three times the quick prefix when an unoptimized build needs longer,
    // so that it expires inside that slow round.
    let (_, prefix) = run(&Budget::with_steps(200));
    let timeout = Duration::from_millis(20).max(prefix * 3);
    let (out, took) = run(&Budget::with_steps(250).timeout(timeout));
    assert_eq!(out.report.stop, StopReason::DeadlineExpired);
    assert!(
        took < timeout + Duration::from_secs(1),
        "a {timeout:?} deadline held the request for {took:?}"
    );
}
