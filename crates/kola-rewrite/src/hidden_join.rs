//! The five-step hidden-join untangling strategy of §4.1.
//!
//! Hidden joins are nested queries of the Figure 7 shape:
//!
//! ```text
//! iterate(Kp(T), (j, h1 ∘ g1 ∘ (id, h2 ∘ g2 ∘ … (id, hn ∘ gn ∘ (id, Kf(B))) …))) ! A
//! ```
//!
//! with each `hᵢ` either `flat` or absent and each `gᵢ` an `iter`. The
//! strategy converts them into explicit nest-of-join queries in five
//! gradual steps, each a small rule set (Figures 5 and 8):
//!
//! 1. **Break up** the monolithic `iterate` into a composition chain
//!    (rules 17, 18 + cleanup).
//! 2. **Bottom out** the `(id, Kf(B))` tail into a nest of a join
//!    (rule 19, plus the structural `app` rule to reach the bottom).
//! 3. **Pull up `nest`** to the top of the chain (rules 20, 21).
//! 4. **Pull up `unnest`s** below it (rules 22, 23).
//! 5. **Absorb** the remaining `iterate`s into the join (rule 24).
//!
//! A final *tidy* pass rewrites `⟨π1, g∘π2⟩` to `id × g` so the result is
//! literally Figure 3's KG2.

use crate::budget::{Budget, RewriteReport};
use crate::catalog::Catalog;
use crate::engine::Trace;
use crate::fast::EngineConfig;
use crate::props::PropDb;
use crate::strategy::{apply, fix, repeat, seq, Runner, Strategy};
use kola::term::Query;

/// Names and strategies of the five steps (plus tidy).
pub fn steps() -> Vec<(&'static str, Strategy)> {
    vec![
        ("break-up", step1_break_up()),
        ("bottom-out", step2_bottom_out()),
        ("pull-up-nest", step3_pull_up_nest()),
        ("pull-up-unnest", step4_pull_up_unnest()),
        ("absorb-into-join", step5_absorb()),
        ("tidy", tidy()),
    ]
}

/// Step 1: break up the complex `iterate` (rules 17, 18, cleanup).
pub fn step1_break_up() -> Strategy {
    fix(&["17", "18", "2", "1", "3", "4", "4a", "9", "10", "5", "6"])
}

/// Step 2: bottom out with a nest of a join (rule 19, with `app` plumbing
/// to expose and re-fuse the bottom of the chain).
pub fn step2_bottom_out() -> Strategy {
    seq(vec![
        repeat(apply("app")),
        apply("19"),
        repeat(apply("app-1")),
    ])
}

/// Step 3: pull `nest` to the top of the chain (rules 20, 21, cleanup).
pub fn step3_pull_up_nest() -> Strategy {
    fix(&["20", "21", "4", "2", "1"])
}

/// Step 4: pull `unnest`s up below the `nest` (rules 22, 23).
pub fn step4_pull_up_unnest() -> Strategy {
    fix(&["22", "23"])
}

/// Step 5: absorb `iterate`s into the join (rule 24, cleanup).
pub fn step5_absorb() -> Strategy {
    fix(&["24", "3", "5", "e32", "1", "2", "e6"])
}

/// Tidy: rewrite `⟨π1, g∘π2⟩` forms into `id × g` to reach the paper's
/// exact KG2 notation.
pub fn tidy() -> Strategy {
    fix(&["e110", "e111", "e112", "e6"])
}

/// Result of the full pipeline: per-step snapshots plus the merged trace
/// and resource report.
#[derive(Debug, Clone)]
pub struct Untangled {
    /// The final query.
    pub query: Query,
    /// Query snapshot after each named step.
    pub snapshots: Vec<(&'static str, Query)>,
    /// Every rule application, in order.
    pub trace: Trace,
    /// Accumulated resource accounting across all six steps.
    pub report: RewriteReport,
}

/// Run the five-step strategy (plus tidy) on a query.
///
/// ```
/// use kola_rewrite::{Catalog, PropDb};
/// use kola_rewrite::hidden_join::{garage_query_kg1, garage_query_kg2, untangle};
/// let out = untangle(&Catalog::paper(), &PropDb::new(), &garage_query_kg1());
/// assert_eq!(out.query, garage_query_kg2()); // literally Figure 3's KG2
/// ```
///
/// The steps are each `Try`-wrapped: on queries that are not hidden joins
/// the pipeline still performs whatever simplifications apply and leaves
/// the rest alone — the paper's §4.2 argues this graceful degradation is a
/// key advantage over a monolithic rule.
pub fn untangle(catalog: &Catalog, props: &PropDb, q: &Query) -> Untangled {
    untangle_with_budget(catalog, props, q, &Budget::default())
}

/// [`untangle`] under an explicit [`Budget`] (shared across all six steps)
/// and with full resource accounting in the returned report. Never panics:
/// on budget exhaustion the pipeline returns whatever the completed steps
/// produced, with the stop reason recorded.
pub fn untangle_with_budget(
    catalog: &Catalog,
    props: &PropDb,
    q: &Query,
    budget: &Budget,
) -> Untangled {
    untangle_configured(catalog, props, q, budget, EngineConfig::naive())
}

/// [`untangle_with_budget`] with the fixpoint phases running on the engine
/// `engine` selects ([`EngineConfig::naive`] is the boxed reference engine);
/// the modes are differentially tested to agree.
pub fn untangle_configured(
    catalog: &Catalog,
    props: &PropDb,
    q: &Query,
    budget: &Budget,
    engine: EngineConfig,
) -> Untangled {
    let mut trace = Trace::new();
    let mut report = RewriteReport::new();
    let mut cur = q.clone();
    let mut snapshots = Vec::new();
    for (name, strategy) in steps() {
        // Each step sees only the budget the previous steps left over.
        let mut step_runner = Runner::new(catalog, props).with_budget(Budget {
            max_steps: budget.max_steps.saturating_sub(report.steps),
            ..budget.clone()
        });
        step_runner.engine = engine.clone();
        let (next, _, step_report) =
            step_runner.run_governed(&Strategy::Try(Box::new(strategy)), cur, &mut trace);
        report.merge(&step_report);
        cur = next;
        snapshots.push((name, cur.clone()));
    }
    Untangled {
        query: cur,
        snapshots,
        trace,
        report,
    }
}

/// Build the Figure 3 "garage query" KG1 (the hidden-join form).
pub fn garage_query_kg1() -> Query {
    kola::parse::parse_query(
        "iterate(Kp(T), (id, \
            flat . \
            iter(Kp(T), grgs . pi2) . \
            (id, iter(in @ (pi1, cars . pi2), pi2) . \
            (id, Kf(P))))) ! V",
    )
    .expect("KG1 is well-formed")
}

/// Build the Figure 3 "garage query" KG2 (the explicit nest-of-join form).
pub fn garage_query_kg2() -> Query {
    kola::parse::parse_query(
        "nest(pi1, pi2) . \
         unnest(pi1, pi2) * id . \
         (join(in @ id * cars, id * grgs), pi1) ! [V, P]",
    )
    .expect("KG2 is well-formed")
}

/// Build a synthetic hidden-join query of nesting depth `n` over extents
/// `A` and `B` (both sets of Persons): each layer flattens a `grgs`-style
/// inner query. Used by the depth-sweep experiment (E9).
pub fn synthetic_hidden_join(n: usize) -> Query {
    assert!(n >= 1, "depth must be at least 1");
    // Each layer maps a Person to a set of Persons by flattening the inner
    // layer's per-child result; the innermost layer ranges over Kf(B).
    let mut body = String::from("Kf(B)");
    for _ in 0..n {
        body = format!("flat . iter(Kp(T), child . pi2) . (id, {body})");
    }
    let src = format!("iterate(Kp(T), (id, {body})) ! A");
    kola::parse::parse_query(&src).expect("synthetic hidden join is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Catalog, PropDb) {
        (Catalog::paper(), PropDb::new())
    }

    #[test]
    fn garage_query_untangles_to_kg2() {
        let (c, p) = setup();
        let out = untangle(&c, &p, &garage_query_kg1());
        assert_eq!(
            out.query,
            garage_query_kg2(),
            "\nfinal: {}\nwant : {}\ntrace:\n{}",
            out.query,
            garage_query_kg2(),
            out.trace
        );
    }

    #[test]
    fn step_snapshots_match_paper_forms() {
        let (c, p) = setup();
        let out = untangle(&c, &p, &garage_query_kg1());
        let get = |name: &str| {
            out.snapshots
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, q)| q.to_string())
                .unwrap()
        };
        // KG1a (after Step 1): a chain of iterates ending in (id, Kf(P)).
        let kg1a = get("break-up");
        assert!(kg1a.contains("iterate(Kp(T), (pi1, flat . pi2))"), "{kg1a}");
        assert!(kg1a.contains("iterate(Kp(T), (id, Kf(P)))"), "{kg1a}");
        // KG1b (after Step 2): bottomed out with nest/join over [V, P].
        let kg1b = get("bottom-out");
        assert!(kg1b.contains("nest(pi1, pi2)"), "{kg1b}");
        assert!(kg1b.contains("join(Kp(T), id)"), "{kg1b}");
        assert!(kg1b.ends_with("! [V, P]"), "{kg1b}");
        // KG1c (after Step 3): nest at top, unnest right below.
        let kg1c = get("pull-up-nest");
        assert!(
            kg1c.starts_with("nest(pi1, pi2) . unnest(pi1, pi2) * id"),
            "{kg1c}"
        );
        // Step 4 is a no-op on the garage query (single unnest).
        assert_eq!(get("pull-up-nest"), get("pull-up-unnest"));
    }

    #[test]
    fn fast_engine_untangles_garage_query_identically() {
        let (c, p) = setup();
        let slow = untangle(&c, &p, &garage_query_kg1());
        let fast = untangle_configured(
            &c,
            &p,
            &garage_query_kg1(),
            &Budget::default(),
            EngineConfig::fast(),
        );
        assert_eq!(fast.query, slow.query);
        assert_eq!(fast.query, garage_query_kg2());
        assert_eq!(
            fast.trace.justifications(),
            slow.trace.justifications(),
            "fast and reference engines must take the same derivation"
        );
        assert_eq!(fast.report.steps, slow.report.steps);
    }

    #[test]
    fn non_hidden_join_queries_still_simplified_not_broken() {
        let (c, p) = setup();
        let q = kola::parse::parse_query("iterate(Kp(T), id . age) ! P").unwrap();
        let out = untangle(&c, &p, &q);
        // Not a hidden join: no nest/join introduced, but id∘ cleaned up.
        assert_eq!(
            out.query,
            kola::parse::parse_query("iterate(Kp(T), age) ! P").unwrap()
        );
    }

    #[test]
    fn synthetic_depth_1_untangles() {
        let (c, p) = setup();
        let q = synthetic_hidden_join(1);
        let out = untangle(&c, &p, &q);
        let s = out.query.to_string();
        assert!(s.contains("join("), "depth 1 should produce a join: {s}");
        assert!(s.starts_with("nest(pi1, pi2)"), "{s}");
    }

    #[test]
    fn synthetic_depth_3_untangles() {
        let (c, p) = setup();
        let q = synthetic_hidden_join(3);
        let out = untangle(&c, &p, &q);
        let s = out.query.to_string();
        assert!(s.contains("join("), "{s}");
        assert!(s.starts_with("nest(pi1, pi2)"), "{s}");
        // Per the paper's Step 4 target form, at most one unnest survives at
        // the top; deeper layers become iter forms inside the join function.
        assert_eq!(s.matches("unnest(").count(), 1, "{s}");
        assert!(s.ends_with("! [A, B]"), "{s}");
    }
}
