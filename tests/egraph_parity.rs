//! Differential gate for the equality-saturation engine: on a generated
//! corpus (1000 seeds by default; `EGRAPH_SEEDS` overrides — CI smoke uses
//! 50), the saturating engine's extracted plan must cost no more than the
//! destructive fixpoint engine's output under the extraction cost model
//! (term size). The guarantee is structural — the fixpoint trajectory is
//! unioned into the e-graph's root class before saturating — and this test
//! pins it end to end through `EngineConfig::saturating()`.
//!
//! A sampled subset additionally goes through the `kola-verify` semantic
//! gate: the extracted plan must compute the same answer as the input on a
//! populated database, not merely cost less.

mod egraph_corpus;

use egraph_corpus::{arb_query, rule_pool};
use kola::term::Query;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::Rng;
use kola_rewrite::saturate::term_cost;
use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, PropDb, TermSize};

/// Cost of a boxed query under the parity model (term size), measured the
/// same way extraction measures it: interned, normalized, node-counted.
fn size_cost(q: &Query) -> u64 {
    let mut it = kola::intern::Interner::new();
    term_cost(&it.intern_query(&q.normalize()), &TermSize)
}

fn corpus_len() -> u64 {
    std::env::var("EGRAPH_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000)
}

#[test]
fn extracted_cost_never_exceeds_fixpoint_cost() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    // The fixpoint baseline runs the corpus's historical budget; the
    // saturating engine gets more steps (its internal wave replays the
    // same prefix, then saturation spends the rest) — the gate must hold
    // regardless of how far saturation got.
    let fix_budget = Budget::with_steps(12).depth(40).term_size(4_096);
    let sat_budget = Budget::with_steps(64).depth(40).term_size(4_096);

    let mut fix = Engine::new(rules.clone(), &props, EngineConfig::fast());
    let mut sat = Engine::new(rules.clone(), &props, EngineConfig::saturating());

    // Semantic spot-checks evaluate on a populated database; `Q` is bound
    // so the generator's two-extent queries are not vacuously stuck.
    let mut db = generate(&DataSpec::small(314));
    let v = db.extent("V").expect("datagen binds V").clone();
    db.bind_extent("Q", v);

    for seed in 0..corpus_len() {
        let mut rng = Rng::seed_from_u64(0xC0FFEE ^ seed);
        let q = arb_query(&mut rng, 5);
        let f = fix.normalize(&q, &fix_budget);
        let s = sat.normalize(&q, &sat_budget);
        let fc = size_cost(&f.query);
        let sc = size_cost(&s.query);
        assert!(
            sc <= fc,
            "seed {seed}: extracted plan costs {sc} > fixpoint {fc}\n  in : {q}\n  fix: {}\n  sat: {}",
            f.query,
            s.query,
        );
        // Every ~50th seed: the extracted plan must also *mean* the same
        // thing as the input (kola-verify's plan-level semantic gate).
        if seed % 50 == 0 {
            if let Err(e) = kola_verify::check_plan_semantics(&db, &q, &s.query) {
                panic!("seed {seed}: extracted plan changed semantics: {e}");
            }
        }
    }
}

#[test]
fn saturating_engine_reports_are_well_formed() {
    // Spot-check the report surface: steps within budget, a terminal stop
    // reason, and rule tallies consistent with steps (every fire is a step;
    // wave steps and saturation steps share one budget).
    use kola_rewrite::StopReason;
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    let budget = Budget::with_steps(64).depth(40).term_size(4_096);
    let mut sat = Engine::new(rules.clone(), &props, EngineConfig::saturating());

    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(0x5A7u64.wrapping_mul(seed + 1));
        let q = arb_query(&mut rng, 5);
        let s = sat.normalize(&q, &budget);
        assert!(
            s.report.steps <= budget.max_steps,
            "seed {seed}: {} steps exceed budget {}",
            s.report.steps,
            budget.max_steps
        );
        let fired: usize = s.report.rule_stats.values().map(|st| st.fired).sum();
        assert_eq!(fired, s.report.steps, "seed {seed}: fires != steps");
        assert!(
            matches!(
                s.report.stop,
                StopReason::NormalForm
                    | StopReason::BudgetExhausted
                    | StopReason::DeadlineExpired
                    | StopReason::CycleDetected
                    | StopReason::TermTooLarge
            ),
            "seed {seed}: non-terminal stop {:?}",
            s.report.stop
        );
    }
}
