//! Golden saturation trajectories: every observable of the saturating
//! engine, hashed over fixed inputs, must stay exactly as pinned.
//!
//! The e-matcher is the saturating engine's inner loop and is tuned for
//! allocation, not for output. A tuning that changes which matches are
//! found, or their order, moves the e-graph (class ids, node counts, the
//! round in which a rule fires) and with it possibly the served plan. The
//! digests below pin, per input, every [`SaturationResult`] field (the
//! extracted query text, `cost`, `fixpoint_cost`, `saturated`,
//! `iterations`, `classes`, `nodes`) plus the report's `steps` and `stop`,
//! and the same engine's served plan through [`EngineConfig::saturating`].
//!
//! Inputs: a slice of the `egraph_parity` corpus (its rule pool and
//! saturating budget), Figure 3's garage query under the operator-weight
//! model (the `egraph_fig3` pool), and OQL and KOLA requests over the whole
//! catalog at the service benchmark's 100-step cap (a few at 200). On a mismatch the test prints
//! each case's line so the first moved input can be found by diffing.

mod egraph_corpus;

use egraph_corpus::{arb_query, rule_pool};
use kola::term::Query;
use kola_exec::rng::Rng;
use kola_rewrite::hidden_join::garage_query_kg1;
use kola_rewrite::saturate::saturate_from_trajectory;
use kola_rewrite::{
    Budget, Catalog, CostModel, Engine, EngineConfig, OpWeight, Oriented, PropDb, RuleIndex,
    SaturationParams, TermSize,
};

/// The per-(class, rule) match cap the engine's saturating mode uses.
const MATCH_CAP: usize = 24;

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per input: the direct saturation result over the fixpoint
/// trajectory (as the engine feeds it), then the engine's served plan.
fn case_line(
    rules: &[Oriented<'_>],
    props: &PropDb,
    model: fn() -> Box<dyn CostModel>,
    q: &Query,
    budget: &Budget,
) -> String {
    let index = RuleIndex::build(rules);
    let params = SaturationParams {
        rules,
        props,
        index: &index,
        active: None,
        match_cap: MATCH_CAP,
    };
    // The wave, exactly as the saturating engine runs it: tree index, no
    // memo, trace on.
    let mut fix = Engine::new(rules.to_vec(), props, EngineConfig::indexed());
    let wave = fix.normalize(q, budget);
    let mut trajectory: Vec<Query> = wave.trace.steps.iter().map(|s| s.after.clone()).collect();
    trajectory.push(wave.query.clone());
    let mut report = wave.report.clone();
    let mut it = kola::intern::Interner::new();
    let cost = model();
    let r = saturate_from_trajectory(
        q,
        &trajectory,
        &params,
        budget,
        cost.as_ref(),
        &mut report,
        &mut it,
    );

    let mut sat = Engine::new(rules.to_vec(), props, EngineConfig::saturating());
    sat.set_cost_model(model());
    let served = sat.normalize(q, budget);
    format!(
        "{} | cost {} fix {} sat {} it {} classes {} nodes {} | steps {} stop {:?} \
         || served {} | steps {} stop {:?}",
        r.query,
        r.cost,
        r.fixpoint_cost,
        r.saturated,
        r.iterations,
        r.classes,
        r.nodes,
        report.steps,
        report.stop,
        served.query,
        served.report.steps,
        served.report.stop,
    )
}

fn check(name: &str, lines: &[String], expected: u64) {
    let digest = fnv1a(lines.join("\n").as_bytes());
    if digest != expected {
        for (i, l) in lines.iter().enumerate() {
            eprintln!("{name}[{i}]: {l}");
        }
        panic!("{name}: trajectory digest {digest:#018x}, pinned {expected:#018x}");
    }
}

fn term_size() -> Box<dyn CostModel> {
    Box::new(TermSize)
}

fn op_weight() -> Box<dyn CostModel> {
    Box::new(OpWeight)
}

#[test]
fn parity_corpus_trajectories_are_pinned() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    // `egraph_parity`'s saturating budget and seed scheme.
    let budget = Budget::with_steps(64).depth(40).term_size(4_096);
    let lines: Vec<String> = (0..400u64)
        .map(|seed| {
            let mut rng = Rng::seed_from_u64(0xC0FFEE ^ seed);
            let q = arb_query(&mut rng, 5);
            case_line(&rules, &props, term_size, &q, &budget)
        })
        .collect();
    check("parity", &lines, 0x4c28_8813_80e3_a3b9);
}

#[test]
fn figure_3_trajectory_is_pinned() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    // `egraph_fig3`'s flat pool plus the backward `app`.
    let pool = [
        "17", "18", "2", "1", "3", "4", "4a", "9", "10", "5", "6", "app", "19", "20", "21", "22",
        "23", "24", "e32", "e6", "e110", "e111", "e112",
    ];
    let mut rules: Vec<Oriented> = pool
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    rules.push(Oriented::bwd(catalog.get("app").unwrap()));
    let budget = Budget::with_steps(2_000).depth(64).term_size(16_384);
    let line = case_line(&rules, &props, op_weight, &garage_query_kg1(), &budget);
    check("figure3", &[line], 0xb662_7efc_f86e_d6e9);
}

#[test]
fn full_catalog_oql_trajectories_are_pinned() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented> = catalog.rules().iter().map(Oriented::fwd).collect();
    // (request, step cap): the service benchmark's cap, and a longer run
    // on the lighter shapes so later rounds are pinned too.
    let requests = [
        ("select p.age from p in P where p.age > 30", 100),
        ("select [p.name, p.age] from p in P where p.age >= 18 and not p.age > 65", 100),
        ("select [p, (select c.age from c in p.child)] from p in P", 100),
        ("select [p, (select c.name from c in p.child where c.age < 12)] from p in P", 100),
        ("select v from v in V where v.year > 1990 and v.year <= 2000", 100),
        ("select [v, flatten(select p.grgs from p in P where v in p.cars and p.age > 40)] from v in V", 100),
        ("iterate(Kp(T), age) . iterate(gt @ (age, Kf(30)), id) ! P", 100),
        ("iterate(Kp(T), city) . iterate(Kp(T), addr) ! P", 100),
        ("iterate(Kp(T), id . id . id . zip . addr) ! P", 100),
        ("select p.age from p in P where p.age > 30", 200),
        ("iterate(Kp(T), age) . iterate(gt @ (age, Kf(30)), id) . iterate(lt @ (age, Kf(60)), id) ! P", 200),
    ];
    let lines: Vec<String> = requests
        .iter()
        .map(|&(text, steps)| {
            let q = kola_frontend::parse_any_query(text).expect("request parses");
            case_line(&rules, &props, term_size, &q, &Budget::with_steps(steps))
        })
        .collect();
    check("oql", &lines, 0x0f78_919f_0a5e_0690);
}
