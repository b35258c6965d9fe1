//! Engine-mode comparison: the boxed reference engine vs the fast engine's
//! three layers (interning, discrimination-tree indexing, normalization
//! memo) — plus the catalog-size sweep behind the flat-match gate.
//!
//! Emits a machine-readable `BENCH_rewrite.json` at the repository root so
//! the README table and CI gate consume the same numbers this binary
//! prints. Environment switches:
//!
//! - `BENCH_SMOKE=1` — short warmup/batches (sub-second total), for CI.
//! - `BENCH_ENFORCE=1` — exit nonzero if (a) the indexed engine is slower
//!   than the naive engine on the fig4 workload, (b) per-step match cost
//!   under the tree index is not flat (±20%) from the 154-rule seed catalog
//!   to the full 500+-rule closed catalog (the `sweep` rows), or (c) the
//!   saturating engine's extracted plan costs more than the fixpoint
//!   engine's output at any sweep point, or its per-step cost is not flat
//!   across the same catalog sizes (the `saturation` rows).

use kola::term::{Func, Query};
use kola_bench::{bench_ns, smoke_mode};
use kola_rewrite::saturate::term_cost;
use kola_rewrite::{
    rewrite_fix_with, Budget, Catalog, Engine, EngineConfig, FaultPlan, Oriented, PropDb, TermSize,
};
use std::hint::black_box;
use std::sync::Arc;

struct Workload {
    name: &'static str,
    /// Rule ids to orient forward; empty = the full forward catalog.
    rule_ids: &'static [&'static str],
    query: Query,
}

fn workloads() -> Vec<Workload> {
    let fig4_t1 =
        kola::parse::parse_query("iterate(Kp(T), city) . iterate(Kp(T), addr) ! P").unwrap();

    // A ~2000-node already-normal sibling next to a 50-redex id-chain: the
    // naive engine re-scans the sibling on every one of the 50 steps; the
    // fast engine's normal-subtree marks and cached sizes keep each step
    // O(changed subtree).
    fn big_normal(depth: usize) -> Func {
        if depth == 0 {
            Func::Prim(Arc::from("age"))
        } else {
            Func::PairWith(
                Box::new(big_normal(depth - 1)),
                Box::new(big_normal(depth - 1)),
            )
        }
    }
    let mut chain = Func::Prim(Arc::from("age"));
    for _ in 0..50 {
        chain = Func::Compose(Box::new(Func::Id), Box::new(chain));
    }
    let sparse = Query::PairQ(
        Box::new(Query::App(
            big_normal(10),
            Box::new(Query::Extent(Arc::from("P"))),
        )),
        Box::new(Query::App(chain, Box::new(Query::Extent(Arc::from("Q"))))),
    );

    vec![
        // The enforced workload: the Figure 4 T1 derivation query against
        // the full forward catalog — the realistic optimizer setting, where
        // every step must consider every registered rule.
        Workload {
            name: "fig4",
            rule_ids: &[],
            query: fig4_t1.clone(),
        },
        // Same query, only the three rules its derivation needs: the
        // best case for the naive engine (nothing to index away).
        Workload {
            name: "fig4_minimal",
            rule_ids: &["11", "6", "5"],
            query: fig4_t1,
        },
        // The sparse-redex workload: interning + normal-marks dominate.
        Workload {
            name: "sparse_redex",
            rule_ids: &["1", "2"],
            query: sparse,
        },
    ]
}

fn rules_for<'a>(catalog: &'a Catalog, ids: &[&str]) -> Vec<Oriented<'a>> {
    if ids.is_empty() {
        catalog.rules().iter().map(Oriented::fwd).collect()
    } else {
        ids.iter()
            .map(|id| Oriented::fwd(catalog.get(id).expect("known rule id")))
            .collect()
    }
}

struct Row {
    name: &'static str,
    naive_ns: u128,
    interned_ns: u128,
    indexed_ns: u128,
    memoized_ns: u128,
}

/// One catalog-size point of the flat-match sweep: the fig4 query
/// normalized over the first `rules` catalog rules, tree-indexed, cost
/// expressed per rewrite step.
struct SweepRow {
    rules: usize,
    steps: usize,
    tree_ns: u128,
}

impl SweepRow {
    fn tree_per_step(&self) -> f64 {
        self.tree_ns as f64 / self.steps.max(1) as f64
    }
}

/// Seed-catalog size: figures 5+8, structural, and the first extended pool
/// — the rule count before the n-family and the systematic closure were
/// added. The sweep's baseline point.
const SEED_RULES: usize = 154;

/// One catalog-size point of the saturation sweep: the same query run
/// through the saturating engine, with the structural cost gate's inputs
/// (extracted vs fixpoint cost under term size) recorded alongside.
struct SatRow {
    rules: usize,
    steps: usize,
    sat_ns: u128,
    extracted_cost: u64,
    fixpoint_cost: u64,
}

impl SatRow {
    fn per_step(&self) -> f64 {
        self.sat_ns as f64 / self.steps.max(1) as f64
    }
}

fn size_cost(q: &Query) -> u64 {
    let mut it = kola::intern::Interner::new();
    term_cost(&it.intern_query(&q.normalize()), &TermSize)
}

/// The sweep workload: the fig4 T1 derivation with an id-compose tower
/// spliced into each chain. Plain fig4 normalizes in **one** step at every
/// catalog size, so its "per-step" cost was really per-run overhead — the
/// tower forces a genuinely multi-step derivation (one id-elimination per
/// `id ∘`) through full candidate dispatch on every step, which is the
/// thing the flat-match gate claims stays flat.
fn sweep_query() -> Query {
    let ids = "id . ".repeat(20);
    let s = format!("iterate(Kp(T), city) . {ids}iterate(Kp(T), addr) . {ids}city ! P");
    kola::parse::parse_query(&s).unwrap()
}

/// Measure fresh-normalization cost at each catalog-prefix size. Engines
/// are reused (index built once, outside the timing), but caches are
/// dropped before every iteration so each measures a cold normalization
/// through a warm index — per-step *match* cost, not memo replay.
///
/// The sizes are measured in three interleaved rounds and each point
/// keeps its fastest round: the gate below compares points *against each
/// other*, so a CPU-throttling window or background load landing on one
/// slice of a sequential run must not masquerade as catalog-size growth.
/// A genuine O(rules) cost survives the min — it inflates every round of
/// the larger points equally.
fn sweep(catalog: &Catalog, props: &PropDb, sizes: &[usize], query: &Query) -> Vec<SweepRow> {
    let budget = Budget::default();
    let mut points: Vec<(usize, usize, Engine)> = sizes
        .iter()
        .map(|&size| {
            let rules: Vec<Oriented> = catalog.rules()[..size].iter().map(Oriented::fwd).collect();
            let reference = rewrite_fix_with(&rules, query, props, &budget, &FaultPlan::default());
            let mut tree = Engine::new(rules, props, EngineConfig::indexed());
            let check = tree.normalize(query, &budget);
            assert_eq!(
                check.query, reference.query,
                "sweep@{size}: tree-indexed engine disagrees with the reference engine"
            );
            assert!(
                reference.report.steps > 1,
                "sweep@{size}: workload normalized in {} step(s) — per-step \
                 cost would be per-run overhead, not match cost",
                reference.report.steps
            );
            (size, reference.report.steps, tree)
        })
        .collect();

    let mut rows: Vec<SweepRow> = points
        .iter()
        .map(|&(rules, steps, ..)| SweepRow {
            rules,
            steps,
            tree_ns: u128::MAX,
        })
        .collect();
    for round in 0..3 {
        for (row, (size, _, tree)) in rows.iter_mut().zip(points.iter_mut()) {
            let tree_ns = bench_ns(&format!("sweep{size}/tree#{round}"), || {
                tree.reset_caches();
                tree.normalize(black_box(query), &budget)
            });
            row.tree_ns = row.tree_ns.min(tree_ns);
        }
    }
    rows
}

/// The saturation sweep: the same query and catalog prefixes through
/// `EngineConfig::saturating()`. Per-step cost covers the internal seed
/// wave plus match-apply-rebuild rounds; the cost columns feed the
/// structural gate (extracted ≤ fixpoint, under the extraction model).
fn sat_sweep(catalog: &Catalog, props: &PropDb, sizes: &[usize], query: &Query) -> Vec<SatRow> {
    // Saturation explores strictly more than the fixpoint run; give it a
    // bounded step budget so each point measures a comparable workload.
    let budget = Budget::with_steps(256).depth(64).term_size(16_384);
    sizes
        .iter()
        .map(|&size| {
            let rules: Vec<Oriented> = catalog.rules()[..size].iter().map(Oriented::fwd).collect();
            let mut fix = Engine::new(rules.clone(), props, EngineConfig::indexed());
            let fixpoint_cost = size_cost(&fix.normalize(query, &budget).query);
            let mut sat = Engine::new(rules, props, EngineConfig::saturating());
            let out = sat.normalize(query, &budget);
            let steps = out.report.steps;
            let extracted_cost = size_cost(&out.query);
            let sat_ns = bench_ns(&format!("saturation{size}"), || {
                sat.reset_caches();
                sat.normalize(black_box(query), &budget)
            });
            SatRow {
                rules: size,
                steps,
                sat_ns,
                extracted_cost,
                fixpoint_cost,
            }
        })
        .collect()
}

fn main() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let budget = Budget::default();
    let faults = FaultPlan::default();

    let mut rows = Vec::new();
    for w in workloads() {
        let rules = rules_for(&catalog, w.rule_ids);
        let reference = rewrite_fix_with(&rules, &w.query, &props, &budget, &faults);

        let naive_ns = bench_ns(&format!("{}/naive", w.name), || {
            rewrite_fix_with(&rules, black_box(&w.query), &props, &budget, &faults)
        });

        let mut mode_ns = [0u128; 3];
        let modes = [
            ("interned", EngineConfig::interned_only()),
            ("indexed", EngineConfig::indexed()),
            ("memoized", EngineConfig::fast()),
        ];
        for (slot, (label, config)) in modes.into_iter().enumerate() {
            let mut engine = Engine::new(rules_for(&catalog, w.rule_ids), &props, config);
            // Parity sanity check before timing: a fast engine that wins by
            // computing something else wins nothing.
            let out = engine.normalize(&w.query, &budget);
            assert_eq!(
                out.query, reference.query,
                "{}/{label} disagrees with the reference engine",
                w.name
            );
            mode_ns[slot] = bench_ns(&format!("{}/{label}", w.name), || {
                engine.normalize(black_box(&w.query), &budget)
            });
        }

        rows.push(Row {
            name: w.name,
            naive_ns,
            interned_ns: mode_ns[0],
            indexed_ns: mode_ns[1],
            memoized_ns: mode_ns[2],
        });
    }

    // Catalog-size sweep: a multi-step fig4 variant over growing catalog
    // prefixes. The 154-rule prefix is exactly the pre-closure seed
    // catalog; the last point is the full closed pool. The claim under
    // test: the discrimination tree keeps per-step match cost flat as the
    // pool grows past the paper's 500-rule operating point.
    let q = sweep_query();
    assert!(
        catalog.len() >= 500,
        "closed catalog below the 500-rule operating point: {}",
        catalog.len()
    );
    let sizes = [SEED_RULES, 300, catalog.len()];
    let sweep = sweep(&catalog, &props, &sizes, &q);
    let saturation = sat_sweep(&catalog, &props, &sizes, &q);

    let json = render_json(&rows, &sweep, &saturation);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rewrite.json");
    std::fs::write(path, &json).expect("write BENCH_rewrite.json");
    println!("wrote {path}");

    if std::env::var("BENCH_ENFORCE").is_ok_and(|v| !v.is_empty() && v != "0") {
        let fig4 = rows.iter().find(|r| r.name == "fig4").expect("fig4 row");
        if fig4.indexed_ns > fig4.naive_ns {
            eprintln!(
                "BENCH_ENFORCE: indexed engine ({} ns) slower than naive ({} ns) on fig4",
                fig4.indexed_ns, fig4.naive_ns
            );
            std::process::exit(1);
        }
        println!(
            "BENCH_ENFORCE: ok (fig4 indexed {:.2}x naive)",
            fig4.naive_ns as f64 / fig4.indexed_ns.max(1) as f64
        );

        // The flat-match gate: per-step cost at the full closed catalog
        // must stay within +20% of the seed-catalog cost. Only an upper
        // bound — getting *faster* with more rules is not a failure.
        let seed = &sweep[0];
        let full = sweep.last().expect("sweep has points");
        let ratio = full.tree_per_step() / seed.tree_per_step().max(f64::MIN_POSITIVE);
        if ratio > 1.2 {
            eprintln!(
                "BENCH_ENFORCE: per-step match cost not flat across catalog sizes: \
                 {:.1} ns/step @ {} rules vs {:.1} ns/step @ {} rules (ratio {ratio:.3} > 1.2)",
                seed.tree_per_step(),
                seed.rules,
                full.tree_per_step(),
                full.rules,
            );
            std::process::exit(1);
        }
        println!(
            "BENCH_ENFORCE: ok (per-step cost {} -> {} rules: ratio {ratio:.3})",
            seed.rules, full.rules
        );

        // The saturation gates. (1) Structural: the extracted plan never
        // costs more than the fixpoint output — the seed wave makes this
        // an invariant, so a violation is an engine bug, not noise. (2)
        // Flat match: the e-graph trie walk must inherit the tree index's
        // catalog-size independence.
        for s in &saturation {
            if s.extracted_cost > s.fixpoint_cost {
                eprintln!(
                    "BENCH_ENFORCE: saturation@{} extracted cost {} > fixpoint {}",
                    s.rules, s.extracted_cost, s.fixpoint_cost
                );
                std::process::exit(1);
            }
        }
        let seed = &saturation[0];
        let full = saturation.last().expect("saturation has points");
        let ratio = full.per_step() / seed.per_step().max(f64::MIN_POSITIVE);
        if ratio > 1.2 {
            eprintln!(
                "BENCH_ENFORCE: saturation per-step cost not flat across catalog sizes: \
                 {:.1} ns/step @ {} rules vs {:.1} ns/step @ {} rules (ratio {ratio:.3} > 1.2)",
                seed.per_step(),
                seed.rules,
                full.per_step(),
                full.rules,
            );
            std::process::exit(1);
        }
        println!(
            "BENCH_ENFORCE: ok (saturation extracted<=fixpoint at every point; \
             per-step ratio {ratio:.3})"
        );
    }
}

fn render_json(rows: &[Row], sweep: &[SweepRow], saturation: &[SatRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_modes\",\n");
    out.push_str(&format!("  \"smoke\": {},\n", smoke_mode()));
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = |ns: u128| r.naive_ns as f64 / ns.max(1) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"naive_ns\": {}, \"interned_ns\": {}, \"indexed_ns\": {}, \
             \"memoized_ns\": {}, \"speedup_interned\": {:.2}, \"speedup_indexed\": {:.2}, \
             \"speedup_memoized\": {:.2}}}{}\n",
            r.name,
            r.naive_ns,
            r.interned_ns,
            r.indexed_ns,
            r.memoized_ns,
            speedup(r.interned_ns),
            speedup(r.indexed_ns),
            speedup(r.memoized_ns),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"sweep\": [\n");
    for (i, s) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rules\": {}, \"steps\": {}, \"tree_ns\": {}, \
             \"tree_per_step_ns\": {:.1}}}{}\n",
            s.rules,
            s.steps,
            s.tree_ns,
            s.tree_per_step(),
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"saturation\": [\n");
    for (i, s) in saturation.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rules\": {}, \"steps\": {}, \"sat_ns\": {}, \"per_step_ns\": {:.1}, \
             \"extracted_cost\": {}, \"fixpoint_cost\": {}}}{}\n",
            s.rules,
            s.steps,
            s.sat_ns,
            s.per_step(),
            s.extracted_cost,
            s.fixpoint_cost,
            if i + 1 < saturation.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
