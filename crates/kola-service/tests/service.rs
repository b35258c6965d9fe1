//! Integration tests for the optimization service: degradation parity,
//! structured overload, breaker trip/recovery, deadline expiry between
//! rungs, and request classification.

use kola::term::{Func, Query};
use kola_rewrite::strategy;
use kola_rewrite::{
    Budget, Catalog, EngineConfig, FaultKind, FaultPlan, FaultSpec, PropDb, Runner, StepSelector,
    Trace,
};
use kola_service::{
    Breaker, Ladder, Outcome, Payload, Request, RequestOptions, Rung, Service, ServiceConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tower(height: usize, leaf: &str) -> Query {
    let mut f = Func::Prim(Arc::from(leaf));
    for _ in 0..height {
        f = Func::Compose(Box::new(Func::Id), Box::new(f));
    }
    Query::App(f, Box::new(Query::Extent(Arc::from("P"))))
}

/// A deterministic 500-query corpus exercising towers, iterates, unions,
/// and tests. Pure function of the seed.
fn corpus_query(seed: u64) -> Query {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |m: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % m
    };
    let leaf = ["age", "city", "addr"][next(3) as usize];
    match next(4) {
        0 => tower(next(10) as usize, leaf),
        1 => kola::parse::parse_query(&format!("iterate(Kp(T), {leaf}) ! P")).unwrap(),
        2 => kola::parse::parse_query("P union Q").unwrap(),
        _ => {
            let inner = tower(next(6) as usize, leaf);
            Query::PairQ(Box::new(inner), Box::new(Query::Extent(Arc::from("Q"))))
        }
    }
}

/// The direct (non-service) run the parity criterion compares against.
fn direct_run(
    catalog: &Catalog,
    props: &PropDb,
    engine: EngineConfig,
    q: Query,
) -> (Query, kola_rewrite::RewriteReport) {
    let ids = catalog.forward_ids();
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let runner = Runner::new(catalog, props)
        .with_budget(Budget::default())
        .with_engine(engine);
    let mut trace = Trace::new();
    let (out, _outcome, report) = runner.run_governed(&strategy::fix(&refs), q, &mut trace);
    (out, report)
}

#[test]
fn service_output_is_byte_identical_to_direct_fast_engine_run() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let catalog = Catalog::paper();
    let props = PropDb::new();
    for seed in 0..500u64 {
        let q = corpus_query(seed);
        let response = service.call(Request::ast(q.clone()));
        let (direct_q, direct_report) = direct_run(&catalog, &props, EngineConfig::fast(), q);
        assert_eq!(
            response.outcome,
            Outcome::Optimized { rung: Rung::Fast },
            "seed {seed}"
        );
        assert_eq!(response.plan.as_deref(), Some(&direct_q), "seed {seed}");
        let report = response.report.expect("fast rung report");
        assert_eq!(report, direct_report, "seed {seed}");
        // Byte-identity, literally: the rendered plans and reports match.
        assert_eq!(
            format!("{}", response.plan.unwrap()),
            format!("{direct_q}"),
            "seed {seed}"
        );
        assert_eq!(
            format!("{report:?}"),
            format!("{direct_report:?}"),
            "seed {seed}"
        );
        assert!(response.panics.is_empty(), "seed {seed}");
        assert_eq!(response.retries, 0, "seed {seed}");
    }
}

#[test]
fn forced_fast_failure_is_byte_identical_to_reference_engine_run() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let options = RequestOptions {
        force_fail: vec![Rung::Fast],
        backoff: Duration::from_micros(10),
        ..RequestOptions::default()
    };
    for seed in 0..500u64 {
        let q = corpus_query(seed);
        let response = service.call(Request::ast(q.clone()).with_options(options.clone()));
        let (direct_q, direct_report) = direct_run(&catalog, &props, EngineConfig::naive(), q);
        assert_eq!(
            response.outcome,
            Outcome::Optimized {
                rung: Rung::Reference
            },
            "seed {seed}"
        );
        assert_eq!(response.plan.as_deref(), Some(&direct_q), "seed {seed}");
        assert_eq!(
            response.report.expect("reference rung report"),
            direct_report,
            "seed {seed}"
        );
    }
}

#[test]
fn full_queue_sheds_with_structured_overloaded() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        // This test floods the queue with *identical* requests; with the
        // plan cache on they would coalesce onto the held leader instead
        // of occupying queue slots, and nothing would shed.
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let slow = Request::text("id . age ! P").with_options(RequestOptions {
        hold_for: Some(Duration::from_millis(300)),
        ..RequestOptions::default()
    });
    let first = service.submit(slow).expect("first request admitted");
    // Let the worker pick the slow job up so the queue itself is empty.
    std::thread::sleep(Duration::from_millis(50));
    let mut admitted = vec![first];
    let mut sheds = Vec::new();
    for _ in 0..3 {
        match service.submit(Request::text("id . age ! P")) {
            Ok(p) => admitted.push(p),
            Err(r) => sheds.push(r),
        }
    }
    assert!(
        !sheds.is_empty(),
        "submitting capacity+1 requests against a held worker must shed"
    );
    for shed in &sheds {
        assert_eq!(shed.outcome, Outcome::Overloaded);
        assert!(shed.error.as_deref().unwrap().contains("queue full"));
        assert!(shed.plan.is_none());
    }
    // Every admitted request still terminates classified.
    for p in admitted {
        let r = p.wait();
        assert_eq!(r.outcome, Outcome::Optimized { rung: Rung::Fast });
    }
}

#[test]
fn breaker_trips_on_poison_rule_and_recovers_on_reset() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        breaker_threshold: 2,
        ..ServiceConfig::default()
    });
    let poison = RequestOptions {
        faults: FaultPlan::new().with(FaultSpec {
            rule_id: "app".to_string(),
            at: StepSelector::Always,
            kind: FaultKind::Panic,
        }),
        backoff: Duration::from_micros(10),
        ..RequestOptions::default()
    };
    // Two poisoned requests: each has every rung panic in rule "app",
    // degrades to passthrough, and charges the breaker once.
    for i in 0..2 {
        let r = service.call(Request::text("id . id . age ! P").with_options(poison.clone()));
        assert_eq!(r.outcome, Outcome::Passthrough, "request {i}");
        assert!(!r.panics.is_empty(), "request {i}");
        assert!(
            r.panics.iter().all(|p| p.rule_id.as_deref() == Some("app")),
            "request {i}: panics attributed to the poisoned rule"
        );
    }
    assert_eq!(service.breaker().open_rules(), vec!["app".to_string()]);
    let trips = service.breaker().report();
    assert_eq!(trips.entries.len(), 1);
    assert_eq!(trips.entries[0].rule_id, "app");
    assert_eq!(trips.entries[0].trips, 2);

    // Same poisoned request again: "app" is evicted from the rule set (and
    // the fast engine's index), so the fault never fires and the request
    // optimizes on the fast rung.
    let r = service.call(Request::text("id . id . age ! P").with_options(poison.clone()));
    assert_eq!(r.outcome, Outcome::Optimized { rung: Rung::Fast });
    assert!(r.panics.is_empty());
    let report = r.report.expect("report");
    assert!(
        !report.rule_stats.contains_key("app"),
        "evicted rule must not even be attempted"
    );

    // Operator reset readmits the rule; a clean request uses it again.
    assert!(service.breaker().reset("app"));
    assert!(service.breaker().open_rules().is_empty());
    let r = service.call(Request::text("id . id . age ! P"));
    assert_eq!(r.outcome, Outcome::Optimized { rung: Rung::Fast });
    let report = r.report.expect("report");
    assert!(
        report.rule_stats.get("app").is_some_and(|s| s.fired > 0),
        "readmitted rule fires again"
    );
}

/// Cross-request memo correctness: a worker's persistent engine memoizes
/// normalizations under snapshot epoch N; after a breaker trip (and again
/// after a reset) swaps in epoch N+1, the same query must be re-derived
/// under the *new* rule set — byte-identical to a fresh engine over that
/// set — not replayed from the stale memo.
#[test]
fn persistent_engine_memo_does_not_leak_across_snapshot_swaps() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        breaker_threshold: 2,
        ..ServiceConfig::default()
    });
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let q = kola::parse::parse_query("id . id . age ! P").unwrap();

    // Epoch 0: the clean request runs (and memoizes) under the full set.
    let direct_run_for = |ids: Vec<String>| {
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let runner = Runner::new(&catalog, &props)
            .with_budget(Budget::default())
            .with_engine(EngineConfig::fast());
        let mut trace = Trace::new();
        let (out, _o, report) = runner.run_governed(&strategy::fix(&refs), q.clone(), &mut trace);
        (out, report)
    };
    let r = service.call(Request::ast(q.clone()));
    assert_eq!(r.outcome, Outcome::Optimized { rung: Rung::Fast });
    let (full_q, full_report) = direct_run_for(catalog.forward_ids());
    assert_eq!(r.plan.as_deref(), Some(&full_q));
    assert_eq!(r.report.as_ref(), Some(&full_report));
    // Run it again: this answer may come from the memo — it must still be
    // byte-identical (memo replays are exact).
    let r = service.call(Request::ast(q.clone()));
    assert_eq!(r.plan.as_deref(), Some(&full_q));
    assert_eq!(r.report.as_ref(), Some(&full_report));

    // Trip "app": two poisoned requests open its breaker → epoch 1.
    let poison = RequestOptions {
        faults: FaultPlan::new().with(FaultSpec {
            rule_id: "app".to_string(),
            at: StepSelector::Always,
            kind: FaultKind::Panic,
        }),
        backoff: Duration::from_micros(10),
        ..RequestOptions::default()
    };
    for _ in 0..2 {
        service.call(Request::ast(q.clone()).with_options(poison.clone()));
    }
    assert_eq!(service.breaker().open_rules(), vec!["app".to_string()]);

    // The same query under epoch 1 must match a fresh engine over the
    // reduced set — if the epoch-0 memo leaked, "app" would appear in
    // rule_stats (its derivations fired it) and the report would differ.
    let r = service.call(Request::ast(q.clone()));
    assert_eq!(r.outcome, Outcome::Optimized { rung: Rung::Fast });
    let reduced: Vec<String> = catalog
        .forward_ids()
        .into_iter()
        .filter(|id| id != "app")
        .collect();
    let (reduced_q, reduced_report) = direct_run_for(reduced);
    assert_eq!(r.plan.as_deref(), Some(&reduced_q));
    assert_eq!(r.report.as_ref(), Some(&reduced_report));
    assert!(
        !r.report.unwrap().rule_stats.contains_key("app"),
        "stale epoch-0 memo (derived with \"app\") must not be replayed"
    );

    // Reset: epoch 2 restores the full set; the epoch-1 memo must not be
    // replayed either — "app" fires again and the answer matches epoch 0's.
    assert!(service.breaker().reset("app"));
    let r = service.call(Request::ast(q.clone()));
    assert_eq!(r.outcome, Outcome::Optimized { rung: Rung::Fast });
    assert_eq!(r.plan.as_deref(), Some(&full_q));
    assert_eq!(r.report.as_ref(), Some(&full_report));
    assert!(
        r.report
            .unwrap()
            .rule_stats
            .get("app")
            .is_some_and(|s| s.fired > 0),
        "after reset the readmitted rule fires in the re-derivation"
    );
}

/// Satellite regression: a deadline that dies inside/after the fast rung
/// must degrade to the passthrough plan — the input itself — rather than
/// surface an error.
/// Deep-term tests run their whole body on an oversized stack, as the
/// service's workers do: engine interning walks the input recursively and
/// even derived `PartialEq` on a 20k-deep term needs more than a default
/// test-thread stack in debug builds.
fn on_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn_scoped(scope, f)
            .unwrap()
            .join()
            .unwrap()
    })
}

#[test]
fn deadline_expiry_between_rungs_returns_passthrough_plan() {
    on_big_stack(deadline_expiry_between_rungs_body)
}

fn deadline_expiry_between_rungs_body() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let breaker = Breaker::new(usize::MAX);
    let ladder = Ladder {
        catalog: &catalog,
        props: &props,
        breaker: &breaker,
        metrics: None,
        tracer: None,
        shard: 0,
        park: None,
        tenant: None,
    };
    // A workload far too large for the deadline: the fast rung burns the
    // whole budget and stops with DeadlineExpired; by the time the ladder
    // reaches the reference rung the deadline is dead, so it never runs.
    // Run on an oversized stack, as the service's workers do — engine
    // traversal is depth-clipped but interning a deep input walks it.
    let q = Arc::new(tower(20_000, "age"));
    let opts = RequestOptions {
        max_steps: 50_000,
        timeout: Some(Duration::from_millis(3)),
        backoff: Duration::from_micros(10),
        ..RequestOptions::default()
    };
    let deadline = Some(Instant::now() + Duration::from_millis(3));
    let r = ladder.run(7, &q, &opts, deadline);
    assert_eq!(r.outcome, Outcome::Passthrough);
    assert_eq!(r.plan, q, "passthrough returns the input plan verbatim");
    assert!(r.report.is_none());
    assert!(r.panics.is_empty());
    assert!(
        r.failures.iter().any(|f| f.contains("deadline expired")),
        "the fast rung's deadline failure is recorded: {:?}",
        r.failures
    );
}

/// The same property end-to-end: through the service, an expired deadline
/// yields a classified Passthrough response carrying the input plan.
#[test]
fn service_deadline_expiry_yields_passthrough_response() {
    on_big_stack(service_deadline_expiry_body)
}

fn service_deadline_expiry_body() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let q = tower(10_000, "age");
    let r = service.call(Request::ast(q.clone()).with_options(RequestOptions {
        max_steps: 50_000,
        timeout: Some(Duration::from_millis(3)),
        backoff: Duration::from_micros(10),
        ..RequestOptions::default()
    }));
    assert_eq!(r.outcome, Outcome::Passthrough);
    assert_eq!(r.plan.as_deref(), Some(&q));
    assert!(r.error.is_some(), "failed rung attempts are reported");
}

#[test]
fn unparseable_and_oversized_requests_classify_invalid() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_request_bytes: 1024,
        ..ServiceConfig::default()
    });
    let r = service.call(Request::text("this is ] not a query ! ("));
    assert_eq!(r.outcome, Outcome::Invalid);
    assert!(r.error.as_deref().unwrap().starts_with("kola:"));
    assert!(r.plan.is_none());

    let r = service.call(Request::text("select . from where".to_string()));
    assert_eq!(r.outcome, Outcome::Invalid);
    assert!(r.error.as_deref().unwrap().starts_with("oql:"));

    let big = format!("id . {} ! P", "id . ".repeat(400));
    assert!(big.len() > 1024);
    let r = service.call(Request {
        payload: Payload::Text(big),
        options: RequestOptions::default(),
        tenant: None,
    });
    assert_eq!(r.outcome, Outcome::Invalid);
    assert!(r.error.as_deref().unwrap().contains("request too large"));
}

#[test]
fn saturating_fleet_never_returns_a_larger_plan_than_the_fast_fleet() {
    // The engine-config knob: a fleet built over `EngineConfig::saturating()`
    // serves the same corpus through the same ladder, and every optimized
    // plan is no larger (term size, the extraction model) than the fast
    // fleet's — the e-graph seed wave makes that structural.
    let fast = Service::start(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let sat = Service::start(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        engine: EngineConfig::saturating(),
        ..ServiceConfig::default()
    });
    fn plan_size(q: &Query) -> usize {
        match q {
            Query::App(f, x) => {
                fn fsize(f: &Func) -> usize {
                    1 + match f {
                        Func::Compose(a, b)
                        | Func::PairWith(a, b)
                        | Func::Times(a, b)
                        | Func::Nest(a, b)
                        | Func::Unnest(a, b) => fsize(a) + fsize(b),
                        Func::Iterate(_, g) | Func::Iter(_, g) | Func::Join(_, g) => 1 + fsize(g),
                        _ => 0,
                    }
                }
                fsize(f) + plan_size(x)
            }
            Query::PairQ(a, b) => 1 + plan_size(a) + plan_size(b),
            _ => 1,
        }
    }
    for seed in 0..100u64 {
        let q = corpus_query(seed);
        let f = fast.call(Request::ast(q.clone()));
        let s = sat.call(Request::ast(q.clone()));
        assert!(
            matches!(f.outcome, Outcome::Optimized { .. }),
            "seed {seed}: fast fleet degraded: {:?}",
            f.outcome
        );
        assert!(
            matches!(s.outcome, Outcome::Optimized { .. }),
            "seed {seed}: saturating fleet degraded: {:?}",
            s.outcome
        );
        let fp = f.plan.expect("fast plan");
        let sp = s.plan.expect("saturating plan");
        assert!(
            plan_size(&sp) <= plan_size(&fp),
            "seed {seed}: saturating fleet returned a larger plan\n  fast: {fp}\n  sat : {sp}"
        );
    }
}
