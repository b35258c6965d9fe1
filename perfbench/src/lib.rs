//! # perfbench — the optimization service's benchmark, on counts that repeat
//!
//! One seeded run drives `kola-service` from this process: one closed-loop
//! client thread against a one-worker fleet, over a request sequence that
//! is a pure function of the seed ([`workload`]). The gated metrics are
//! counts taken over that sequence — heap allocations per request (every
//! thread, through the counting allocator in [`alloc`]), plan execution
//! ops and plan size against the inputs — plus success rate, memory and
//! set-up time. Wall-clock latencies are measured in a timed window after
//! the counted one and printed on every run, but gated nowhere.
//!
//! - `--trace 0` prints the end-to-end metrics ([`manifest::END_TO_END`]).
//! - `--trace 1` is the traced run: the counted window served twice on
//!   fresh fleets, untraced and under benchmark spans (their counts must
//!   agree: the exact-repeat and reconciliation check), a layer pass that
//!   calls each layer's public entry point under spans ([`layers`]), and
//!   counter deltas from `Service::metrics_snapshot()`. It prints
//!   [`manifest::PER_LAYER`].
//!
//! NOTES.md records why each workload exists, which end-to-end metric each
//! per-layer metric should move, and the known defects the benchmark
//! leaves in view.

pub mod alloc;
pub mod drive;
pub mod layers;
pub mod manifest;
pub mod oracle;
pub mod spans;
pub mod workload;

use drive::{counted_window, measure_setup, prewarm, timed_window, Setup, Timing, Window};
use kola_service::chaos::percentile;
use kola_service::{Service, ServiceConfig};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};
use workload::{Sequence, Workload};

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// Relative difference within which two counts of the same work agree:
/// six significant digits. Counts of one seed repeat exactly; the
/// tolerance admits a stray allocation, such as a rehash that randomized
/// hashing moves, and nothing as large as a changed request stream.
pub const SAME_COUNT: f64 = 1e-6;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the run measures; the timed window fills what the counted
    /// work leaves.
    pub seconds: Duration,
    /// The traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Report {
    /// Every check passed: plans equal their inputs on the check database,
    /// the service's books balance, no panic escaped, no request of the
    /// timed window was refused, and (traced) the traced window counted
    /// what the untraced one did.
    pub correct: bool,
    /// Requests of the counted window.
    pub attempted: u64,
    /// Of those, requests refused, answered without a plan, or answered
    /// with a wrong plan.
    pub failed: u64,
    /// Metric values by name; units come from the manifest tables.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable findings: failed checks and context for the numbers.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = manifest::expected(trace)
            .iter()
            .map(|m| {
                let v = self.metrics[m.name];
                let v = if v.is_finite() { v } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn fail(&mut self, note: String) {
        self.correct = false;
        self.notes.push(note);
    }
}

fn median(v: &[u64]) -> u64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    percentile(&v, 50.0)
}

/// `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Whether two counts of the same work agree to [`SAME_COUNT`].
pub fn same_count(a: f64, b: f64) -> bool {
    (a - b).abs() <= SAME_COUNT * a.abs().max(b.abs())
}

/// Run the benchmark. `Err` is a harness-level failure (a generator bug, an
/// unreadable `/proc`): the caller prints it and exits non-zero.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let until = Instant::now() + cfg.seconds;
    let w = cfg.workload;
    let seq = w.sequence(cfg.seed);
    let db = oracle::check_db();
    let setup = measure_setup(w)?;
    let mut r = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        notes: Vec::new(),
    };
    if cfg.trace {
        traced_run(w, &seq, until, &db, &setup, &mut r)?;
        return Ok(r);
    }
    let (service, win) = serve_counted(w, w.service_config(), &seq, false)?;
    let timing = timed_window(&service, w, &seq.counted, until);
    drop(service);
    let checked = check_window(&win, &db, None, &mut r)?;
    check_timing(&timing, &mut r);
    let n = win.attempted as f64;
    let m = &mut r.metrics;
    m.insert("allocs_per_request", win.allocs.count as f64 / n);
    m.insert("alloc_bytes_per_request", win.allocs.bytes as f64 / n);
    m.insert(
        "plan_ops_ratio",
        ratio(checked.plan_ops as f64, checked.input_ops as f64),
    );
    m.insert(
        "plan_size_ratio",
        ratio(checked.plan_size as f64, checked.input_size as f64),
    );
    m.insert("success_rate", 1.0 - r.failed as f64 / n);
    m.insert("peak_rss_mb", win.peak_rss_mb);
    m.insert("setup_s", median(&setup.total_ns) as f64 / 1e9);
    r.notes.push(format!(
        "{} counted requests, {} distinct (input, plan) pairs checked",
        win.attempted, checked.pairs
    ));
    r.notes.push(timing_summary(&timing));
    Ok(r)
}

/// Start a fleet configured by `cfg`, serve `seq`'s warm-up, then its
/// counted window.
fn serve_counted(
    w: Workload,
    cfg: ServiceConfig,
    seq: &Sequence,
    traced: bool,
) -> Result<(Service, Window), String> {
    let service = Service::start(cfg);
    let seen = prewarm(&service, &seq.warmup)?;
    let win = counted_window(&service, w, &seq.counted, seen, traced)?;
    Ok((service, win))
}

/// Account the window's requests in `r` and check every served pair with
/// the oracle.
fn check_window(
    win: &Window,
    db: &kola::db::Db,
    rec: Option<&mut spans::Recorder>,
    r: &mut Report,
) -> Result<oracle::Checked, String> {
    r.attempted += win.attempted;
    r.failed += win.refused;
    for v in &win.violations {
        r.fail(format!("books: {v}"));
    }
    if win.unexpected_panics != 0 {
        r.fail(format!(
            "{} panics escaped the ladder",
            win.unexpected_panics
        ));
    }
    let hits = win.delta("cache_hits");
    if win.hits.len() as u64 != hits {
        r.fail(format!(
            "{} replies shared a cached plan, but the service counted {hits} cache hits",
            win.hits.len()
        ));
    }
    let checked = oracle::check(&win.served, db, rec)?;
    r.failed += checked.wrong_requests;
    for e in &checked.wrong_examples {
        r.fail(format!("wrong plan: {e}"));
    }
    Ok(checked)
}

fn check_timing(t: &Timing, r: &mut Report) {
    if t.refused != 0 {
        r.fail(format!(
            "{} requests of the timed window were refused",
            t.refused
        ));
    }
}

/// The wall-clock view: `client.*` metrics of the timed window.
fn client_metrics(t: &Timing) -> [(&'static str, f64); 5] {
    let mut v = t.latencies.clone();
    v.sort_unstable();
    let us = |p| percentile(&v, p) as f64 / 1e3;
    [
        (
            "client.throughput_rps",
            v.len() as f64 / t.elapsed.as_secs_f64(),
        ),
        ("client.latency_p50_us", us(50.0)),
        ("client.latency_p95_us", us(95.0)),
        ("client.latency_p99_us", us(99.0)),
        ("client.samples", v.len() as f64),
    ]
}

fn timing_summary(t: &Timing) -> String {
    let parts: Vec<String> = client_metrics(t)
        .iter()
        .map(|(name, v)| format!("{name} {v:.1}"))
        .collect();
    format!("timed window (not gated): {}", parts.join(", "))
}

fn traced_run(
    w: Workload,
    seq: &Sequence,
    until: Instant,
    db: &kola::db::Db,
    setup: &Setup,
    r: &mut Report,
) -> Result<(), String> {
    let plain = serve_counted(w, w.service_config(), seq, false)?.1;
    // Service tracing off: the difference is what the trace ring costs.
    let ring_off = if w.service_config().tracing {
        let mut cfg = w.service_config();
        cfg.tracing = false;
        Some(serve_counted(w, cfg, seq, false)?.1)
    } else {
        None
    };
    let pass = layers::run(w, seq)?;
    let (service, win) = serve_counted(w, w.service_config(), seq, true)?;
    let timing = timed_window(&service, w, &seq.counted, until);
    drop(service);

    let n = win.attempted as f64;
    let per_request = |x: &Window| x.allocs.count as f64 / x.attempted as f64;
    if !same_count(plain.allocs.count as f64, win.allocs.count as f64)
        || !same_count(plain.allocs.bytes as f64, win.allocs.bytes as f64)
    {
        r.fail(format!(
            "nondeterminism: the untraced window counted {:?}, the traced one {:?}",
            plain.allocs, win.allocs
        ));
    }
    if plain.served != win.served {
        r.fail("nondeterminism: the untraced and traced windows served different plans".into());
    }
    let mut oracle_spans = spans::Recorder::new();
    let checked = check_window(&win, db, Some(&mut oracle_spans), r)?;
    check_timing(&timing, r);

    let rec = win.recorder.as_ref().expect("traced window records spans");
    let layer = &pass.recorder;
    let us_p50 = |rec: &spans::Recorder, name| percentile(&rec.durations(name), 50.0) as f64 / 1e3;
    let allocs_per_span = |name| {
        let (a, count) = layer.allocs(name);
        ratio(a.count as f64, count as f64)
    };
    let parse = layer.allocs("frontend.parse").0.count as f64 / n;
    let fleet_span = if w.saturating() {
        "saturate.normalize"
    } else {
        "engine.normalize"
    };
    let engine = layer.allocs(fleet_span).0.count as f64 / n;
    let total = per_request(&win);
    let residual = total - parse - engine;
    r.notes.push(format!(
        "allocs/request: frontend {parse:.3} + {fleet_span} {engine:.3} + residual service {residual:.3} = {total:.3} traced; untraced {:.3}",
        per_request(&plain)
    ));
    if w.reconciles() {
        reconcile(&pass.fleet, &win, residual, r);
    }
    for note in kind_breakdown(seq, &win) {
        r.notes.push(note);
    }

    let m = &mut r.metrics;
    m.insert("frontend.parse_us_p50", us_p50(layer, "frontend.parse"));
    m.insert("frontend.parse_allocs_per_request", parse);
    m.insert("frontend.parse_alloc_share", ratio(parse, total));
    m.insert("service.submit_us_p50", us_p50(rec, "service.submit"));
    m.insert("service.wait_us_p50", us_p50(rec, "service.wait"));
    m.insert("service.residual_allocs_per_request", residual);

    let submitted = win.delta("submitted") as f64;
    m.insert(
        "cache.hit_rate",
        ratio(win.delta("cache_hits") as f64, submitted),
    );
    let roots: Vec<&spans::Span> = rec.named("client.request").collect();
    let mut hit_ns: Vec<u64> = win.hits.iter().map(|&i| roots[i].ns()).collect();
    hit_ns.sort_unstable();
    m.insert("cache.hit_us_p50", percentile(&hit_ns, 50.0) as f64 / 1e3);
    let hit_allocs: u64 = win.hits.iter().map(|&i| roots[i].allocs.count).sum();
    m.insert(
        "cache.hit_allocs",
        ratio(hit_allocs as f64, win.hits.len() as f64),
    );
    m.insert("cache.evicted", win.delta("cache_evicted") as f64);
    m.insert("cache.stale", win.delta("cache_stale") as f64);

    m.insert("engine.normalize_us_p50", us_p50(layer, "engine.normalize"));
    m.insert(
        "engine.allocs_per_request",
        allocs_per_span("engine.normalize"),
    );
    // The service counts no steps; the rest are the worker engine's own
    // counters, which on `fresh` and `saturate` the fleet mirror was
    // checked to match.
    m.insert("engine.steps_per_request", pass.fleet.steps as f64 / n);
    m.insert(
        "engine.visits_per_request",
        win.delta("engine_visits") as f64 / n,
    );
    m.insert(
        "engine.constructed_per_request",
        win.delta("engine_constructed") as f64 / n,
    );
    m.insert(
        "engine.memo_hit_rate",
        ratio(
            win.delta("engine_memo_hits") as f64,
            win.delta("engine_memo_lookups") as f64,
        ),
    );
    m.insert("engine.arena_peak", win.after.gauge("arena_peak") as f64);

    let snorm = layer.durations("saturate.normalize");
    m.insert(
        "saturate.normalize_us_p50",
        percentile(&snorm, 50.0) as f64 / 1e3,
    );
    m.insert(
        "saturate.normalize_us_p95",
        percentile(&snorm, 95.0) as f64 / 1e3,
    );
    m.insert(
        "saturate.allocs_per_request",
        allocs_per_span("saturate.normalize"),
    );
    let sat = &pass.saturation;
    let k = sat.len() as f64;
    let sorted = |f: fn(&layers::Saturation) -> u64| {
        let mut v: Vec<u64> = sat.iter().map(f).collect();
        v.sort_unstable();
        v
    };
    let sum = |f: fn(&layers::Saturation) -> u64| sat.iter().map(f).sum::<u64>() as f64;
    m.insert(
        "saturate.iterations_per_request",
        ratio(sum(|s| s.iterations), k),
    );
    m.insert(
        "saturate.enodes_p95",
        percentile(&sorted(|s| s.nodes), 95.0) as f64,
    );
    m.insert(
        "saturate.eclasses_p95",
        percentile(&sorted(|s| s.classes), 95.0) as f64,
    );
    m.insert(
        "saturate.saturated_share",
        ratio(sum(|s| u64::from(s.saturated)), k),
    );
    m.insert(
        "saturate.model_gain",
        ratio(sum(|s| s.fixpoint_cost), sum(|s| s.cost)),
    );
    m.insert("exec.plan_ops", checked.plan_ops as f64);
    m.insert("exec.input_ops", checked.input_ops as f64);

    m.insert(
        "ladder.retries_per_request",
        win.delta("retries") as f64 / n,
    );
    m.insert(
        "ladder.reference_share",
        win.delta("optimized_reference") as f64 / n,
    );
    m.insert(
        "ladder.passthrough_share",
        win.delta("passthrough") as f64 / n,
    );
    m.insert("ladder.caught_panics", win.delta("caught_panics") as f64);
    m.insert("breaker.opened", win.delta("breaker_opened") as f64);
    m.insert("obs.traces_recorded", win.delta("traces_recorded") as f64);
    m.insert("obs.traces_dropped", win.delta("traces_dropped") as f64);
    let trace_allocs = ring_off.map_or(0.0, |u| total - per_request(&u));
    m.insert("obs.trace_allocs_per_request", trace_allocs);

    let us = |v: &[u64]| median(v) as f64 / 1e3;
    m.insert("setup.catalog_us", us(&setup.catalog_ns));
    m.insert("setup.start_us", us(&setup.start_ns));
    m.insert("setup.first_reply_us", us(&setup.first_reply_ns));
    m.insert("setup.allocs", median(&setup.allocs) as f64);

    m.extend(client_metrics(&timing));
    m.insert(
        "trace.overhead_share",
        win.elapsed.as_secs_f64() / plain.elapsed.as_secs_f64() - 1.0,
    );

    for (name, t) in spans::totals(rec)
        .into_iter()
        .chain(spans::totals(layer))
        .chain(spans::totals(&oracle_spans))
    {
        r.notes.push(format!(
            "span {name:<22} n={:<6} total={:>11} ns self={:>11} ns allocs={:>9} self={:>9}",
            t.count, t.total_ns, t.self_ns, t.allocs, t.self_allocs
        ));
    }
    r.notes.push(timing_summary(&timing));
    Ok(())
}

/// Check that the layer pass's fleet mirror did the worker's work: its
/// engine counters over the counted inputs must equal the deltas the
/// service's worker engine flushed for the window, and the service must
/// cost something beyond parse and engine. Otherwise the parse and engine
/// shares are not the service's, and the run is not correct.
fn reconcile(mirror: &layers::EngineCounts, win: &Window, residual: f64, r: &mut Report) {
    for (name, counted) in [
        ("engine_visits", mirror.visits),
        ("engine_constructed", mirror.constructed),
        ("engine_memo_hits", mirror.memo_hits),
        ("engine_memo_lookups", mirror.memo_lookups),
    ] {
        let served = win.delta(name);
        if counted != served {
            r.fail(format!(
                "reconciliation: the layer pass's engine counted {name} {counted}, the service {served}"
            ));
        }
    }
    if residual < 0.0 {
        r.fail(format!(
            "reconciliation: parse and engine allocations exceed the service's by {:.3} per request",
            -residual
        ));
    }
}

/// Per request kind of the spanned window: requests, and the share of the
/// window's allocations their `client.request` spans made. On `churn`,
/// reads are split into cache hits and misses.
fn kind_breakdown(seq: &Sequence, win: &Window) -> Vec<String> {
    let rec = win.recorder.as_ref().expect("traced window records spans");
    let hits: HashSet<usize> = win.hits.iter().copied().collect();
    let mut by_kind: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut total = 0;
    for (i, root) in rec.named("client.request").enumerate() {
        let kind = seq.counted[i].kind;
        let kind = match (kind, hits.contains(&i)) {
            ("read", true) => "read hit".to_string(),
            ("read", false) => "read miss".to_string(),
            (k, _) => k.to_string(),
        };
        let e = by_kind.entry(kind).or_default();
        e.0 += 1;
        e.1 += root.allocs.count;
        total += root.allocs.count;
    }
    by_kind
        .into_iter()
        .map(|(kind, (requests, allocs))| {
            format!(
                "kind {kind:<10} requests {requests:>6} ({:.4}), allocs/request {:>10.3}, share of allocs {:.4}",
                ratio(requests as f64, seq.counted.len() as f64),
                ratio(allocs as f64, requests as f64),
                ratio(allocs as f64, total as f64)
            )
        })
        .collect()
}
