//! The metric tables — the single source of `BENCHMARK.json`
//! (`perfbench --manifest` renders it; the smoke test keeps the committed
//! file equal to the rendering).

use crate::workload::Workload;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

/// Whether larger values of a metric are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction, and (end-to-end only) the share of
/// the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with `--trace 0`. Every one but `setup_s`
/// is a count over a request sequence fixed by the seed, so it repeats
/// exactly on one seed; the bounds cover the spread across seeds.
pub const END_TO_END: &[Metric] = &[
    e2e("allocs_per_request", "count", Lower, 0.05),
    e2e("alloc_bytes_per_request", "bytes", Lower, 0.05),
    e2e("plan_ops_ratio", "ratio", Lower, 0.05),
    e2e("plan_size_ratio", "ratio", Lower, 0.05),
    e2e("success_rate", "ratio", Higher, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, printed with `--trace 1`. NOTES.md maps each to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: &[Metric] = &[
    layer("frontend.parse_us_p50", "us", Lower),
    layer("frontend.parse_allocs_per_request", "count", Lower),
    layer("frontend.parse_alloc_share", "ratio", Lower),
    layer("service.submit_us_p50", "us", Lower),
    layer("service.wait_us_p50", "us", Lower),
    layer("service.residual_allocs_per_request", "count", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    layer("cache.hit_us_p50", "us", Lower),
    layer("cache.hit_allocs", "count", Lower),
    layer("cache.evicted", "count", Lower),
    layer("cache.stale", "count", Lower),
    layer("engine.normalize_us_p50", "us", Lower),
    layer("engine.allocs_per_request", "count", Lower),
    layer("engine.steps_per_request", "count", Lower),
    layer("engine.visits_per_request", "count", Lower),
    layer("engine.constructed_per_request", "count", Lower),
    layer("engine.memo_hit_rate", "ratio", Higher),
    layer("engine.arena_peak", "count", Lower),
    layer("saturate.normalize_us_p50", "us", Lower),
    layer("saturate.normalize_us_p95", "us", Lower),
    layer("saturate.allocs_per_request", "count", Lower),
    layer("saturate.iterations_per_request", "count", Lower),
    layer("saturate.enodes_p95", "count", Lower),
    layer("saturate.eclasses_p95", "count", Lower),
    layer("saturate.saturated_share", "ratio", Higher),
    layer("saturate.model_gain", "ratio", Higher),
    layer("exec.plan_ops", "count", Lower),
    layer("exec.input_ops", "count", Lower),
    layer("ladder.retries_per_request", "count", Lower),
    layer("ladder.reference_share", "ratio", Lower),
    layer("ladder.passthrough_share", "ratio", Lower),
    layer("ladder.caught_panics", "count", Lower),
    layer("breaker.opened", "count", Lower),
    layer("obs.traces_recorded", "count", Higher),
    layer("obs.traces_dropped", "count", Lower),
    layer("obs.trace_allocs_per_request", "count", Lower),
    layer("setup.catalog_us", "us", Lower),
    layer("setup.start_us", "us", Lower),
    layer("setup.first_reply_us", "us", Lower),
    layer("setup.allocs", "count", Lower),
    layer("client.throughput_rps", "1/s", Higher),
    layer("client.latency_p50_us", "us", Lower),
    layer("client.latency_p95_us", "us", Lower),
    layer("client.latency_p99_us", "us", Lower),
    layer("client.samples", "count", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

/// The metrics a run prints in its result line.
pub fn expected(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn row(m: &Metric) -> String {
    let bound = m
        .bound
        .map(|b| format!(", \"bound\": {b}"))
        .unwrap_or_default();
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name,
        m.unit,
        m.better.as_str()
    )
}

/// `BENCHMARK.json`, as committed at the repository root.
pub fn render() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let rows = |ms: &[Metric]| ms.iter().map(row).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        rows(END_TO_END),
        rows(PER_LAYER)
    )
}
