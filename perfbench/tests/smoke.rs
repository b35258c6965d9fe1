//! Smoke test: every workload, untraced and traced, each run twice on one
//! seed through the binary. Counted metrics must agree to six significant
//! digits; a wider mismatch means nondeterminism. Run it optimized — the
//! saturating engine is slow unoptimized:
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Runs are separate processes: the allocation counter is process-wide, so
//! two runs in one process would count each other.

use perfbench::workload::Workload;
use perfbench::{manifest, same_count};
use std::collections::BTreeMap;
use std::process::Command;

/// The counted end-to-end metrics: all but `setup_s`, a time, and
/// `peak_rss_mb`, which moves by a few pages between runs.
const COUNTED: [&str; 5] = [
    "allocs_per_request",
    "alloc_bytes_per_request",
    "plan_ops_ratio",
    "plan_size_ratio",
    "success_rate",
];

/// The counts of the traced run's layer pass and counted windows.
const LAYER_COUNTS: [&str; 15] = [
    "frontend.parse_allocs_per_request",
    "engine.allocs_per_request",
    "engine.steps_per_request",
    "engine.visits_per_request",
    "engine.constructed_per_request",
    "engine.memo_hit_rate",
    "saturate.allocs_per_request",
    "saturate.iterations_per_request",
    "saturate.enodes_p95",
    "saturate.eclasses_p95",
    "saturate.model_gain",
    "exec.plan_ops",
    "exec.input_ops",
    "cache.stale",
    "cache.hit_rate",
];

/// Run the binary; return its result line's metrics after checking the
/// line's shape, `correct`, `failed` and every expected metric's unit.
fn run(workload: Workload, trace: bool) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "11",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload:?}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ") && last.contains("\"failed\": 0,"),
        "{workload:?} trace {trace}: {stdout}"
    );
    let mut metrics = BTreeMap::new();
    for m in manifest::expected(trace) {
        let needle = format!("\"{}\": {{\"value\": ", m.name);
        let at = last
            .find(&needle)
            .unwrap_or_else(|| panic!("{} missing: {last}", m.name))
            + needle.len();
        let rest = &last[at..];
        let (value, rest) = rest.split_once(", ").expect("value, unit");
        let unit = format!("\"unit\": \"{}\"}}", m.unit);
        assert!(
            rest.starts_with(&unit),
            "{}: expected {unit} in {rest}",
            m.name
        );
        let value: f64 = value.parse().expect("a number");
        assert!(value.is_finite(), "{}: {value}", m.name);
        metrics.insert(m.name.to_string(), value);
    }
    metrics
}

fn assert_repeats(workload: Workload, trace: bool, names: &[&str]) {
    let (a, b) = (run(workload, trace), run(workload, trace));
    for name in names {
        assert!(
            same_count(a[*name], b[*name]),
            "{workload:?}: {name} read {} then {}",
            a[*name],
            b[*name]
        );
    }
}

#[test]
fn fresh_repeats_exactly() {
    assert_repeats(Workload::Fresh, false, &COUNTED);
    assert_repeats(Workload::Fresh, true, &LAYER_COUNTS);
}

#[test]
fn saturate_repeats_exactly() {
    assert_repeats(Workload::Saturate, false, &COUNTED);
    assert_repeats(Workload::Saturate, true, &LAYER_COUNTS);
}

#[test]
fn churn_repeats_exactly() {
    assert_repeats(Workload::Churn, false, &COUNTED);
    assert_repeats(Workload::Churn, true, &LAYER_COUNTS);
}

#[test]
fn the_committed_manifest_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest::render(),
        "regenerate with `perfbench --manifest`"
    );
}
