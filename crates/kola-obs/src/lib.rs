#![warn(missing_docs)]
//! # kola-obs — observability for the KOLA optimizer stack
//!
//! Three pieces, each usable alone:
//!
//! - [`metrics`] — lock-free instruments (atomic [`Counter`]s, high-water
//!   [`MaxGauge`]s, fixed-bucket [`Histogram`]s, frozen-label
//!   [`CounterFamily`]s) collected in a [`Registry`] whose [`Snapshot`]
//!   exports hand-rolled JSON. Recording is wait-free and allocation-free,
//!   so instruments sit directly on `kola-service`'s admission and worker
//!   hot paths.
//! - [`trace`] — structured rewrite provenance: a [`RewriteTrace`] records
//!   one successful run as its input, active rule set, budget caps, fault
//!   plan, and a fingerprint-chained step list, stored in a bounded
//!   [`TraceRing`] — or, for multi-worker services, a [`ShardedTraceRing`]
//!   giving each worker its own uncontended ring whose merged drain is
//!   ordered by request id.
//! - [`replay`](mod@replay) — re-executes a recorded trace on the boxed reference
//!   engine and compares every step byte-for-byte (fingerprints, stop
//!   reason, final plan). This turns the fast engine's exactness contract
//!   into a property checkable against *live* traffic, in the spirit of
//!   provenance-checked rewrite rules (see PAPERS.md): each optimization a
//!   service performed leaves a record that an independent engine can
//!   re-derive. Bulk audits go through a pooled [`ReplayWorker`] instead of
//!   paying a thread spawn per trace.

pub mod metrics;
pub mod replay;
pub mod trace;

pub use metrics::{
    Counter, CounterFamily, Histogram, HistogramSnapshot, MaxGauge, Registry, Snapshot,
};
pub use replay::{replay, ReplayOutcome, ReplayWorker};
pub use trace::{RecordedStep, RewriteTrace, ShardedTraceRing, TraceRing};

/// Minimal JSON emission helpers (the workspace deliberately carries no
/// external dependencies, so the bench/obs artifacts hand-roll JSON with a
/// shared escaper instead of each inventing one).
pub mod json {
    /// `s` as a quoted, escaped JSON string literal.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// `ns` as a JSON array of numbers.
    pub fn u64_array(ns: &[u64]) -> String {
        let mut out = String::from("[");
        for (i, n) in ns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&n.to_string());
        }
        out.push(']');
        out
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn escapes_and_arrays() {
            assert_eq!(super::string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
            assert_eq!(super::string("\u{1}"), "\"\\u0001\"");
            assert_eq!(super::u64_array(&[1, 2, 3]), "[1, 2, 3]");
            assert_eq!(super::u64_array(&[]), "[]");
        }
    }
}
