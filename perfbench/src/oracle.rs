//! The correctness oracle: every distinct (input, served plan) pair is
//! evaluated with the reference interpreter `kola::eval_query` on one fixed
//! database, executed in `Mode::Smart` to count plan cost, and measured
//! for plan size.

use crate::spans::{Recorder, ROOT};
use kola::db::Db;
use kola::Query;
use kola_exec::{generate, DataSpec, Executor, Mode};
use std::collections::HashMap;
use std::sync::Arc;

/// The check database: `DataSpec::scaled(2, ·)` — 20 persons, 8 addresses,
/// 12 vehicles — under a fixed seed, independent of the workload seed.
pub fn check_db() -> Db {
    generate(&DataSpec::scaled(2, 0x5EED_0AC1E))
}

/// Distinct (input text, served plan) pairs with how many requests each
/// answered.
pub type Served = HashMap<Arc<str>, Vec<(Arc<Query>, u64)>>;

/// Record one answered request in `served`.
pub fn record_pair(served: &mut Served, text: &Arc<str>, plan: &Arc<Query>) {
    let plans = served.entry(Arc::clone(text)).or_default();
    match plans.iter_mut().find(|(p, _)| **p == **plan) {
        Some((_, n)) => *n += 1,
        None => plans.push((Arc::clone(plan), 1)),
    }
}

/// What the oracle found. Sums are over distinct pairs, not requests:
/// weighting by requests would let `churn`'s few hottest pool queries
/// decide the ratios.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checked {
    /// Distinct pairs evaluated.
    pub pairs: u64,
    /// Requests whose plan's result differed from the input's (or whose
    /// plan failed to evaluate).
    pub wrong_requests: u64,
    /// A few of the offending pairs, for the report.
    pub wrong_examples: Vec<String>,
    /// Σ `ExecStats::total()` of the inputs, once per correct pair.
    pub input_ops: u64,
    /// Σ `ExecStats::total()` of the correct plans, once per pair.
    pub plan_ops: u64,
    /// Σ `Query::size()` of the inputs, once per correct pair.
    pub input_size: u64,
    /// Σ `Query::size()` of the correct plans, once per pair.
    pub plan_size: u64,
}

fn smart_ops(db: &Db, q: &Query) -> Result<u64, String> {
    let mut ex = Executor::new(db, Mode::Smart);
    ex.run(q).map_err(|e| e.to_string())?;
    Ok(ex.stats.total() as u64)
}

/// Check every pair in `served` on `db`. With a recorder, each
/// `Executor::run` is an `exec.run` span.
/// `Err` is a generator bug: an input that does not parse, evaluate or
/// execute.
pub fn check(served: &Served, db: &Db, mut rec: Option<&mut Recorder>) -> Result<Checked, String> {
    let mut out = Checked::default();
    // Sorted, so the examples and the spans come in the same order on
    // every run.
    let mut texts: Vec<&Arc<str>> = served.keys().collect();
    texts.sort();
    for (i, text) in texts.into_iter().enumerate() {
        let i = i as u64;
        let input = kola_frontend::parse_any_query(text)
            .map_err(|e| format!("generator bug: {text:?} does not parse: {e}"))?;
        let expected = kola::eval_query(db, &input)
            .map_err(|e| format!("generator bug: {text:?} does not evaluate: {e}"))?;
        let mut exec = |q: &Query| match rec.as_deref_mut() {
            Some(r) => r.time("exec.run", ROOT, i, || smart_ops(db, q)),
            None => smart_ops(db, q),
        };
        let input_ops =
            exec(&input).map_err(|e| format!("generator bug: {text:?} does not execute: {e}"))?;
        for (plan, n) in &served[text] {
            out.pairs += 1;
            let verdict = kola::eval_query(db, plan)
                .map_err(|e| e.to_string())
                .and_then(|got| {
                    if got == expected {
                        Ok(())
                    } else {
                        Err(format!("result {got:?} != {expected:?}"))
                    }
                })
                .and_then(|()| exec(plan));
            match verdict {
                Ok(ops) => {
                    out.input_ops += input_ops;
                    out.plan_ops += ops;
                    out.input_size += input.size() as u64;
                    out.plan_size += plan.size() as u64;
                }
                Err(why) => {
                    out.wrong_requests += n;
                    if out.wrong_examples.len() < 5 {
                        out.wrong_examples.push(format!("{text} => {plan}: {why}"));
                    }
                }
            }
        }
    }
    Ok(out)
}
