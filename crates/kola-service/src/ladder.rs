//! The degradation ladder: fast engine → reference engine → passthrough.
//!
//! Each worker answers a request by climbing down this ladder. Rung 1 runs
//! the fast (interned + tree-indexed + memoized) engine; rung 2 the boxed
//! reference engine — slower, simpler, and sharing no state with rung 1,
//! so a fault that poisons one cannot poison the other; rung 3 returns the
//! input query unoptimized. Every rung:
//!
//! - runs under the request's **remaining** deadline (the budget's
//!   wall-clock cutoff is the request deadline, so a rung that overruns is
//!   stopped by the engine itself, not by the ladder);
//! - gets **one retry** after a deterministic jittered backoff, capped by
//!   the remaining deadline — enough to ride out a transient injected
//!   fault, never enough to blow the deadline;
//! - is wrapped in the `try_*` panic boundary of `kola-rewrite`, so a
//!   poison-rule panic is caught, attributed to its rule, and charged to
//!   the cross-request [`Breaker`].
//!
//! A rung *fails* when it panics, when an injected rung fault says so, or
//! when its report stops with `DeadlineExpired` or `TermTooLarge` — stops
//! that mean "no trustworthy optimized plan". `BudgetExhausted` and
//! `CycleDetected` are *successes*: the governed engines guarantee the best
//! (smallest) query seen so far, which is a valid plan.
//!
//! The fast rung runs on a **borrowed, long-lived engine** — the worker's
//! [`kola_rewrite::Engine`], whose arena, marks, and memo persist across
//! requests ([`Ladder::run_with`]). The rule set comes from an immutable
//! [`RuleSnapshot`]: the engine keeps the full catalog and index and masks
//! disabled rules per epoch, so a breaker trip costs an epoch swap, not an
//! engine rebuild. The reference rung is persistent too: the worker's
//! [`ReferenceRung`] caches the resolved active rule set, keyed by the same
//! snapshot epoch, so a degraded request re-resolves nothing — the old
//! per-request path rebuilt the id list, the strategy, *and* a `Runner` on
//! every climb past the fast rung, which made degradation strictly more
//! expensive per request than health.
//!
//! Exactness: the fast rung calls `Engine::try_normalize_with` with exactly
//! the request's budget and fault plan — byte-identical to a direct
//! fast-engine `Runner` run, whose `Fix` path folds the same engine report
//! into a fresh one (a zero-offset merge). The reference rung calls
//! `try_rewrite_fix_with` over the cached resolved active set — the exact
//! call the reference `Runner`'s `Fix` path bottoms out in, with the same
//! zero-offset merge argument (`Runner::run_governed` merges the fix
//! report into a fresh zero-step report and extends an empty trace, both
//! identities). The engines' differential-exactness contract thereby lifts
//! to the service — *including* cross-request reuse, because memo replays
//! are byte-identical to live runs and epoch tagging confines them to one
//! rule set (see `tests/service.rs`).

use crate::breaker::Breaker;
use crate::metrics::ServiceMetrics;
use crate::request::{Outcome, RequestOptions};
use crate::snapshot::RuleSnapshot;
use kola::term::Query;
use kola_exec::rng::splitmix64;
use kola_obs::{RewriteTrace, TraceRing};
use kola_rewrite::{
    try_rewrite_fix_with, Catalog, CaughtPanic, Engine, EngineConfig, Oriented, PropDb,
    QuarantineReport, RewriteReport, StopReason, Trace,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One engine rung of the ladder (the passthrough rung carries no engine
/// and is represented by [`Outcome::Passthrough`] itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The interned + tree-indexed + memoized engine (`kola_rewrite::fast`).
    Fast,
    /// The boxed reference engine (`kola_rewrite::engine`).
    Reference,
}

/// The rungs in descending order of preference.
pub const RUNGS: [Rung; 2] = [Rung::Fast, Rung::Reference];

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rung::Fast => "fast",
            Rung::Reference => "reference",
        })
    }
}

/// What the ladder produced for one request.
#[derive(Debug, Clone)]
pub struct LadderResult {
    /// `Optimized { rung }` or `Passthrough` — never the rejection
    /// outcomes; the ladder always answers.
    pub outcome: Outcome,
    /// The plan (the input itself on passthrough — an `Arc` clone of the
    /// caller's term, so exhausting the ladder deep-copies nothing; on
    /// success a freshly-allocated handle the plan cache can retain).
    pub plan: Arc<Query>,
    /// The successful rung's report, untouched. `None` on passthrough.
    pub report: Option<RewriteReport>,
    /// Per-run quarantine state of the successful rung.
    pub quarantine: QuarantineReport,
    /// Panics caught across all attempts.
    pub panics: Vec<CaughtPanic>,
    /// Retries taken across all rungs.
    pub retries: usize,
    /// One note per failed attempt.
    pub failures: Vec<String>,
}

/// How one rung attempt ended (private to the climb). Success carries the
/// rung's derivation trace so the observability sink can record it — empty
/// when tracing is off (the engine skips per-step trace building entirely).
enum Attempt {
    Ok(Query, RewriteReport, Trace),
    Failed(String, Option<RewriteReport>),
    Panicked(CaughtPanic),
}

/// The worker-resident reference rung: the snapshot's active rule set
/// resolved against the catalog once per snapshot epoch, not once per
/// degraded request. Lives in the worker's state next to the persistent
/// fast engine and is invalidated by the same epoch counter — a breaker
/// trip or reset re-resolves on the next degraded request; everything in
/// between reuses the cached slice.
#[derive(Default)]
pub struct ReferenceRung<'a> {
    /// Snapshot epoch `rules` was resolved under (`None` before first use).
    epoch: Option<u64>,
    /// The snapshot's active ids resolved to forward-oriented rules, in
    /// snapshot (catalog) order — exactly what `strategy::fix` over the
    /// active ids resolves to.
    rules: Vec<Oriented<'a>>,
}

impl<'a> ReferenceRung<'a> {
    /// An empty cache; the first [`Ladder::run_with`] that degrades fills
    /// it.
    pub fn new() -> ReferenceRung<'a> {
        ReferenceRung::default()
    }

    /// Re-resolve iff `snapshot` is from a different epoch than the cache.
    /// Keys on the *engine* epoch — unique per (generation, tenant) — so a
    /// rung shared across tenant lanes can never serve one tenant the
    /// other's resolved rule set.
    fn sync(&mut self, catalog: &'a Catalog, snapshot: &RuleSnapshot) {
        if self.epoch == Some(snapshot.engine_epoch) {
            return;
        }
        self.rules.clear();
        self.rules.extend(snapshot.active.iter().map(|id| {
            let rule = catalog
                .get(id)
                .expect("snapshot active ids are drawn from this catalog");
            Oriented::fwd(rule)
        }));
        self.epoch = Some(snapshot.engine_epoch);
    }
}

/// A worker's interruptible-backoff slot. The retry backoff used to be a
/// plain `thread::sleep`, which parks the whole worker where neither new
/// submissions nor shutdown can reach it; waiting on `park_timeout`
/// instead lets the service cut a backoff short ([`RetryPark::interrupt`])
/// when work lands on the worker's shard or the service shuts down — the
/// worker finishes its degraded request sooner and returns to the queue.
///
/// An interrupted (or spuriously woken) backoff simply retries early:
/// the backoff is advisory pacing, deadline-capped either way, and the
/// climb re-checks the deadline after every wait.
#[derive(Debug, Default)]
pub struct RetryPark {
    /// The worker thread to unpark; set once by [`RetryPark::register`].
    thread: OnceLock<std::thread::Thread>,
    /// True while the worker is inside [`RetryPark::wait`] — interrupters
    /// skip the unpark syscall entirely outside that window.
    parked: AtomicBool,
}

impl RetryPark {
    /// An unregistered slot.
    pub fn new() -> RetryPark {
        RetryPark::default()
    }

    /// Bind this slot to the calling thread (the worker, at loop start).
    pub fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Wait up to `pause` on the calling (registered) thread. Returns
    /// early on [`RetryPark::interrupt`] — or on a stale park token from
    /// an earlier interrupt, which only shortens one advisory backoff.
    pub fn wait(&self, pause: Duration) {
        self.parked.store(true, Ordering::Release);
        std::thread::park_timeout(pause);
        self.parked.store(false, Ordering::Release);
    }

    /// Cut an in-progress backoff short (no-op while the worker is not
    /// waiting).
    pub fn interrupt(&self) {
        if self.parked.load(Ordering::Acquire) {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }
}

/// The ladder, borrowing the service's shared catalog, properties, and
/// breaker — plus the (optional) observability surfaces.
pub struct Ladder<'a> {
    /// Rule catalog; the rule set handed to the engines is its forward
    /// orientation minus open-breaker rules.
    pub catalog: &'a Catalog,
    /// Property database for rule preconditions.
    pub props: &'a PropDb,
    /// The cross-request circuit breaker to consult and charge.
    pub breaker: &'a Breaker,
    /// Metric handles for per-rung failure counts; `None` runs unmetered.
    pub metrics: Option<&'a ServiceMetrics>,
    /// Trace sink — the calling worker's own ring shard. `Some` turns
    /// per-step trace recording ON for the fast engine and records every
    /// successful rung's derivation; `None` (the default service
    /// configuration) turns the engine's trace building OFF, so the
    /// untraced hot path never allocates per step.
    pub tracer: Option<&'a TraceRing>,
    /// Breaker shard all charges go through — the calling worker's index
    /// (`0` for standalone use).
    pub shard: usize,
    /// The worker's interruptible-backoff slot; `None` falls back to a
    /// plain sleep (standalone/test use).
    pub park: Option<&'a RetryPark>,
    /// Tenant name recorded in traces; `None` records `"default"`
    /// (standalone/test use).
    pub tenant: Option<&'a Arc<str>>,
}

impl<'a> Ladder<'a> {
    /// One-shot convenience: climb with a *fresh* fast engine and a
    /// snapshot built from the breaker's current state. Semantically
    /// identical to [`Ladder::run_with`]; production workers use that form
    /// with their long-lived engine instead of paying an engine build per
    /// request.
    pub fn run(
        &self,
        request_id: u64,
        q: &Arc<Query>,
        opts: &RequestOptions,
        deadline: Option<Instant>,
    ) -> LadderResult {
        let rules: Vec<Oriented<'_>> = self.catalog.rules().iter().map(Oriented::fwd).collect();
        let mut engine = Engine::new(rules, self.props, EngineConfig::fast());
        let snapshot = RuleSnapshot::build(self.breaker.generation(), self.catalog, self.breaker);
        let mut reference = ReferenceRung::new();
        self.run_with(
            request_id,
            q,
            opts,
            deadline,
            &mut engine,
            &snapshot,
            &mut reference,
        )
    }

    /// Climb the ladder for query `q` under `opts`, with the deadline
    /// already anchored (at submission time). `request_id` seeds the retry
    /// jitter and tags breaker charges. `engine` is the caller's persistent
    /// fast engine (built over the full forward catalog, rules in catalog
    /// order) and `snapshot` the rule-set snapshot this request runs under:
    /// the engine's caches are scoped to the snapshot's epoch before the
    /// climb, and disabled rules are masked out of its candidate scan.
    /// `reference` is the caller's persistent reference rung, re-resolved
    /// only when the snapshot epoch moved.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with(
        &self,
        request_id: u64,
        q: &Arc<Query>,
        opts: &RequestOptions,
        deadline: Option<Instant>,
        engine: &mut Engine<'_>,
        snapshot: &RuleSnapshot,
        reference: &mut ReferenceRung<'a>,
    ) -> LadderResult {
        // The *engine* epoch, not the raw generation: on a multi-tenant
        // service the shared engine's memo must never alias two tenants'
        // rule masks (snapshot.rs maps generations injectively per tenant).
        engine.set_epoch(snapshot.engine_epoch, &snapshot.disabled);
        engine.set_trace(self.tracer.is_some());

        let mut panics: Vec<CaughtPanic> = Vec::new();
        let mut failures: Vec<String> = Vec::new();
        let mut retries = 0usize;
        // Rules to charge — at most once per request, whatever the attempt
        // count (so a breaker threshold of N means N bad *requests*).
        let mut implicated: BTreeSet<String> = BTreeSet::new();

        let mut success: Option<(Rung, Query, RewriteReport, Trace)> = None;
        'climb: for (ri, rung) in RUNGS.iter().copied().enumerate() {
            for attempt in 0..2u32 {
                if expired(deadline) {
                    // Note the expiry so a deadline-driven passthrough
                    // always carries an error, even when the deadline died
                    // before any rung got to run (e.g. queue wait ate it).
                    failures.push(format!("{rung} attempt {attempt}: deadline expired"));
                    break 'climb;
                }
                if attempt == 1 {
                    // One jittered retry, capped by the remaining deadline.
                    // Waiting the full remainder is deliberate: if the
                    // deadline dies during the backoff, the expiry check
                    // above degrades us to the next rung (and ultimately to
                    // passthrough) deterministically. The wait itself is
                    // interruptible (see [`RetryPark`]): a submission
                    // landing on this worker's shard cuts it short.
                    let pause = cap_to_deadline(jittered(opts.backoff, request_id, ri), deadline);
                    if !pause.is_zero() {
                        match self.park {
                            Some(p) => p.wait(pause),
                            None => std::thread::sleep(pause),
                        }
                    }
                    if expired(deadline) {
                        failures.push(format!("{rung} attempt {attempt}: deadline expired"));
                        break 'climb;
                    }
                    retries += 1;
                }
                match self.attempt(
                    rung, attempt, q, opts, deadline, engine, snapshot, reference,
                ) {
                    Attempt::Ok(plan, report, trace) => {
                        implicate_from_report(&report, &mut implicated);
                        success = Some((rung, plan, report, trace));
                        break 'climb;
                    }
                    Attempt::Failed(why, report) => {
                        let expired_stop = report
                            .as_ref()
                            .is_some_and(|r| r.stop == StopReason::DeadlineExpired);
                        if let Some(r) = &report {
                            implicate_from_report(r, &mut implicated);
                        }
                        if let Some(m) = self.metrics {
                            // Positional lane: family labels are RUNGS in
                            // order, so the failure path formats nothing.
                            m.rung_failures.add_index(ri, 1);
                        }
                        failures.push(format!("{rung} attempt {attempt}: {why}"));
                        if expired_stop {
                            // Retrying against a dead deadline is pointless.
                            break;
                        }
                    }
                    Attempt::Panicked(p) => {
                        if let Some(id) = &p.rule_id {
                            implicated.insert(id.clone());
                        }
                        if let Some(m) = self.metrics {
                            m.rung_failures.add_index(ri, 1);
                        }
                        failures.push(format!("{rung} attempt {attempt}: {p}"));
                        panics.push(p);
                    }
                }
            }
        }

        // One batched breaker call per failed request, through this
        // worker's own shard — the old loop took the breaker's state lock
        // once per implicated rule.
        if !implicated.is_empty() {
            self.breaker.charge_many(
                self.shard,
                implicated.iter().map(String::as_str),
                request_id,
            );
        }

        match success {
            Some((rung, plan, report, trace)) => {
                if let Some(ring) = self.tracer {
                    // Wall-clock deadlines are intentionally not recorded:
                    // a successful rung never stopped on one (classify
                    // treats DeadlineExpired as failure), so the derivation
                    // is deadline-independent and replays unclocked.
                    ring.push(RewriteTrace::record(
                        request_id,
                        self.tenant
                            .map(Arc::clone)
                            .unwrap_or_else(|| Arc::from(crate::tenant::DEFAULT_TENANT)),
                        &rung.to_string(),
                        q,
                        Arc::clone(&snapshot.active),
                        opts.max_steps,
                        opts.max_depth,
                        opts.max_term_size,
                        opts.quarantine_after,
                        opts.faults.clone(),
                        &trace,
                        report.stop,
                        &plan,
                    ));
                }
                let quarantine = self.catalog.quarantine_report(&report);
                LadderResult {
                    outcome: Outcome::Optimized { rung },
                    plan: Arc::new(plan),
                    report: Some(report),
                    quarantine,
                    panics,
                    retries,
                    failures,
                }
            }
            None => LadderResult {
                outcome: Outcome::Passthrough,
                plan: Arc::clone(q),
                report: None,
                quarantine: QuarantineReport::default(),
                panics,
                retries,
                failures,
            },
        }
    }

    // One parameter per climb-loop variable; bundling them into a struct
    // would only move the argument list.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        rung: Rung,
        attempt: u32,
        q: &Query,
        opts: &RequestOptions,
        deadline: Option<Instant>,
        engine: &mut Engine<'_>,
        snapshot: &RuleSnapshot,
        reference: &mut ReferenceRung<'a>,
    ) -> Attempt {
        if opts.force_fail.contains(&rung) {
            return Attempt::Failed("injected rung fault (permanent)".into(), None);
        }
        if attempt == 0 && opts.transient_fail.contains(&rung) {
            return Attempt::Failed("injected rung fault (transient)".into(), None);
        }
        match rung {
            // The hot rung: straight into the borrowed persistent engine.
            // Byte-identical to the old per-request `Runner` path — the
            // `Fix` strategy ran this same `normalize_with` under the same
            // budget and merged its report into a fresh one (offset zero).
            Rung::Fast => {
                let budget = opts.budget(deadline);
                match engine.try_normalize_with(q, &budget, &opts.faults) {
                    Err(p) => Attempt::Panicked(p),
                    Ok(r) => classify(r.query, r.report, r.trace),
                }
            }
            // The degraded rung (only reached when the fast rung failed):
            // the boxed reference engine over the cached resolved active
            // set — deliberately sharing no engine state with the fast
            // rung, and re-resolving nothing per request. This is the
            // exact call the old per-request `Runner`'s `Fix` strategy
            // bottomed out in (see the module docs' exactness argument).
            Rung::Reference => {
                reference.sync(self.catalog, snapshot);
                let budget = opts.budget(deadline);
                match try_rewrite_fix_with(&reference.rules, q, self.props, &budget, &opts.faults) {
                    Err(p) => Attempt::Panicked(p),
                    Ok(r) => classify(r.query, r.report, r.trace),
                }
            }
        }
    }
}

/// Shared rung-outcome classification (see the module docs for why
/// `BudgetExhausted`/`CycleDetected` are successes).
fn classify(plan: Query, report: RewriteReport, trace: Trace) -> Attempt {
    match report.stop {
        StopReason::DeadlineExpired => {
            Attempt::Failed("deadline expired mid-rewrite".into(), Some(report))
        }
        StopReason::TermTooLarge => {
            Attempt::Failed("input exceeds term-size cap".into(), Some(report))
        }
        // NormalForm, BudgetExhausted, CycleDetected: the governed
        // engines return the best (smallest) query seen — a plan.
        _ => Attempt::Ok(plan, report, trace),
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn cap_to_deadline(pause: Duration, deadline: Option<Instant>) -> Duration {
    match deadline {
        Some(d) => pause.min(d.saturating_duration_since(Instant::now())),
        None => pause,
    }
}

/// Deterministic jitter: base + up to 50% extra, derived from the request
/// id and rung index so reruns of a seeded chaos scenario sleep alike.
fn jittered(base: Duration, request_id: u64, rung_index: usize) -> Duration {
    let mut s = request_id ^ ((rung_index as u64 + 1) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    let r = splitmix64(&mut s);
    let extra = (base.as_nanos() as u64 / 2)
        .checked_mul(r % 1024)
        .map_or(Duration::ZERO, |n| Duration::from_nanos(n / 1024));
    base + extra
}

/// Rules with contained failures in `report` (injected faults, oversize
/// results) are implicated for breaker accounting.
fn implicate_from_report(report: &RewriteReport, implicated: &mut BTreeSet<String>) {
    for (id, stats) in &report.rule_stats {
        if stats.failed > 0 {
            implicated.insert(id.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::term::Func;
    use std::sync::Arc;

    fn tower(n: usize) -> Query {
        let mut f = Func::Prim(Arc::from("age"));
        for _ in 0..n {
            f = Func::Compose(Box::new(Func::Id), Box::new(f));
        }
        Query::App(f, Box::new(Query::Extent(Arc::from("P"))))
    }

    #[test]
    fn transient_fault_costs_one_retry_not_the_request() {
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
        let opts = RequestOptions {
            transient_fail: vec![Rung::Fast],
            backoff: Duration::from_micros(50),
            ..RequestOptions::default()
        };
        let r = ladder.run(1, &Arc::new(tower(4)), &opts, None);
        assert_eq!(r.outcome, Outcome::Optimized { rung: Rung::Fast });
        assert_eq!(r.retries, 1);
        assert_eq!(r.failures.len(), 1);
        assert!(r.panics.is_empty());
    }

    #[test]
    fn permanent_fast_fault_degrades_to_reference() {
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
        let opts = RequestOptions {
            force_fail: vec![Rung::Fast],
            backoff: Duration::from_micros(50),
            ..RequestOptions::default()
        };
        let r = ladder.run(2, &Arc::new(tower(4)), &opts, None);
        assert_eq!(
            r.outcome,
            Outcome::Optimized {
                rung: Rung::Reference
            }
        );
        assert_eq!(r.failures.len(), 2);
    }

    #[test]
    fn both_rungs_down_returns_passthrough_plan() {
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
        let opts = RequestOptions {
            force_fail: vec![Rung::Fast, Rung::Reference],
            backoff: Duration::from_micros(50),
            ..RequestOptions::default()
        };
        let q = Arc::new(tower(4));
        let r = ladder.run(3, &q, &opts, None);
        assert_eq!(r.outcome, Outcome::Passthrough);
        assert_eq!(r.plan, q);
        assert!(r.report.is_none());
    }
}
