//! Driving the service: set-up, the counted window and the timed window.
//!
//! One closed-loop client (this thread) submits a request, waits for its
//! reply, and only then submits the next, against a one-worker fleet. A
//! counted window serves a fixed request sequence and counts every heap
//! allocation any thread makes between its first submit and its last
//! reply; the harness's own bookkeeping is left out ([`alloc::untracked`]).
//! The timed window afterwards only times requests.

use crate::alloc::{self, Allocs};
use crate::oracle::{record_pair, Served};
use crate::spans::{Recorder, ROOT};
use crate::workload::{Draw, Workload};
use kola::Query;
use kola_obs::Snapshot;
use kola_rewrite::Catalog;
use kola_service::{conservation_violations, Outcome, Request, Response, Service};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; set-up metrics report their median.
pub const SETUP_REPS: usize = 201;
/// Requests the timed window serves even when the run's time is up.
pub const MIN_TIMED: usize = 200;

/// The set-up probe: a short id tower every fleet answers in a few steps.
const SETUP_PROBE: &str = "id . id . age ! P";

/// Set-up measurements, one entry per repetition.
#[derive(Debug, Default)]
pub struct Setup {
    /// `Catalog::paper()` alone, ns.
    pub catalog_ns: Vec<u64>,
    /// `Service::start` until it returns, ns.
    pub start_ns: Vec<u64>,
    /// From `Service::start` returning to the first answered request, ns.
    pub first_reply_ns: Vec<u64>,
    /// `Service::start` to the first answered request, ns (`setup_s`).
    pub total_ns: Vec<u64>,
    /// Allocations from `Service::start` to the first answered request.
    pub allocs: Vec<u64>,
}

/// Time [`SETUP_REPS`] cold starts of `workload`'s fleet.
pub fn measure_setup(workload: Workload) -> Result<Setup, String> {
    let mut s = Setup::default();
    let probe = Request::text(SETUP_PROBE).with_options(workload.clean_options());
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box(Catalog::paper());
        s.catalog_ns.push(t.elapsed().as_nanos() as u64);

        let request = probe.clone();
        let a0 = alloc::totals();
        let t0 = Instant::now();
        let service = Service::start(workload.service_config());
        let t1 = Instant::now();
        let (reply, _, t2) = serve(&service, request);
        let a1 = alloc::totals();
        if !matches!(reply.outcome, Outcome::Optimized { .. }) {
            return Err(format!("set-up probe answered {}", reply.outcome));
        }
        s.start_ns.push((t1 - t0).as_nanos() as u64);
        s.first_reply_ns.push((t2 - t1).as_nanos() as u64);
        s.total_ns.push((t2 - t0).as_nanos() as u64);
        s.allocs.push((a1 - a0).count);
        drop(service);
    }
    Ok(s)
}

/// Every plan `Arc` replies carried, by address. Holding them keeps an
/// address from being reused, so a reply whose plan address is here shares
/// the plan of an earlier reply: it is a plan-cache hit, since every miss
/// builds a new plan.
pub type Seen = HashMap<*const Query, Arc<Query>>;

/// Whether `plan` was seen before; records it if not.
fn seen_before(seen: &mut Seen, plan: &Arc<Query>) -> bool {
    seen.insert(Arc::as_ptr(plan), Arc::clone(plan)).is_some()
}

/// Serve `draws` in order and wait for each reply; returns the plans
/// served, or an error naming the first request answered without a plan.
pub fn prewarm(service: &Service, draws: &[Draw]) -> Result<Seen, String> {
    let mut seen = Seen::with_capacity(draws.len());
    for d in draws {
        let (r, _, _) = serve(service, d.request());
        match &r.plan {
            Some(plan) => {
                seen_before(&mut seen, plan);
            }
            None => return Err(format!("prewarm of {:?} answered {}", d.text, r.outcome)),
        }
    }
    Ok(seen)
}

/// Everything one counted window observed.
#[derive(Debug)]
pub struct Window {
    /// Requests submitted.
    pub attempted: u64,
    /// Requests refused or answered without a plan.
    pub refused: u64,
    /// Allocations by every thread between the first submit and the last
    /// reply, the harness's own excluded.
    pub allocs: Allocs,
    /// First submit to last reply.
    pub elapsed: Duration,
    /// Distinct served pairs.
    pub served: Served,
    /// Indices of the requests answered from the plan cache (the reply
    /// shares the plan `Arc` of an earlier reply, in the window or the
    /// warm-up).
    pub hits: Vec<usize>,
    /// Per-request spans (`client.request` with `service.submit` and
    /// `service.wait` children), when traced.
    pub recorder: Option<Recorder>,
    /// Metrics before the first counted request.
    pub before: Snapshot,
    /// Metrics after the last reply.
    pub after: Snapshot,
    /// Conservation-law violations at the end of the window.
    pub violations: Vec<String>,
    /// Panics that escaped the ladder.
    pub unexpected_panics: usize,
    /// `VmHWM` of the process after the last reply, MiB.
    pub peak_rss_mb: f64,
}

impl Window {
    /// Counter delta over the window.
    pub fn delta(&self, name: &str) -> u64 {
        self.after.counter(name) - self.before.counter(name)
    }
}

/// Reset every open breaker, as an operator would. Keyed to the request
/// index by the caller, never to a timer.
fn reset_open_breakers(service: &Service) {
    for rule in service.breaker().open_rules() {
        service.breaker().reset(&rule);
    }
}

/// Submit one request and wait for its reply, returning the reply, the
/// instant and allocation reading after `submit` returned, and the instant
/// the reply arrived.
///
/// The wait is not counted on this thread. The reply channel registers a
/// blocked receiver with an allocation, and whether the receiver blocks at
/// all depends on whether the reply arrives while it still spins. In one
/// of eight runs of one `fresh` seed, ten replies arrived that fast and the
/// count came out ten lower. The worker's allocations during the wait are
/// counted.
fn serve(service: &Service, request: Request) -> (Response, (Instant, Allocs), Instant) {
    let submitted = service.submit(request);
    let mid = (Instant::now(), alloc::totals());
    let response = match submitted {
        Ok(pending) => alloc::untracked(|| pending.wait()),
        Err(rejection) => rejection,
    };
    (response, mid, Instant::now())
}

/// Serve `draws` on `service` as one counted window, after a warm-up that
/// served the plans in `seen`. With `traced`, each
/// request gets a `client.request` span with `service.submit` and
/// `service.wait` children; the spans allocate nothing that is counted,
/// so a traced window counts exactly what an untraced one does.
pub fn counted_window(
    service: &Service,
    workload: Workload,
    draws: &[Draw],
    mut seen: Seen,
    traced: bool,
) -> Result<Window, String> {
    // Everything the loop needs is allocated before counting starts.
    let requests: Vec<Request> = draws.iter().map(Draw::request).collect();
    let mut served = Served::with_capacity(draws.len());
    let mut hits = Vec::with_capacity(draws.len());
    seen.reserve(draws.len());
    let mut refused = 0;
    let mut recorder = traced.then(Recorder::new);
    let before = service.metrics_snapshot();
    let a0 = alloc::totals();
    let started = Instant::now();
    for (i, (draw, request)) in draws.iter().zip(requests).enumerate() {
        if workload.resets_before(i) {
            alloc::untracked(|| reset_open_breakers(service));
        }
        let (ta, aa) = (Instant::now(), alloc::totals());
        let (response, (tb, ab), tc) = serve(service, request);
        let ac = alloc::totals();
        alloc::untracked(|| {
            if let Some(rec) = recorder.as_mut() {
                // Allocations are counted process-wide, so the split
                // between submit and wait is approximate: on a miss the
                // worker starts before `submit` returns.
                let i = i as u64;
                let root = rec.push("client.request", ROOT, i, (ta, tc), ac - aa);
                rec.push("service.submit", root, i, (ta, tb), ab - aa);
                rec.push("service.wait", root, i, (tb, tc), ac - ab);
            }
            match &response.plan {
                Some(plan) => {
                    if seen_before(&mut seen, plan) {
                        hits.push(i);
                    }
                    record_pair(&mut served, &draw.text, plan);
                }
                None => refused += 1,
            }
            drop(response);
        });
    }
    let allocs = alloc::totals() - a0;
    let elapsed = started.elapsed();
    let peak_rss_mb = peak_rss_mb()?;
    let after = service.metrics_snapshot();
    Ok(Window {
        attempted: draws.len() as u64,
        refused,
        allocs,
        elapsed,
        served,
        hits,
        recorder,
        before,
        violations: conservation_violations(&after),
        after,
        unexpected_panics: service.unexpected_panics(),
        peak_rss_mb,
    })
}

/// The timed window: client-timed latencies, ns, in reply order.
#[derive(Debug, Default)]
pub struct Timing {
    /// Submit-to-reply latency of every answered request, ns.
    pub latencies: Vec<u64>,
    /// Requests refused or answered without a plan.
    pub refused: u64,
    /// First submit to last reply.
    pub elapsed: Duration,
}

/// Serve `draws` cyclically on `service` until `until`, and at least
/// [`MIN_TIMED`] requests, timing each from submit to reply.
pub fn timed_window(
    service: &Service,
    workload: Workload,
    draws: &[Draw],
    until: Instant,
) -> Timing {
    let mut t = Timing::default();
    let started = Instant::now();
    let mut i = 0;
    while i < MIN_TIMED || Instant::now() < until {
        let k = i % draws.len();
        if workload.resets_before(k) {
            reset_open_breakers(service);
        }
        let request = draws[k].request();
        let t0 = Instant::now();
        let (response, _, t1) = serve(service, request);
        match response.plan {
            Some(_) => t.latencies.push((t1 - t0).as_nanos() as u64),
            None => t.refused += 1,
        }
        i += 1;
    }
    t.elapsed = started.elapsed();
    t
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}
