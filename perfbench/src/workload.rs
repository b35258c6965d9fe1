//! The three workloads: service configuration and seeded request
//! sequences.
//!
//! Every sequence is a pure function of `(workload, seed)`. The template
//! mix is stratified: each template (and each structural variant of one)
//! fills a fixed share of the sequence, the shapes of the queries are the
//! same for every seed, and the seed chooses the constants in them, their
//! order and, on `churn`, the pool reads and the fault order ([`Gen`]).
//! Per-request averages therefore differ little from seed to seed. The
//! generators emit only well-typed queries over the paper schema; the
//! oracle treats an input that fails to parse or evaluate as a generator
//! bug.

use kola_exec::Rng;
use kola_rewrite::{EngineConfig, FaultKind, FaultPlan, FaultSpec, StepSelector};
use kola_service::{Payload, Request, RequestOptions, Rung, ServiceConfig};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Service worker threads: one, and one closed-loop client, so that the
/// order of every allocation, breaker charge and cache write is fixed by
/// the request sequence alone.
pub const WORKERS: usize = 1;
/// Step cap each `saturate` request carries. Saturation rounds have no
/// budget of their own, and the nested-select template jumps from ~10 ms at
/// 200 steps to seconds at 250 (see NOTES.md), so the cap stays well below.
pub const SATURATE_MAX_STEPS: usize = 100;
/// Distinct queries `fresh` walks in a cycle: twice the default plan-cache
/// capacity (2048), so a query has always been evicted when it comes round.
pub const FRESH_CYCLE: usize = 4096;
/// Distinct queries in the `saturate` cycle, each counted once.
pub const SATURATE_CYCLE: usize = 384;
/// Requests served on a `saturate` fleet before counting starts: the first
/// request builds the worker's engine and rule index.
pub const SATURATE_WARMUP: usize = 8;
/// Distinct queries in the `churn` pool, prewarmed into the plan cache.
pub const POOL_SIZE: usize = 512;
/// Counted requests on `churn`.
pub const CHURN_REQUESTS: usize = 16384;
/// Distinct id towers the `churn` transient and forced failures walk.
pub const FAULT_CYCLE: usize = 256;
/// Distinct id towers the `churn` poison-rule panics walk: heights 2..=9,
/// four tails each.
pub const POISON_CYCLE: usize = 32;
/// On `churn`, the harness resets every open breaker before each request
/// whose index is a multiple of this: the period the chaos soak
/// (`kola_service::chaos::run_chaos`) resets breakers at.
pub const RESET_EVERY: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct queries on the fast fleet: parse, cache miss, insert and
    /// eviction, queue handoff, fast engine.
    Fresh,
    /// OQL-heavy distinct queries on a saturating fleet: plan quality.
    Saturate,
    /// Pool reads beside injected faults: cache reads against
    /// invalidation, ladder, breaker, trace ring.
    Churn,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 3] = [Workload::Fresh, Workload::Saturate, Workload::Churn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fresh => "fresh",
            Workload::Saturate => "saturate",
            Workload::Churn => "churn",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: one line, for the manifest.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fresh => "fast fleet, plan cache on, a cycle of distinct queries twice the cache: every request pays parse, miss, insert, eviction and the fast engine",
            Workload::Saturate => "saturating fleet, cache off, OQL-heavy distinct queries capped at 100 steps: plan quality and saturation cost, where parse and service costs barely show",
            Workload::Churn => "fast fleet, cache and tracing on: Zipf reads of a prewarmed pool beside transient, forced and poison-rule faults and operator resets keyed to the request index",
        }
    }

    /// The fleet this workload is served by.
    pub fn service_config(self) -> ServiceConfig {
        let mut cfg = ServiceConfig {
            workers: WORKERS,
            ..ServiceConfig::default()
        };
        match self {
            Workload::Fresh => {}
            Workload::Saturate => {
                cfg.engine = EngineConfig::saturating();
                cfg.cache_capacity = 0;
            }
            Workload::Churn => cfg.tracing = true,
        }
        cfg
    }

    /// Options of a clean request of this workload. No deadline anywhere,
    /// and no retry backoff: nothing in a counted window waits on a timer.
    pub fn clean_options(self) -> RequestOptions {
        let mut o = RequestOptions {
            backoff: Duration::ZERO,
            ..RequestOptions::default()
        };
        if self == Workload::Saturate {
            o.max_steps = SATURATE_MAX_STEPS;
        }
        o
    }

    /// Whether the fleet runs the saturating engine.
    pub fn saturating(self) -> bool {
        self == Workload::Saturate
    }

    /// Whether the traced run reconciles the service's allocations with the
    /// layer pass: on every workload whose requests all reach the engine
    /// unfaulted, so the layer pass can mirror them.
    pub fn reconciles(self) -> bool {
        self != Workload::Churn
    }

    /// Whether the harness resets open breakers before request `index`.
    pub fn resets_before(self, index: usize) -> bool {
        self == Workload::Churn && index > 0 && index.is_multiple_of(RESET_EVERY)
    }

    /// The request sequence for `seed`.
    pub fn sequence(self, seed: u64) -> Sequence {
        let mut g = Gen::new(self, seed);
        match self {
            Workload::Fresh => {
                let mut cycle = stratified(&mut g, FRESH_CYCLE, fresh_query);
                shuffle(&mut g.value, &mut cycle);
                let cycle = clean(self, cycle);
                Sequence {
                    warmup: cycle.clone(),
                    counted: cycle,
                }
            }
            Workload::Saturate => {
                let mut cycle = stratified(&mut g, SATURATE_CYCLE - 1, saturate_query);
                // T1K exactly as Figure 4 prints it: its saturated plan
                // executes worse than its input under `TermSize`.
                cycle.push((
                    "figure4",
                    Arc::from("iterate(Kp(T), city) . iterate(Kp(T), addr) ! P"),
                ));
                shuffle(&mut g.value, &mut cycle);
                let cycle = clean(self, cycle);
                Sequence {
                    warmup: cycle[..SATURATE_WARMUP].to_vec(),
                    counted: cycle,
                }
            }
            Workload::Churn => churn_sequence(&mut g),
        }
    }
}

/// One generated request: its text (the oracle's key), options and kind.
#[derive(Debug, Clone)]
pub struct Draw {
    /// Query text as submitted.
    pub text: Arc<str>,
    /// Request options as submitted.
    pub options: RequestOptions,
    /// The template (`fresh`, `saturate`) or request kind (`churn`) the
    /// draw comes from, for the traced run's allocation breakdown.
    pub kind: &'static str,
}

impl Draw {
    /// The service request for this draw.
    pub fn request(&self) -> Request {
        Request {
            payload: Payload::Text(self.text.to_string()),
            options: self.options.clone(),
            tenant: None,
        }
    }
}

/// A workload's requests for one seed.
#[derive(Debug, Clone)]
pub struct Sequence {
    /// Served before counting starts: the `fresh` cycle's first walk, the
    /// `saturate` engine warm-up, the `churn` pool prewarm.
    pub warmup: Vec<Draw>,
    /// The counted requests, in order.
    pub counted: Vec<Draw>,
}

fn clean(w: Workload, texts: Vec<Text>) -> Vec<Draw> {
    texts
        .into_iter()
        .map(|(kind, text)| Draw {
            text,
            options: w.clean_options(),
            kind,
        })
        .collect()
}

fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A generated query text with the template it comes from.
type Text = (&'static str, Arc<str>);
/// A text as a template function emits it, with the template's name.
type Emitted = (&'static str, String);

/// `n` distinct texts, in order: text `k` comes from `gen(g, k)`, which
/// picks the template and variant from `k`.
fn stratified(g: &mut Gen, n: usize, gen: fn(&mut Gen, usize) -> Emitted) -> Vec<Text> {
    let mut seen = HashSet::new();
    let mut texts = Vec::with_capacity(n);
    for k in 0..n {
        // On a repeat, redraw the constants of the same shape, so that the
        // shapes stay the same for every seed. A shape without constants
        // cannot be redrawn that way; after 16 tries the next shape is
        // drawn. Each try starts from the same shape state, so how far the
        // shape stream moves does not depend on which constants collided.
        let text = loop {
            let shape = g.shape.clone();
            let unique = (0..16).find_map(|_| {
                g.shape = shape.clone();
                let (kind, t) = gen(g, k);
                seen.insert(t.clone()).then(|| (kind, Arc::from(t)))
            });
            if let Some(text) = unique {
                break text;
            }
        };
        texts.push(text);
    }
    texts
}

/// A pool of distinct queries with Zipf(1) rank weights.
struct Pool {
    texts: Vec<Text>,
    cumulative: Vec<u64>,
}

impl Pool {
    /// The pool in rank order, so that each rank has the same shape for
    /// every seed.
    fn new(g: &mut Gen) -> Pool {
        let texts = stratified(g, POOL_SIZE, fresh_query);
        let mut acc = 0u64;
        let cumulative = (0..POOL_SIZE as u64)
            .map(|r| {
                acc += 1_000_000 / (r + 1);
                acc
            })
            .collect();
        Pool { texts, cumulative }
    }

    /// The text at quantile `u` in `[0, 1)` of the rank distribution.
    fn draw(&self, u: f64) -> Arc<str> {
        let total = *self.cumulative.last().expect("pool is non-empty");
        let x = (u * total as f64) as u64;
        let rank = self.cumulative.partition_point(|&c| c <= x);
        Arc::clone(&self.texts[rank].1)
    }
}

/// What one `churn` request is, by its slot in a block of [`CHURN_BLOCK`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Churn {
    Read,
    Transient,
    Forced,
    Poison,
}

impl Churn {
    fn name(self) -> &'static str {
        match self {
            Churn::Read => "read",
            Churn::Transient => "transient",
            Churn::Forced => "forced",
            Churn::Poison => "poison",
        }
    }
}

/// `churn` kinds come in shuffled blocks of 250, the order within blocks
/// the same for every seed. The shares come from the service's own traffic
/// models in `kola_service::chaos`. Reads are 90%, the hit rate
/// `RepeatedConfig` sets for the repeated traffic the plan cache exists for
/// (a unit test below pins the two together). The other 10% split as the
/// chaos soak's stream splits its faults: rung faults 10 in 100 of its
/// requests, 7 in 10 of them transient and the rest forced, and poison
/// rules 15 in 100. That gives 7 transient, 3 forced and 15 poison per 250.
const CHURN_BLOCK: [(Churn, usize); 4] = [
    (Churn::Read, 225),
    (Churn::Transient, 7),
    (Churn::Forced, 3),
    (Churn::Poison, 15),
];

fn churn_sequence(g: &mut Gen) -> Sequence {
    let pool = Pool::new(g);
    // Poisoned requests walk towers of their own, without constants: a
    // poisoned tower whose subterms the fast engine had memoized replays
    // them without firing the poisoned rule, and with seeded constants in
    // the poisoned towers, breaker trips (each invalidating every pooled
    // plan) moved by a tenth between seeds.
    let poisoned = (0..POISON_CYCLE)
        .map(|k| {
            let tail = ["age", "name", "zip . addr", "city . addr"][k % 4];
            Arc::from(format!(
                "iterate(Kp(T), {}{tail}) ! P",
                "id . ".repeat(2 + k / 4)
            ))
        })
        .collect();
    let towers: [Vec<Arc<str>>; 2] = [
        stratified(g, FAULT_CYCLE, |g, k| ("tower", tower(g, 2 + k % 8)))
            .into_iter()
            .map(|(_, text)| text)
            .collect(),
        poisoned,
    ];
    // Reads walk the rank distribution by a golden-ratio sequence: each
    // rank is read almost exactly as often as Zipf(1) says, in an order
    // that is the same for every seed. With a seeded order, which pooled
    // plans a breaker trip invalidates just before they are read, and so
    // which ones the engine recomputes and memoizes, moved the counts by
    // up to 3% between seeds.
    let mut u = 0.0;
    let block: Vec<Churn> = CHURN_BLOCK
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    let clean_options = Workload::Churn.clean_options();
    let mut kinds = Vec::new();
    let mut counted = Vec::with_capacity(CHURN_REQUESTS);
    let mut next_tower = [0, 0];
    let mut poisons = 0usize;
    for _ in 0..CHURN_REQUESTS {
        if kinds.is_empty() {
            kinds = block.clone();
            shuffle(&mut g.shape, &mut kinds);
        }
        let kind = kinds.pop().expect("refilled above");
        if kind == Churn::Read {
            u = (u + 0.618_033_988_749_895) % 1.0;
            counted.push(Draw {
                text: pool.draw(u),
                options: clean_options.clone(),
                kind: kind.name(),
            });
            continue;
        }
        let mut options = clean_options.clone();
        let cycle = usize::from(kind == Churn::Poison);
        match kind {
            Churn::Transient => options.transient_fail = vec![Rung::Fast],
            Churn::Forced => options.force_fail = vec![Rung::Fast],
            _ => {
                // Rules 1 and 2 (identity elimination) fire on id towers,
                // so the poison triggers.
                let at = match (poisons / 2) % 3 {
                    0 => StepSelector::Always,
                    1 => StepSelector::Steps(vec![0, 1]),
                    _ => StepSelector::EveryNth(2),
                };
                options.faults = FaultPlan::new().with(FaultSpec {
                    rule_id: if poisons.is_multiple_of(2) { "1" } else { "2" }.to_string(),
                    at,
                    kind: FaultKind::Panic,
                });
                poisons += 1;
            }
        }
        let at = &mut next_tower[cycle];
        counted.push(Draw {
            text: Arc::clone(&towers[cycle][*at]),
            options,
            kind: kind.name(),
        });
        *at = (*at + 1) % towers[cycle].len();
    }
    Sequence {
        warmup: clean(Workload::Churn, pool.texts),
        counted,
    }
}

/// The two random streams a generator draws from: `shape` picks every
/// structural choice (template variant, projection, operator, predicate
/// form, tower tail) and is the same for every seed; `value` picks the
/// constants (ages, years) and comes from the seed. Two seeds thus give
/// queries of the same shapes with different constants, and per-request
/// counts differ between seeds only by what the constants and the order
/// change.
struct Gen {
    shape: Rng,
    value: Rng,
}

impl Gen {
    fn new(workload: Workload, seed: u64) -> Gen {
        Gen {
            shape: Rng::seed_from_u64(0x5348_4150_4500 ^ workload as u64),
            value: Rng::seed_from_u64(seed ^ 0x6b6f_6c61_0000 ^ workload as u64),
        }
    }

    /// A person-age threshold inside the generated data's 1..=90 range.
    fn age(&mut self) -> u32 {
        self.value.gen_range(1..91u32)
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.shape.gen_range(0..xs.len())]
    }

    /// One OQL comparison on person variable `v`.
    fn person_atom(&mut self, v: &str) -> String {
        let op = self.pick(&[">", "<", ">=", "<=", "not"]);
        let a = self.age();
        match op {
            "not" => format!("not {v}.age > {a}"),
            op => format!("{v}.age {op} {a}"),
        }
    }

    /// One comparison on `v`, or two conjoined when `two`.
    fn person_where(&mut self, v: &str, two: bool) -> String {
        let first = self.person_atom(v);
        if two {
            format!("{first} and {}", self.person_atom(v))
        } else {
            first
        }
    }

    /// A KOLA filter predicate on persons.
    fn kola_pred(&mut self) -> String {
        if self.shape.gen_range(0..5u32) == 0 {
            "Kp(T)".to_string()
        } else {
            let op = self.pick(&["lt", "gt", "leq", "geq"]);
            format!("Cp({op}, {}) @ age", self.age())
        }
    }
}

/// The select/where family, variant `k`: flat selections (2 in 5),
/// vehicle ranges (1 in 5) and nested selections (2 in 5) whose inner
/// filter, if any, is on the inner or the outer variable. One nested
/// selection in four is unfiltered — the template whose saturation cost
/// jumps past 200 steps — and half of the others carry an outer filter.
fn oql_select(g: &mut Gen, k: usize) -> String {
    match k % 5 {
        0 | 1 => {
            let proj = g.pick(&[
                "p.age",
                "p.name",
                "p.addr.city",
                "p.addr.zip",
                "p",
                "[p, p.age]",
                "[p.name, p.addr.city]",
            ]);
            let two = (k / 5) % 2 == 1;
            format!(
                "select {proj} from p in P where {}",
                g.person_where("p", two)
            )
        }
        2 => {
            let proj = g.pick(&["v.make", "v.year", "v"]);
            let (y1, y2) = (
                1979 + g.value.gen_range(1..41u32),
                1979 + g.value.gen_range(1..41u32),
            );
            format!("select {proj} from v in V where v.year > {y1} and v.year <= {y2}")
        }
        v => {
            let inner = g.pick(&["c.age", "c", "c.name"]);
            let on = if v == 3 { "c" } else { "p" };
            let unfiltered = (k / 5).is_multiple_of(4);
            let filter = if unfiltered {
                String::new()
            } else {
                format!(" where {}", g.person_where(on, (k / 5) % 4 == 3))
            };
            let mut q =
                format!("select [p, (select {inner} from c in p.child{filter})] from p in P");
            // An unfiltered one always has an outer filter: without it the
            // template has only three distinct texts.
            if unfiltered || (k / 20) % 2 == 1 {
                let _ = write!(q, " where {}", g.person_atom("p"));
            }
            q
        }
    }
}

/// Figure 3's garage query, with a person filter so the text varies.
fn garage(g: &mut Gen, k: usize) -> String {
    format!(
        "select [v, flatten(select p.grgs from p in P where v in p.cars and {})] from v in V",
        g.person_where("p", k % 2 == 1)
    )
}

/// `iterate(pred, id . … . tail) ! P` with `height` identities.
fn tower(g: &mut Gen, height: usize) -> String {
    let mut s = format!("iterate({}, ", g.kola_pred());
    for _ in 0..height {
        s.push_str("id . ");
    }
    s.push_str(g.pick(&["age", "name", "zip . addr", "city . addr"]));
    s.push_str(") ! P");
    s
}

/// The Figure 4 shapes, variant `k`: T1K's iterate cascade or T2K's
/// decomposable filter, each behind zero or one extra filter stage.
fn figure4(g: &mut Gen, k: usize) -> String {
    let stage = if (k / 2) % 2 == 1 {
        format!(" . iterate({}, id)", g.kola_pred())
    } else {
        String::new()
    };
    if k.is_multiple_of(2) {
        let f = g.pick(&["addr city", "addr zip", "id age", "id name"]);
        let (g_, f) = f.split_once(' ').expect("two words");
        format!(
            "iterate(Kp(T), {f}) . iterate({}, {g_}){stage} ! P",
            g.kola_pred()
        )
    } else {
        let tail = g.pick(&["age", "name", "zip . addr", "city . addr"]);
        let op = g.pick(&["gt", "lt", "geq", "leq"]);
        format!(
            "iterate(Kp(T), {tail}) . iterate({op} @ (age, Kf({})), id){stage} ! P",
            g.age()
        )
    }
}

/// The `fresh` mix, by slot `k` in blocks of 20: 8 select/where (40%), 1
/// garage (5%), 7 towers (35%) of heights 1..=64 in turn, 4 Figure 4 shapes
/// (20%).
fn fresh_query(g: &mut Gen, k: usize) -> Emitted {
    let (block, slot) = (k / 20, k % 20);
    match slot {
        0..=7 => ("select", oql_select(g, block * 8 + slot)),
        8 => ("garage", garage(g, block)),
        9..=15 => ("tower", tower(g, 1 + (block * 7 + slot - 9) % 64)),
        _ => ("figure4", figure4(g, block * 4 + slot - 16)),
    }
}

/// The `saturate` mix, by slot `k` in blocks of 20: 11 select/where (55%),
/// 3 garage (15%), 4 Figure 4 shapes (20%), 2 towers of height 1..=8 (10%).
fn saturate_query(g: &mut Gen, k: usize) -> Emitted {
    let (block, slot) = (k / 20, k % 20);
    match slot {
        0..=10 => ("select", oql_select(g, block * 11 + slot)),
        11..=13 => ("garage", garage(g, block * 3 + slot - 11)),
        14..=17 => ("figure4", figure4(g, block * 4 + slot - 14)),
        _ => ("tower", tower(g, 1 + (block * 2 + slot - 18) % 8)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let texts = |s: &Sequence| -> Vec<Arc<str>> {
                s.counted.iter().map(|d| Arc::clone(&d.text)).collect()
            };
            let (a, b, c) = (w.sequence(7), w.sequence(7), w.sequence(8));
            assert_eq!(texts(&a), texts(&b), "{w:?}");
            assert_ne!(texts(&a), texts(&c), "{w:?}");
        }
    }

    #[test]
    fn kinds_are_the_same_for_every_seed() {
        for w in Workload::ALL {
            let kinds = |seed| -> Vec<&'static str> {
                w.sequence(seed).counted.iter().map(|d| d.kind).collect()
            };
            let (mut a, mut b) = (kinds(7), kinds(8));
            // On `churn` the order is fixed too; elsewhere the seed shuffles.
            if w != Workload::Churn {
                a.sort_unstable();
                b.sort_unstable();
            }
            assert_eq!(a, b, "{w:?}");
        }
    }

    #[test]
    fn churn_reads_hit_at_the_repeated_traffic_rate() {
        let block: usize = CHURN_BLOCK.iter().map(|&(_, n)| n).sum();
        let reads = CHURN_BLOCK[0].1 as f64 / block as f64;
        assert_eq!(CHURN_BLOCK[0].0, Churn::Read);
        assert_eq!(
            reads,
            kola_service::chaos::RepeatedConfig::default().hit_target
        );
    }

    #[test]
    fn fresh_cycle_is_distinct_and_longer_than_the_cache() {
        let s = Workload::Fresh.sequence(3);
        let distinct: HashSet<_> = s.counted.iter().map(|d| &d.text).collect();
        assert_eq!(distinct.len(), FRESH_CYCLE);
        assert!(FRESH_CYCLE > ServiceConfig::default().cache_capacity);
    }
}
