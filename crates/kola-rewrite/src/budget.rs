//! Resource governance for the rewrite engine.
//!
//! A production optimizer cannot afford an unbounded search: rule sets may
//! loop (every paper rule is an equivalence, so any forward/backward pair
//! ping-pongs), rules may blow a term up, and planning time is part of query
//! latency. A [`Budget`] makes every bound explicit — total rewrite steps,
//! traversal depth, intermediate term size, and an optional wall-clock
//! deadline — and a [`RewriteReport`] accounts for what actually happened:
//! how many steps ran, which rules fired or failed, which rules were
//! quarantined, and why the engine stopped.
//!
//! The governed drivers in [`crate::engine`] never panic and never return
//! nothing: on any abnormal stop they yield the best (smallest) query seen
//! so far together with the report — the same graceful degradation §4.2
//! claims for gradual rule sets, extended to resource exhaustion.

use kola::term::{Func, Pred, Query};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Explicit resource bounds for a rewrite run.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Maximum rule applications (derivation length).
    pub max_steps: usize,
    /// Maximum traversal depth when searching for a redex; deeper subterms
    /// are left untouched (and the report's `depth_clipped` flag is set).
    pub max_depth: usize,
    /// Maximum node count for any intermediate term; rule results larger
    /// than this are rejected and counted as failures of the rule.
    pub max_term_size: usize,
    /// Optional wall-clock cutoff.
    pub deadline: Option<Instant>,
    /// Quarantine a rule after this many failures (0 = first failure,
    /// `usize::MAX` = never).
    pub quarantine_after: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_steps: crate::engine::DEFAULT_FUEL,
            max_depth: 512,
            max_term_size: 1_000_000,
            deadline: None,
            quarantine_after: 3,
        }
    }
}

impl Budget {
    /// Default bounds with a specific step cap.
    pub fn with_steps(max_steps: usize) -> Self {
        Budget {
            max_steps,
            ..Budget::default()
        }
    }

    /// Set the step cap.
    pub fn steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Set the traversal-depth cap.
    pub fn depth(mut self, n: usize) -> Self {
        self.max_depth = n;
        self
    }

    /// Set the intermediate-term size cap.
    pub fn term_size(mut self, n: usize) -> Self {
        self.max_term_size = n;
        self
    }

    /// Set a wall-clock deadline `d` from now.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Set the per-rule failure tolerance before quarantine.
    pub fn quarantine_after(mut self, n: usize) -> Self {
        self.quarantine_after = n;
        self
    }

    /// True iff the deadline (if any) has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Structured failures of the rewrite machinery. The governed drivers
/// *contain* these (they surface in the [`RewriteReport`]); the `try_*`
/// APIs return them directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The step budget ran out before a normal form was reached.
    BudgetExhausted {
        /// Steps taken when the budget ran out.
        steps: usize,
    },
    /// The same term (by fingerprint) was produced twice — the rule set
    /// loops from here on.
    CycleDetected {
        /// Step index at which the repeat was detected.
        at_step: usize,
    },
    /// A term exceeded the configured size cap.
    TermTooLarge {
        /// Observed size.
        size: usize,
        /// Configured cap.
        limit: usize,
    },
    /// The traversal-depth cap was hit while searching for a redex.
    DepthExceeded {
        /// Configured cap.
        limit: usize,
    },
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// A rule misbehaved: its body mentioned a variable its head never
    /// bound, or a fault was injected against it.
    RuleFailed {
        /// Id of the failing rule.
        rule_id: String,
        /// Human-readable cause.
        detail: String,
    },
    /// A strategy referenced a rule id the catalog does not contain.
    UnknownRule {
        /// The unresolved reference (e.g. `"99"` or `"99-1"`).
        spec: String,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::BudgetExhausted { steps } => {
                write!(f, "step budget exhausted after {steps} steps")
            }
            RewriteError::CycleDetected { at_step } => {
                write!(f, "cycle detected at step {at_step}")
            }
            RewriteError::TermTooLarge { size, limit } => {
                write!(f, "term of size {size} exceeds cap {limit}")
            }
            RewriteError::DepthExceeded { limit } => {
                write!(f, "traversal depth cap {limit} exceeded")
            }
            RewriteError::DeadlineExpired => write!(f, "deadline expired"),
            RewriteError::RuleFailed { rule_id, detail } => {
                write!(f, "rule {rule_id} failed: {detail}")
            }
            RewriteError::UnknownRule { spec } => {
                write!(f, "unknown rule reference {spec:?}")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// Why a governed rewrite run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// No rule applies anywhere: a genuine normal form.
    #[default]
    NormalForm,
    /// The step budget ran out.
    BudgetExhausted,
    /// A term repeated; continuing would loop forever.
    CycleDetected,
    /// The input itself exceeded the size cap.
    TermTooLarge,
    /// The wall-clock deadline passed.
    DeadlineExpired,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::NormalForm => "normal form",
            StopReason::BudgetExhausted => "budget exhausted",
            StopReason::CycleDetected => "cycle detected",
            StopReason::TermTooLarge => "term too large",
            StopReason::DeadlineExpired => "deadline expired",
        };
        write!(f, "{s}")
    }
}

/// Per-rule accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Successful applications.
    pub fired: usize,
    /// Failures (unbound body variables, injected faults, oversize
    /// results).
    pub failed: usize,
    /// Derivation step of this rule's first contained failure, if any.
    pub first_failed_step: Option<usize>,
    /// Derivation step of this rule's most recent contained failure.
    pub last_failed_step: Option<usize>,
}

/// What a governed rewrite run did and why it stopped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteReport {
    /// Rule applications taken (equals the derivation length).
    pub steps: usize,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Fired/failed counts per rule id.
    pub rule_stats: BTreeMap<String, RuleStats>,
    /// Rules quarantined for repeated failures, in quarantine order.
    pub quarantined: Vec<String>,
    /// True iff the traversal-depth cap clipped the redex search anywhere.
    pub depth_clipped: bool,
    /// First few contained failures, as human-readable messages.
    pub failures: Vec<String>,
}

impl RewriteReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a successful application of `rule_id`.
    pub fn record_fire(&mut self, rule_id: &str) {
        // Look the entry up first: only a rule's first fire pays for the
        // owned key.
        match self.rule_stats.get_mut(rule_id) {
            Some(stats) => stats.fired += 1,
            None => {
                let stats = RuleStats {
                    fired: 1,
                    ..RuleStats::default()
                };
                self.rule_stats.insert(rule_id.to_string(), stats);
            }
        }
    }

    /// Record a contained failure of `rule_id` at derivation step
    /// `at_step`; quarantines the rule once its failure count reaches
    /// `quarantine_after`.
    pub fn record_failure(
        &mut self,
        rule_id: &str,
        err: &RewriteError,
        quarantine_after: usize,
        at_step: usize,
    ) {
        let stats = self.rule_stats.entry(rule_id.to_string()).or_default();
        stats.failed += 1;
        if stats.first_failed_step.is_none() {
            stats.first_failed_step = Some(at_step);
        }
        stats.last_failed_step = Some(at_step);
        if self.failures.len() < 8 {
            self.failures.push(err.to_string());
        }
        if quarantine_after != usize::MAX
            && stats.failed >= quarantine_after.max(1)
            && !self.is_quarantined(rule_id)
        {
            self.quarantined.push(rule_id.to_string());
        }
    }

    /// True iff `rule_id` is quarantined.
    pub fn is_quarantined(&self, rule_id: &str) -> bool {
        self.quarantined.iter().any(|q| q == rule_id)
    }

    /// Breaker/quarantine state observed in this run: one entry per
    /// quarantined rule, in quarantine order, with its trip count and the
    /// derivation steps of its first and last contained failures. Lets
    /// service metrics and tests observe breaker trips directly instead of
    /// inferring them from counters.
    pub fn quarantine_report(&self) -> QuarantineReport {
        QuarantineReport {
            entries: self
                .quarantined
                .iter()
                .map(|id| {
                    let s = self.rule_stats.get(id).copied().unwrap_or_default();
                    QuarantineEntry {
                        rule_id: id.clone(),
                        trips: s.failed,
                        first_failure: s.first_failed_step,
                        last_failure: s.last_failed_step,
                    }
                })
                .collect(),
        }
    }

    /// Total failures across all rules.
    pub fn total_failures(&self) -> usize {
        self.rule_stats.values().map(|s| s.failed).sum()
    }

    /// Fold another report into this one (used when a strategy runs several
    /// governed sub-derivations). Step counts and per-rule stats add up; the
    /// stop reason keeps the first abnormal one seen.
    pub fn merge(&mut self, other: &RewriteReport) {
        self.steps += other.steps;
        if self.stop == StopReason::NormalForm {
            self.stop = other.stop;
        }
        for (id, s) in &other.rule_stats {
            let e = self.rule_stats.entry(id.clone()).or_default();
            e.fired += s.fired;
            e.failed += s.failed;
            // `other`'s step indices are relative to its own sub-run; keep
            // a global ordering by offsetting with the steps already
            // accumulated here (added to self.steps above).
            let offset = self.steps - other.steps;
            if let Some(fs) = s.first_failed_step {
                let fs = fs + offset;
                if e.first_failed_step.is_none() {
                    e.first_failed_step = Some(fs);
                }
            }
            if let Some(ls) = s.last_failed_step {
                e.last_failed_step = Some(ls + offset);
            }
        }
        for q in &other.quarantined {
            if !self.is_quarantined(q) {
                self.quarantined.push(q.clone());
            }
        }
        self.depth_clipped |= other.depth_clipped;
        for m in &other.failures {
            if self.failures.len() < 8 {
                self.failures.push(m.clone());
            }
        }
    }
}

/// One quarantined rule's trip record (see
/// [`RewriteReport::quarantine_report`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Id of the quarantined rule.
    pub rule_id: String,
    /// How many contained failures tripped the breaker.
    pub trips: usize,
    /// Derivation step of the first contained failure.
    pub first_failure: Option<usize>,
    /// Derivation step of the most recent contained failure.
    pub last_failure: Option<usize>,
}

/// Quarantine state extracted from a run: the rules whose circuit breaker
/// tripped, with per-rule trip counts and failure steps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// One entry per quarantined rule, in quarantine order.
    pub entries: Vec<QuarantineEntry>,
}

impl QuarantineReport {
    /// True iff no rule is quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return write!(f, "no rules quarantined");
        }
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}×{}", e.rule_id, e.trips)?;
            if let (Some(a), Some(b)) = (e.first_failure, e.last_failure) {
                write!(f, " (steps {a}–{b})")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for RewriteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} steps, stopped: {}", self.steps, self.stop)?;
        if self.depth_clipped {
            write!(f, " (depth-clipped)")?;
        }
        if !self.quarantined.is_empty() {
            write!(f, "; quarantined: {}", self.quarantined.join(", "))?;
        }
        let fired: Vec<String> = self
            .rule_stats
            .iter()
            .filter(|(_, s)| s.fired > 0 || s.failed > 0)
            .map(|(id, s)| {
                if s.failed > 0 {
                    format!("{id}×{}({} failed)", s.fired, s.failed)
                } else {
                    format!("{id}×{}", s.fired)
                }
            })
            .collect();
        if !fired.is_empty() {
            write!(f, "; rules: {}", fired.join(" "))?;
        }
        Ok(())
    }
}

enum Node<'a> {
    Q(&'a Query),
    F(&'a Func),
    P(&'a Pred),
}

/// Size and order-sensitive structural fingerprint of a query, computed in
/// one explicit-stack preorder walk — safe on terms of any depth (the
/// derived `Hash`/`size` would recurse). The fingerprint is stable within a
/// process, which is all cycle detection needs.
pub fn measure_query(q: &Query) -> (usize, u64) {
    let mut h = DefaultHasher::new();
    let mut size = 0usize;
    let mut stack = vec![Node::Q(q)];
    while let Some(n) = stack.pop() {
        size += 1;
        match n {
            Node::Q(q) => {
                std::mem::discriminant(q).hash(&mut h);
                match q {
                    Query::Lit(v) => v.hash(&mut h),
                    Query::Extent(n) => n.hash(&mut h),
                    Query::App(f, inner) => {
                        stack.push(Node::Q(inner));
                        stack.push(Node::F(f));
                    }
                    Query::Test(p, inner) => {
                        stack.push(Node::Q(inner));
                        stack.push(Node::P(p));
                    }
                    Query::PairQ(a, b)
                    | Query::Union(a, b)
                    | Query::Intersect(a, b)
                    | Query::Diff(a, b) => {
                        stack.push(Node::Q(b));
                        stack.push(Node::Q(a));
                    }
                }
            }
            Node::F(f) => {
                std::mem::discriminant(f).hash(&mut h);
                match f {
                    Func::Id
                    | Func::Pi1
                    | Func::Pi2
                    | Func::Flat
                    | Func::Bagify
                    | Func::Dedup
                    | Func::BUnion
                    | Func::BFlat
                    | Func::SetUnion
                    | Func::SetIntersect
                    | Func::SetDiff => {}
                    Func::Prim(n) => n.hash(&mut h),
                    Func::Compose(a, b)
                    | Func::PairWith(a, b)
                    | Func::Times(a, b)
                    | Func::Nest(a, b)
                    | Func::Unnest(a, b) => {
                        stack.push(Node::F(b));
                        stack.push(Node::F(a));
                    }
                    Func::ConstF(q) => stack.push(Node::Q(q)),
                    Func::CurryF(g, q) => {
                        stack.push(Node::Q(q));
                        stack.push(Node::F(g));
                    }
                    Func::Cond(p, g, h2) => {
                        stack.push(Node::F(h2));
                        stack.push(Node::F(g));
                        stack.push(Node::P(p));
                    }
                    Func::Iterate(p, g)
                    | Func::Iter(p, g)
                    | Func::Join(p, g)
                    | Func::BIterate(p, g) => {
                        stack.push(Node::F(g));
                        stack.push(Node::P(p));
                    }
                }
            }
            Node::P(p) => {
                std::mem::discriminant(p).hash(&mut h);
                match p {
                    Pred::Eq | Pred::Lt | Pred::Leq | Pred::Gt | Pred::Geq | Pred::In => {}
                    Pred::PrimP(n) => n.hash(&mut h),
                    Pred::ConstP(b) => b.hash(&mut h),
                    Pred::Oplus(q, f) => {
                        stack.push(Node::F(f));
                        stack.push(Node::P(q));
                    }
                    Pred::And(a, b) | Pred::Or(a, b) => {
                        stack.push(Node::P(b));
                        stack.push(Node::P(a));
                    }
                    Pred::Not(q) | Pred::Conv(q) => stack.push(Node::P(q)),
                    Pred::CurryP(q, payload) => {
                        stack.push(Node::Q(payload));
                        stack.push(Node::P(q));
                    }
                }
            }
        }
    }
    (size, h.finish())
}

/// Structural query equality in one explicit-stack walk (the derived
/// `PartialEq` recurses and would overflow on pathological chains).
pub fn queries_equal(a: &Query, b: &Query) -> bool {
    let mut stack = vec![(Node::Q(a), Node::Q(b))];
    while let Some(pair) = stack.pop() {
        match pair {
            (Node::Q(a), Node::Q(b)) => {
                if std::mem::discriminant(a) != std::mem::discriminant(b) {
                    return false;
                }
                match (a, b) {
                    (Query::Lit(x), Query::Lit(y)) => {
                        if x != y {
                            return false;
                        }
                    }
                    (Query::Extent(x), Query::Extent(y)) => {
                        if x != y {
                            return false;
                        }
                    }
                    (Query::App(f, p), Query::App(g, q)) => {
                        stack.push((Node::Q(p), Node::Q(q)));
                        stack.push((Node::F(f), Node::F(g)));
                    }
                    (Query::Test(f, p), Query::Test(g, q)) => {
                        stack.push((Node::Q(p), Node::Q(q)));
                        stack.push((Node::P(f), Node::P(g)));
                    }
                    (Query::PairQ(x, y), Query::PairQ(u, v))
                    | (Query::Union(x, y), Query::Union(u, v))
                    | (Query::Intersect(x, y), Query::Intersect(u, v))
                    | (Query::Diff(x, y), Query::Diff(u, v)) => {
                        stack.push((Node::Q(y), Node::Q(v)));
                        stack.push((Node::Q(x), Node::Q(u)));
                    }
                    _ => unreachable!("same discriminant"),
                }
            }
            (Node::F(a), Node::F(b)) => {
                if std::mem::discriminant(a) != std::mem::discriminant(b) {
                    return false;
                }
                match (a, b) {
                    (Func::Prim(x), Func::Prim(y)) if x != y => {
                        return false;
                    }
                    (Func::Compose(x, y), Func::Compose(u, v))
                    | (Func::PairWith(x, y), Func::PairWith(u, v))
                    | (Func::Times(x, y), Func::Times(u, v))
                    | (Func::Nest(x, y), Func::Nest(u, v))
                    | (Func::Unnest(x, y), Func::Unnest(u, v)) => {
                        stack.push((Node::F(y), Node::F(v)));
                        stack.push((Node::F(x), Node::F(u)));
                    }
                    (Func::ConstF(x), Func::ConstF(y)) => {
                        stack.push((Node::Q(x), Node::Q(y)));
                    }
                    (Func::CurryF(f, x), Func::CurryF(g, y)) => {
                        stack.push((Node::Q(x), Node::Q(y)));
                        stack.push((Node::F(f), Node::F(g)));
                    }
                    (Func::Cond(p, f, g), Func::Cond(q, u, v)) => {
                        stack.push((Node::F(g), Node::F(v)));
                        stack.push((Node::F(f), Node::F(u)));
                        stack.push((Node::P(p), Node::P(q)));
                    }
                    (Func::Iterate(p, f), Func::Iterate(q, g))
                    | (Func::Iter(p, f), Func::Iter(q, g))
                    | (Func::Join(p, f), Func::Join(q, g))
                    | (Func::BIterate(p, f), Func::BIterate(q, g)) => {
                        stack.push((Node::F(f), Node::F(g)));
                        stack.push((Node::P(p), Node::P(q)));
                    }
                    _ => {}
                }
            }
            (Node::P(a), Node::P(b)) => {
                if std::mem::discriminant(a) != std::mem::discriminant(b) {
                    return false;
                }
                match (a, b) {
                    (Pred::PrimP(x), Pred::PrimP(y)) if x != y => {
                        return false;
                    }
                    (Pred::ConstP(x), Pred::ConstP(y)) if x != y => {
                        return false;
                    }
                    (Pred::Oplus(p, f), Pred::Oplus(q, g)) => {
                        stack.push((Node::F(f), Node::F(g)));
                        stack.push((Node::P(p), Node::P(q)));
                    }
                    (Pred::And(x, y), Pred::And(u, v)) | (Pred::Or(x, y), Pred::Or(u, v)) => {
                        stack.push((Node::P(y), Node::P(v)));
                        stack.push((Node::P(x), Node::P(u)));
                    }
                    (Pred::Not(x), Pred::Not(y)) | (Pred::Conv(x), Pred::Conv(y)) => {
                        stack.push((Node::P(x), Node::P(y)));
                    }
                    (Pred::CurryP(p, x), Pred::CurryP(q, y)) => {
                        stack.push((Node::Q(x), Node::Q(y)));
                        stack.push((Node::P(p), Node::P(q)));
                    }
                    _ => {}
                }
            }
            _ => return false,
        }
    }
    true
}

/// Collision-safe cycle detection for the boxed fixpoint driver.
///
/// Terms are bucketed by their 64-bit [`measure_query`] fingerprint, but a
/// fingerprint hit alone never declares a cycle: the candidate is compared
/// *structurally* against every resident of the bucket first, so two distinct
/// terms that happen to collide are kept apart. (The interned engine gets
/// this for free — hash-consing makes pointer identity exact — but the boxed
/// driver stores owned snapshots.)
#[derive(Debug, Default)]
pub struct CycleDetector {
    buckets: std::collections::HashMap<u64, Vec<Query>>,
}

impl CycleDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns true iff a term structurally equal to `q` was already seen;
    /// otherwise records `q` (under the caller-computed fingerprint `fp`)
    /// and returns false.
    pub fn seen(&mut self, fp: u64, q: &Query) -> bool {
        let bucket = self.buckets.entry(fp).or_default();
        if bucket.iter().any(|r| queries_equal(r, q)) {
            return true;
        }
        bucket.push(q.clone());
        false
    }

    /// Number of distinct terms recorded.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// True iff nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::parse::parse_query;

    #[test]
    fn measure_agrees_with_recursive_size() {
        for src in [
            "age ! P",
            "iterate(Kp(T), city . addr) ! P",
            "iterate(gt @ (age, Kf(25)), (id, child)) ! (P union Q)",
        ] {
            let q = parse_query(src).unwrap();
            let (size, _) = measure_query(&q);
            assert_eq!(size, q.size(), "{src}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_and_reproduces() {
        let a = parse_query("iterate(Kp(T), city) ! P").unwrap();
        let b = parse_query("iterate(Kp(T), addr) ! P").unwrap();
        assert_ne!(measure_query(&a).1, measure_query(&b).1);
        assert_eq!(measure_query(&a).1, measure_query(&a.clone()).1);
    }

    #[test]
    fn measure_handles_deep_terms() {
        // A compose chain deep enough to break recursive traversals.
        let mut f = kola::term::Func::Prim(std::sync::Arc::from("age"));
        for _ in 0..10_000 {
            f = kola::term::Func::Compose(Box::new(kola::term::Func::Id), Box::new(f));
        }
        let q = Query::App(f, Box::new(Query::Extent(std::sync::Arc::from("P"))));
        let (size, _) = measure_query(&q);
        assert_eq!(size, 20_003);
    }

    #[test]
    fn forced_fingerprint_collision_does_not_conflate() {
        // Two structurally distinct queries filed under the SAME (forced)
        // fingerprint: the detector must keep them apart and only report a
        // cycle when a structurally equal term really repeats.
        let a = parse_query("age ! P").unwrap();
        let b = parse_query("city ! P").unwrap();
        let mut d = CycleDetector::new();
        assert!(!d.seen(42, &a));
        assert!(!d.seen(42, &b), "collision conflated two distinct terms");
        assert_eq!(d.len(), 2);
        assert!(d.seen(42, &a));
        assert!(d.seen(42, &b));
    }

    #[test]
    fn queries_equal_is_structural_and_stack_safe() {
        let mk = |leaf: &str| {
            let mut f = kola::term::Func::Prim(std::sync::Arc::from(leaf));
            for _ in 0..10_000 {
                f = kola::term::Func::Compose(Box::new(kola::term::Func::Id), Box::new(f));
            }
            Query::App(f, Box::new(Query::Extent(std::sync::Arc::from("P"))))
        };
        let (a, a2, b) = (mk("age"), mk("age"), mk("city"));
        assert!(queries_equal(&a, &a2));
        assert!(!queries_equal(&a, &b));
    }

    #[test]
    fn quarantine_after_n_failures() {
        let mut r = RewriteReport::new();
        let err = RewriteError::RuleFailed {
            rule_id: "x".into(),
            detail: "injected".into(),
        };
        r.record_failure("x", &err, 3, 0);
        r.record_failure("x", &err, 3, 4);
        assert!(!r.is_quarantined("x"));
        r.record_failure("x", &err, 3, 9);
        assert!(r.is_quarantined("x"));
        let qr = r.quarantine_report();
        assert_eq!(qr.entries.len(), 1);
        assert_eq!(qr.entries[0].rule_id, "x");
        assert_eq!(qr.entries[0].trips, 3);
        assert_eq!(qr.entries[0].first_failure, Some(0));
        assert_eq!(qr.entries[0].last_failure, Some(9));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RewriteReport::new();
        a.record_fire("11");
        a.steps = 1;
        let mut b = RewriteReport::new();
        b.record_fire("11");
        b.steps = 2;
        b.stop = StopReason::BudgetExhausted;
        a.merge(&b);
        assert_eq!(a.steps, 3);
        assert_eq!(a.rule_stats["11"].fired, 2);
        assert_eq!(a.stop, StopReason::BudgetExhausted);
    }

    #[test]
    fn budget_builder() {
        let b = Budget::with_steps(5)
            .depth(32)
            .term_size(100)
            .quarantine_after(1);
        assert_eq!(b.max_steps, 5);
        assert_eq!(b.max_depth, 32);
        assert_eq!(b.max_term_size, 100);
        assert_eq!(b.quarantine_after, 1);
        assert!(!b.expired());
        let expired = Budget::default().timeout(Duration::from_secs(0));
        assert!(expired.expired());
    }
}
