//! The performance stack over the rewrite engine: hash-consed terms,
//! discrimination-tree rule dispatch, normal-subtree skipping, and a
//! memoized normalization cache — all behind an [`EngineConfig`] so the
//! boxed engine remains available as the differential-testing oracle.
//!
//! ## Exactness contract
//!
//! [`Engine::normalize_with`] is a drop-in replacement for
//! [`crate::engine::rewrite_fix_with`]: same redex choice
//! (leftmost-outermost, first matching rule in list order), same budgets,
//! same fault injection, same quarantine behavior, same report and trace
//! (the trace only when [`EngineConfig::trace`] is on — turning it off
//! changes nothing but leaves `Rewritten::trace` empty).
//! Every layer preserves this:
//!
//! * **Interning** maps terms into the hash-cons arena of
//!   [`kola::intern`]; equality and cycle detection become pointer
//!   identity, size/depth checks read cached fields, and rule application
//!   ([`crate::imatch`]) shares every bound subterm. The input is interned
//!   right-normalized in one walk
//!   ([`Interner::intern_query_normalized`]), and the
//!   [`crate::imatch::icompose`] invariant keeps every constructed term
//!   right-normalized, so no whole-term `normalize()` pass is needed.
//! * **Indexing** walks the interned node through the discrimination tree
//!   ([`RuleIndex`]), returning candidates in ascending rule position, so
//!   the candidate scan tries the same rules in the same order, minus ones
//!   whose pattern skeleton already rules them out.
//! * **Normal-subtree marking** skips subtrees proven redex-free under the
//!   *full* rule set. Marks are only committed for fully scanned subtrees
//!   (no depth clip inside), in steps with no rule failures and no active
//!   quarantine — normality under the full set implies normality under any
//!   quarantined subset, so a skip can never hide a redex the boxed engine
//!   would have found.
//! * **Memoization** replays a previous *clean* derivation (normal-form
//!   stop, zero failures, no depth clip, no faults, no deadline) when the
//!   same input term recurs and the stored run fits inside the current
//!   budget; otherwise it falls through to a live run.
//!
//! ## Long-lived engines
//!
//! An [`Engine`] is built to be *kept*: a service worker owns one for its
//! whole lifetime and the arena, marks, and memo amortize across requests.
//! Two APIs make that safe. [`Engine::set_epoch`] scopes the caches to a
//! rule-set snapshot (breaker trips/resets swap epochs; marks and memo
//! entries never cross one), masking disabled rules out of the candidate
//! scan without rebuilding the index. [`EngineConfig::arena_capacity`]
//! bounds arena growth: between runs, an over-cap arena is dropped wholesale
//! together with every address-keyed cache ([`Engine::reset_caches`]), so a
//! poison request costs one cold start, not permanent bloat.

use crate::budget::{Budget, RewriteError, RewriteReport, StopReason};
use crate::dtree::{RuleIndex, WalkStack};
use crate::engine::{rewrite_fix_with, Gov, Oriented, Rewritten, Step, Trace};
use crate::extract::{CostModel, TermSize};
use crate::fault::{FaultKind, FaultPlan};
use crate::imatch::{
    icompose, ipreconditions_hold, itry_apply_func, itry_apply_pred, itry_apply_query, IScratch,
};
use crate::props::PropDb;
use crate::saturate::{saturate_from_trajectory, SaturationParams};
use kola::intern::{ITerm, Interner, PayloadRef, Tag};
use kola::term::Query;
use std::collections::{HashMap, HashSet};

/// Which engine [`Engine::normalize_with`] runs. The layers are cumulative
/// — each mode adds one to the one before — so every mode is a
/// configuration that actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// The boxed reference engine: [`Engine::normalize_with`] is
    /// [`rewrite_fix_with`], and the memo and arena settings are unused.
    Reference,
    /// Hash-consed terms with a linear scan of the rule list at each node.
    Scan,
    /// Hash-consed terms with discrimination-tree dispatch ([`RuleIndex`]).
    Indexed,
    /// Equality saturation: after the ordinary destructive fixpoint run
    /// (the *seed wave*, dispatched through the tree), apply the catalog
    /// non-destructively over an e-graph to saturation and return the
    /// cheapest equivalent plan under the engine's [`CostModel`]
    /// ([`Engine::set_cost_model`]). Never worse than the fixpoint output
    /// under the extraction model — the wave is unioned into the root class
    /// before saturating. A request with injected faults stays on the
    /// destructive wave: fault semantics are defined step by step against
    /// that engine.
    Saturating,
}

/// How an [`Engine`] runs. The default is the full fixpoint stack
/// ([`EngineConfig::fast`]); [`EngineConfig::naive`] delegates to the boxed
/// engine so differential tests can compare the two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Which engine runs.
    pub mode: EngineMode,
    /// Bounded LRU capacity of the normalization memo, which caches clean
    /// normalizations for replay; `0` turns the memo off.
    pub memo_capacity: usize,
    /// Arena compaction threshold in live nodes (`0` = unbounded). A
    /// long-lived engine checks this *between* runs: when a finished run
    /// has left more interned nodes than the cap, the memo, the
    /// normal-subtree marks, and the arena are all dropped before the next
    /// run starts, so one adversarially large request cannot bloat a
    /// persistent worker engine forever.
    pub arena_capacity: usize,
    /// Record the per-step derivation [`Trace`] (each step reifies the
    /// whole after-term back into a boxed [`Query`], an O(term) allocation
    /// per step). `true` preserves the historical drop-in contract with
    /// [`rewrite_fix_with`]; a service that does not need provenance turns
    /// it off ([`Engine::set_trace`]). The hot loop then allocates only the
    /// nodes the interner constructs; per run, the input walk's stacks, the
    /// report's entries and the boxed plan returned come on top. Measured
    /// on the `fresh` benchmark workload (seed 1): 95 allocations per
    /// request over 8.6 steps, about 11 per step, of which 18 nodes are
    /// constructed (two allocations each when they have kids). The
    /// [`RewriteReport`] (rule stats, stop reason, failures) is kept
    /// either way.
    pub trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::fast()
    }
}

impl EngineConfig {
    fn unmemoized(mode: EngineMode) -> Self {
        EngineConfig {
            mode,
            memo_capacity: 0,
            arena_capacity: 0,
            trace: true,
        }
    }

    /// The boxed reference engine — no interning, no index, no memo.
    pub fn naive() -> Self {
        EngineConfig::unmemoized(EngineMode::Reference)
    }

    /// Interned terms only (linear rule scan, no memo).
    pub fn interned_only() -> Self {
        EngineConfig::unmemoized(EngineMode::Scan)
    }

    /// Interned terms + discrimination-tree rule index, no memo.
    pub fn indexed() -> Self {
        EngineConfig::unmemoized(EngineMode::Indexed)
    }

    /// The full stack: interned + tree-indexed + memoized.
    pub fn fast() -> Self {
        EngineConfig {
            mode: EngineMode::Indexed,
            memo_capacity: 1024,
            arena_capacity: 1 << 16,
            trace: true,
        }
    }

    /// Equality-saturation mode: interned + tree-indexed, destructive wave
    /// then non-destructive saturation + cost-based extraction. No memo —
    /// the output depends on the cost model, not only on the input term,
    /// and the normalization memo stores fixpoint derivations.
    pub fn saturating() -> Self {
        EngineConfig {
            arena_capacity: 1 << 16,
            ..EngineConfig::unmemoized(EngineMode::Saturating)
        }
    }
}

/// A cached clean derivation: every step (for trace/report replay), the
/// normal form, and the resource high-water marks that decide whether the
/// run fits a later budget.
#[derive(Debug)]
struct MemoEntry {
    result: ITerm,
    steps: usize,
    /// `(rule position, term after the step)` per step.
    derivation: Box<[(usize, ITerm)]>,
    max_size: usize,
    max_depth: usize,
    stamp: u64,
    /// Rule-set epoch the derivation was recorded under (see
    /// [`Engine::set_epoch`]): a derivation is only replayable under the
    /// exact rule set that produced it.
    epoch: u64,
}

/// Bounded LRU keyed by interned-node identity. Eviction is a linear scan
/// for the oldest stamp — capacities are small and eviction rare, so the
/// simplicity beats a doubly-linked list.
#[derive(Debug, Default)]
struct Memo {
    map: HashMap<usize, MemoEntry>,
    tick: u64,
    hits: u64,
    /// Total lookups (hits + misses + stale evictions) — the denominator
    /// observability needs to turn [`Memo::hits`] into a hit rate.
    lookups: u64,
}

impl Memo {
    /// Look up `key`'s entry *for the given epoch*. An entry recorded under
    /// a different rule-set epoch is stale — its derivation may fire rules
    /// the current set masks (or miss rules a reset readmitted) — so it is
    /// evicted on sight and the lookup misses.
    fn get(&mut self, key: usize, epoch: u64) -> Option<&MemoEntry> {
        self.tick += 1;
        self.lookups += 1;
        let t = self.tick;
        let stale = match self.map.get_mut(&key) {
            None => return None,
            Some(e) if e.epoch != epoch => true,
            Some(e) => {
                e.stamp = t;
                self.hits += 1;
                false
            }
        };
        if stale {
            self.map.remove(&key);
            return None;
        }
        self.map.get(&key)
    }

    fn put(&mut self, key: usize, mut e: MemoEntry, capacity: usize) {
        self.tick += 1;
        e.stamp = self.tick;
        if !self.map.contains_key(&key) && self.map.len() >= capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key, e);
    }
}

/// A found redex, already rewritten into the whole-term result.
struct AppliedI {
    result: ITerm,
    /// Position of the rule that fired, in the engine's rule list.
    pos: usize,
}

/// Buffers a fixpoint run reuses from step to step and from run to run, so
/// the hot loop allocates nothing beyond the nodes the interner constructs.
/// They are cleared at the start of every live run and dropped at an arena
/// reset.
#[derive(Debug, Default)]
struct Scratch<'a> {
    /// Rule application's bindings and head segments.
    imatch: IScratch<'a>,
    /// The discrimination tree's walk stack.
    walk: WalkStack,
    /// Candidate rule positions at the node being searched.
    cand: Vec<usize>,
    /// Nodes of this step's search found redex-free.
    to_mark: Vec<usize>,
    /// A node's kids with one replaced, while rebuilding up the path.
    kids: Vec<ITerm>,
    /// Terms this run has visited (cycle detection).
    seen: HashSet<usize>,
    /// `(rule position, term after)` per step of this run.
    derivation: Vec<(usize, ITerm)>,
}

impl Scratch<'_> {
    /// Forget what a previous run left behind. A run that unwound (a
    /// caught poison-rule panic) may have stopped with any buffer in use,
    /// and its unconfirmed marks must not be committed by the next run.
    fn clear(&mut self) {
        self.imatch.subst.clear();
        self.to_mark.clear();
        self.kids.clear();
        self.seen.clear();
        self.derivation.clear();
    }
}

enum Level {
    F,
    P,
    Q,
}

fn level_of(t: Tag) -> Level {
    if t <= Tag::FSetDiff {
        Level::F
    } else if t <= Tag::PCurryP {
        Level::P
    } else {
        Level::Q
    }
}

fn iinflate(out: ITerm, n: usize, level: &Level, it: &mut Interner) -> ITerm {
    let mut acc = out;
    for _ in 0..n {
        let id = it.mk(Tag::FId, PayloadRef::None, &[]);
        acc = match level {
            Level::F => it.mk(Tag::FCompose, PayloadRef::None, &[id, acc]),
            Level::P => it.mk(Tag::POplus, PayloadRef::None, &[acc, id]),
            Level::Q => it.mk(Tag::QApp, PayloadRef::None, &[id, acc]),
        };
    }
    acc
}

/// One redex search: borrows the engine's parts disjointly so the interner
/// can be threaded mutably while rules/index stay shared.
struct Search<'r, 'a> {
    rules: &'r [Oriented<'a>],
    props: &'r PropDb,
    index: Option<&'r RuleIndex>,
    /// Per-position activity mask from the current epoch's rule snapshot
    /// (`None` = the full set). Skipping inactive positions in the
    /// ascending-position candidate scan visits exactly the rules, in
    /// exactly the order, of an index built over the active subset.
    active: Option<&'r [bool]>,
    normal: &'r HashSet<usize>,
    visits: &'r mut u64,
    consults: &'r mut [u64],
    it: &'r mut Interner,
    sc: &'r mut Scratch<'a>,
}

impl Search<'_, '_> {
    /// Leftmost-outermost redex search, mirroring the boxed `ro_*` family:
    /// clip first, rules at the node, then descend child by child.
    fn search(&mut self, t: &ITerm, d: usize, gov: &mut Gov) -> Option<AppliedI> {
        if gov.clip(d) {
            return None;
        }
        *self.visits += 1;
        if self.normal.contains(&t.id()) {
            return None;
        }
        if let Some(found) = self.rules_at(t, gov) {
            return Some(found);
        }
        let kids = t.kids();
        for (i, kid) in kids.iter().enumerate() {
            if let Some(a) = self.search(kid, d + 1, gov) {
                let result = if t.tag() == Tag::FCompose && i == 0 {
                    // A rewritten head segment may itself be a chain;
                    // icompose re-associates so the invariant holds.
                    icompose(self.it, a.result, kids[1].clone())
                } else {
                    let nk = &mut self.sc.kids;
                    nk.extend_from_slice(kids);
                    nk[i] = a.result;
                    let node = self.it.mk(t.tag(), t.payload().view(), nk);
                    nk.clear();
                    node
                };
                return Some(AppliedI { result, pos: a.pos });
            }
        }
        // Fully scanned, no redex: a candidate "normal" mark, valid only if
        // no descendant was depth-clipped away.
        if d + t.depth() <= gov.max_depth {
            self.sc.to_mark.push(t.id());
        }
        None
    }

    fn rules_at(&mut self, t: &ITerm, gov: &mut Gov) -> Option<AppliedI> {
        let level = level_of(t.tag());
        let mut cand = std::mem::take(&mut self.sc.cand);
        cand.clear();
        let walk = &mut self.sc.walk;
        match (self.index, &level) {
            (Some(ix), Level::F) => ix.func_candidates(t, &mut cand, walk),
            (Some(ix), Level::P) => ix.pred_candidates(t, &mut cand, walk),
            (Some(ix), Level::Q) => ix.query_candidates(t, &mut cand, walk),
            (None, _) => cand.extend(0..self.rules.len()),
        }
        let mut found = None;
        for &pos in &cand {
            if self.active.is_some_and(|m| !m[pos]) {
                continue;
            }
            let o = &self.rules[pos];
            if gov.report.is_quarantined(&o.rule.id) {
                continue;
            }
            self.consults[pos] += 1;
            let sc = &mut self.sc.imatch;
            let attempt = match level {
                Level::F => itry_apply_func(o.rule, t, o.dir, self.it, sc),
                Level::P => itry_apply_pred(o.rule, t, o.dir, self.it, sc),
                Level::Q => itry_apply_query(o.rule, t, o.dir, self.it, sc),
            };
            match attempt {
                Ok(None) => continue,
                Ok(Some(out)) => {
                    if !ipreconditions_hold(&o.rule.preconditions, &sc.subst, self.props) {
                        continue;
                    }
                    match gov.faults.fault_for(&o.rule.id, gov.step) {
                        None => {
                            found = Some(AppliedI { result: out, pos });
                            break;
                        }
                        Some(FaultKind::Oversize(n)) => {
                            let result = iinflate(out, *n, &level, self.it);
                            found = Some(AppliedI { result, pos });
                            break;
                        }
                        Some(FaultKind::Fail) => {
                            let e = RewriteError::RuleFailed {
                                rule_id: o.rule.id.clone(),
                                detail: "injected failure".into(),
                            };
                            gov.record_failure(&o.rule.id, &e);
                            continue;
                        }
                        // A poison rule's bug is not a contained error: it
                        // unwinds (same as the boxed engine's behavior).
                        Some(FaultKind::Panic) => crate::fault::poison_panic(&o.rule.id),
                    }
                }
                Err(e) => {
                    gov.record_failure(&o.rule.id, &e);
                    continue;
                }
            }
        }
        self.sc.cand = cand;
        found
    }
}

/// The interned + indexed + memoized fixpoint engine. Holds its arena,
/// rule index, normal-subtree marks, and memo across runs, so repeated
/// normalizations (fuzz gates, strategy pipelines, benches) amortize.
///
/// Rules and property database are fixed at construction — the caches are
/// only sound for the rule set they were built against.
pub struct Engine<'a> {
    rules: Vec<Oriented<'a>>,
    props: &'a PropDb,
    config: EngineConfig,
    // Declared before `interner`: entries hold `ITerm`s that must drop
    // while the arena's table is still alive.
    memo: Memo,
    scratch: Scratch<'a>,
    normal: HashSet<usize>,
    /// The discrimination tree, built on the first run in a tree mode.
    index: Option<RuleIndex>,
    /// Current rule-set epoch (see [`Engine::set_epoch`]).
    epoch: u64,
    /// Per-position activity mask for the current epoch; `None` = all.
    active: Option<Vec<bool>>,
    /// Arena compactions performed so far (see
    /// [`EngineConfig::arena_capacity`]).
    compactions: u64,
    visits: u64,
    consults: Vec<u64>,
    /// Extraction objective for saturation mode (unused by fixpoint runs).
    cost_model: Box<dyn CostModel>,
    interner: Interner,
}

impl<'a> Engine<'a> {
    /// Engine over `rules` (tried in slice order) with `props` available to
    /// preconditions.
    pub fn new(rules: Vec<Oriented<'a>>, props: &'a PropDb, config: EngineConfig) -> Engine<'a> {
        let consults = vec![0; rules.len()];
        Engine {
            rules,
            props,
            config,
            memo: Memo::default(),
            scratch: Scratch::default(),
            normal: HashSet::new(),
            index: None,
            epoch: 0,
            active: None,
            compactions: 0,
            visits: 0,
            consults,
            cost_model: Box::new(TermSize),
            interner: Interner::new(),
        }
    }

    /// Install the extraction objective for saturation mode (default:
    /// [`TermSize`]). Ignored by fixpoint runs. Swapping models touches no
    /// cache — extraction is recomputed per run.
    pub fn set_cost_model(&mut self, model: Box<dyn CostModel>) {
        self.cost_model = model;
    }

    /// Display name of the current extraction cost model.
    pub fn cost_model_name(&self) -> &'static str {
        self.cost_model.name()
    }

    /// Install the rule-set snapshot for subsequent runs: `epoch` names the
    /// snapshot (a service uses its breaker generation) and `disabled`
    /// lists rule ids excluded from it. The rules stay in place and the
    /// rule index is *not* rebuilt — excluded positions are masked
    /// out of the candidate scan, which visits exactly the rules, in
    /// exactly the order, of an index built over the remaining subset.
    ///
    /// Cheap when the epoch is unchanged (one comparison). On change the
    /// normal-subtree marks are cleared and memo entries from other epochs
    /// become unreplayable (evicted lazily on lookup): both record facts
    /// about one rule set that do not transfer to another — a mark made
    /// under a larger set is still sound under a subset, but a memoized
    /// derivation may fire a now-masked rule, and after a reset the mask
    /// grows back, invalidating subset-era marks. Epochs never repeat, so
    /// clearing is equivalent to tagging.
    pub fn set_epoch(&mut self, epoch: u64, disabled: &[String]) {
        if epoch == self.epoch {
            return;
        }
        self.epoch = epoch;
        self.normal.clear();
        self.active = if disabled.is_empty() {
            None
        } else {
            let off: HashSet<&str> = disabled.iter().map(String::as_str).collect();
            Some(
                self.rules
                    .iter()
                    .map(|o| !off.contains(o.rule.id.as_str()))
                    .collect(),
            )
        };
    }

    /// Enable or disable per-step [`Trace`] recording for subsequent runs
    /// (see [`EngineConfig::trace`]). Only the interned modes are affected:
    /// [`EngineMode::Reference`] delegates to [`rewrite_fix_with`], which
    /// always traces. Flipping this touches no cache — traces are run-local.
    pub fn set_trace(&mut self, on: bool) {
        self.config.trace = on;
    }

    /// Whether per-step trace recording is currently on.
    pub fn trace_enabled(&self) -> bool {
        self.config.trace
    }

    /// Drop every cross-run cache: memo entries and run scratch first
    /// (they pin interned nodes), then the normal-subtree marks (raw node
    /// addresses a fresh arena could recycle), then the arena itself. The
    /// rule index survives — it holds rule positions, not terms. Counters
    /// ([`Engine::work`], [`Engine::memo_hits`]) keep accumulating.
    pub fn reset_caches(&mut self) {
        self.memo.map.clear();
        // Replaced, not cleared: a reset also returns the buffers' memory.
        self.scratch = Scratch::default();
        self.normal.clear();
        self.interner.clear();
        self.compactions += 1;
    }

    /// Live nodes currently in the intern arena.
    pub fn arena_len(&self) -> usize {
        self.interner.len()
    }

    /// How many times the bounded-arena compaction has fired.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Normalize under `budget` with no fault injection.
    pub fn normalize(&mut self, q: &Query, budget: &Budget) -> Rewritten {
        self.normalize_with(q, budget, &FaultPlan::default())
    }

    /// [`Engine::normalize_with`] behind a panic boundary: a rule that
    /// unwinds (a [`FaultKind::Panic`] fault or a genuine bug) is caught
    /// and classified instead of propagating. The engine's cross-run state
    /// survives a caught panic intact: the interner is append-only (a
    /// partially built term is just unreferenced garbage in the arena),
    /// normal-subtree marks and the memo are only committed after clean
    /// steps/runs, and the index is rebuilt from the rule list on demand.
    pub fn try_normalize_with(
        &mut self,
        q: &Query,
        budget: &Budget,
        faults: &FaultPlan,
    ) -> Result<Rewritten, crate::fault::CaughtPanic> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.normalize_with(q, budget, faults)
        }))
        .map_err(crate::fault::CaughtPanic::from_payload)
    }

    /// Drop-in replacement for [`rewrite_fix_with`] (same redex choice,
    /// budgets, faults, quarantine, report, and trace), in the engine
    /// [`EngineConfig::mode`] selects.
    pub fn normalize_with(&mut self, q: &Query, budget: &Budget, faults: &FaultPlan) -> Rewritten {
        if self.config.mode == EngineMode::Reference {
            return rewrite_fix_with(&self.rules, q, self.props, budget, faults);
        }
        // Bounded arena growth: compact between runs, when no run-local
        // handles exist, so `Interner::clear`'s largest-first release is
        // safe and no address-keyed cache can alias a recycled node.
        if self.config.arena_capacity != 0 && self.interner.len() > self.config.arena_capacity {
            self.reset_caches();
        }
        if self.config.mode != EngineMode::Scan {
            match &mut self.index {
                // Quarantine is per-run state: un-journal last run's
                // evictions (O(evicted rules), not an index rebuild).
                Some(ix) => ix.restore(),
                None => self.index = Some(RuleIndex::build(&self.rules)),
            }
        }

        // Saturation mode: seed wave + e-graph saturation + extraction.
        // Fault plans stay on the destructive path — fault semantics are
        // defined step-by-step against it.
        if self.config.mode == EngineMode::Saturating && faults.is_empty() {
            return self.saturate_run(q, budget, faults);
        }
        self.fixpoint_run(q, budget, faults)
    }

    /// The destructive leftmost-outermost fixpoint loop (the historical
    /// body of [`Engine::normalize_with`]; that entry now also hosts the
    /// cache maintenance and the saturation-mode branch). Assumes caches
    /// and index are already prepared for this run.
    fn fixpoint_run(&mut self, q: &Query, budget: &Budget, faults: &FaultPlan) -> Rewritten {
        let mut report = RewriteReport::new();
        let mut trace = Trace::new();
        let mut cur = self.interner.intern_query_normalized(q);
        if cur.size() > budget.max_term_size {
            let e = RewriteError::TermTooLarge {
                size: cur.size(),
                limit: budget.max_term_size,
            };
            report.failures.push(e.to_string());
            report.stop = StopReason::TermTooLarge;
            return Rewritten {
                query: cur.to_query(),
                trace,
                report,
            };
        }

        let memo_eligible =
            self.config.memo_capacity > 0 && faults.is_empty() && budget.deadline.is_none();
        if memo_eligible {
            if let Some(e) = self.memo.get(cur.id(), self.epoch) {
                if e.steps < budget.max_steps
                    && e.max_depth <= budget.max_depth
                    && e.max_size <= budget.max_term_size
                {
                    for (pos, after) in e.derivation.iter() {
                        let o = &self.rules[*pos];
                        report.record_fire(&o.rule.id);
                        if self.config.trace {
                            trace.steps.push(Step {
                                rule_id: o.rule.id.clone(),
                                dir: o.dir,
                                after: after.to_query(),
                            });
                        }
                    }
                    report.steps = e.steps;
                    report.stop = StopReason::NormalForm;
                    return Rewritten {
                        query: e.result.to_query(),
                        trace,
                        report,
                    };
                }
            }
        }

        let input = cur.clone();
        self.scratch.clear();
        self.scratch.seen.insert(cur.id());
        let mut best = cur.clone();
        let mut best_size = cur.size();
        let mut max_size = cur.size();
        let mut max_depth = cur.depth();
        let mut pruned = 0usize;

        loop {
            if report.steps >= budget.max_steps {
                report.stop = StopReason::BudgetExhausted;
                return Rewritten {
                    query: best.to_query(),
                    trace,
                    report,
                };
            }
            if budget.expired() {
                report.stop = StopReason::DeadlineExpired;
                return Rewritten {
                    query: best.to_query(),
                    trace,
                    report,
                };
            }
            // Quarantine must reach the index, not just the linear scan.
            while pruned < report.quarantined.len() {
                let id = report.quarantined[pruned].clone();
                if let Some(ix) = &mut self.index {
                    // Journaled leaf pruning: O(pattern depth) now, exact
                    // restore at the start of the next run.
                    ix.remove(&id);
                }
                pruned += 1;
            }
            let step = report.steps;
            let fails_before = report.total_failures();
            let found = {
                let mut gov = Gov::new(budget, faults, &mut report, step);
                Search {
                    rules: &self.rules,
                    props: self.props,
                    index: self.index.as_ref(),
                    active: self.active.as_deref(),
                    normal: &self.normal,
                    visits: &mut self.visits,
                    consults: &mut self.consults,
                    it: &mut self.interner,
                    sc: &mut self.scratch,
                }
                .search(&cur, 0, &mut gov)
            };
            // Marks are sound only when the scan saw the full, failure-free
            // rule set: the marks persist across runs, while failures and
            // quarantines are transient.
            if report.total_failures() == fails_before && report.quarantined.is_empty() {
                self.normal.extend(self.scratch.to_mark.drain(..));
            } else {
                self.scratch.to_mark.clear();
            }
            let Some(applied) = found else {
                report.stop = StopReason::NormalForm;
                if memo_eligible
                    && !report.depth_clipped
                    && report.quarantined.is_empty()
                    && report.total_failures() == 0
                {
                    self.memo.put(
                        input.id(),
                        MemoEntry {
                            result: cur.clone(),
                            steps: report.steps,
                            derivation: self.scratch.derivation.as_slice().into(),
                            max_size,
                            max_depth,
                            stamp: 0,
                            epoch: self.epoch,
                        },
                        self.config.memo_capacity,
                    );
                }
                return Rewritten {
                    query: cur.to_query(),
                    trace,
                    report,
                };
            };
            let next = applied.result;
            let next_size = next.size();
            let o = &self.rules[applied.pos];
            if next_size > budget.max_term_size {
                let e = RewriteError::TermTooLarge {
                    size: next_size,
                    limit: budget.max_term_size,
                };
                report.record_failure(&o.rule.id, &e, budget.quarantine_after, report.steps);
                if !report.is_quarantined(&o.rule.id) {
                    report.stop = StopReason::TermTooLarge;
                    return Rewritten {
                        query: best.to_query(),
                        trace,
                        report,
                    };
                }
                continue;
            }
            cur = next;
            report.steps += 1;
            report.record_fire(&o.rule.id);
            if self.config.trace {
                trace.steps.push(Step {
                    rule_id: o.rule.id.clone(),
                    dir: o.dir,
                    after: cur.to_query(),
                });
            }
            self.scratch.derivation.push((applied.pos, cur.clone()));
            max_size = max_size.max(next_size);
            max_depth = max_depth.max(cur.depth());
            if next_size < best_size {
                best = cur.clone();
                best_size = next_size;
            }
            if !self.scratch.seen.insert(cur.id()) {
                report.stop = StopReason::CycleDetected;
                return Rewritten {
                    query: best.to_query(),
                    trace,
                    report,
                };
            }
        }
    }

    /// Saturation mode: run the destructive engine once (trace forced on so
    /// the full trajectory is captured), seed an e-graph with that wave,
    /// saturate under the remaining budget, and extract the cheapest
    /// equivalent plan under the engine's cost model. Expects the tree
    /// built, as [`Engine::normalize_with`] does before every tree-mode run.
    fn saturate_run(&mut self, q: &Query, budget: &Budget, faults: &FaultPlan) -> Rewritten {
        let trace_was = self.config.trace;
        self.config.trace = true;
        let fix = self.fixpoint_run(q, budget, faults);
        self.config.trace = trace_was;
        if fix.report.stop == StopReason::TermTooLarge && fix.trace.steps.is_empty() {
            // The input itself blew the size budget — nothing to saturate.
            return fix;
        }
        let mut trajectory: Vec<Query> = fix.trace.steps.iter().map(|s| s.after.clone()).collect();
        trajectory.push(fix.query.clone());
        // Saturation extends the wave's report: steps already spent count
        // against the same budget, quarantines keep suppressing rules.
        let mut report = fix.report.clone();
        let Engine {
            ref rules,
            props,
            ref index,
            ref active,
            ref cost_model,
            ref mut interner,
            ..
        } = *self;
        let params = SaturationParams {
            rules,
            props,
            index: index
                .as_ref()
                .expect("tree built before every saturating run"),
            active: active.as_deref(),
            match_cap: 24,
        };
        let sat = saturate_from_trajectory(
            q,
            &trajectory,
            &params,
            budget,
            cost_model.as_ref(),
            &mut report,
            interner,
        );
        Rewritten {
            query: sat.query,
            trace: if trace_was { fix.trace } else { Trace::new() },
            report,
        }
    }

    /// Total search work so far: node visits plus interner constructions
    /// (cache misses). Used by regression tests to assert step cost is
    /// O(changed subtree), not O(term).
    pub fn work(&self) -> u64 {
        self.visits + self.interner.constructed()
    }

    /// Memo replays so far.
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits
    }

    /// Raw per-position consult counters (positions follow the rule list
    /// given at construction). The allocation-free lane for callers that
    /// delta-flush attempts into per-rule metrics after each run.
    pub fn consults(&self) -> &[u64] {
        &self.consults
    }

    /// How many times `rule_id` was actually consulted (application
    /// attempted) at a node, across all runs.
    pub fn consult_count(&self, rule_id: &str) -> u64 {
        self.rules
            .iter()
            .zip(&self.consults)
            .filter(|(o, _)| o.rule.id == rule_id)
            .map(|(_, n)| *n)
            .sum()
    }

    /// True iff the rule index currently holds any entry for `rule_id`.
    /// False in the modes without one and before the first run builds it.
    pub fn index_contains(&self, rule_id: &str) -> bool {
        self.index.as_ref().is_some_and(|ix| ix.contains(rule_id))
    }

    /// Shape of the currently built index ([`crate::dtree::IndexStats`]),
    /// or `None` in the modes without one and before the first run builds
    /// it.
    pub fn index_stats(&self) -> Option<crate::dtree::IndexStats> {
        self.index.as_ref().map(RuleIndex::describe)
    }

    /// Lifetime counters for observability (all monotone except the live
    /// arena length). Cheap to read — every field is already maintained by
    /// the hot path; this just snapshots them.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            visits: self.visits,
            constructed: self.interner.constructed(),
            memo_hits: self.memo.hits,
            memo_lookups: self.memo.lookups,
            compactions: self.compactions,
            arena_len: self.interner.len(),
            arena_peak: self.interner.peak_len(),
        }
    }

    /// Per-rule consult counts across all runs, as `(rule_id, consults)` in
    /// rule-list order. A consult is an actual application attempt at a
    /// node — the number the rule index exists to minimize — so this is the
    /// "rules attempted per node" surface for metrics.
    pub fn consult_profile(&self) -> Vec<(String, u64)> {
        self.rules
            .iter()
            .zip(&self.consults)
            .map(|(o, n)| (o.rule.id.clone(), *n))
            .collect()
    }
}

/// A snapshot of an [`Engine`]'s lifetime counters (see [`Engine::stats`]).
/// Subtracting two snapshots taken around a run gives that run's cost, which
/// is how the service attributes engine work to individual requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Node visits during redex search.
    pub visits: u64,
    /// Interner cache misses (nodes constructed).
    pub constructed: u64,
    /// Memo lookups that replayed a cached derivation.
    pub memo_hits: u64,
    /// Total memo lookups (hits + misses + stale evictions).
    pub memo_lookups: u64,
    /// Bounded-arena compactions fired.
    pub compactions: u64,
    /// Live nodes currently in the arena.
    pub arena_len: usize,
    /// High-water mark of live arena nodes over the engine's life.
    pub arena_peak: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSpec, StepSelector};
    use crate::rule::Rule;
    use kola::parse::parse_query;

    #[test]
    fn a_caught_panic_leaves_no_normal_marks_behind() {
        // Step 0 of the first run: `id-left` fails (an injected fault) at
        // `id . age`, so that subtree is scanned without a redex and its
        // nodes are queued as normal — unsoundly, since the step had a
        // failure — and then the poison rule unwinds at the union. The
        // queued marks must die with the run: were the next run to commit
        // them, `id . age` would be skipped as normal forever after.
        let id_left = Rule::func("id-left", "id-left", "id . $f", "$f");
        let poison = Rule::query("poison", "poison", "^x union ^y", "^x");
        let props = PropDb::new();
        let rules = vec![Oriented::fwd(&id_left), Oriented::fwd(&poison)];
        let mut engine = Engine::new(rules.clone(), &props, EngineConfig::fast());
        let faults = FaultPlan::default()
            .with(FaultSpec {
                rule_id: "id-left".into(),
                at: StepSelector::Always,
                kind: FaultKind::Fail,
            })
            .with(FaultSpec {
                rule_id: "poison".into(),
                at: StepSelector::Always,
                kind: FaultKind::Panic,
            });
        let q = parse_query("[id . age ! P, P union Q]").unwrap();
        assert!(engine
            .try_normalize_with(&q, &Budget::default(), &faults)
            .is_err());
        for src in ["id . age ! P", "id . age ! Q"] {
            let q = parse_query(src).unwrap();
            let want = rewrite_fix_with(
                &rules,
                &q,
                &props,
                &Budget::default(),
                &FaultPlan::default(),
            );
            let got = engine.normalize(&q, &Budget::default());
            assert_eq!(got.query, want.query, "{src}");
            assert_eq!(got.report, want.report, "{src}");
        }
    }
}
