//! Equality saturation over the [`EGraph`]: non-destructive application of
//! the rule catalog to a fixpoint, then cost-based extraction.
//!
//! ## Two phases
//!
//! **Seed wave.** The caller first runs the ordinary destructive fixpoint
//! engine and hands its whole trajectory here: the input, every
//! intermediate, and the output are registered in the e-graph and unioned
//! into one root class ([`seed_trajectory`]). Each wave step is a rule
//! application — a semantic equality — so the unions are sound, and they
//! make the differential gate *structural*: the fixpoint result is a member
//! of the root class, hence extraction can never return a costlier term
//! than the fixpoint engine under the extraction cost model
//! (`tests/egraph_parity.rs` pins this on 1000 seeds).
//!
//! **Saturation loop.** Classic match-apply-rebuild rounds:
//!
//! 1. *Refresh*: extract a representative term for every class (cheapest
//!    under the engine's cost model). Representatives drive index lookup
//!    and precondition checks.
//! 2. *Match*: for every class (ascending id), the discrimination tree
//!    ([`RuleIndex`]) is walked against the class itself
//!    ([`RuleIndex::query_candidates_class`] and siblings): every `Sym`
//!    edge branches over every same-tagged e-node, so no member's shape is
//!    hidden behind a cheaper representative. Candidate rules (ascending
//!    position, active-mask and quarantine filtered — the same discipline
//!    as the fixpoint engine's candidate scan) are then e-matched against
//!    the *class structure*: metavariables bind e-classes, alternatives
//!    backtrack over every e-node of a class, and function rules use the
//!    same chain-prefix semantics as
//!    [`crate::imatch::imatch_func_prefix`], decomposing chain classes
//!    through their `∘` e-nodes.
//! 3. *Apply*: each match instantiates the rule body as e-nodes and unions
//!    it with the matched class. Every application that changes the graph
//!    costs one budget step.
//! 4. *Rebuild*: restore congruence; if the graph did not change this
//!    round, the rule set is saturated.
//!
//! ## Completeness and bounds
//!
//! E-matching here is deliberately *bounded*: the index walk carries a
//! node-visit fuel budget (pathological same-tag fanout truncates candidate
//! collection), chain decomposition is depth-capped, and match enumeration
//! is capped per (class, rule) pair. All bounds trade completeness for
//! predictable cost; soundness is never at stake because every union is
//! justified by a rule instance, and the seed wave — not matcher
//! completeness — is what guarantees the differential gate. Budget
//! exhaustion mid-saturation simply stops asserting new equalities;
//! extraction still returns the best of everything proven so far (never
//! worse than the wave). The deadline is checked before every class of a
//! match round as well as between rounds and applications, so one slow
//! round cannot hold a request past it.
//!
//! The matcher is the saturating engine's inner loop, and its allocation
//! discipline is that a match round allocates nothing per backtracking
//! step:
//!
//! * **Compiled heads.** Each rule head is compiled once per (rule,
//!   alternative, direction) into flat buffers (`Heads`): ops whose
//!   children are indices, and `∘` chains flattened into segment lists.
//!   The compilation rides with the [`RuleIndex`] built over the same rule
//!   list, on the first saturating run.
//! * **Slot bindings.** A head's metavariables are numbered at compile
//!   time; a match binds them into a fixed `Copy` array of class ids.
//!   Names come back only in apply, to instantiate the body and, for
//!   rules with preconditions, to build the substitution they check.
//! * **Scratch stacks.** Matcher calls push their results onto one hit
//!   stack instead of returning vectors; staged matching (all matches of a
//!   first child, then the second child under each) reads one stage in
//!   place and moves the next stage's results down. Chain cursors and
//!   segment splits live on stacks released when their frame returns,
//!   and e-nodes are walked by index — class contents cannot change
//!   before apply.
//! * **Per-round arena.** Match remainders are spans of one arena,
//!   cleared (not freed) with the round's match list.
//!
//! The search itself — matches found, their order, and the fuel each
//! bound consumes — is exactly that of a direct recursive matcher, which
//! `tests/egraph_golden.rs` pins by digest; DESIGN.md §5j records the
//! measured allocations per request.

use crate::budget::{Budget, RewriteReport, StopReason};
use crate::dtree::RuleIndex;
use crate::egraph::{ClassId, EGraph, ENode};
use crate::engine::Oriented;
use crate::extract::{CostModel, Extractor};
use crate::imatch::{ipreconditions_hold, ISubst};
use crate::matching::{pfunc_tag, ppred_tag, pquery_tag};
use crate::props::PropDb;
use crate::rule::{Direction, RewritePair};
use kola::intern::{ITerm, Interner, Payload, Tag};
use kola::pattern::{PFunc, PPred, PQuery, VarKind};
use kola::term::Query;
use kola::value::Sym;

/// Everything the saturation loop needs besides the graph itself.
pub struct SaturationParams<'r, 'a> {
    /// The rule list, in engine order (positions match `index`).
    pub rules: &'r [Oriented<'a>],
    /// Property database for precondition checks.
    pub props: &'r PropDb,
    /// Discrimination tree over `rules` (quarantine pruning already
    /// applied by the caller, exactly as in the fixpoint engine).
    pub index: &'r RuleIndex,
    /// Per-position activity mask (`None` = all active).
    pub active: Option<&'r [bool]>,
    /// Max e-match bindings enumerated per (class, rule) per round.
    pub match_cap: usize,
}

/// What saturation produced (the caller assembles the final `Rewritten`).
#[derive(Debug)]
pub struct SaturationResult {
    /// The extracted best query, right-normalized.
    pub query: Query,
    /// Its cost under the engine's cost model.
    pub cost: u64,
    /// Cost of the seed wave's fixpoint output under the same model — the
    /// differential baseline (extracted `cost` ≤ this, structurally).
    pub fixpoint_cost: u64,
    /// True iff a match-apply round changed nothing (fixpoint reached).
    pub saturated: bool,
    /// Match-apply-rebuild rounds run.
    pub iterations: usize,
    /// Canonical e-classes at the end.
    pub classes: usize,
    /// E-nodes at the end.
    pub nodes: usize,
}

/// Register the fixpoint trajectory (input, every intermediate, output) and
/// union it into one root class. Returns the root.
pub fn seed_trajectory(
    eg: &mut EGraph,
    it: &mut Interner,
    input: &Query,
    steps: &[Query],
) -> ClassId {
    let root = eg.add_term(&it.intern_query(&input.normalize()));
    for q in steps {
        let c = eg.add_term(&it.intern_query(&q.normalize()));
        eg.union(root, c);
    }
    eg.rebuild();
    eg.find(root)
}

/// Run seeded saturation + extraction. `report` arrives with the seed
/// wave's steps/quarantines already recorded and is extended in place;
/// `budget.max_steps` bounds *total* steps (wave + saturation), mirroring
/// how the fixpoint engine treats one budget per run.
pub fn saturate_from_trajectory(
    input: &Query,
    trajectory: &[Query],
    params: &SaturationParams,
    budget: &Budget,
    cost: &dyn CostModel,
    report: &mut RewriteReport,
    it: &mut Interner,
) -> SaturationResult {
    let mut eg = EGraph::new();
    let root = seed_trajectory(&mut eg, it, input, trajectory);
    // Cost the fixpoint output itself (the root class's best may already be
    // cheaper thanks to wave intermediates — we want the raw baseline).
    let fixpoint_cost = {
        let fix_q = trajectory
            .last()
            .cloned()
            .unwrap_or_else(|| input.normalize());
        let fix_t = it.intern_query(&fix_q.normalize());
        term_cost(&fix_t, cost)
    };

    let mut sat = Sat {
        eg,
        params,
        heads: params.index.sat_heads(params.rules),
        it,
        reps: Vec::new(),
        fuel: 0,
        classes: Vec::new(),
        cand: Vec::new(),
        matches: Vec::new(),
        rems: Vec::new(),
        hits: Vec::new(),
        cursors: Vec::new(),
        splits: Vec::new(),
        tails: Vec::new(),
    };
    let mut saturated = false;
    let mut iterations = 0usize;
    'outer: loop {
        if report.steps >= budget.max_steps {
            report.stop = StopReason::BudgetExhausted;
            break;
        }
        if budget.expired() {
            report.stop = StopReason::DeadlineExpired;
            break;
        }
        sat.refresh_reps(cost);
        if !sat.match_round(report, budget) {
            report.stop = StopReason::DeadlineExpired;
            sat.eg.rebuild();
            break;
        }
        let matches = std::mem::take(&mut sat.matches);
        let before = sat.eg.version();
        let mut progressed = false;
        for m in &matches {
            if report.steps >= budget.max_steps {
                report.stop = StopReason::BudgetExhausted;
                sat.eg.rebuild();
                break 'outer;
            }
            if budget.expired() {
                report.stop = StopReason::DeadlineExpired;
                sat.eg.rebuild();
                break 'outer;
            }
            let v = sat.eg.version();
            let applied = sat.apply(m);
            if applied && sat.eg.version() != v {
                report.steps += 1;
                report.record_fire(&sat.params.rules[m.pos].rule.id);
                progressed = true;
            }
        }
        sat.matches = matches;
        sat.eg.rebuild();
        iterations += 1;
        if !progressed && sat.eg.version() == before {
            saturated = true;
            report.stop = StopReason::NormalForm;
            break;
        }
    }

    let Sat { eg, it, .. } = sat;
    let ext = Extractor::new(&eg, cost);
    let (query, cost_out) = match ext.term(&eg, root, it) {
        Some(t) => {
            let c = ext.cost(&eg, root).unwrap_or(u64::MAX);
            (t.to_query().normalize(), c)
        }
        // Unreachable in practice (the root always has the concrete input
        // as witness), but never panic on it.
        None => (input.normalize(), u64::MAX),
    };
    SaturationResult {
        query,
        cost: cost_out,
        fixpoint_cost,
        saturated,
        iterations,
        classes: eg.num_classes(),
        nodes: eg.num_nodes(),
    }
}

/// Cost of one concrete interned term under `cost` (no e-graph involved).
pub fn term_cost(t: &ITerm, cost: &dyn CostModel) -> u64 {
    let kid_costs: Vec<u64> = t.kids().iter().map(|k| term_cost(k, cost)).collect();
    cost.node_cost(t.tag(), t.payload(), &kid_costs)
}

/// Most metavariables one rule head may bind (the catalog's largest head
/// binds 7). A head over the limit is never e-matched; the seed wave still
/// applies its rule.
const MAX_SLOTS: usize = 16;

/// Marks a slot no binding has filled yet.
const UNBOUND: ClassId = ClassId::MAX;

/// Class-valued metavariable bindings of one head match, one slot per
/// metavariable of the head (numbered at compile time, see [`Heads`]).
/// Consistency is canonical-class equality: two syntactically different
/// binding candidates in one class are provably equal, so unifying them is
/// sound — strictly more matches than the pointer-equality the destructive
/// matcher requires.
type Slots = [ClassId; MAX_SLOTS];

/// `binds` with `slot` bound to `c`, or `None` when the slot already holds
/// another class.
fn bind(mut binds: Slots, slot: u8, c: ClassId) -> Option<Slots> {
    let s = &mut binds[slot as usize];
    if *s == UNBOUND {
        *s = c;
    } else if *s != c {
        return None;
    }
    Some(binds)
}

/// A range into one of the matcher's flat buffers.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// Everything after the first element.
    fn tail(self) -> Span {
        Span {
            start: self.start + 1,
            len: self.len - 1,
        }
    }
}

/// One node of a compiled rule head.
#[derive(Debug, Clone)]
enum Op {
    /// A metavariable: binds the matched class to its slot.
    Var(u8),
    /// A constructor without children; tag and payload must agree.
    Leaf(Tag, Payload),
    /// A constructor with children: up to three op indices in the
    /// e-node's kid order, then how many there are.
    Node(Tag, [u32; 3], u8),
    /// A `∘` chain, flattened: its segments are `Heads::segs[span]`, none of
    /// them a `∘` itself.
    Chain(Span),
}

/// One compiled alternative of an oriented rule.
#[derive(Debug, Clone)]
struct Head {
    /// Index into the rule's `alts`.
    alt: usize,
    level: Level,
    /// Root op: a [`Op::Chain`] at the function level.
    root: u32,
    /// Slot names: `Heads::vars[vars]`, slot `i` at offset `i`.
    vars: Span,
}

/// Every rule head of one oriented rule list, compiled once for e-matching
/// into flat buffers: ops (children by index), chain segment lists, and per
/// head the metavariable names in slot order. Built lazily with the
/// [`RuleIndex`] over the same list ([`RuleIndex::sat_heads`]), so fast
/// fleets never pay for it and a saturating engine pays once.
#[derive(Debug, Clone)]
pub(crate) struct Heads {
    ops: Vec<Op>,
    segs: Vec<u32>,
    vars: Vec<(VarKind, Sym)>,
    heads: Vec<Head>,
    /// Per rule position: its heads, `heads[by_pos[pos]]`.
    by_pos: Vec<Span>,
}

impl Heads {
    /// Compile the heads of `rules` (positions follow the slice). Backward
    /// orientations of one-way rules get no heads, as in the index.
    pub(crate) fn compile(rules: &[Oriented]) -> Heads {
        // Sized from the paper catalog: per rule about 6.6 ops, 2.3
        // metavariables and one head.
        let mut h = Heads {
            ops: Vec::with_capacity(8 * rules.len()),
            vars: Vec::with_capacity(3 * rules.len()),
            segs: Vec::with_capacity(2 * rules.len()),
            heads: Vec::with_capacity(2 * rules.len()),
            by_pos: Vec::with_capacity(rules.len()),
        };
        for o in rules {
            let first = h.heads.len() as u32;
            if o.dir == Direction::Forward || o.rule.bidirectional {
                for (alt, pair) in o.rule.alts.iter().enumerate() {
                    let (ops, segs, vars) = (h.ops.len(), h.segs.len(), h.vars.len());
                    let (level, root) = match (pair, o.dir) {
                        (RewritePair::F(head, _), Direction::Forward)
                        | (RewritePair::F(_, head), Direction::Backward) => {
                            (Level::F, h.chain(head, vars))
                        }
                        (RewritePair::P(head, _), Direction::Forward)
                        | (RewritePair::P(_, head), Direction::Backward) => {
                            (Level::P, h.pred(head, vars))
                        }
                        (RewritePair::Q(head, _), Direction::Forward)
                        | (RewritePair::Q(_, head), Direction::Backward) => {
                            (Level::Q, h.query(head, vars))
                        }
                    };
                    if h.vars.len() - vars > MAX_SLOTS {
                        h.ops.truncate(ops);
                        h.segs.truncate(segs);
                        h.vars.truncate(vars);
                        continue;
                    }
                    h.heads.push(Head {
                        alt,
                        level,
                        root,
                        vars: Span {
                            start: vars as u32,
                            len: (h.vars.len() - vars) as u32,
                        },
                    });
                }
            }
            h.by_pos.push(Span {
                start: first,
                len: h.heads.len() as u32 - first,
            });
        }
        h
    }

    fn push(&mut self, op: Op) -> u32 {
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    /// A metavariable op: the slot of `(kind, name)` among the head's
    /// variables (from `first`), numbered on first sight. Past
    /// [`MAX_SLOTS`] the slot saturates; [`Heads::compile`] then drops the
    /// head.
    fn var(&mut self, first: usize, kind: VarKind, name: &Sym) -> u32 {
        let vars = &self.vars[first..];
        let i = match vars.iter().position(|(k, n)| *k == kind && n == name) {
            Some(i) => i,
            None => {
                let i = vars.len();
                self.vars.push((kind, name.clone()));
                i
            }
        };
        self.push(Op::Var(i.min(MAX_SLOTS - 1) as u8))
    }

    /// Compile a `∘` chain into one contiguous run of `segs`, left to right
    /// as [`crate::matching::pchain_segments`] flattens it. The run is
    /// reserved first, since a segment may hold a chain of its own.
    fn chain(&mut self, f: &PFunc, vars: usize) -> u32 {
        fn len(f: &PFunc) -> usize {
            match f {
                PFunc::Compose(a, b) => len(a) + len(b),
                _ => 1,
            }
        }
        let start = self.segs.len();
        let n = len(f);
        self.segs.resize(start + n, 0);
        let mut at = start;
        self.fill_chain(f, vars, &mut at);
        self.push(Op::Chain(Span {
            start: start as u32,
            len: n as u32,
        }))
    }

    fn fill_chain(&mut self, f: &PFunc, vars: usize, at: &mut usize) {
        if let PFunc::Compose(a, b) = f {
            self.fill_chain(a, vars, at);
            self.fill_chain(b, vars, at);
        } else {
            self.segs[*at] = self.func(f, vars);
            *at += 1;
        }
    }

    fn func(&mut self, f: &PFunc, vars: usize) -> u32 {
        let tag = pfunc_tag(f);
        match f {
            PFunc::Var(v) => self.var(vars, VarKind::Func, v),
            PFunc::Compose(..) => self.chain(f, vars),
            PFunc::Prim(n) => self.leaf(tag, Payload::Sym(n.clone())),
            PFunc::PairWith(a, b)
            | PFunc::Times(a, b)
            | PFunc::Nest(a, b)
            | PFunc::Unnest(a, b) => {
                let k = [self.func(a, vars), self.func(b, vars)];
                self.node(tag, &k)
            }
            PFunc::ConstF(q) => {
                let k = [self.query(q, vars)];
                self.node(tag, &k)
            }
            PFunc::CurryF(g, q) => {
                let k = [self.func(g, vars), self.query(q, vars)];
                self.node(tag, &k)
            }
            PFunc::Cond(p, g, h) => {
                let k = [self.pred(p, vars), self.func(g, vars), self.func(h, vars)];
                self.node(tag, &k)
            }
            PFunc::Iterate(p, g)
            | PFunc::Iter(p, g)
            | PFunc::Join(p, g)
            | PFunc::BIterate(p, g) => {
                let k = [self.pred(p, vars), self.func(g, vars)];
                self.node(tag, &k)
            }
            PFunc::Id
            | PFunc::Pi1
            | PFunc::Pi2
            | PFunc::Flat
            | PFunc::Bagify
            | PFunc::Dedup
            | PFunc::BUnion
            | PFunc::BFlat
            | PFunc::SetUnion
            | PFunc::SetIntersect
            | PFunc::SetDiff => self.leaf(tag, Payload::None),
        }
    }

    fn pred(&mut self, p: &PPred, vars: usize) -> u32 {
        let tag = ppred_tag(p);
        match p {
            PPred::Var(v) => self.var(vars, VarKind::Pred, v),
            PPred::PrimP(n) => self.leaf(tag, Payload::Sym(n.clone())),
            PPred::ConstP(b) => self.leaf(tag, Payload::Bool(*b)),
            PPred::Oplus(a, f) => {
                let k = [self.pred(a, vars), self.func(f, vars)];
                self.node(tag, &k)
            }
            PPred::And(a, b) | PPred::Or(a, b) => {
                let k = [self.pred(a, vars), self.pred(b, vars)];
                self.node(tag, &k)
            }
            PPred::Not(a) | PPred::Conv(a) => {
                let k = [self.pred(a, vars)];
                self.node(tag, &k)
            }
            PPred::CurryP(a, q) => {
                let k = [self.pred(a, vars), self.query(q, vars)];
                self.node(tag, &k)
            }
            PPred::Eq | PPred::Lt | PPred::Leq | PPred::Gt | PPred::Geq | PPred::In => {
                self.leaf(tag, Payload::None)
            }
        }
    }

    fn query(&mut self, q: &PQuery, vars: usize) -> u32 {
        let tag = pquery_tag(q);
        match q {
            PQuery::Var(v) => self.var(vars, VarKind::Obj, v),
            PQuery::Lit(v) => self.leaf(tag, Payload::Value(std::sync::Arc::new(v.clone()))),
            PQuery::Extent(n) => self.leaf(tag, Payload::Sym(n.clone())),
            PQuery::App(f, a) => {
                let k = [self.func(f, vars), self.query(a, vars)];
                self.node(tag, &k)
            }
            PQuery::Test(p, a) => {
                let k = [self.pred(p, vars), self.query(a, vars)];
                self.node(tag, &k)
            }
            PQuery::PairQ(a, b)
            | PQuery::Union(a, b)
            | PQuery::Intersect(a, b)
            | PQuery::Diff(a, b) => {
                let k = [self.query(a, vars), self.query(b, vars)];
                self.node(tag, &k)
            }
        }
    }

    fn leaf(&mut self, tag: Option<Tag>, payload: Payload) -> u32 {
        self.push(Op::Leaf(tag.expect("constructor pattern"), payload))
    }

    fn node(&mut self, tag: Option<Tag>, kids: &[u32]) -> u32 {
        let mut k = [0; 3];
        k[..kids.len()].copy_from_slice(kids);
        self.push(Op::Node(
            tag.expect("constructor pattern"),
            k,
            kids.len() as u8,
        ))
    }
}

/// One head match: its bindings, and for function rules the unconsumed
/// chain suffix as a span of the round's remainder arena.
#[derive(Debug, Clone, Copy)]
struct Hit {
    slots: Slots,
    rem: Span,
}

/// One scheduled rule application: rule position, the compiled head that
/// matched, the matched class, bindings, and (for function rules) the
/// unconsumed chain suffix.
struct Match {
    pos: usize,
    /// Index into [`Heads::heads`]; its `alt` names the body to
    /// instantiate — alts of one rule need not share variable sets.
    head: usize,
    class: ClassId,
    hit: Hit,
}

/// Per-round decomposition/enumeration limits. Depth bounds recursion
/// through chain e-nodes (cyclic classes make unbounded descent possible).
const CHAIN_DEPTH: usize = 64;

struct Sat<'s, 'r, 'a> {
    eg: EGraph,
    params: &'s SaturationParams<'r, 'a>,
    heads: &'r Heads,
    it: &'s mut Interner,
    /// Representative (cheapest) term per raw class id; `None` while a
    /// class has no finite-cost realization yet.
    reps: Vec<Option<ITerm>>,
    /// Match budget left for the current (class, rule alternative).
    fuel: usize,
    // Scratch, cleared and reused: nothing below allocates once grown.
    /// Canonical classes of the current round.
    classes: Vec<ClassId>,
    /// Candidate rule positions of the current class.
    cand: Vec<usize>,
    /// The round's scheduled applications.
    matches: Vec<Match>,
    /// Match remainders of the round, referenced by [`Hit::rem`].
    rems: Vec<ClassId>,
    /// Hit stack: every matcher call pushes its results on top; staged
    /// matching reads one stage's results and moves the next stage's down.
    hits: Vec<Hit>,
    /// Chain cursors (lists of classes whose composition is the chain),
    /// a stack of spans released when their matcher frame returns.
    cursors: Vec<ClassId>,
    /// Segment splits `(segment, rest cursor)`, a stack like `cursors`.
    splits: Vec<(ClassId, Span)>,
    /// Tails peeled while enumerating one cursor's splits.
    tails: Vec<ClassId>,
}

impl Sat<'_, '_, '_> {
    fn rep(&self, c: ClassId) -> Option<&ITerm> {
        self.reps
            .get(self.eg.find(c) as usize)
            .and_then(Option::as_ref)
    }

    fn refresh_reps(&mut self, cost: &dyn CostModel) {
        let ext = Extractor::new(&self.eg, cost);
        let mut reps: Vec<Option<ITerm>> = vec![None; self.eg.id_bound()];
        for c in self.eg.class_ids() {
            reps[c as usize] = ext.term(&self.eg, c, self.it);
        }
        self.reps = reps;
    }

    /// Collect this round's matches into `self.matches`. Deterministic:
    /// classes ascending, candidates ascending, alternatives and e-nodes in
    /// canonical order. Returns false, with the round unfinished, when the
    /// deadline passes (checked before each class).
    fn match_round(&mut self, report: &RewriteReport, budget: &Budget) -> bool {
        self.matches.clear();
        self.rems.clear();
        self.classes.clear();
        self.classes.extend(self.eg.class_ids());
        for ci in 0..self.classes.len() {
            if budget.expired() {
                return false;
            }
            let c = self.classes[ci];
            // Walk the discrimination tree against the class itself: every
            // `Sym` edge branches over every same-tagged e-node, so no
            // member's shape is hidden behind a cheaper representative.
            let Some(level) = class_level(&self.eg, c) else {
                continue;
            };
            let index = self.params.index;
            match level {
                Level::F => index.func_candidates_class(&self.eg, c, &mut self.cand),
                Level::P => index.pred_candidates_class(&self.eg, c, &mut self.cand),
                Level::Q => index.query_candidates_class(&self.eg, c, &mut self.cand),
            }
            for k in 0..self.cand.len() {
                let pos = self.cand[k];
                if self.params.active.is_some_and(|m| !m[pos]) {
                    continue;
                }
                if report.is_quarantined(&self.params.rules[pos].rule.id) {
                    continue;
                }
                self.ematch_rule(pos, level, c);
            }
        }
        true
    }

    /// E-match one rule (all alternatives of the class's level) and
    /// schedule applications, capped at `match_cap` per (class, rule).
    fn ematch_rule(&mut self, pos: usize, level: Level, c: ClassId) {
        let heads = self.heads;
        let cap = self.params.match_cap;
        let mut found = 0usize;
        for hi in heads.by_pos[pos].range() {
            let head = &heads.heads[hi];
            if found >= cap {
                break;
            }
            if head.level != level {
                continue;
            }
            self.fuel = cap - found;
            match (level, &heads.ops[head.root as usize]) {
                (Level::F, &Op::Chain(segs)) => {
                    let cursor = self.push_cursor(c);
                    self.ematch_chain(segs, cursor, [UNBOUND; MAX_SLOTS], CHAIN_DEPTH, false);
                    self.cursors.clear();
                }
                _ => self.ematch(head.root, c, [UNBOUND; MAX_SLOTS], CHAIN_DEPTH),
            }
            found += self.hits.len();
            for &hit in &self.hits {
                self.matches.push(Match {
                    pos,
                    head: hi,
                    class: c,
                    hit,
                });
            }
            self.hits.clear();
        }
    }

    fn push_cursor(&mut self, c: ClassId) -> Span {
        self.cursors.push(c);
        Span {
            start: (self.cursors.len() - 1) as u32,
            len: 1,
        }
    }

    /// Push a hit for each match of op `op` against class `c` under
    /// `binds`. A metavariable binds the class; a chain is matched with
    /// full consumption (a sub-pattern chain must equal the whole class,
    /// not a prefix of it), so association differences between pattern and
    /// class cannot hide a match; anything else backtracks over the class's
    /// e-nodes, by index — class contents cannot change before apply.
    fn ematch(&mut self, op: u32, c: ClassId, binds: Slots, depth: usize) {
        if self.fuel == 0 || depth == 0 {
            return;
        }
        let c = self.eg.find(c);
        let heads = self.heads;
        match &heads.ops[op as usize] {
            &Op::Var(slot) => {
                if let Some(slots) = bind(binds, slot, c) {
                    self.push_hit(slots);
                }
            }
            &Op::Chain(segs) => {
                let mark = self.cursors.len();
                let cursor = self.push_cursor(c);
                self.ematch_chain(segs, cursor, binds, depth, true);
                self.cursors.truncate(mark);
            }
            Op::Leaf(tag, payload) => {
                for i in 0..self.eg.nodes(c).len() {
                    if self.fuel == 0 {
                        return;
                    }
                    let n = &self.eg.nodes(c)[i];
                    if n.tag == *tag && n.payload == *payload {
                        self.fuel -= 1;
                        self.push_hit(binds);
                    }
                }
            }
            Op::Node(tag, pats, arity) => {
                let pats = &pats[..*arity as usize];
                for i in 0..self.eg.nodes(c).len() {
                    if self.fuel == 0 {
                        return;
                    }
                    let n = &self.eg.nodes(c)[i];
                    if n.tag != *tag {
                        continue;
                    }
                    let mut kids = [0; 3];
                    kids[..n.kids.len()].copy_from_slice(&n.kids);
                    self.ematch_kids(pats, &kids, binds, depth - 1);
                }
            }
        }
    }

    /// Match `pats[i]` against `kids[i]`, staged: every match of the first
    /// kid, then the second kid under each of them, and so on.
    fn ematch_kids(&mut self, pats: &[u32], kids: &[ClassId; 3], binds: Slots, depth: usize) {
        let base = self.hits.len();
        self.ematch(pats[0], kids[0], binds, depth);
        for (k, &pat) in pats.iter().enumerate().skip(1) {
            let stage = self.hits.len();
            for i in base..stage {
                let b = self.hits[i].slots;
                self.ematch(pat, kids[k], b, depth);
            }
            self.sink(base, stage);
        }
    }

    /// Move the hits above `from` down to `to`, dropping those between.
    fn sink(&mut self, to: usize, from: usize) {
        let n = self.hits.len() - from;
        self.hits.copy_within(from.., to);
        self.hits.truncate(to + n);
    }

    fn push_hit(&mut self, slots: Slots) {
        self.hits.push(Hit {
            slots,
            rem: Span::default(),
        });
    }

    /// Chain-prefix e-matching: match pattern segments against the chain
    /// structure of a cursor, decomposing through `∘` e-nodes. Mirrors
    /// [`crate::imatch::imatch_func_prefix`]: all but the last segment
    /// consume exactly one chain segment; a trailing metavariable swallows
    /// the whole rest; a trailing concrete segment consumes one and leaves
    /// the remainder for re-composition. With `full`, only matches leaving
    /// no remainder are kept.
    fn ematch_chain(&mut self, segs: Span, cursor: Span, binds: Slots, depth: usize, full: bool) {
        if self.fuel == 0 || depth == 0 {
            return;
        }
        let heads = self.heads;
        let (s0, c0) = (self.splits.len(), self.cursors.len());
        if segs.len != 1 {
            let Some(&p) = heads.segs[segs.range()].first() else {
                return;
            };
            // Non-final segment: consume exactly one chain segment.
            self.segment_splits(cursor, depth);
            for k in s0..self.splits.len() {
                if self.fuel == 0 {
                    break;
                }
                let (seg, rest) = self.splits[k];
                if let Op::Var(slot) = heads.ops[p as usize] {
                    if let Some(b) = bind(binds, slot, self.eg.find(seg)) {
                        self.ematch_chain(segs.tail(), rest, b, depth - 1, full);
                    }
                } else {
                    let base = self.hits.len();
                    self.ematch(p, seg, binds, depth - 1);
                    let stage = self.hits.len();
                    for i in base..stage {
                        let b = self.hits[i].slots;
                        self.ematch_chain(segs.tail(), rest, b, depth - 1, full);
                    }
                    self.sink(base, stage);
                }
            }
        } else {
            // Final pattern segment.
            let last = heads.segs[segs.start as usize];
            if let Op::Var(slot) = heads.ops[last as usize] {
                if cursor.len == 0 {
                    return;
                }
                let folded = fold(&mut self.eg, &self.cursors[cursor.range()]);
                if let Some(b) = bind(binds, slot, self.eg.find(folded)) {
                    self.fuel = self.fuel.saturating_sub(1);
                    self.push_hit(b);
                }
                return;
            }
            self.segment_splits(cursor, depth);
            for k in s0..self.splits.len() {
                if self.fuel == 0 {
                    break;
                }
                let (seg, rest) = self.splits[k];
                let base = self.hits.len();
                self.ematch(last, seg, binds, depth - 1);
                let n = self.hits.len() - base;
                self.fuel = self.fuel.saturating_sub(n);
                if rest.len == 0 || n == 0 {
                    continue;
                }
                if full {
                    self.hits.truncate(base);
                    continue;
                }
                let rem = Span {
                    start: self.rems.len() as u32,
                    len: rest.len,
                };
                self.rems.extend_from_slice(&self.cursors[rest.range()]);
                for h in &mut self.hits[base..] {
                    h.rem = rem;
                }
            }
        }
        self.splits.truncate(s0);
        self.cursors.truncate(c0);
    }

    /// Push onto `splits` every way to peel one chain segment off the
    /// cursor: `(segment class, remaining cursor)`, the cursors built on
    /// `cursors`. The head class itself counts as a segment when it has a
    /// non-`∘` e-node; each of its `∘` e-nodes splits into head and tail,
    /// recursively. Deduplicated, deterministic order.
    fn segment_splits(&mut self, cursor: Span, depth: usize) {
        if depth == 0 || cursor.len == 0 {
            return;
        }
        let first = self.splits.len();
        self.tails.clear();
        let c0 = self.cursors[cursor.start as usize];
        self.splits_from(first, c0, cursor.tail(), depth);
    }

    /// [`Sat::segment_splits`] below one peeled head `c0`: the rest of the
    /// cursor is the peeled tails (innermost first) followed by `rest`.
    fn splits_from(&mut self, first: usize, c0: ClassId, rest: Span, depth: usize) {
        let c0 = self.eg.find(c0);
        if self.eg.nodes(c0).iter().any(|n| n.tag != Tag::FCompose) {
            self.emit_split(first, c0, rest);
        }
        if depth == 1 {
            return;
        }
        for i in 0..self.eg.nodes(c0).len() {
            let n = &self.eg.nodes(c0)[i];
            if n.tag != Tag::FCompose {
                continue;
            }
            let head = self.eg.find(n.kids[0]);
            let tail = self.eg.find(n.kids[1]);
            // Guard against cyclic chain classes: never descend back into
            // the class we are decomposing.
            if head == c0 {
                continue;
            }
            self.tails.push(tail);
            self.splits_from(first, head, rest, depth - 1);
            self.tails.pop();
        }
    }

    /// Record split `(seg, tails ++ rest)` unless an equal one is already
    /// among this enumeration's splits (from `first`).
    fn emit_split(&mut self, first: usize, seg: ClassId, rest: Span) {
        let start = self.cursors.len();
        self.cursors.extend(self.tails.iter().rev());
        self.cursors.extend_from_within(rest.range());
        let span = Span {
            start: start as u32,
            len: (self.cursors.len() - start) as u32,
        };
        let dup = self.splits[first..]
            .iter()
            .any(|&(s, r)| s == seg && self.cursors[r.range()] == self.cursors[span.range()]);
        if dup {
            self.cursors.truncate(start);
        } else {
            self.splits.push((seg, span));
        }
    }

    /// Apply one scheduled match: check preconditions on representatives,
    /// instantiate the body as e-nodes, union with the matched class.
    /// Returns false when the application was skipped (failed precondition
    /// or unbound variable — the latter mirrors the fixpoint engine's
    /// contained `RuleFailed`).
    fn apply(&mut self, m: &Match) -> bool {
        let heads = self.heads;
        let o = &self.params.rules[m.pos];
        let head = &heads.heads[m.head];
        let binds = Bound {
            names: &heads.vars[head.vars.range()],
            slots: &m.hit.slots,
        };
        if !o.rule.preconditions.is_empty() {
            // Reify each bound function class's representative; properties
            // are semantic, so any member's verdict stands for the class.
            let mut s = ISubst::new();
            for ((kind, name), &c) in binds.names.iter().zip(binds.slots) {
                if *kind != VarKind::Func {
                    continue;
                }
                match self.rep(c) {
                    Some(t) => {
                        s.funcs.insert(name.clone(), t.clone());
                    }
                    None => return false,
                }
            }
            if !ipreconditions_hold(&o.rule.preconditions, &s, self.params.props) {
                return false;
            }
        }
        // The body must come from the same alternative whose head produced
        // the bindings — alts of one rule need not share variable sets.
        let level = class_level(&self.eg, m.class);
        match (&o.rule.alts[head.alt], &level) {
            (RewritePair::F(l, r), Some(Level::F)) => {
                let body = match o.dir {
                    Direction::Forward => r,
                    Direction::Backward => l,
                };
                let Ok(body_c) = self.einst_func(body, &binds) else {
                    return false;
                };
                let result = if m.hit.rem.len == 0 {
                    body_c
                } else {
                    let tail = fold(&mut self.eg, &self.rems[m.hit.rem.range()]);
                    self.eg.add(ENode {
                        tag: Tag::FCompose,
                        payload: Payload::None,
                        kids: vec![body_c, tail],
                    })
                };
                self.eg.union(m.class, result);
                true
            }
            (RewritePair::P(l, r), Some(Level::P)) => {
                let body = match o.dir {
                    Direction::Forward => r,
                    Direction::Backward => l,
                };
                let Ok(body_c) = self.einst_pred(body, &binds) else {
                    return false;
                };
                self.eg.union(m.class, body_c);
                true
            }
            (RewritePair::Q(l, r), Some(Level::Q)) => {
                let body = match o.dir {
                    Direction::Forward => r,
                    Direction::Backward => l,
                };
                let Ok(body_c) = self.einst_query(body, &binds) else {
                    return false;
                };
                self.eg.union(m.class, body_c);
                true
            }
            _ => false,
        }
    }

    fn einst_func(&mut self, pat: &PFunc, binds: &Bound) -> Result<ClassId, ()> {
        macro_rules! leaf {
            ($tag:expr) => {
                Ok(self.eg.add(ENode::leaf($tag, Payload::None)))
            };
        }
        macro_rules! node {
            ($tag:expr, $kids:expr) => {{
                let kids = $kids;
                Ok(self.eg.add(ENode {
                    tag: $tag,
                    payload: Payload::None,
                    kids,
                }))
            }};
        }
        match pat {
            PFunc::Var(v) => binds.get(VarKind::Func, v),
            PFunc::Id => leaf!(Tag::FId),
            PFunc::Pi1 => leaf!(Tag::FPi1),
            PFunc::Pi2 => leaf!(Tag::FPi2),
            PFunc::Flat => leaf!(Tag::FFlat),
            PFunc::Bagify => leaf!(Tag::FBagify),
            PFunc::Dedup => leaf!(Tag::FDedup),
            PFunc::BUnion => leaf!(Tag::FBUnion),
            PFunc::BFlat => leaf!(Tag::FBFlat),
            PFunc::SetUnion => leaf!(Tag::FSetUnion),
            PFunc::SetIntersect => leaf!(Tag::FSetIntersect),
            PFunc::SetDiff => leaf!(Tag::FSetDiff),
            PFunc::Prim(n) => Ok(self
                .eg
                .add(ENode::leaf(Tag::FPrim, Payload::Sym(n.clone())))),
            PFunc::Compose(a, b) => {
                let ia = self.einst_func(a, binds)?;
                let ib = self.einst_func(b, binds)?;
                node!(Tag::FCompose, vec![ia, ib])
            }
            PFunc::PairWith(a, b) => {
                let k = vec![self.einst_func(a, binds)?, self.einst_func(b, binds)?];
                node!(Tag::FPairWith, k)
            }
            PFunc::Times(a, b) => {
                let k = vec![self.einst_func(a, binds)?, self.einst_func(b, binds)?];
                node!(Tag::FTimes, k)
            }
            PFunc::ConstF(q) => {
                let k = vec![self.einst_query(q, binds)?];
                node!(Tag::FConstF, k)
            }
            PFunc::CurryF(f, q) => {
                let k = vec![self.einst_func(f, binds)?, self.einst_query(q, binds)?];
                node!(Tag::FCurryF, k)
            }
            PFunc::Cond(p, f, g) => {
                let k = vec![
                    self.einst_pred(p, binds)?,
                    self.einst_func(f, binds)?,
                    self.einst_func(g, binds)?,
                ];
                node!(Tag::FCond, k)
            }
            PFunc::Iterate(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                node!(Tag::FIterate, k)
            }
            PFunc::Iter(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                node!(Tag::FIter, k)
            }
            PFunc::Join(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                node!(Tag::FJoin, k)
            }
            PFunc::Nest(f, g) => {
                let k = vec![self.einst_func(f, binds)?, self.einst_func(g, binds)?];
                node!(Tag::FNest, k)
            }
            PFunc::Unnest(f, g) => {
                let k = vec![self.einst_func(f, binds)?, self.einst_func(g, binds)?];
                node!(Tag::FUnnest, k)
            }
            PFunc::BIterate(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                node!(Tag::FBIterate, k)
            }
        }
    }

    fn einst_pred(&mut self, pat: &PPred, binds: &Bound) -> Result<ClassId, ()> {
        macro_rules! leaf {
            ($tag:expr) => {
                Ok(self.eg.add(ENode::leaf($tag, Payload::None)))
            };
        }
        match pat {
            PPred::Var(v) => binds.get(VarKind::Pred, v),
            PPred::Eq => leaf!(Tag::PEq),
            PPred::Lt => leaf!(Tag::PLt),
            PPred::Leq => leaf!(Tag::PLeq),
            PPred::Gt => leaf!(Tag::PGt),
            PPred::Geq => leaf!(Tag::PGeq),
            PPred::In => leaf!(Tag::PIn),
            PPred::PrimP(n) => Ok(self
                .eg
                .add(ENode::leaf(Tag::PPrimP, Payload::Sym(n.clone())))),
            PPred::ConstP(b) => Ok(self.eg.add(ENode::leaf(Tag::PConstP, Payload::Bool(*b)))),
            PPred::Oplus(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::POplus,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::And(a, b) => {
                let k = vec![self.einst_pred(a, binds)?, self.einst_pred(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::PAnd,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::Or(a, b) => {
                let k = vec![self.einst_pred(a, binds)?, self.einst_pred(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::POr,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::Not(p) => {
                let k = vec![self.einst_pred(p, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::PNot,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::Conv(p) => {
                let k = vec![self.einst_pred(p, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::PConv,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::CurryP(p, q) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_query(q, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::PCurryP,
                    payload: Payload::None,
                    kids: k,
                }))
            }
        }
    }

    fn einst_query(&mut self, pat: &PQuery, binds: &Bound) -> Result<ClassId, ()> {
        match pat {
            PQuery::Var(v) => binds.get(VarKind::Obj, v),
            PQuery::Lit(v) => Ok(self.eg.add(ENode::leaf(
                Tag::QLit,
                Payload::Value(std::sync::Arc::new(v.clone())),
            ))),
            PQuery::Extent(n) => Ok(self
                .eg
                .add(ENode::leaf(Tag::QExtent, Payload::Sym(n.clone())))),
            PQuery::PairQ(a, b) => {
                let k = vec![self.einst_query(a, binds)?, self.einst_query(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QPairQ,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::App(f, q) => {
                let k = vec![self.einst_func(f, binds)?, self.einst_query(q, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QApp,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::Test(p, q) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_query(q, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QTest,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::Union(a, b) => {
                let k = vec![self.einst_query(a, binds)?, self.einst_query(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QUnion,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::Intersect(a, b) => {
                let k = vec![self.einst_query(a, binds)?, self.einst_query(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QIntersect,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::Diff(a, b) => {
                let k = vec![self.einst_query(a, binds)?, self.einst_query(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QDiff,
                    payload: Payload::None,
                    kids: k,
                }))
            }
        }
    }
}

/// Fold a cursor back into a single class, right-associated.
fn fold(eg: &mut EGraph, cursor: &[ClassId]) -> ClassId {
    let (&last, init) = cursor.split_last().expect("fold: non-empty cursor");
    init.iter().rev().fold(last, |acc, &c| {
        eg.add(ENode {
            tag: Tag::FCompose,
            payload: Payload::None,
            kids: vec![c, acc],
        })
    })
}

/// A match's bindings by name, for instantiating the rule body: the slot
/// names of the matched head beside the slots. A completed match has bound
/// every slot its head names.
struct Bound<'m> {
    names: &'m [(VarKind, Sym)],
    slots: &'m Slots,
}

impl Bound<'_> {
    /// The class bound to `(kind, name)`; an error when the head never
    /// bound it (mirrors the fixpoint engine's contained `RuleFailed`).
    fn get(&self, kind: VarKind, name: &Sym) -> Result<ClassId, ()> {
        self.names
            .iter()
            .position(|(k, n)| *k == kind && n == name)
            .map(|i| self.slots[i])
            .ok_or(())
    }
}

/// Term level of a class (from any e-node's tag — levels never mix within
/// a class because every rule and every congruence is level-preserving).
fn class_level(eg: &EGraph, c: ClassId) -> Option<Level> {
    eg.nodes(c).first().map(|n| level_of(n.tag))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
