//! The layer pass of the traced run: the workload's inputs go, in order,
//! through each layer's public entry point, each call wrapped in a span
//! that records its duration and allocations.
//!
//! - **Fleet mirror.** A long-lived engine configured as the fleet's
//!   worker engine serves the warm-up inputs unspanned, then every counted
//!   input under one `layer.request` root: `kola_frontend::parse_any_query`
//!   (`frontend.parse`) and `Engine::normalize` (`engine.normalize` on a
//!   fast fleet, `saturate.normalize` on a saturating one). Its allocations
//!   are the parse and engine shares of the service's per-request count,
//!   and its engine counters ([`EngineCounts`]) must equal the ones the
//!   service's worker engine reports for the same window, or the shares
//!   are not the service's.
//! - **Side pass.** The first [`SIDE_INPUTS`] counted inputs also go
//!   through the other engine, so both engines' metrics exist on every
//!   workload, and through `saturate::saturate_from_trajectory` on the
//!   saturating engine's fixpoint trajectory (`saturate.egraph`), for
//!   e-graph sizes.
//!
//! Nothing here has a deadline, so every count is a pure function of the
//! seed.

use crate::spans::Recorder;
use crate::workload::{Sequence, Workload, SATURATE_MAX_STEPS};
use kola::{Interner, Query};
use kola_rewrite::saturate::saturate_from_trajectory;
use kola_rewrite::{
    Catalog, Engine, EngineConfig, Oriented, PropDb, RewriteReport, RuleIndex, SaturationParams,
    TermSize,
};

/// Inputs of the side pass.
pub const SIDE_INPUTS: usize = 64;
/// E-match bindings per (class, rule) per round: the value the saturating
/// engine itself uses, so the sizes reported here are the served ones.
const MATCH_CAP: usize = 24;

/// The fleet mirror's engine counters, summed over the counted inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Rewrite steps.
    pub steps: u64,
    /// Node visits during redex search.
    pub visits: u64,
    /// Interner constructions.
    pub constructed: u64,
    /// Memo replays.
    pub memo_hits: u64,
    /// Memo lookups.
    pub memo_lookups: u64,
}

/// The sizes and costs of one `SaturationResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saturation {
    /// Match-apply-rebuild rounds.
    pub iterations: u64,
    /// E-nodes at the end.
    pub nodes: u64,
    /// E-classes at the end.
    pub classes: u64,
    /// Whether a round changed nothing.
    pub saturated: bool,
    /// Extracted cost (`TermSize`).
    pub cost: u64,
    /// Cost of the fixpoint output under the same model.
    pub fixpoint_cost: u64,
}

/// One layer pass.
#[derive(Debug)]
pub struct LayerPass {
    /// The spans.
    pub recorder: Recorder,
    /// The fleet mirror's counters.
    pub fleet: EngineCounts,
    /// Per side-pass input, what `saturate_from_trajectory` reported.
    pub saturation: Vec<Saturation>,
}

/// Run the pass over `seq`, the sequence `workload`'s windows served.
pub fn run(workload: Workload, seq: &Sequence) -> Result<LayerPass, String> {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented<'_>> = catalog.rules().iter().map(Oriented::fwd).collect();
    let fleet_config = workload.service_config();
    // As the fleet's worker engine: the ladder turns the trace on exactly
    // when the service records traces. A saturating engine builds its
    // fixpoint trace whatever the setting; keeping it lets the side pass
    // reuse the trajectory.
    let mut fleet = Engine::new(rules.clone(), &props, fleet_config.engine.clone());
    fleet.set_trace(fleet_config.tracing || workload.saturating());
    let mut other = if workload.saturating() {
        let mut e = Engine::new(rules.clone(), &props, EngineConfig::fast());
        e.set_trace(false);
        e
    } else {
        Engine::new(rules.clone(), &props, EngineConfig::saturating())
    };
    let index = RuleIndex::build(&rules);
    let params = SaturationParams {
        rules: &rules,
        props: &props,
        index: &index,
        active: None,
        match_cap: MATCH_CAP,
    };
    let mut interner = Interner::new();
    let parse = |text: &str| {
        kola_frontend::parse_any_query(text)
            .map_err(|e| format!("generator bug: {text:?} does not parse: {e}"))
    };

    for d in &seq.warmup {
        fleet.normalize(&parse(&d.text)?, &d.options.budget(None));
    }
    let mut rec = Recorder::new();
    let mut fleet_counts = EngineCounts::default();
    let mut saturation = Vec::with_capacity(SIDE_INPUTS);
    for (i, d) in seq.counted.iter().enumerate() {
        let side = i < SIDE_INPUTS;
        let i = i as u64;
        let root = rec.open("layer.request", i);
        let q = rec.time("frontend.parse", root, i, || parse(&d.text))?;
        let budget = d.options.budget(None);
        // Every saturating run carries the `saturate` fleet's step cap.
        let sat_budget = {
            let mut b = budget.clone();
            b.max_steps = b.max_steps.min(SATURATE_MAX_STEPS);
            b
        };
        let s0 = fleet.stats();
        let (fast, sat) = if workload.saturating() {
            (side.then_some(&mut other), Some(&mut fleet))
        } else {
            (Some(&mut fleet), side.then_some(&mut other))
        };
        let fast = fast.map(|e| rec.time("engine.normalize", root, i, || e.normalize(&q, &budget)));
        let sat = sat.map(|e| {
            rec.time("saturate.normalize", root, i, || {
                e.normalize(&q, &sat_budget)
            })
        });
        let s1 = fleet.stats();
        let fleet_out = if workload.saturating() { &sat } else { &fast };
        let c = &mut fleet_counts;
        c.steps += fleet_out.as_ref().map_or(0, |out| out.report.steps as u64);
        c.visits += s1.visits - s0.visits;
        c.constructed += s1.constructed - s0.constructed;
        c.memo_hits += s1.memo_hits - s0.memo_hits;
        c.memo_lookups += s1.memo_lookups - s0.memo_lookups;
        if let (true, Some(sat)) = (side, sat) {
            // The fixpoint wave's trajectory, as the engine feeds it.
            let trajectory: Vec<Query> = sat.trace.steps.iter().map(|s| s.after.clone()).collect();
            let mut report = RewriteReport::new();
            report.steps = trajectory.len();
            let r = rec.time("saturate.egraph", root, i, || {
                saturate_from_trajectory(
                    &q,
                    &trajectory,
                    &params,
                    &sat_budget,
                    &TermSize,
                    &mut report,
                    &mut interner,
                )
            });
            saturation.push(Saturation {
                iterations: r.iterations as u64,
                nodes: r.nodes as u64,
                classes: r.classes as u64,
                saturated: r.saturated,
                cost: r.cost,
                fixpoint_cost: r.fixpoint_cost,
            });
        }
        rec.close();
    }
    Ok(LayerPass {
        recorder: rec,
        fleet: fleet_counts,
        saturation,
    })
}
