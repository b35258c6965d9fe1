//! Stack safety of the interned fast path on very long `∘` chains:
//! 100 000 segments, right- and left-nested, through the normalizing intern
//! walk and a fast engine run. Every walk on that path keeps its stack on
//! the heap, and the redex search's recursion is bounded by the depth
//! budget, so neither chain may overflow the native stack. The deep boxed
//! terms are only ever inspected through the stack-safe fingerprint — the
//! derived `PartialEq`, `Debug` and `size` recurse.

use kola::intern::Interner;
use kola::query_fp;
use kola::term::{Func, Query};
use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, Oriented, PropDb};

const SEGMENTS: usize = 100_000;

/// `id ∘ age ∘ id ∘ age ∘ … ! P` with `n` segments, its `∘`s nested to the
/// right (`f ∘ (g ∘ h)`) or to the left (`(f ∘ g) ∘ h`).
fn chain(n: usize, right: bool) -> Query {
    let seg = |i: usize| {
        if i.is_multiple_of(2) {
            Func::Id
        } else {
            Func::Prim("age".into())
        }
    };
    let f = if right {
        (0..n - 1).rev().fold(seg(n - 1), |f, i| {
            Func::Compose(Box::new(seg(i)), Box::new(f))
        })
    } else {
        (1..n).fold(seg(0), |f, i| Func::Compose(Box::new(f), Box::new(seg(i))))
    };
    Query::App(f, Box::new(Query::Extent("P".into())))
}

#[test]
fn normalizing_intern_flattens_long_chains() {
    let mut it = Interner::new();
    let right = it.intern_query_normalized(&chain(SEGMENTS, true));
    // `!`, the chain's segments and `∘`s, and `P`.
    assert_eq!(right.size(), 2 * SEGMENTS + 1);
    let arena = it.len();
    let left = it.intern_query_normalized(&chain(SEGMENTS, false));
    assert!(left.ptr_eq(&right), "both nestings normalize to one node");
    assert_eq!(it.len(), arena, "the left-nested chain added no node");
}

#[test]
fn fast_engine_rewrites_long_chains() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented<'_>> = catalog.rules().iter().map(Oriented::fwd).collect();
    let mut engine = Engine::new(rules, &props, EngineConfig::fast());
    // Each traced step would reify the whole 200 000-node term.
    engine.set_trace(false);
    let budget = Budget::with_steps(64);
    let mut plans = Vec::new();
    for right in [true, false] {
        let out = engine.normalize(&chain(SEGMENTS, right), &budget);
        assert_eq!(out.report.steps, 64, "{:?}", out.report.stop);
        plans.push(query_fp(&out.query));
    }
    assert_eq!(plans[0], plans[1], "both nestings rewrite to one plan");
}
