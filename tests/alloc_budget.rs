//! Allocation budgets of the fast engine's hot path, counted on the calling
//! thread only (the other tests of this binary run in parallel on threads
//! of their own, and their allocations must not leak into a count).
//!
//! Pins three facts: a hash-cons hit allocates nothing, the plan-cache key
//! `query_fp` allocates nothing per node, and a warm fast engine keeps its
//! allocations per rewrite step under a stated bound.

use kola::intern::{Interner, PayloadRef, Tag};
use kola::parse::parse_query;
use kola::query_fp;
use kola::term::{Func, Query};
use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, Oriented, PropDb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// The system allocator, counting the allocations of each thread into
/// that thread's own counter.
struct PerThread;

thread_local! {
    // Const-initialized and destructor-free: touching it from inside the
    // allocator never allocates, so the count cannot recurse.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only a destructor-free thread-local.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PerThread = PerThread;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `id . id . … . age ! P` with `n` identities.
fn id_tower(n: usize) -> Query {
    let mut f = Func::Prim("age".into());
    for _ in 0..n {
        f = Func::Compose(Box::new(Func::Id), Box::new(f));
    }
    Query::App(f, Box::new(Query::Extent("P".into())))
}

#[test]
fn interner_hit_allocates_nothing() {
    let mut it = Interner::new();
    let q = parse_query("iterate(gt @ (age, Kf(25)), city . addr) ! P union {1, 2}").unwrap();
    let t = it.intern_query(&q);
    // Every node of the term, by payload kind: `Sym` (`age`, `P`),
    // `Value` (the literals), and plain constructors with kids.
    let mut nodes = vec![t.clone()];
    let mut i = 0;
    while i < nodes.len() {
        let kids = nodes[i].kids().to_vec();
        nodes.extend(kids);
        i += 1;
    }
    let mut total = 0;
    for n in &nodes {
        let (again, allocs) = counted(|| it.mk(n.tag(), n.payload().view(), n.kids()));
        assert!(again.ptr_eq(n), "a hit must return the same node");
        total += allocs;
    }
    assert_eq!(
        total,
        0,
        "{} hash-cons hits allocated {total} times",
        nodes.len()
    );
    // A miss builds the node (and nothing is counted against the hits).
    let age = it.mk(Tag::FPrim, PayloadRef::Sym(&"age".into()), &[]);
    let (_, allocs) = counted(|| it.mk(Tag::FCompose, PayloadRef::None, &[age.clone(), age]));
    assert!(allocs > 0, "a miss constructs");
}

#[test]
fn query_fp_allocates_nothing_per_node() {
    // Literal-heavy and chain-heavy queries of growing size: the walk's two
    // stacks grow by doubling, so a query of `n` nodes may cost O(log n)
    // allocations — and none per node or per literal.
    for n in [16usize, 256, 4096] {
        let mut lits = Query::Lit(kola::Value::Int(0));
        for i in 1..n as i64 {
            lits = Query::Union(Box::new(Query::Lit(kola::Value::Int(i))), Box::new(lits));
        }
        for q in [lits, id_tower(n)] {
            let size = q.size() as u64;
            let log2 = u64::from(u64::BITS - size.leading_zeros());
            let (_, allocs) = counted(|| query_fp(&q));
            assert!(
                allocs <= 2 * (log2 + 1),
                "query_fp on {size} nodes made {allocs} allocations"
            );
        }
    }
}

/// Allocations per rewrite step a warm fast engine may make on the
/// corpus below. Measured: 0.33 (1 393 allocations over 4 174 steps, about
/// 21 per request — the input walk's stacks, the report's first fire of
/// each rule, the boxed plan returned). The engine whose consults built
/// vectors, maps and strings made 10.8 per step on the same corpus.
const ALLOCS_PER_STEP_BOUND: f64 = 1.0;

#[test]
fn warm_fast_engine_allocations_per_step() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented<'_>> = catalog.rules().iter().map(Oriented::fwd).collect();
    let mut engine = Engine::new(rules, &props, EngineConfig::fast());
    engine.set_trace(false);
    let mut corpus: Vec<Query> = (1..=64).map(id_tower).collect();
    for src in [
        // Figure 4: T1K and T2K's inputs and T2K's fused intermediate.
        "iterate(Kp(T), city) . iterate(Kp(T), addr) ! P",
        "iterate(Kp(T), age) . iterate(gt @ (age, Kf(25)), id) ! P",
        "iterate(gt @ (age, Kf(25)), age) ! P",
    ] {
        corpus.push(parse_query(src).unwrap());
    }
    // A deadline keeps the memo out of the way, so the measured pass runs
    // every step live instead of replaying the warm-up's derivations.
    let budget = Budget::default().timeout(Duration::from_secs(3600));
    // Warm-up: builds the index, grows the scratch buffers and the arena.
    for q in &corpus {
        engine.normalize(q, &budget);
    }
    let mut steps = 0;
    let mut allocs = 0;
    for q in &corpus {
        let (out, n) = counted(|| engine.normalize(q, &budget));
        steps += out.report.steps;
        allocs += n;
    }
    assert!(
        steps > 2_000,
        "the corpus must exercise the engine ({steps} steps)"
    );
    let per_step = allocs as f64 / steps as f64;
    assert!(
        per_step <= ALLOCS_PER_STEP_BOUND,
        "{allocs} allocations over {steps} steps = {per_step:.2} per step"
    );
}
