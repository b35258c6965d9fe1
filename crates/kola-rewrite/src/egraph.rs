//! E-graph core: e-classes of interned KOLA terms under a union-find, with
//! hashcons-based congruence closure.
//!
//! An [`EGraph`] stores *e-nodes* — one constructor application whose
//! children are e-class ids instead of subterms — grouped into *e-classes*
//! of provably-equal terms. Registering a term ([`EGraph::add_term`]) walks
//! the hash-consed [`ITerm`] DAG bottom-up; asserting an equality
//! ([`EGraph::union`]) merges two classes; [`EGraph::rebuild`] restores the
//! two invariants every operation relies on:
//!
//! * **hashcons**: no two distinct classes contain the same canonical
//!   e-node, so structural lookup ([`EGraph::lookup`]) is exact;
//! * **congruence**: if the children of two e-nodes are pairwise equal and
//!   the constructors match, their classes are equal.
//!
//! Rebuilding is a full-sweep fixpoint (canonicalize + dedup every class,
//! merge congruent shapes, repeat until stable) rather than the
//! parent-worklist repair of large e-graph engines: the saturation budgets
//! in this repo keep graphs in the thousands of nodes, where the sweep's
//! simplicity — and its deterministic, sorted class contents — are worth
//! more than asymptotic finesse. Determinism is load-bearing: the
//! saturation driver ([`crate::saturate`]) iterates classes in id order and
//! nodes in sorted order, so two runs over the same input take identical
//! trajectories (pinned by `tests/egraph_invariants.rs`).
//!
//! Union-find roots are always the *smallest* id in their class, so
//! canonical ids are stable under merge order.

use kola::intern::{ITerm, Payload, Tag};
use std::collections::HashMap;

/// An e-class identifier. Plain index into the union-find.
pub type ClassId = u32;

/// One constructor application over e-classes: the term analogue of an
/// interned node with every child abstracted to its equivalence class.
/// `Ord` (via the derived lexicographic order) gives classes a canonical
/// node order, which the saturation driver's determinism relies on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ENode {
    /// Constructor tag (same space as interned terms).
    pub tag: Tag,
    /// Non-child payload (`Prim` symbol, literal value, …).
    pub payload: Payload,
    /// Child e-classes, in constructor order.
    pub kids: Vec<ClassId>,
}

impl ENode {
    /// Leaf node helper.
    pub fn leaf(tag: Tag, payload: Payload) -> ENode {
        ENode {
            tag,
            payload,
            kids: Vec::new(),
        }
    }
}

/// One equivalence class: its e-nodes, kept sorted and deduplicated after
/// every [`EGraph::rebuild`].
#[derive(Debug, Default, Clone)]
pub struct EClass {
    /// The e-nodes whose canonical form lives in this class.
    pub nodes: Vec<ENode>,
}

/// The e-graph. See the module docs for the invariants; note that `add` /
/// `union` may leave the graph *dirty* — callers batch mutations and then
/// [`EGraph::rebuild`] once, which is the standard equality-saturation
/// rhythm (match phase → apply phase → rebuild).
#[derive(Debug, Default)]
pub struct EGraph {
    /// Union-find parents; `parent[i] == i` iff `i` is canonical.
    parent: Vec<ClassId>,
    /// Canonical e-node → canonical class. May be stale between a `union`
    /// and the next `rebuild`; reads canonicalize on the way in and out.
    memo: HashMap<ENode, ClassId>,
    /// Class storage, indexed by id; `None` for absorbed (non-root) ids.
    classes: Vec<Option<EClass>>,
    /// Total successful unions over the graph's lifetime.
    unions: u64,
    /// Bumped on every structural change (new class or union). The
    /// saturation driver snapshots this to detect a fixpoint.
    version: u64,
    /// True between a union and the rebuild that repairs it.
    dirty: bool,
}

impl EGraph {
    /// An empty e-graph.
    pub fn new() -> EGraph {
        EGraph::default()
    }

    /// Canonical representative of `c`.
    pub fn find(&self, mut c: ClassId) -> ClassId {
        while self.parent[c as usize] != c {
            c = self.parent[c as usize];
        }
        c
    }

    /// `node` with every child replaced by its canonical class.
    pub fn canonicalize(&self, node: &ENode) -> ENode {
        ENode {
            tag: node.tag,
            payload: node.payload.clone(),
            kids: node.kids.iter().map(|&k| self.find(k)).collect(),
        }
    }

    /// The class currently holding `node`'s shape, if any. Exact (not a
    /// heuristic) whenever the graph is clean.
    pub fn lookup(&self, node: &ENode) -> Option<ClassId> {
        let canon = self.canonicalize(node);
        self.memo.get(&canon).map(|&c| self.find(c))
    }

    /// Insert an e-node, returning its (possibly pre-existing) class.
    pub fn add(&mut self, mut canon: ENode) -> ClassId {
        // Canonicalize in place: the caller's node is consumed anyway.
        for k in &mut canon.kids {
            *k = self.find(*k);
        }
        if let Some(&c) = self.memo.get(&canon) {
            return self.find(c);
        }
        let id = self.parent.len() as ClassId;
        self.parent.push(id);
        self.classes.push(Some(EClass {
            nodes: vec![canon.clone()],
        }));
        self.memo.insert(canon, id);
        self.version += 1;
        id
    }

    /// Register a whole interned term bottom-up, sharing the DAG: each
    /// distinct interned node is added once per call.
    pub fn add_term(&mut self, t: &ITerm) -> ClassId {
        let mut seen: HashMap<usize, ClassId> = HashMap::new();
        self.add_term_rec(t, &mut seen)
    }

    fn add_term_rec(&mut self, t: &ITerm, seen: &mut HashMap<usize, ClassId>) -> ClassId {
        if let Some(&c) = seen.get(&t.id()) {
            return self.find(c);
        }
        let kids = t
            .kids()
            .iter()
            .map(|k| self.add_term_rec(k, seen))
            .collect();
        let c = self.add(ENode {
            tag: t.tag(),
            payload: t.payload().clone(),
            kids,
        });
        seen.insert(t.id(), c);
        c
    }

    /// Assert `a = b`. Returns the surviving canonical id; marks the graph
    /// dirty when the classes were distinct. The smaller id always wins, so
    /// canonical ids do not depend on merge order.
    pub fn union(&mut self, a: ClassId, b: ClassId) -> ClassId {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (keep, lose) = if ra < rb { (ra, rb) } else { (rb, ra) };
        let moved = self.classes[lose as usize]
            .take()
            .expect("absorbed class has storage");
        self.parent[lose as usize] = keep;
        self.classes[keep as usize]
            .as_mut()
            .expect("canonical class has storage")
            .nodes
            .extend(moved.nodes);
        self.unions += 1;
        self.version += 1;
        self.dirty = true;
        keep
    }

    /// Restore the hashcons and congruence invariants after a batch of
    /// `union`s: sweep every class (canonicalize, sort, dedup its nodes),
    /// merge any two classes sharing a canonical shape, and repeat until no
    /// merge fires. Also path-compresses the union-find.
    pub fn rebuild(&mut self) {
        loop {
            // Path-compress so the sweeps below pay O(1) per find.
            for i in 0..self.parent.len() {
                let root = self.find(i as ClassId);
                self.parent[i] = root;
            }
            let mut changed = false;
            let mut memo: HashMap<ENode, ClassId> = HashMap::new();
            for id in 0..self.parent.len() as ClassId {
                if self.parent[id as usize] != id {
                    continue;
                }
                let mut nodes = std::mem::take(
                    &mut self.classes[id as usize]
                        .as_mut()
                        .expect("canonical class has storage")
                        .nodes,
                );
                for n in &mut nodes {
                    *n = self.canonicalize(n);
                }
                nodes.sort();
                nodes.dedup();
                self.classes[id as usize]
                    .as_mut()
                    .expect("canonical class has storage")
                    .nodes = nodes;
            }
            for id in 0..self.parent.len() as ClassId {
                if self.parent[id as usize] != id {
                    continue;
                }
                let nodes = self.classes[id as usize]
                    .as_ref()
                    .expect("canonical class has storage")
                    .nodes
                    .clone();
                for n in nodes {
                    match memo.get(&n) {
                        None => {
                            memo.insert(n, id);
                        }
                        Some(&other) => {
                            let other = self.find(other);
                            let here = self.find(id);
                            if other != here {
                                // Congruent shapes in distinct classes:
                                // their parents made their kids equal.
                                self.union(other, here);
                                changed = true;
                            }
                        }
                    }
                }
            }
            self.memo = memo;
            if !changed {
                break;
            }
        }
        // Canonicalize memo values (unions during the last merge pass may
        // have absorbed some of them).
        let fixed: Vec<(ENode, ClassId)> = self
            .memo
            .iter()
            .map(|(n, &c)| (n.clone(), self.find(c)))
            .collect();
        self.memo = fixed.into_iter().collect();
        self.dirty = false;
    }

    /// Canonical class ids, ascending.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.parent.len() as ClassId).filter(move |&id| self.parent[id as usize] == id)
    }

    /// The e-nodes of canonical class `c` (sorted when the graph is clean).
    pub fn nodes(&self, c: ClassId) -> &[ENode] {
        let c = self.find(c);
        self.classes[c as usize]
            .as_ref()
            .map(|cl| cl.nodes.as_slice())
            .unwrap_or(&[])
    }

    /// Number of canonical classes.
    pub fn num_classes(&self) -> usize {
        self.class_ids().count()
    }

    /// Total e-nodes across all canonical classes.
    pub fn num_nodes(&self) -> usize {
        self.class_ids().map(|c| self.nodes(c).len()).sum()
    }

    /// Total ids ever allocated (canonical or absorbed) — the bound array
    /// consumers (e.g. the extractor) index by.
    pub fn id_bound(&self) -> usize {
        self.parent.len()
    }

    /// Lifetime union count.
    pub fn unions(&self) -> u64 {
        self.unions
    }

    /// Structural-change counter (see field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True between a union and its repairing rebuild.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Check both invariants; returns a description of the first violation.
    /// Test-facing (property suite); O(total nodes).
    pub fn check_congruence(&self) -> Result<(), String> {
        if self.dirty {
            return Err("graph is dirty: rebuild() has not run".into());
        }
        let mut seen: HashMap<ENode, ClassId> = HashMap::new();
        for c in self.class_ids() {
            for n in self.nodes(c) {
                let canon = self.canonicalize(n);
                if let Some(&other) = seen.get(&canon) {
                    if self.find(other) != self.find(c) {
                        return Err(format!(
                            "congruence violation: {canon:?} in classes {} and {}",
                            self.find(other),
                            self.find(c)
                        ));
                    }
                }
                seen.insert(canon.clone(), c);
                match self.memo.get(&canon) {
                    Some(&m) if self.find(m) == self.find(c) => {}
                    Some(&m) => {
                        return Err(format!(
                            "hashcons points {canon:?} at class {} but it lives in {}",
                            self.find(m),
                            self.find(c)
                        ));
                    }
                    None => return Err(format!("hashcons is missing {canon:?}")),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::intern::Interner;
    use kola::parse::parse_func;

    fn reg(eg: &mut EGraph, it: &mut Interner, src: &str) -> ClassId {
        let t = it.intern_func(&parse_func(src).unwrap().normalize());
        eg.add_term(&t)
    }

    #[test]
    fn add_term_is_hashconsed() {
        let mut it = Interner::new();
        let mut eg = EGraph::new();
        let a = reg(&mut eg, &mut it, "iterate(Kp(T), city . addr)");
        let b = reg(&mut eg, &mut it, "iterate(Kp(T), city . addr)");
        assert_eq!(a, b);
        assert_eq!(eg.num_classes(), eg.num_nodes());
    }

    #[test]
    fn union_then_rebuild_closes_congruence() {
        let mut it = Interner::new();
        let mut eg = EGraph::new();
        // f = a . b, g = c . b; assert a = c, so f and g become congruent.
        let a = reg(&mut eg, &mut it, "a");
        let c = reg(&mut eg, &mut it, "c");
        let f = reg(&mut eg, &mut it, "a . b");
        let g = reg(&mut eg, &mut it, "c . b");
        assert_ne!(eg.find(f), eg.find(g));
        eg.union(a, c);
        eg.rebuild();
        assert_eq!(eg.find(f), eg.find(g));
        eg.check_congruence().unwrap();
    }

    #[test]
    fn min_id_root_survives_any_merge_order() {
        let mut it = Interner::new();
        let mut eg = EGraph::new();
        let a = reg(&mut eg, &mut it, "a");
        let b = reg(&mut eg, &mut it, "b");
        let c = reg(&mut eg, &mut it, "c");
        eg.union(c, b);
        eg.union(b, a);
        eg.rebuild();
        assert_eq!(eg.find(c), a);
        assert_eq!(eg.find(b), a);
    }
}
