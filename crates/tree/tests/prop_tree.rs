//! Property-style tests for the dynamic tree substrate.
//!
//! A random sequence of topological operations (interpreted against whatever
//! nodes currently exist) must always leave the tree structurally consistent,
//! with depths, ancestry and the change log agreeing with a straightforward
//! reference interpretation.
//!
//! The build environment has no proptest, so each property runs a fixed
//! number of seeded random cases through `dcn-rng`: every failure is
//! reproducible from its printed case seed.

use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_tree::{DynamicTree, NodeId, TopologyEvent, TreeError};

const CASES: u64 = 128;

/// An abstract operation; indices are interpreted modulo the current node set
/// so every generated sequence is applicable to every intermediate tree.
#[derive(Clone, Debug)]
enum Op {
    AddLeaf(usize),
    RemoveLeaf(usize),
    AddInternal(usize),
    RemoveInternal(usize),
}

/// Draws one operation with the weights 3 : 1 : 2 : 1 (mirroring the old
/// proptest strategy).
fn random_op(rng: &mut DetRng) -> Op {
    let k = rng.gen_range(0usize..64);
    match rng.gen_range(0u32..7) {
        0..=2 => Op::AddLeaf(k),
        3 => Op::RemoveLeaf(k),
        4..=5 => Op::AddInternal(k),
        _ => Op::RemoveInternal(k),
    }
}

fn random_ops(rng: &mut DetRng, max_len: usize) -> Vec<Op> {
    let len = rng.gen_range(1..=max_len);
    (0..len).map(|_| random_op(rng)).collect()
}

fn nth_node(tree: &DynamicTree, k: usize) -> NodeId {
    let nodes: Vec<NodeId> = tree.nodes().collect();
    nodes[k % nodes.len()]
}

fn apply(tree: &mut DynamicTree, op: &Op) -> Result<(), TreeError> {
    match op {
        Op::AddLeaf(k) => tree.add_leaf(nth_node(tree, *k)).map(|_| ()),
        Op::RemoveLeaf(k) => tree.remove_leaf(nth_node(tree, *k)),
        Op::AddInternal(k) => tree.add_internal_above(nth_node(tree, *k)).map(|_| ()),
        Op::RemoveInternal(k) => tree.remove_internal(nth_node(tree, *k)),
    }
}

/// After any sequence of operations the structural invariants hold.
#[test]
fn invariants_hold_after_random_ops() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(case);
        let ops = random_ops(&mut rng, 200);
        let mut tree = DynamicTree::new();
        for op in &ops {
            // Errors (e.g. removing the root or a leaf via remove_internal)
            // are fine; the tree must simply stay consistent.
            let _ = apply(&mut tree, op);
            assert!(
                tree.check_invariants().is_ok(),
                "case {case}: invariants violated after {op:?}"
            );
        }
        assert!(tree.node_count() >= 1, "case {case}");
        assert!(tree.contains(tree.root()), "case {case}");
    }
}

/// The number of successful insertions minus deletions tracks node_count,
/// and total_created only ever grows.
#[test]
fn node_count_matches_successful_ops() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(1_000 + case);
        let ops = random_ops(&mut rng, 200);
        let mut tree = DynamicTree::new();
        let mut expected = 1i64;
        for op in &ops {
            let before_created = tree.total_created();
            if apply(&mut tree, op).is_ok() {
                match op {
                    Op::AddLeaf(_) | Op::AddInternal(_) => expected += 1,
                    Op::RemoveLeaf(_) | Op::RemoveInternal(_) => expected -= 1,
                }
            }
            assert!(tree.total_created() >= before_created, "case {case}");
            assert_eq!(tree.node_count() as i64, expected, "case {case}");
        }
    }
}

/// Every existing node's depth equals the length of its ancestor chain
/// minus one, and every node is a descendant of the root.
#[test]
fn depth_agrees_with_ancestor_chain() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(2_000 + case);
        let ops = random_ops(&mut rng, 150);
        let mut tree = DynamicTree::new();
        for op in &ops {
            let _ = apply(&mut tree, op);
        }
        for v in tree.nodes().collect::<Vec<_>>() {
            let chain: Vec<_> = tree.ancestors(v).collect();
            assert_eq!(tree.depth(v), chain.len() - 1, "case {case}");
            assert_eq!(*chain.last().unwrap(), tree.root(), "case {case}");
            assert!(tree.is_ancestor(tree.root(), v), "case {case}");
            // path_between to the root agrees with the ancestor iterator.
            let path = tree.path_between(v, tree.root()).unwrap();
            assert_eq!(path, chain, "case {case}");
        }
    }
}

/// DFS from the root visits every existing node exactly once.
#[test]
fn dfs_is_a_bijection_on_nodes() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(3_000 + case);
        let ops = random_ops(&mut rng, 150);
        let mut tree = DynamicTree::new();
        for op in &ops {
            let _ = apply(&mut tree, op);
        }
        let mut visited: Vec<_> = tree.dfs(tree.root()).collect();
        visited.sort();
        visited.dedup();
        assert_eq!(visited.len(), tree.node_count(), "case {case}");
        let mut all: Vec<_> = tree.nodes().collect();
        all.sort();
        assert_eq!(visited, all, "case {case}");
    }
}

/// The sizes the change log derives are consistent: the series `n_j`,
/// computed from the size when recording began, equals `node_count()`
/// sampled before each successful op, and the `O(1)` change count equals the
/// log length.
#[test]
fn change_log_sizes_are_consistent() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(4_000 + case);
        let ops = random_ops(&mut rng, 150);
        let mut tree = DynamicTree::new();
        tree.record_changes();
        let mut sampled = Vec::new();
        for op in &ops {
            let before = tree.node_count();
            if apply(&mut tree, op).is_ok() {
                sampled.push(before);
            }
        }
        let log = tree.change_log();
        assert_eq!(log.sizes_at_changes(), sampled, "case {case}");
        assert_eq!(tree.changes(), log.len() as u64, "case {case}");
    }
}

/// Recording is invisible to the tree and the record is complete: a
/// recording and a non-recording tree driven by the same ops end node for
/// node equal, and replaying the recorded events onto a clone of the start
/// tree (the sharded mirror's dispatch) reproduces the final tree.
#[test]
fn a_recorded_history_replays_to_the_same_tree() {
    fn assert_same_tree(a: &DynamicTree, b: &DynamicTree, case: u64) {
        assert_eq!(a.total_created(), b.total_created(), "case {case}");
        assert!(a.nodes().eq(b.nodes()), "case {case}");
        for v in a.nodes() {
            assert_eq!(a.parent(v), b.parent(v), "case {case}: parent of {v}");
            assert!(
                a.children(v).unwrap().eq(b.children(v).unwrap()),
                "case {case}: children of {v}"
            );
            assert_eq!(a.depth(v), b.depth(v), "case {case}: depth of {v}");
        }
        assert!(b.check_invariants().is_ok(), "case {case}");
    }
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(7_000 + case);
        let mut start = DynamicTree::new();
        for op in &random_ops(&mut rng, 40) {
            let _ = apply(&mut start, op);
        }
        let ops = random_ops(&mut rng, 150);
        let mut plain = start.clone();
        let mut recording = start.clone();
        recording.record_changes();
        for op in &ops {
            assert_eq!(
                apply(&mut plain, op),
                apply(&mut recording, op),
                "case {case}: {op:?}"
            );
        }
        assert!(plain.change_log().is_empty(), "case {case}");
        assert_eq!(plain.changes(), recording.changes(), "case {case}");

        let mut replayed = start.clone();
        for event in recording.change_log().events() {
            match *event {
                TopologyEvent::AddLeaf { parent, child } => {
                    assert_eq!(replayed.add_leaf(parent), Ok(child), "case {case}");
                }
                TopologyEvent::AddInternal { node, below, .. } => {
                    assert_eq!(replayed.add_internal_above(below), Ok(node), "case {case}");
                }
                TopologyEvent::RemoveLeaf { node, .. }
                | TopologyEvent::RemoveInternal { node, .. } => {
                    assert_eq!(replayed.remove(node), Ok(()), "case {case}");
                }
            }
        }
        assert_same_tree(&recording, &plain, case);
        assert_same_tree(&recording, &replayed, case);
    }
}

/// The cached depths and size returned by `depth()` / `node_count()` match
/// a from-scratch recomputation (parent-chain walk and traversal that never
/// touch the caches) after arbitrary sequences of `add_leaf` /
/// `remove_leaf` / `add_internal_above` / `remove_internal`.
#[test]
fn cached_depths_and_sizes_match_recomputation() {
    fn recompute_depth(tree: &DynamicTree, v: NodeId) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = tree.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(6_000 + case);
        let ops = random_ops(&mut rng, 160);
        let mut tree = DynamicTree::new();
        for (i, op) in ops.iter().enumerate() {
            let _ = apply(&mut tree, op);
            // Check after *every* step, not only at the end: splice
            // operations shift whole subtrees and drift would otherwise be
            // masked by later inverse operations.
            assert_eq!(
                tree.node_count(),
                tree.dfs(tree.root()).count(),
                "case {case}: cached node count drifted after op {i} ({op:?})"
            );
            for v in tree.nodes().collect::<Vec<_>>() {
                assert_eq!(
                    tree.depth(v),
                    recompute_depth(&tree, v),
                    "case {case}: cached depth of {v} drifted after op {i} ({op:?})"
                );
            }
        }
    }
}

/// A naive reference tree: per id ever minted, `None` once removed, else
/// the parent link and the child list in order. Every mutator is written
/// the obvious way, so the arena's relinking is checked against a model
/// that cannot share its bugs.
struct Model(Vec<Option<(Option<NodeId>, Vec<NodeId>)>>);

impl Model {
    fn new() -> Self {
        Model(vec![Some((None, Vec::new()))])
    }

    fn live(&self, v: NodeId) -> Option<&(Option<NodeId>, Vec<NodeId>)> {
        self.0.get(v.index()).and_then(Option::as_ref)
    }

    fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.live(v).and_then(|(p, _)| *p)
    }

    fn children(&self, v: NodeId) -> &[NodeId] {
        &self.live(v).expect("a live node").1
    }

    fn mint(&mut self, parent: NodeId, children: Vec<NodeId>) -> NodeId {
        let id = NodeId::from_index(self.0.len());
        self.0.push(Some((Some(parent), children)));
        id
    }

    /// Puts `with` in `child`'s place in the child list of `child`'s parent.
    fn replace_in_parent(&mut self, child: NodeId, with: &[NodeId]) -> NodeId {
        let p = self.parent(child).expect("a non-root node");
        let list = &mut self.0[p.index()].as_mut().expect("a live parent").1;
        let pos = list.iter().position(|&c| c == child).expect("a back-edge");
        list.splice(pos..=pos, with.iter().copied());
        p
    }

    fn set_parent(&mut self, v: NodeId, p: NodeId) {
        self.0[v.index()].as_mut().expect("a live node").0 = Some(p);
    }

    fn add_leaf(&mut self, p: NodeId) -> Result<NodeId, TreeError> {
        self.live(p).ok_or(TreeError::UnknownNode(p))?;
        let id = self.mint(p, Vec::new());
        self.0[p.index()]
            .as_mut()
            .expect("a live parent")
            .1
            .push(id);
        Ok(id)
    }

    fn remove_leaf(&mut self, v: NodeId) -> Result<(), TreeError> {
        let (p, kids) = self.live(v).ok_or(TreeError::UnknownNode(v))?;
        if p.is_none() {
            return Err(TreeError::RootImmutable);
        }
        if !kids.is_empty() {
            return Err(TreeError::NotALeaf(v));
        }
        self.replace_in_parent(v, &[]);
        self.0[v.index()] = None;
        Ok(())
    }

    fn add_internal_above(&mut self, below: NodeId) -> Result<NodeId, TreeError> {
        let (p, _) = self.live(below).ok_or(TreeError::UnknownNode(below))?;
        let p = p.ok_or(TreeError::NoParentEdge(below))?;
        let id = self.mint(p, vec![below]);
        self.replace_in_parent(below, &[id]);
        self.set_parent(below, id);
        Ok(id)
    }

    fn remove_internal(&mut self, v: NodeId) -> Result<(), TreeError> {
        let (p, kids) = self.live(v).ok_or(TreeError::UnknownNode(v))?;
        if p.is_none() {
            return Err(TreeError::RootImmutable);
        }
        if kids.is_empty() {
            return Err(TreeError::NotInternal(v));
        }
        let kids = kids.clone();
        let p = self.replace_in_parent(v, &kids);
        for &c in &kids {
            self.set_parent(c, p);
        }
        self.0[v.index()] = None;
        Ok(())
    }

    fn nodes(&self) -> Vec<NodeId> {
        (0..self.0.len())
            .map(NodeId::from_index)
            .filter(|&v| self.live(v).is_some())
            .collect()
    }

    fn depth(&self, v: NodeId) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    fn dfs(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.push(v);
        for &c in self.children(v) {
            self.dfs(c, out);
        }
    }

    /// The live node with the most children (the lowest id on a tie).
    fn widest(&self) -> NodeId {
        let mut best = NodeId::from_index(0);
        for v in self.nodes() {
            if self.children(v).len() > self.children(best).len() {
                best = v;
            }
        }
        best
    }
}

/// The children of `v` in the arena, front to back and back to front.
fn arena_children(tree: &DynamicTree, v: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
    let kids = tree.children(v).expect("a live node");
    (kids.clone().collect(), kids.rev().collect())
}

/// Draws a target for an operation: a third of the time an inner child of
/// the widest node (so `remove_internal` splices long child lists into the
/// middle of long child lists), else any node ever minted, dead ones
/// included (so the error paths are compared too).
fn differential_target(model: &Model, rng: &mut DetRng) -> NodeId {
    if rng.gen_range(0u32..3) == 0 {
        let inner: Vec<NodeId> = model
            .children(model.widest())
            .iter()
            .copied()
            .filter(|&c| !model.children(c).is_empty())
            .collect();
        if !inner.is_empty() {
            return inner[rng.gen_range(0..inner.len())];
        }
    }
    NodeId::from_index(rng.gen_range(0..model.0.len()))
}

/// The arena and the naive model agree after every operation: on the
/// result of the operation, the parent, the children (both ways round), the
/// depth, the child-degree and leaf test of every live node, the error for
/// every dead id, the id-ordered node list, the pre-order from the root and
/// from a random node, and the arena's own invariant check. The record
/// slots of the live nodes are distinct, below the record count (the most
/// nodes ever live at once: a freed record is reused before a new one is
/// made), and unchanged for every node the operation did not remove.
#[test]
fn the_arena_agrees_with_a_naive_model_after_every_op() {
    for case in 0..64u64 {
        let mut rng = DetRng::seed_from_u64(8_000 + case);
        let mut tree = DynamicTree::new();
        let mut model = Model::new();
        let mut records = 1;
        for step in 0..300 {
            let slots_before: Vec<Option<usize>> = (0..model.0.len())
                .map(|i| tree.record_slot(NodeId::from_index(i)))
                .collect();
            let v = differential_target(&model, &mut rng);
            // Weights 4 : 1 : 2 : 3 — splices are the risk, so
            // remove-internal is drawn as often as the two insertions.
            let (what, same) = match rng.gen_range(0u32..10) {
                0..=3 => {
                    // New leaves go under the eight oldest live nodes, so
                    // degrees grow.
                    let live = model.nodes();
                    let p = live[rng.gen_range(0..live.len().min(8))];
                    ("add_leaf", tree.add_leaf(p) == model.add_leaf(p))
                }
                4 => ("remove_leaf", tree.remove_leaf(v) == model.remove_leaf(v)),
                5..=6 => (
                    "add_internal_above",
                    tree.add_internal_above(v) == model.add_internal_above(v),
                ),
                _ => (
                    "remove_internal",
                    tree.remove_internal(v) == model.remove_internal(v),
                ),
            };
            let at = format!("case {case} step {step}: {what}({v})");
            assert!(same, "{at}: results differ");
            assert_eq!(tree.check_invariants(), Ok(()), "{at}");
            assert_eq!(tree.total_created(), model.0.len(), "{at}");
            let nodes = model.nodes();
            assert!(tree.nodes().eq(nodes.iter().copied()), "{at}: nodes()");
            assert_eq!(tree.node_count(), nodes.len(), "{at}");
            records = records.max(nodes.len());
            let mut taken = vec![false; records];
            for i in 0..model.0.len() {
                let u = NodeId::from_index(i);
                let Some(r) = tree.record_slot(u) else {
                    assert!(model.live(u).is_none(), "{at}: live {u} has no slot");
                    continue;
                };
                assert!(model.live(u).is_some(), "{at}: dead {u} has slot {r}");
                assert!(r < records, "{at}: slot {r} of {u} past {records} records");
                assert!(
                    !std::mem::replace(&mut taken[r], true),
                    "{at}: slot {r} twice"
                );
                if let Some(&Some(before)) = slots_before.get(i) {
                    assert_eq!(r, before, "{at}: {u} moved from slot {before}");
                }
            }
            for i in 0..model.0.len() {
                let u = NodeId::from_index(i);
                if model.live(u).is_none() {
                    assert!(!tree.contains(u), "{at}: {u} is dead");
                    assert_eq!(tree.child_degree(u), Err(TreeError::UnknownNode(u)), "{at}");
                    assert_eq!(tree.is_leaf(u), Err(TreeError::UnknownNode(u)), "{at}");
                    continue;
                }
                let kids = model.children(u);
                let (fwd, back) = arena_children(&tree, u);
                assert_eq!(fwd, kids, "{at}: children of {u}");
                assert!(
                    back.iter().eq(kids.iter().rev()),
                    "{at}: reversed children of {u}"
                );
                assert_eq!(tree.parent(u), model.parent(u), "{at}: parent of {u}");
                assert_eq!(tree.depth(u), model.depth(u), "{at}: depth of {u}");
                assert_eq!(tree.child_degree(u), Ok(kids.len()), "{at}: degree of {u}");
                assert_eq!(tree.is_leaf(u), Ok(kids.is_empty()), "{at}: is_leaf({u})");
            }
            let mut order = Vec::new();
            model.dfs(tree.root(), &mut order);
            assert!(tree.dfs(tree.root()).eq(order.iter().copied()), "{at}: dfs");
            let start = nodes[rng.gen_range(0..nodes.len())];
            order.clear();
            model.dfs(start, &mut order);
            assert!(
                tree.dfs(start).eq(order.iter().copied()),
                "{at}: dfs({start})"
            );
        }
    }
}
