//! Dynamic ancestry labeling (Corollary 5.7), extended to insertions by
//! room reserved in every label.

use crate::size::SizeEstimator;
use dcn_collections::SlidingMap;
use dcn_controller::{Controller, ControllerError, InvariantError, Progress};
use dcn_simnet::{NodeId, SimConfig};
use dcn_tree::DynamicTree;

/// An interval label: `u` is an ancestor of `v` iff `u`'s interval contains
/// `v`'s interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AncestryLabel {
    /// The node's own point, the first of its interval.
    pub low: u64,
    /// The last point of its interval (inclusive).
    pub high: u64,
}

impl AncestryLabel {
    /// Returns `true` if the node carrying `self` is an ancestor of the node
    /// carrying `other` (a node is its own ancestor).
    pub fn is_ancestor_of(&self, other: &AncestryLabel) -> bool {
        self.low <= other.low && other.high <= self.high
    }

    /// Number of bits needed to encode this label (two numbers).
    pub fn bits(&self) -> u32 {
        2 * (64 - self.high.max(1).leading_zeros())
    }
}

/// A node's label, and whether the node still owns its gap slot `low − 1`.
#[derive(Clone, Copy, Debug)]
struct Entry {
    label: AncestryLabel,
    gap: bool,
}

/// A dynamic ancestry labeling scheme for trees under controlled insertions
/// and deletions of both leaves and internal nodes (Corollary 5.7, with the
/// reserved-gap technique of dynamic labeling schemes for the insertions).
///
/// **Deletions** never invalidate interval containment, so the labels of
/// surviving nodes stay *correct* for free; what degrades is their *size*:
/// after heavy shrinkage, labels are long relative to `log n`. The
/// size-estimation protocol detects the shrinkage (its per-iteration estimate
/// halves) and triggers a global re-label once `n ≤ labeled_at / 2`, which
/// keeps the label length at `O(log n)` bits while paying only `2n` messages
/// per halving.
///
/// **Insertions** take their labels from room reserved when a subtree is laid
/// out. Inside a node's interval come its *gap slot* `low − 1`, its own point
/// `low`, its children's intervals one after another, and last its free
/// *tail* up to `high`; the spare room, width − 2·|subtree|, goes to each
/// child in proportion to its subtree size. After every slice the unlabeled
/// nodes are labeled in id order, which is insertion order:
/// * a new leaf under `p` takes half of `p`'s free tail, at least its gap slot
///   and its point, for one parent→child message;
/// * a node split in above `v` takes `[v.low − 1, v.high]` if `v` still owns
///   its gap slot and the parent's `low` lies below it, for one message; the
///   new node owns no gap slot, so a second split directly above it cannot
///   do the same;
/// * otherwise the smallest labeled ancestor `a` whose density is at most ½,
///   `a.high − a.low ≥ 4·(|subtree(a)| − 1)`, lays its descendants out anew
///   inside its own unchanged interval, for `2·|subtree(a)|` messages; if no
///   ancestor has that room, the whole tree is re-labeled, for `2n`.
///
/// **Range.** A global re-label of `n` nodes gives the root `[1, R]` with
/// `R = 2^(⌈log₂(⌊n/2⌋+1)⌉+3) − 1` (2047 at n = 256, about `8n`). The
/// halving rule re-labels again once the count falls to `⌊n/2⌋`, so every
/// count `n′` that lives with these labels has `n′ ≥ ⌊n/2⌋ + 1`, and every
/// label lies inside `[1, R]`: `bitlen(high) ≤ ⌈log₂(⌊n/2⌋+1)⌉ + 3 ≤
/// ⌈log₂ n′⌉ + 3`, so the `2·(⌈log₂ n⌉ + 3)`-bit bound of
/// [`check_invariants`](Controller::check_invariants) holds until the next
/// global re-label. And `R ≥ 4n + 3`, so right after it the root's density
/// is at most ½.
#[derive(Debug)]
pub struct AncestryLabeling {
    size: SizeEstimator,
    labels: SlidingMap<NodeId, Entry>,
    /// The node count at the time of the last global re-label.
    labeled_at: u64,
    relabels: u32,
}

impl AncestryLabeling {
    /// Creates the labeling over `tree`; all current nodes are labeled.
    ///
    /// # Errors
    ///
    /// Returns controller construction errors.
    pub fn new(config: SimConfig, tree: DynamicTree) -> Result<Self, ControllerError> {
        let size = SizeEstimator::new(config, tree, 2.0)?;
        let mut labeling = AncestryLabeling {
            size,
            labels: SlidingMap::new(),
            labeled_at: 0,
            relabels: 0,
        };
        labeling.relabel();
        Ok(labeling)
    }

    /// The label of `node`, if it exists and has been labeled.
    pub fn label(&self, node: NodeId) -> Option<AncestryLabel> {
        self.labels.get(node).map(|e| e.label)
    }

    /// Number of global re-labels performed so far.
    pub fn relabels(&self) -> u32 {
        self.relabels
    }

    /// Maximum label size over existing nodes, in bits.
    pub fn max_label_bits(&self) -> u32 {
        self.tree()
            .nodes()
            .filter_map(|n| self.label(n))
            .map(|l| l.bits())
            .max()
            .unwrap_or(0)
    }

    /// Answers an ancestry query purely from the two labels.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> Option<bool> {
        Some(self.label(anc)?.is_ancestor_of(&self.label(desc)?))
    }

    /// Re-labels every existing node inside the root's range `[1, R]` (see
    /// the type's docs), charged as one traversal of the tree, `2n`.
    fn relabel(&mut self) {
        let tree = self.size.tree();
        let n = tree.node_count() as u64;
        let bits = (n / 2 + 1).next_power_of_two().trailing_zeros() + 3;
        let root = Entry {
            label: AncestryLabel {
                low: 1,
                high: (1 << bits) - 1,
            },
            gap: true,
        };
        self.labels.clear();
        lay_out(tree, &mut self.labels, tree.root(), root);
        self.labeled_at = n;
        self.relabels += 1;
        self.size.driver.charge_messages(2 * n);
    }

    /// Drops the labels of deleted nodes, then re-labels globally if the
    /// network halved since the last global re-label, and otherwise labels
    /// the new nodes in id (insertion) order.
    fn after_slice(&mut self, _progress: Progress) {
        // Probe the tree arena directly — membership is an O(1) slot check,
        // so no snapshot set of all nodes is materialised per slice.
        let tree = self.size.tree();
        self.labels.retain(|node, _| tree.contains(node));
        if tree.node_count() as u64 <= self.labeled_at / 2 {
            return self.relabel();
        }
        let fresh: Vec<NodeId> = tree
            .nodes()
            .filter(|&v| !self.labels.contains_key(v))
            .collect();
        for v in fresh {
            // A re-layout for an earlier node may have labeled `v` already.
            if !self.labels.contains_key(v) {
                self.place(v);
            }
        }
    }

    /// Labels the new node `v` from room reserved for it, for one message,
    /// or else re-lays out the nearest ancestor that has room.
    fn place(&mut self, v: NodeId) {
        let tree = self.size.tree();
        let parent = tree.parent(v).and_then(|p| Some((p, *self.labels.get(p)?)));
        let placed = match (parent, self.frontier(v).as_slice()) {
            // A new leaf, or one with only new nodes below: half of the
            // parent's free tail, which starts after everything labeled
            // below the parent.
            (Some((p, up)), []) => {
                let start = self
                    .frontier(p)
                    .into_iter()
                    .filter_map(|c| self.label(c))
                    .map(|l| l.high + 1)
                    .max()
                    .unwrap_or(up.label.low + 1);
                let tail = (up.label.high + 1).saturating_sub(start);
                if tail >= 2 {
                    let label = AncestryLabel {
                        low: start + 1,
                        high: start + (tail / 2).max(2) - 1,
                    };
                    self.labels.insert(v, Entry { label, gap: true });
                }
                tail >= 2
            }
            // A split above `c`: `c`'s gap slot and interval.
            (Some((_, up)), &[c]) => match self.labels.get(c).copied() {
                Some(down) if down.gap && up.label.low < down.label.low - 1 => {
                    let label = AncestryLabel {
                        low: down.label.low - 1,
                        high: down.label.high,
                    };
                    self.labels.insert(v, Entry { label, gap: false });
                    self.labels.insert(c, Entry { gap: false, ..down });
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if placed {
            self.size.driver.charge_messages(1);
        } else {
            self.relayout_around(v);
        }
    }

    /// The labeled nodes below `v` that are reached through unlabeled ones
    /// only: a slice's splits can put old nodes under new ones.
    fn frontier(&self, v: NodeId) -> Vec<NodeId> {
        let tree = self.size.tree();
        let mut found = Vec::new();
        let mut stack: Vec<NodeId> = tree.children(v).unwrap_or_default().collect();
        while let Some(c) = stack.pop() {
            if self.labels.contains_key(c) {
                found.push(c);
            } else {
                stack.extend(tree.children(c).unwrap_or_default());
            }
        }
        found
    }

    /// Lays out anew, inside its own interval, the smallest labeled proper
    /// ancestor `a` of `v` with `a.high − a.low ≥ 4·(|subtree(a)| − 1)`,
    /// charged `2·|subtree(a)|`; re-labels globally if there is none.
    fn relayout_around(&mut self, v: NodeId) {
        let tree = self.size.tree();
        let mut size = tree.dfs(v).count() as u64;
        let mut below = v;
        while let Some(a) = tree.parent(below) {
            size += 1 + tree
                .children(a)
                .unwrap_or_default()
                .filter(|&c| c != below)
                .map(|c| tree.dfs(c).count() as u64)
                .sum::<u64>();
            if let Some(&top) = self.labels.get(a) {
                if top.label.high - top.label.low >= 4 * (size - 1) {
                    lay_out(tree, &mut self.labels, a, top);
                    self.size.driver.charge_messages(2 * size);
                    return;
                }
            }
            below = a;
        }
        self.relabel();
    }
}

/// Labels `top` with `entry` and lays its descendants out inside that
/// interval, which must hold `2·|subtree(top)| − 2` points after `low`: each
/// descendant gets its gap slot and its point, children follow their
/// parent's point in order, and each child gets a share of its parent's
/// spare room in proportion to its subtree size; the rest is the parent's
/// free tail.
fn lay_out(tree: &DynamicTree, labels: &mut SlidingMap<NodeId, Entry>, top: NodeId, entry: Entry) {
    // Pre-order, each node with its parent's position.
    let mut order: Vec<(NodeId, usize)> = Vec::new();
    let mut stack = vec![(top, 0)];
    while let Some((v, parent)) = stack.pop() {
        let at = order.len();
        order.push((v, parent));
        stack.extend(tree.children(v).unwrap_or_default().rev().map(|c| (c, at)));
    }
    let mut size = vec![1u64; order.len()];
    for i in (1..order.len()).rev() {
        size[order[i].1] += size[i];
    }
    // Per position: the next free point of its interval, and its spare room.
    let mut next = vec![entry.label.low + 1; order.len()];
    let mut spare = vec![entry.label.high + 2 - entry.label.low - 2 * size[0]; order.len()];
    labels.insert(top, entry);
    for (i, &(v, p)) in order.iter().enumerate().skip(1) {
        let share = u128::from(spare[p]) * u128::from(size[i]) / u128::from(size[p]);
        let len = 2 * size[i] + share as u64;
        let label = AncestryLabel {
            low: next[p] + 1,
            high: next[p] + len - 1,
        };
        next[p] += len;
        labels.insert(v, Entry { label, gap: true });
        next[i] = label.low + 1;
        spare[i] = len - 2 * size[i];
    }
}

impl Controller for AncestryLabeling {
    engine_controller!("ancestry-labeling", size.driver, after_slice);

    /// Every existing node is labeled, label containment agrees with tree
    /// ancestry for every pair, and label sizes are `O(log n)` (at most
    /// `2·(log2(n) + 3)` bits per coordinate pair after the scheme's own
    /// re-labeling policy).
    ///
    /// Ancestry is checked exactly, in `O(n log n)`: every label is a
    /// non-empty interval strictly inside its parent's, and the intervals of
    /// each node's children are pairwise disjoint. Then an ancestor's label
    /// contains its descendant's and not the other way round, and two
    /// unrelated nodes sit in the disjoint intervals of two children of
    /// their lowest common ancestor.
    fn check_invariants(&self) -> Result<(), InvariantError> {
        let tree = self.tree();
        let mismatch = |(ancestor, a): (NodeId, AncestryLabel), (descendant, d), by_tree| {
            InvariantError::AncestryMismatch {
                ancestor,
                descendant,
                by_label: a.is_ancestor_of(&d),
                by_tree,
            }
        };
        let mut siblings: Vec<(NodeId, NodeId, AncestryLabel)> = Vec::new();
        for v in tree.nodes() {
            let Some(label) = self.label(v) else {
                return Err(InvariantError::MissingLabel { node: v });
            };
            if label.low > label.high {
                // An empty interval contains nothing, not even its own node.
                return Err(InvariantError::AncestryMismatch {
                    ancestor: v,
                    descendant: v,
                    by_label: false,
                    by_tree: true,
                });
            }
            if let Some(p) = tree.parent(v) {
                siblings.push((p, v, label));
            }
        }
        for &(p, v, label) in &siblings {
            let Some(up) = self.label(p) else {
                return Err(InvariantError::MissingLabel { node: p });
            };
            if up == label {
                return Err(mismatch((v, label), (p, up), false));
            }
            if !up.is_ancestor_of(&label) {
                return Err(mismatch((p, up), (v, label), true));
            }
        }
        siblings.sort_unstable_by_key(|&(p, _, label)| (p, label.low));
        for pair in siblings.windows(2) {
            let ((p, u, a), (q, v, b)) = (pair[0], pair[1]);
            if p == q && b.low <= a.high {
                return Err(if b.is_ancestor_of(&a) {
                    mismatch((v, b), (u, a), false)
                } else {
                    mismatch((u, a), (v, b), false)
                });
            }
        }
        let count = tree.node_count();
        let n = count.max(2) as f64;
        let max_bits = self.max_label_bits();
        let bound = 2 * (n.log2().ceil() as u32 + 3);
        if max_bits > bound {
            return Err(InvariantError::LabelTooWide {
                bits: max_bits,
                bound,
                nodes: count,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeavyChildDecomposition, MajorityCommitment, NameAssigner, SubtreeEstimator};
    use dcn_controller::RequestKind;
    use dcn_rng::{DetRng, Rng, SeedableRng};

    #[test]
    fn label_containment_matches_ancestry() {
        let tree = DynamicTree::with_initial_path(12);
        let labeling = AncestryLabeling::new(SimConfig::new(31), tree).unwrap();
        labeling.check_invariants().unwrap();
        let root = labeling.tree().root();
        let deep = labeling
            .tree()
            .nodes()
            .max_by_key(|&n| labeling.tree().depth(n))
            .unwrap();
        assert_eq!(labeling.is_ancestor(root, deep), Some(true));
        assert_eq!(labeling.is_ancestor(deep, root), Some(false));
    }

    #[test]
    fn deletions_keep_labels_correct_and_shrinkage_triggers_relabeling() {
        let tree = DynamicTree::with_initial_star(120);
        let mut labeling = AncestryLabeling::new(SimConfig::new(32), tree).unwrap();
        let initial_relabels = labeling.relabels();
        for _ in 0..30 {
            let victims: Vec<(NodeId, RequestKind)> = labeling
                .tree()
                .nodes()
                .filter(|&n| n != labeling.tree().root())
                .take(4)
                .map(|n| (n, RequestKind::RemoveSelf))
                .collect();
            if victims.is_empty() {
                break;
            }
            labeling.run_batch(&victims).unwrap();
            labeling.check_invariants().unwrap();
        }
        assert!(labeling.tree().node_count() < 40);
        assert!(
            labeling.relabels() > initial_relabels,
            "halving the network must trigger a re-label"
        );
    }

    #[test]
    fn insertions_receive_labels_and_queries_stay_consistent() {
        let tree = DynamicTree::with_initial_path(6);
        let mut labeling = AncestryLabeling::new(SimConfig::new(33), tree).unwrap();
        let deep = labeling
            .tree()
            .nodes()
            .max_by_key(|&n| labeling.tree().depth(n))
            .unwrap();
        labeling
            .run_batch(&[(deep, RequestKind::AddLeaf), (deep, RequestKind::AddLeaf)])
            .unwrap();
        labeling.check_invariants().unwrap();
    }

    /// A leaf under `p` and a split above `p`'s last child land in one
    /// batch. If the leaf is placed first, `p`'s free tail must start after
    /// that child, found below the still unlabeled split node.
    #[test]
    fn a_leaf_beside_a_split_under_one_parent_takes_free_room() {
        for seed in 0..6 {
            let tree = DynamicTree::with_initial_star(5);
            let mut labeling = AncestryLabeling::new(SimConfig::new(50 + seed), tree).unwrap();
            for _ in 0..6 {
                let tree = labeling.tree();
                let batch: Vec<(NodeId, RequestKind)> = tree
                    .nodes()
                    .filter_map(|p| Some((p, tree.children(p).ok()?.next_back()?)))
                    .take(3)
                    .flat_map(|(p, c)| {
                        [
                            (p, RequestKind::AddLeaf),
                            (p, RequestKind::AddInternalAbove(c)),
                        ]
                    })
                    .collect();
                labeling.run_batch(&batch).unwrap();
                labeling.check_invariants().unwrap();
            }
        }
    }

    /// Two or three splits directly above one node, in one batch and across
    /// batches, alternately above a star's last leaf and above the node
    /// split in over it. Only the first split above a node takes its gap
    /// slot; the node split in owns none, so a split above that node must
    /// fall back to a re-layout, not take the slot before it, which ends
    /// the previous leaf's interval.
    #[test]
    fn stacked_splits_never_overlap_a_sibling() {
        for seed in 0..6 {
            let tree = DynamicTree::with_initial_star(24);
            let mut labeling = AncestryLabeling::new(SimConfig::new(60 + seed), tree).unwrap();
            let root = labeling.tree().root();
            let last = labeling.tree().children(root).unwrap().next_back().unwrap();
            for (splits, above_last) in [
                (1, true),
                (1, false),
                (2, true),
                (3, false),
                (1, true),
                (1, false),
            ] {
                let tree = labeling.tree();
                let below = if above_last {
                    last
                } else {
                    tree.parent(last).unwrap()
                };
                let at = tree.parent(below).unwrap();
                let batch = vec![(at, RequestKind::AddInternalAbove(below)); splits];
                labeling.run_batch(&batch).unwrap();
                labeling.check_invariants().unwrap();
            }
            assert_eq!(
                labeling.tree().depth(last),
                10,
                "seed {seed}: a split was refused"
            );
        }
    }

    /// A random-recursive tree of 255 nodes and 300 insertions drawn from
    /// its initial nodes only: leaves, and splits of initial edges, each
    /// edge at most once. The list is valid however it is sliced.
    fn growth(seed: u64) -> (DynamicTree, Vec<(NodeId, RequestKind)>) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut tree = DynamicTree::new();
        let mut initial = vec![tree.root()];
        for _ in 1..255 {
            let parent = initial[rng.gen_range(0..initial.len())];
            initial.push(tree.add_leaf(parent).unwrap());
        }
        let mut split = vec![false; initial.len()];
        let inserts = (0..300)
            .map(|_| {
                let i = rng.gen_range(0..initial.len());
                match tree.parent(initial[i]) {
                    Some(p) if !split[i] && rng.gen_bool(0.5) => {
                        split[i] = true;
                        (p, RequestKind::AddInternalAbove(initial[i]))
                    }
                    _ => (initial[i], RequestKind::AddLeaf),
                }
            })
            .collect();
        (tree, inserts)
    }

    /// Submits `ops` eight at a time, one `step(quantum)` after each eight,
    /// then runs to quiescence; returns the messages spent.
    fn drive(ctrl: &mut impl Controller, ops: &[(NodeId, RequestKind)], quantum: u64) -> u64 {
        for chunk in ops.chunks(8) {
            for &(at, kind) in chunk {
                ctrl.submit(at, kind).unwrap();
            }
            ctrl.step(quantum).unwrap();
        }
        ctrl.run_to_quiescence().unwrap();
        ctrl.metrics().messages
    }

    /// Every application's charges follow the insertions, not the slicing:
    /// one fixed list of 300 insertions, with the step after each eight of
    /// them running 6, 24 or 384 events.
    ///
    /// Beside a bare size estimator of the same β driven identically (a
    /// charge never moves the schedule, so the inner controllers' messages
    /// are equal), each application's boundary charge adds the same at
    /// every quantum: nothing for five of them, and for the name assigner
    /// the renaming's extra broadcast (`3·n₀` at construction, `n` at each
    /// rotation). What slicing does move is the closing count's `missed`
    /// term, the nodes that joined after the reject wave had passed: the
    /// bare estimator's boundary charge reads 1 018 at q = 384 (255 + 381 +
    /// 382: one rotation, no node missed) and up to 14 more at q = 6 and 24.
    ///
    /// The application charges — messages minus the boundary charge, minus
    /// the same for the bare estimator — are printed: ω₀ at construction,
    /// pointer flips, re-labels; no votes are cast here. The labeling's
    /// read 2 414, 2 437 and 2 947 messages at seed 5, a spread of 1.2–1.9×
    /// over the three seeds, and must stay within 2.5×. It is not within
    /// 10 %: the fallback re-layouts are computed on the tree as it stands
    /// at the end of a slice, so a coarse slice meets more new nodes under
    /// one full parent.
    #[test]
    fn the_insertion_charge_barely_depends_on_the_slicing() {
        for seed in [5, 6, 7] {
            let (tree, ops) = growth(seed);
            let (config, t) = (SimConfig::new(seed), || tree.clone());
            let mut added: Vec<Vec<u64>> = vec![Vec::new(); 6];
            let mut labeling = Vec::new();
            for q in [6, 24, 384] {
                // Builds an application, drives it and checks it: its
                // messages and the boundary charge of its engine, named by a
                // field path.
                macro_rules! run {
                    ($app:expr, $($engine:ident).+) => {{
                        let mut app = $app.unwrap();
                        let messages = drive(&mut app, &ops, q);
                        app.check_invariants().unwrap();
                        (messages, app.$($engine).+.boundary_messages())
                    }};
                }
                let bare = |beta| run!(SizeEstimator::new(config, t(), beta), driver);
                let (two, sqrt3) = (bare(2.0), bare(f64::sqrt(3.0)));
                let apps = [
                    ("size-estimator", two, two),
                    (
                        "name-assigner",
                        two,
                        run!(NameAssigner::new(config, t()), driver),
                    ),
                    (
                        "subtree-estimator",
                        two,
                        run!(SubtreeEstimator::new(config, t(), 2.0), size.driver),
                    ),
                    (
                        "heavy-child",
                        sqrt3,
                        run!(
                            HeavyChildDecomposition::new(config, t()),
                            subtree.size.driver
                        ),
                    ),
                    (
                        "ancestry-labeling",
                        two,
                        run!(AncestryLabeling::new(config, t()), size.driver),
                    ),
                    (
                        "majority-commitment",
                        two,
                        run!(MajorityCommitment::new(config, t(), 2.0), size.driver),
                    ),
                ];
                for (i, (name, (bare_messages, bare_boundary), (messages, boundary))) in
                    apps.into_iter().enumerate()
                {
                    added[i].push(boundary - bare_boundary);
                    let charge = messages - boundary - (bare_messages - bare_boundary);
                    println!(
                        "seed {seed} q {q:3} {name:20} boundary {boundary:5} charge {charge:5}"
                    );
                    match name {
                        "ancestry-labeling" => labeling.push(charge),
                        "subtree-estimator" => {
                            assert_eq!(charge, 2 * tree.node_count() as u64, "ω₀ at construction")
                        }
                        "name-assigner" | "majority-commitment" => assert_eq!(charge, 0),
                        _ => {}
                    }
                }
            }
            for (i, added) in added.iter().enumerate() {
                assert!(
                    added.iter().all(|&a| a == added[0]),
                    "seed {seed}, application {i}: boundary charges {added:?} over the bare estimator's"
                );
            }
            let (lo, hi) = (
                labeling.iter().min().unwrap(),
                labeling.iter().max().unwrap(),
            );
            assert!(*hi as f64 <= 2.5 * *lo as f64, "seed {seed}: {labeling:?}");
        }
    }
}
