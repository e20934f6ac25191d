//! Region addressing: carve a [`DynamicTree`] into `k` connected regions and
//! translate between global and per-region (local) node identifiers.
//!
//! The sharded controller runs one independent distributed controller per
//! *region* of the spanning tree. This module provides the addressing seam
//! it needs:
//!
//! * [`RegionMap::carve`] partitions a tree into `k` regions of roughly equal
//!   size by cutting at most `k − 1` subtrees (deterministic post-order
//!   residual-size heuristic, no randomness), and materialises each region as
//!   a standalone [`DynamicTree`];
//! * [`RegionMap`] answers `global NodeId → (shard, local NodeId)` lookups
//!   ([`RegionMap::locate`]);
//! * [`LocalMap`] answers the reverse `local NodeId → global NodeId` lookup
//!   for one region ([`LocalMap::to_global`]).
//!
//! Every carved region is rooted at a **proxy**: a local node that stands in
//! for "the rest of the tree" and is not mapped to any global node. A region
//! may hold several disjoint pieces of the global tree — the proxy has one
//! child per piece top (for region 0 one of those tops is the global root
//! itself). Nodes created after carving (by granted insertions) are
//! registered with [`RegionMap::bind`] / [`LocalMap::bind`].

use crate::id::NodeId;
use crate::tree::DynamicTree;

/// Translation from local node identifiers of one region back to global
/// identifiers. The proxy root maps to no global node.
#[derive(Clone, Debug, Default)]
pub struct LocalMap {
    to_global: Vec<Option<NodeId>>,
}

impl LocalMap {
    /// The global identifier behind a local one, if the local node is mapped
    /// (the proxy root is not).
    pub fn to_global(&self, local: NodeId) -> Option<NodeId> {
        self.to_global.get(local.index()).copied().flatten()
    }

    /// Registers a new local ↔ global pair (for nodes created after carving).
    pub fn bind(&mut self, local: NodeId, global: NodeId) {
        let idx = local.index();
        if idx >= self.to_global.len() {
            self.to_global.resize(idx + 1, None);
        }
        self.to_global[idx] = Some(global);
    }
}

/// One carved region: a standalone local tree plus its reverse address map.
#[derive(Clone, Debug)]
pub struct CarvedRegion {
    /// The region materialised as its own tree. The local root is an unmapped
    /// proxy whose children are the tops of the region's pieces.
    pub tree: DynamicTree,
    /// Reverse (local → global) address map for this region.
    pub map: LocalMap,
}

/// Forward (global → shard + local) address map over all regions of a carved
/// tree. Global identifiers are never reused, so stale entries for deleted
/// nodes are harmless: callers validate existence against the global tree
/// before translating.
#[derive(Clone, Debug)]
pub struct RegionMap {
    shard_count: usize,
    fwd: Vec<Option<(u32, NodeId)>>,
}

impl RegionMap {
    /// Partitions `tree` into exactly `k` regions and materialises each as a
    /// standalone [`DynamicTree`].
    ///
    /// The partitioner is deterministic and runs in two phases. A post-order
    /// pass computes residual subtree sizes and *cuts* a node whenever its
    /// residual size reaches `ceil(n / 4k)` (never the root), yielding at most
    /// `~4k` connected pieces plus the root's residue. The pieces are then
    /// bin-packed into the `k` regions longest-first (ties broken by cut
    /// order; the root's residue is pinned to region 0), so a region may hold
    /// several disjoint pieces — its proxy root simply has one child per
    /// piece. Every node belongs to the region of its nearest cut ancestor,
    /// or region 0 when it has none. On trees that resist cutting (e.g. a
    /// star, where no proper subtree reaches the threshold) the trailing
    /// regions are empty (a lone proxy root).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn carve(tree: &DynamicTree, k: usize) -> (RegionMap, Vec<CarvedRegion>) {
        assert!(k > 0, "cannot carve a tree into zero regions");
        let n = tree.node_count();
        // Cutting at a fraction of the per-region target yields several
        // pieces per region, which the packing phase below balances far
        // better than one-shot cuts (a root of arity > k would otherwise
        // yield no cut at all).
        let threshold = n.div_ceil(4 * k).max(1);
        let cut_cap = if k == 1 { 0 } else { 4 * k };
        let root = tree.root();

        // Pass 1 (post-order): residual subtree sizes and cut selection. The
        // residual size of a node excludes descendants already claimed by a
        // deeper cut; until a node is finished, its entry sums its finished
        // children's residues.
        let cap = tree.total_created();
        let mut resid: Vec<usize> = vec![0; cap];
        let mut cuts: Vec<NodeId> = Vec::new();
        let mut piece_sizes: Vec<usize> = Vec::new();
        // Explicit two-phase DFS stack: (node, children_expanded).
        let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
        while let Some((node, expanded)) = stack.pop() {
            if !expanded {
                stack.push((node, true));
                for c in tree.children(node).unwrap_or_default().rev() {
                    stack.push((c, false));
                }
            } else {
                let mut size = 1 + resid[node.index()];
                if node != root && cuts.len() < cut_cap && size >= threshold {
                    cuts.push(node);
                    piece_sizes.push(size);
                    size = 0; // claimed: contributes nothing to ancestors
                }
                resid[node.index()] = size;
                if let Some(parent) = tree.parent(node) {
                    resid[parent.index()] += size;
                }
            }
        }

        // Bin-pack the pieces into regions, longest-processing-time first:
        // sort by (size desc, cut order asc), then assign each piece to the
        // lightest region (ties: lowest index). Region 0 starts loaded with
        // the root's residue, which is pinned to it.
        let mut order: Vec<usize> = (0..cuts.len()).collect();
        order.sort_by_key(|&i| (usize::MAX - piece_sizes[i], i));
        let mut load: Vec<usize> = vec![0; k];
        load[0] = resid[root.index()];
        let mut region_of_cut: Vec<u32> = vec![0; cuts.len()];
        for &piece in &order {
            let mut best = 0usize;
            for (bin, &l) in load.iter().enumerate() {
                if l < load[best] {
                    best = bin;
                }
            }
            region_of_cut[piece] = best as u32;
            load[best] += piece_sizes[piece];
        }

        // Pass 2 (pre-order): assign regions top-down. A node joins its
        // parent's region, the root region 0; a cut node switches its whole
        // (residual) subtree to the cut's region, and nested cuts override.
        let cut_region = |node: NodeId| -> Option<u32> {
            cuts.iter()
                .position(|&c| c == node)
                .map(|i| region_of_cut[i])
        };
        // A region is built from its parent map once every node is placed:
        // a copy's local id is one past the copies its region holds (the
        // proxy root is 0), and a copy is not a change of the region's tree.
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut maps = vec![LocalMap::default(); k];
        let mut map = RegionMap {
            shard_count: k,
            fwd: vec![None; cap],
        };
        for node in tree.dfs(root) {
            // The parent's (region, local id), copied first (pre-order).
            let above = tree.parent(node).and_then(|p| map.locate(p));
            let r = match (cut_region(node), above) {
                (Some(cut), _) => cut as usize,
                (None, Some((inherited, _))) => inherited,
                (None, None) => 0,
            };
            // An interior node hangs under its parent's copy; the top of a
            // piece under the region's proxy root (the global root is simply
            // the top of the root residue piece).
            let under = match above {
                Some((inherited, local_parent)) if inherited == r => local_parent.index(),
                _ => 0,
            };
            parents[r].push(under);
            let local = NodeId::from_index(parents[r].len());
            maps[r].bind(local, node);
            map.bind(node, r, local);
        }
        let regions = parents
            .iter()
            .zip(maps)
            .map(|(up, map)| CarvedRegion {
                tree: DynamicTree::from_parents(up.len(), |i| up[i - 1]),
                map,
            })
            .collect();
        (map, regions)
    }

    /// Number of regions this map addresses.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The `(shard, local id)` address of a global node, if it is mapped.
    pub fn locate(&self, global: NodeId) -> Option<(usize, NodeId)> {
        self.fwd
            .get(global.index())
            .copied()
            .flatten()
            .map(|(s, l)| (s as usize, l))
    }

    /// Registers the address of a newly created global node.
    pub fn bind(&mut self, global: NodeId, shard: usize, local: NodeId) {
        let idx = global.index();
        if idx >= self.fwd.len() {
            self.fwd.resize(idx + 1, None);
        }
        self.fwd[idx] = Some((shard as u32, local));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced(levels: usize, arity: usize) -> DynamicTree {
        let mut tree = DynamicTree::new();
        let mut frontier = vec![tree.root()];
        for _ in 0..levels {
            let mut next = Vec::new();
            for p in frontier {
                for _ in 0..arity {
                    next.push(tree.add_leaf(p).unwrap());
                }
            }
            frontier = next;
        }
        tree
    }

    #[test]
    fn carve_covers_every_node_exactly_once() {
        let tree = balanced(3, 3); // 40 nodes
        for k in [1, 2, 4, 7] {
            let (map, regions) = RegionMap::carve(&tree, k);
            assert_eq!(regions.len(), k);
            assert_eq!(map.shard_count(), k);
            let mut seen = 0usize;
            for node in tree.nodes() {
                let (shard, local) = map.locate(node).expect("node mapped");
                assert!(shard < k);
                assert_eq!(regions[shard].map.to_global(local), Some(node));
                seen += 1;
            }
            assert_eq!(seen, tree.node_count());
            let copied: usize = regions.iter().map(|r| r.tree.node_count() - 1).sum();
            assert_eq!(copied, tree.node_count());
        }
    }

    #[test]
    fn carve_preserves_parent_edges_within_regions() {
        let tree = balanced(4, 2); // 31 nodes
        let (map, regions) = RegionMap::carve(&tree, 4);
        for node in tree.nodes() {
            let (shard, local) = map.locate(node).unwrap();
            let region = &regions[shard];
            assert_eq!(region.map.to_global(region.tree.root()), None);
            let lparent = region.tree.parent(local).expect("proxy above every node");
            match region.map.to_global(lparent) {
                // Interior edge: parents correspond.
                Some(g) => assert_eq!(Some(g), tree.parent(node)),
                // Piece top: local parent is the proxy root; the global root
                // is the top of the root residue piece in region 0.
                None => {
                    assert_eq!(lparent, region.tree.root());
                    if tree.parent(node).is_none() {
                        assert_eq!(shard, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn carve_is_balanced_within_a_factor_of_the_target() {
        let tree = balanced(5, 2); // 63 nodes
        let k = 4;
        let (_, regions) = RegionMap::carve(&tree, k);
        let target = tree.node_count().div_ceil(k);
        for region in &regions {
            let members = region.tree.node_count() - 1;
            // Post-order cutting caps a region at 2 * target members (a cut
            // fires as soon as a residual subtree reaches the target).
            assert!(members <= 2 * target, "members={members} target={target}");
        }
    }

    /// Pass 2 copies with the non-counting attach; every region tree of a
    /// deep path must still hold exact cached depths and node counts.
    #[test]
    fn carve_restores_size_caches_on_deep_paths() {
        let tree = DynamicTree::with_initial_path(4096);
        for k in [1, 2, 8] {
            let (map, regions) = RegionMap::carve(&tree, k);
            let mut members = 0;
            for region in &regions {
                region.tree.check_invariants().unwrap();
                members += region.tree.node_count() - 1;
            }
            assert_eq!(members, tree.node_count());
            for node in tree.nodes() {
                assert!(map.locate(node).is_some());
            }
        }
    }

    #[test]
    fn carve_small_tree_leaves_trailing_regions_empty() {
        let mut tree = DynamicTree::new();
        let a = tree.add_leaf(tree.root()).unwrap();
        tree.add_leaf(a).unwrap();
        let (map, regions) = RegionMap::carve(&tree, 8);
        assert_eq!(regions.len(), 8);
        let populated = regions.iter().filter(|r| r.tree.node_count() > 1).count();
        assert!(populated <= 3);
        for node in tree.nodes() {
            assert!(map.locate(node).is_some());
        }
    }

    #[test]
    fn carved_logs_are_reset_and_binds_extend_maps() {
        let mut tree = balanced(2, 3);
        tree.record_changes();
        let (mut map, mut regions) = RegionMap::carve(&tree, 2);
        // Simulate a post-carve insertion in region 1.
        let region = &mut regions[1];
        let top = region
            .tree
            .children(region.tree.root())
            .unwrap()
            .next()
            .unwrap();
        let local = region.tree.add_leaf(top).unwrap();
        let global = NodeId::from_index(tree.total_created());
        region.map.bind(local, global);
        map.bind(global, 1, local);
        assert_eq!(region.map.to_global(local), Some(global));
        assert_eq!(map.locate(global), Some((1, local)));
        // A carved tree counts what happens to it after the carve and, even
        // when carved off a recording tree, keeps no history of its own.
        assert_eq!(region.tree.changes(), 1);
        assert!(regions.iter().all(|r| r.tree.change_log().is_empty()));
    }
}
