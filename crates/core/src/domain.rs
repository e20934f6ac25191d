//! Package *domains* (paper §3.2) — analysis-only bookkeeping, implemented as
//! an auditor so that tests can check the domain invariants on real
//! executions.
//!
//! Every existing mobile package `P` of level `k` is associated with a set of
//! (possibly already deleted) nodes, its *domain*, maintained under these
//! rules:
//!
//! * when the recursive distribution deposits a level-`k` package at the
//!   ancestor `u_k` of the requesting node `u`, its domain is the `2^{k−1}ψ`
//!   nodes on the path from `u` to `u_k` closest to `u_k` (excluding `u_k`);
//! * when a package is taken, split, cancelled or becomes static, its domain
//!   disappears;
//! * an internal-node insertion below a domain member's parent adds the new
//!   node to the domain and evicts the bottom-most *existing* member;
//! * deletions do not remove members (deleted nodes simply stay in the
//!   domain).
//!
//! The paper's correctness argument rests on three invariants (checked by
//! [`DomainAuditor::check_invariants`]):
//!
//! 1. the domain of a level-`k` package contains exactly `2^{k−1}ψ` nodes;
//! 2. domains of packages of the same level are pairwise disjoint;
//! 3. the currently existing members of a domain form a path hanging down from
//!    a child of the package's host node.

use crate::params::Params;
use dcn_collections::{FxHashMap, FxHashSet};
use dcn_tree::{DynamicTree, NodeId};

/// The domain of one mobile package.
#[derive(Clone, Debug)]
struct Domain {
    level: u32,
    host: NodeId,
    /// Members ordered from the top (child of the host) to the bottom
    /// (farthest from the root).
    members: Vec<NodeId>,
}

/// Auditor tracking package domains alongside a centralized execution.
///
/// The controller reports package life-cycle events and topological changes;
/// the auditor maintains the domains exactly as the paper's analysis does and
/// can check the three domain invariants at any time.
#[derive(Clone, Debug, Default)]
pub struct DomainAuditor {
    domains: FxHashMap<u64, Domain>,
}

impl DomainAuditor {
    /// Creates an auditor with no tracked domains.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of packages currently holding a domain.
    pub fn tracked(&self) -> usize {
        self.domains.len()
    }

    /// Records that a level-`level` package `pkg` was deposited at `host`
    /// during the distribution towards the requesting node `u`.
    /// `path_from_request` is the path from `u` (inclusive) up to `host`
    /// (inclusive), as returned by `DynamicTree::path_between(u, host)`.
    pub fn package_deposited(
        &mut self,
        pkg: u64,
        level: u32,
        host: NodeId,
        path_from_request: &[NodeId],
        params: &Params,
    ) {
        // Domain size: 2^{level-1} ψ  (ψ/2 for level 0; ψ is a multiple of 4).
        let size = (params.psi << level) / 2;
        // Members are the `size` nodes strictly below `host` on the path,
        // ordered from the child of `host` downwards.
        debug_assert!(path_from_request.last() == Some(&host));
        debug_assert!(path_from_request.len() as u64 > size);
        let below: Vec<NodeId> = path_from_request
            .iter()
            .rev()
            .skip(1) // skip the host itself
            .take(size as usize)
            .copied()
            .collect();
        self.domains.insert(
            pkg,
            Domain {
                level,
                host,
                members: below,
            },
        );
    }

    /// Records that a package was consumed: taken by a request, split, turned
    /// static or cancelled. Its domain disappears.
    pub fn package_consumed(&mut self, pkg: u64) {
        self.domains.remove(&pkg);
    }

    /// Records that a package moved to `new_host` because its previous host
    /// was gracefully deleted.
    pub fn package_rehosted(&mut self, pkg: u64, new_host: NodeId) {
        if let Some(d) = self.domains.get_mut(&pkg) {
            d.host = new_host;
        }
    }

    /// Records an internal-node insertion: `new_node` was spliced in as the
    /// parent of `below`.
    pub fn on_add_internal(&mut self, new_node: NodeId, below: NodeId, tree: &DynamicTree) {
        for domain in self.domains.values_mut() {
            let Some(pos) = domain.members.iter().position(|&m| m == below) else {
                continue;
            };
            // The new node joins right above `below`; the bottom-most
            // *existing* member leaves.
            domain.members.insert(pos, new_node);
            if let Some(last_existing) = domain.members.iter().rposition(|&m| tree.contains(m)) {
                domain.members.remove(last_existing);
            } else {
                domain.members.pop();
            }
        }
    }

    /// Checks the three domain invariants against the current tree. The
    /// `host_of` closure maps a package id to its current host node (or `None`
    /// if the package no longer exists, which is reported as an error).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn check_invariants(
        &self,
        tree: &DynamicTree,
        params: &Params,
        host_of: impl Fn(u64) -> Option<NodeId>,
    ) -> Result<(), String> {
        // Invariant 1: domain sizes.
        for (id, d) in &self.domains {
            let expected = (params.psi << d.level) / 2;
            if d.members.len() as u64 != expected {
                return Err(format!(
                    "package {id} (level {}) has a domain of {} nodes, expected {expected}",
                    d.level,
                    d.members.len()
                ));
            }
        }
        // Invariant 2: per-level disjointness.
        let mut seen_per_level: FxHashMap<u32, FxHashSet<NodeId>> = FxHashMap::default();
        for (id, d) in &self.domains {
            let seen = seen_per_level.entry(d.level).or_default();
            for &m in &d.members {
                if !seen.insert(m) {
                    return Err(format!(
                        "node {m} appears in two level-{} domains (one of them package {id})",
                        d.level
                    ));
                }
            }
        }
        // Invariant 3: existing members form a path hanging off a child of the
        // host.
        for (id, d) in &self.domains {
            let host = host_of(*id).ok_or_else(|| {
                format!("package {id} has a domain but no host (it no longer exists)")
            })?;
            let existing: Vec<NodeId> = d
                .members
                .iter()
                .copied()
                .filter(|&m| tree.contains(m))
                .collect();
            if existing.is_empty() {
                continue;
            }
            if tree.parent(existing[0]) != Some(host) {
                return Err(format!(
                    "package {id}: topmost existing domain member {} is not a child of host {host}",
                    existing[0]
                ));
            }
            for w in existing.windows(2) {
                if tree.parent(w[1]) != Some(w[0]) {
                    return Err(format!(
                        "package {id}: domain members {} and {} are not parent/child",
                        w[0], w[1]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        // psi is small-ish but still a multiple of 4.
        Params::new(64, 8, 8).unwrap()
    }

    /// Builds a path tree of the given length and returns (tree, nodes) where
    /// nodes[i] is the node at depth i.
    fn path(len: usize) -> (DynamicTree, Vec<NodeId>) {
        let tree = DynamicTree::with_initial_path(len);
        let nodes: Vec<NodeId> = (0..=len).map(NodeId::from_index).collect();
        (tree, nodes)
    }

    #[test]
    fn deposit_creates_a_correctly_sized_domain() {
        let p = params();
        let size = (p.psi / 2) as usize; // level 0
        let (tree, nodes) = path(3 * size + 5);
        let u = nodes[3 * size + 5];
        let host = nodes[3 * size + 5 - (3 * p.psi as usize / 2)];
        let path_up = tree.path_between(u, host).unwrap();
        let mut aud = DomainAuditor::new();
        aud.package_deposited(1, 0, host, &path_up, &p);
        assert_eq!(aud.tracked(), 1);
        aud.check_invariants(&tree, &p, |_| Some(host)).unwrap();
    }

    #[test]
    fn consumed_packages_lose_their_domains() {
        let p = params();
        let (tree, nodes) = path(4 * p.psi as usize);
        let u = *nodes.last().unwrap();
        let host = nodes[nodes.len() - 1 - (3 * p.psi as usize / 2)];
        let path_up = tree.path_between(u, host).unwrap();
        let mut aud = DomainAuditor::new();
        aud.package_deposited(7, 0, host, &path_up, &p);
        aud.package_consumed(7);
        assert_eq!(aud.tracked(), 0);
        aud.check_invariants(&tree, &p, |_| None).unwrap();
    }

    #[test]
    fn overlapping_same_level_domains_are_detected() {
        let p = params();
        let (tree, nodes) = path(4 * p.psi as usize);
        let u = *nodes.last().unwrap();
        let host = nodes[nodes.len() - 1 - (3 * p.psi as usize / 2)];
        let path_up = tree.path_between(u, host).unwrap();
        let mut aud = DomainAuditor::new();
        aud.package_deposited(1, 0, host, &path_up, &p);
        aud.package_deposited(2, 0, host, &path_up, &p);
        let err = aud.check_invariants(&tree, &p, |_| Some(host)).unwrap_err();
        assert!(err.contains("two level-0 domains"));
    }

    #[test]
    fn internal_insertion_updates_domains_and_preserves_invariants() {
        let p = params();
        let (mut tree, nodes) = path(4 * p.psi as usize);
        let u = *nodes.last().unwrap();
        let host = nodes[nodes.len() - 1 - (3 * p.psi as usize / 2)];
        let path_up = tree.path_between(u, host).unwrap();
        let mut aud = DomainAuditor::new();
        aud.package_deposited(1, 0, host, &path_up, &p);
        // Insert an internal node just below the host (i.e. above the current
        // topmost domain member).
        let top_member = tree.children(host).unwrap().next().unwrap();
        let new_node = tree.add_internal_above(top_member).unwrap();
        aud.on_add_internal(new_node, top_member, &tree);
        aud.check_invariants(&tree, &p, |_| Some(host)).unwrap();
    }

    #[test]
    fn deletions_keep_members_and_invariants_hold() {
        let p = params();
        let (mut tree, nodes) = path(4 * p.psi as usize);
        let u = *nodes.last().unwrap();
        let host = nodes[nodes.len() - 1 - (3 * p.psi as usize / 2)];
        let path_up = tree.path_between(u, host).unwrap();
        let mut aud = DomainAuditor::new();
        aud.package_deposited(1, 0, host, &path_up, &p);
        // Delete a node in the middle of the domain (an internal node).
        let victim = tree.children(host).unwrap().next().unwrap();
        let victim2 = tree.children(victim).unwrap().next().unwrap();
        tree.remove_internal(victim2).unwrap();
        aud.check_invariants(&tree, &p, |_| Some(host)).unwrap();
        // Domain size (invariant 1) still counts the deleted node.
        assert_eq!(aud.tracked(), 1);
    }
}
