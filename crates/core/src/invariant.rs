//! The shared invariant-violation type of the §5 applications.
//!
//! Every controller answers
//! [`Controller::check_invariants`](crate::Controller::check_invariants); the
//! variants below enumerate every §5 guarantee the workspace verifies, so
//! drivers (the scenario runner, the sweep engine, the experiment binaries)
//! report violations uniformly instead of juggling per-app `bool`s and
//! free-text strings.

use dcn_tree::NodeId;
use std::fmt;

/// A violated §5 application guarantee.
///
/// Which variants an application can produce follows its theorem: the size
/// estimator checks the β-band of Theorem 5.1, the name assigner the
/// uniqueness/range guarantees of Theorem 5.2, the subtree estimator the
/// approximation of Lemma 5.3, the heavy-child decomposition the
/// light-ancestor bound of Theorem 5.4, the ancestry labeling the
/// correctness/size guarantees of Corollary 5.7, and majority commitment the
/// §1.3 safety property.
#[derive(Clone, Debug, PartialEq)]
pub enum InvariantError {
    /// Theorem 5.1: the size estimate `ñ` left the band `n/β ≤ ñ ≤ β·n`.
    EstimateOutOfBand {
        /// The estimate held by every node.
        estimate: u64,
        /// The current network size.
        nodes: usize,
        /// The approximation factor β.
        beta: f64,
    },
    /// Theorem 5.2: an existing node holds no identity.
    MissingIdentity {
        /// The unnamed node.
        node: NodeId,
    },
    /// Theorem 5.2: an identity lies outside `[1, 4n]`.
    IdentityOutOfRange {
        /// The node carrying the identity.
        node: NodeId,
        /// The out-of-range identity.
        id: u64,
        /// The current upper bound `4n`.
        bound: u64,
    },
    /// Theorem 5.2: two nodes hold the same identity.
    DuplicateIdentity {
        /// The shared identity.
        id: u64,
        /// The node that held it first.
        first: NodeId,
        /// The node that collided with it.
        second: NodeId,
    },
    /// Lemma 5.3: a super-weight estimate left its tolerance band.
    SuperWeightOutOfBand {
        /// The node whose estimate is out of range.
        node: NodeId,
        /// The estimate `ω̃(v)`.
        estimate: u64,
        /// The true super-weight.
        truth: u64,
        /// The two-sided tolerance factor (β²).
        tolerance: f64,
    },
    /// Theorem 5.4: a node has more light ancestors than the `O(log n)`
    /// bound allows.
    LightAncestorsExceeded {
        /// The too-deep node.
        node: NodeId,
        /// Its light-ancestor count.
        light: usize,
        /// The bound that was exceeded.
        bound: usize,
        /// The current network size.
        nodes: usize,
    },
    /// Corollary 5.7: an existing node has no label.
    MissingLabel {
        /// The unlabeled node.
        node: NodeId,
    },
    /// Corollary 5.7: label containment disagrees with tree ancestry — or,
    /// when `by_label` and `by_tree` are both `false`, the labels of two
    /// siblings overlap, so a node added below one of them could disagree.
    AncestryMismatch {
        /// The prospective ancestor.
        ancestor: NodeId,
        /// The prospective descendant.
        descendant: NodeId,
        /// What the labels claim.
        by_label: bool,
        /// What the tree says.
        by_tree: bool,
    },
    /// Corollary 5.7: a label outgrew the `O(log n)` size bound.
    LabelTooWide {
        /// The widest label's size in bits.
        bits: u32,
        /// The bound that was exceeded.
        bound: u32,
        /// The current network size.
        nodes: usize,
    },
    /// §1.3 safety: the coordinator committed without a strict majority of
    /// the current network.
    UnsafeCommit {
        /// Commit votes among existing nodes.
        commits: u64,
        /// The current network size.
        nodes: usize,
    },
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InvariantError::EstimateOutOfBand {
                estimate,
                nodes,
                beta,
            } => write!(
                f,
                "estimate {estimate} outside [{nodes}/{beta}, {beta}·{nodes}]"
            ),
            InvariantError::MissingIdentity { node } => write!(f, "node {node} has no identity"),
            InvariantError::IdentityOutOfRange { node, id, bound } => {
                write!(f, "node {node} has identity {id} outside [1, {bound}]")
            }
            InvariantError::DuplicateIdentity { id, first, second } => {
                write!(f, "identity {id} assigned to both {first} and {second}")
            }
            InvariantError::SuperWeightOutOfBand {
                node,
                estimate,
                truth,
                tolerance,
            } => write!(
                f,
                "super-weight estimate {estimate} for {node} outside \
                 [{:.2}, {:.2}] (true super-weight {truth})",
                truth as f64 / tolerance,
                truth as f64 * tolerance
            ),
            InvariantError::LightAncestorsExceeded {
                node,
                light,
                bound,
                nodes,
            } => write!(
                f,
                "node {node} has {light} light ancestors, above the bound {bound} (n = {nodes})"
            ),
            InvariantError::MissingLabel { node } => write!(f, "node {node} has no label"),
            InvariantError::AncestryMismatch {
                ancestor,
                descendant,
                by_label: false,
                by_tree: false,
            } => write!(
                f,
                "labels of {ancestor} and {descendant} overlap, but neither is an \
                 ancestor of the other"
            ),
            InvariantError::AncestryMismatch {
                ancestor,
                descendant,
                by_label,
                by_tree,
            } => write!(
                f,
                "ancestry({ancestor}, {descendant}) disagrees: labels say {by_label}, \
                 tree says {by_tree}"
            ),
            InvariantError::LabelTooWide { bits, bound, nodes } => write!(
                f,
                "labels use {bits} bits, above the O(log n) bound {bound} (n = {nodes})"
            ),
            InvariantError::UnsafeCommit { commits, nodes } => write!(
                f,
                "committed with only {commits} commit votes among {nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for InvariantError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_displays_its_key_numbers() {
        let node = NodeId::from_index(3);
        let cases: Vec<(InvariantError, &str)> = vec![
            (
                InvariantError::EstimateOutOfBand {
                    estimate: 9,
                    nodes: 100,
                    beta: 2.0,
                },
                "estimate 9",
            ),
            (InvariantError::MissingIdentity { node }, "no identity"),
            (
                InvariantError::IdentityOutOfRange {
                    node,
                    id: 99,
                    bound: 40,
                },
                "identity 99",
            ),
            (
                InvariantError::DuplicateIdentity {
                    id: 7,
                    first: node,
                    second: node,
                },
                "identity 7",
            ),
            (
                InvariantError::SuperWeightOutOfBand {
                    node,
                    estimate: 50,
                    truth: 10,
                    tolerance: 3.0,
                },
                "super-weight estimate 50",
            ),
            (
                InvariantError::LightAncestorsExceeded {
                    node,
                    light: 40,
                    bound: 20,
                    nodes: 64,
                },
                "40 light ancestors",
            ),
            (InvariantError::MissingLabel { node }, "no label"),
            (
                InvariantError::AncestryMismatch {
                    ancestor: node,
                    descendant: node,
                    by_label: true,
                    by_tree: false,
                },
                "disagrees",
            ),
            (
                InvariantError::AncestryMismatch {
                    ancestor: node,
                    descendant: node,
                    by_label: false,
                    by_tree: false,
                },
                "overlap",
            ),
            (
                InvariantError::LabelTooWide {
                    bits: 70,
                    bound: 20,
                    nodes: 8,
                },
                "70 bits",
            ),
            (
                InvariantError::UnsafeCommit {
                    commits: 2,
                    nodes: 9,
                },
                "2 commit votes",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
        }
    }
}
