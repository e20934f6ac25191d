//! The memory law of a served tree (DESIGN.md §7), read off the process
//! itself: what a controller holds follows the nodes that live, not every
//! node that ever lived.
//!
//! Its own test binary, so the resident set it reads is this one run's.
#![cfg(target_os = "linux")]

use dcn::controller::distributed::DistributedController;
use dcn::controller::{Controller, RequestKind};
use dcn::simnet::SimConfig;
use dcn::tree::{DynamicTree, NodeId};
use std::collections::VecDeque;

/// `VmRSS` of this process, in KiB.
fn resident_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .expect("status has a VmRSS line");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmRSS is a number of kB")
}

/// The shape of the benchmark's `serve-dist-churn`: the distributed family
/// over path-256 with the served `M`, `W` and `U`, a leaf added under an
/// initial node and the oldest added leaf removed, cycle after cycle, with
/// the answers taken as a server takes them (so no history is in the
/// figure). The leaves hang under the eight nodes next to the root — where a
/// node hangs changes what a request costs, not what a node keeps.
#[test]
fn a_churning_tree_holds_its_live_nodes_not_every_node_it_ever_had() {
    const CYCLES: usize = 200_000;
    const WARM_UP: usize = 50_000;
    const HELD: usize = 64;
    let (m, w) = (4_194_304u64, 4_096u64);
    let tree = DynamicTree::with_initial_path(255);
    let u_bound = tree.node_count() + 2 + m as usize;
    let mut ctrl = DistributedController::new(SimConfig::new(23), tree, m, w, u_bound).unwrap();

    let mut added: VecDeque<NodeId> = VecDeque::new();
    let mut warm_kib = 0u64;
    for cycle in 0..CYCLES {
        if cycle == WARM_UP {
            warm_kib = resident_kib();
        }
        // The only writer of a tree whose ids are sequential and never
        // reused knows the id its insertion gets.
        let leaf = NodeId::from_index(ctrl.tree().total_created());
        ctrl.submit(NodeId::from_index(cycle % 8), RequestKind::AddLeaf)
            .unwrap();
        if added.len() == HELD {
            let oldest = added.pop_front().unwrap();
            ctrl.submit(oldest, RequestKind::RemoveSelf).unwrap();
        }
        ctrl.run_to_quiescence().unwrap();
        assert!(ctrl.tree().contains(leaf), "cycle {cycle}");
        added.push_back(leaf);
        assert!(ctrl.tree().node_count() <= 256 + HELD + 1, "cycle {cycle}");

        ctrl.take_records();
    }
    let grown_kib = resident_kib().saturating_sub(warm_kib);

    assert_eq!(ctrl.rejected(), 0);
    assert!(ctrl.tree().total_created() >= CYCLES);
    assert_eq!(ctrl.tree().node_count(), 256 + HELD);
    // 150 000 nodes came and went since the warm-up: the tree's 4-byte
    // spine entry each (584 KiB measured), not the 12 B of a node table
    // keyed by id as well (1 756 KiB), nor a 304-byte record each (43 MiB).
    assert!(
        grown_kib <= 1024,
        "resident set grew by {grown_kib} KiB over the last {} cycles",
        CYCLES - WARM_UP
    );
}
