//! A peer-to-peer overlay under churn — the paper's motivating scenario
//! (§1.1): peers join and leave a topic-based overlay *gracefully*, each
//! change first obtaining a permit from the controller, so the layer above
//! always works with an orderly network of known (bounded) size.
//!
//! ```text
//! cargo run --example p2p_overlay_churn
//! ```
//!
//! The overlay starts with 8 peers and goes through 25 churn waves of joins,
//! internal relay insertions and departures. No bound on the final size is
//! known in advance, so the adaptive controller re-estimates its parameters
//! epoch by epoch. Each wave is one small scenario driven through the shared
//! `ScenarioRunner` — the same code path every controller family uses.

use dcn::controller::distributed::AdaptiveDistributedController;
use dcn::controller::Controller;
use dcn::simnet::{DelayModel, SimConfig};
use dcn::workload::{
    build_tree, ArrivalMode, ChurnModel, Placement, Scenario, ScenarioRunner, TreeShape,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tree = build_tree(TreeShape::Star { nodes: 7 });
    let config = SimConfig::new(7).with_delay(DelayModel::Uniform { min: 1, max: 10 });
    // The overlay operator allows up to 600 granted changes, with at most 60
    // of them potentially "wasted" once the budget runs out.
    let mut controller = AdaptiveDistributedController::new(config, tree, 600, 60)?;

    // Churn: mostly joins, some relay (internal node) insertions, some leaves.
    let churn = ChurnModel::FullChurn {
        add_leaf: 55,
        add_internal: 15,
        remove: 25,
    };

    println!("--- p2p overlay churn ---");
    for wave in 0..25u64 {
        // One scenario per wave: 12 requests against the *current* overlay,
        // reseeded so every wave draws fresh churn.
        let scenario = Scenario {
            name: format!("wave-{wave}").into(),
            shape: TreeShape::Star { nodes: 7 }, // initial shape (tree already built)
            churn,
            placement: Placement::Uniform,
            // Closed loop: every wave is answered (permits recycled, epochs
            // refreshed) before the next one draws its churn from the
            // overlay it left.
            arrival: ArrivalMode::Batch,
            requests: 12,
            m: 600,
            w: 60,
            seed: 99 + wave,
        };
        let granted_before = controller.granted();
        let answered_before = controller.records().len();
        ScenarioRunner::new(scenario).run(&mut controller)?;
        let granted = controller.granted() - granted_before;
        let answered = controller.records().len() - answered_before;
        println!(
            "wave {wave:>2}: {granted:>2}/{answered:>2} changes granted   peers = {:>4}   epochs = {}   messages = {}",
            Controller::tree(&controller).node_count(),
            controller.epochs(),
            controller.messages(),
        );
        if controller.is_exhausted() {
            println!(
                "         (budget spent — the overlay operator must provision a new controller)"
            );
            break;
        }
    }
    controller
        .summary()
        .check()
        .expect("safety & liveness hold");
    println!(
        "final overlay: {} peers, {} messages, {} epochs, {} recycling rounds",
        Controller::tree(&controller).node_count(),
        controller.messages(),
        controller.epochs(),
        controller.recycles()
    );
    Ok(())
}
