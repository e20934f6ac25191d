//! Quickstart: drive the distributed (M, W)-Controller through the
//! ticket-based Controller API — submit returns a ticket, execution advances
//! in bounded `step()` slices while more requests arrive (the paper's online
//! setting), and per-request outcomes stream back as events.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! A 16-node network is created through the uniform `ControllerSpec` factory,
//! a seeded open-loop scenario of mixed churn (leaf joins, internal splits,
//! departures and plain resource requests) is driven through the controller,
//! and the uniform `RunReport` shows the controller answered everything while
//! respecting the permit budget — including per-request answer latencies.

use dcn::workload::{
    ArrivalMode, ChurnModel, ControllerSpec, Family, Placement, Scenario, ScenarioRunner,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An (M, W) = (10, 3) controller: at most 10 permits ever, and if
    // anything is rejected at least 7 permits must have been granted.
    let scenario = Scenario {
        name: "quickstart".into(),
        shape: dcn::workload::TreeShape::RandomRecursive {
            nodes: 15,
            seed: 42,
        },
        churn: ChurnModel::default_mixed(),
        placement: Placement::Uniform,
        // Open-loop arrivals: between request batches the simulator advances
        // by at most 16 events, so new requests arrive while earlier mobile
        // agents are still in flight.
        arrival: ArrivalMode::Interleaved { quantum: 16 },
        requests: 12,
        m: 10,
        w: 3,
        seed: 42,
    };
    println!("--- quickstart ---");
    println!("scenario: {}", scenario.to_json());

    // The spec factory builds any of the twelve families uniformly; swap
    // `Family::Distributed` for `Family::Iterated`, `Family::Aaps`,
    // `Family::App(AppFamily::SizeEstimator)`, … and the rest of this
    // program is unchanged.
    let runner = ScenarioRunner::new(scenario.clone());
    let mut controller =
        ControllerSpec::for_scenario(Family::Distributed, &scenario).build_for(&runner)?;

    // One shared driver loop for every controller family: submit tickets,
    // step the execution, collect events.
    let report = runner.run(controller.as_mut())?;

    // Every request is retrievable by its ticket, with submit/answer times.
    for record in controller.records() {
        let answer = if record.outcome.is_granted() {
            "granted"
        } else {
            "rejected"
        };
        println!(
            "request {:>3} at {:>4} ({:?}) -> {answer} (submitted t = {}, answered t = {}, latency {})",
            record.id,
            record.origin,
            record.kind,
            record.submitted_at,
            record.answered_at,
            record.latency(),
        );
    }
    println!(
        "granted {} / rejected {} with budget M={}, waste W={}",
        report.granted, report.rejected, report.m, report.w
    );
    println!(
        "messages: {}   final network size: {}   answer latency p50/p95: {}/{}",
        report.messages, report.final_nodes, report.p50_answer_latency, report.p95_answer_latency
    );
    report.check().expect("safety & liveness hold");
    Ok(())
}
