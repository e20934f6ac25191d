//! Protocol state-machine coverage over the deterministic loopback
//! transport: handshake, ticket lifecycle, subscription routing and
//! shutdown for all six controller families, plus the parity test pinning
//! the serve path against the batch [`ScenarioRunner`] — same scenario,
//! every ticket streams as the runner recorded it, same counters.

use dcn_controller::distributed::AdaptiveDistributedController;
use dcn_controller::{Controller, Outcome, RequestRecord};
use dcn_server::protocol::{self, WireOutcome};
use dcn_server::{EngineCore, Loopback, ServeConfig};
use dcn_simnet::SimConfig;
use dcn_tree::NodeId;
use dcn_workload::json::{self, Value};
use dcn_workload::{
    build_tree, ArrivalMode, ChurnModel, ControllerSpec, Family, Placement, RequestKind, Scenario,
    ScenarioRunner, TreeShape,
};

/// Parses a reply line and returns (kind-key, kind-value) where kind-key is
/// `ok`, `event` or `error`.
fn frame_kind(line: &str) -> (String, String) {
    let v = json::parse(line).expect("server frames are valid JSON");
    for key in ["ok", "event", "error"] {
        if let Ok(val) = v.get(key) {
            return (key.to_string(), val.as_str().unwrap().to_string());
        }
    }
    panic!("frame without ok/event/error: {line}");
}

fn parse(line: &str) -> Value {
    json::parse(line).expect("server frames are valid JSON")
}

fn recv_one(lb: &mut Loopback, client: u64) -> String {
    let mut frames = lb.recv(client);
    assert_eq!(
        frames.len(),
        1,
        "expected exactly one frame, got {frames:?}"
    );
    frames.pop().unwrap()
}

/// The frames an untagged ticket streams to its subscribed submitter, built
/// from a controller's record of it: the answer event (status, answer time,
/// kind) and, after a granted topological request, the `topology` event
/// naming the node it created.
fn streamed(record: &RequestRecord) -> Vec<String> {
    let ticket = record.id.0;
    match record.outcome {
        Outcome::Granted { new_node, .. } => {
            let granted = WireOutcome::Granted {
                at: record.answered_at,
                kind: record.kind,
                new_node: None,
            };
            let mut frames = vec![protocol::event_frame(ticket, &granted, None)];
            if record.kind.is_topological() {
                let node = new_node.map(|n| n.index() as u64);
                frames.push(protocol::topology_event_frame(
                    ticket,
                    record.kind,
                    node,
                    None,
                ));
            }
            frames
        }
        Outcome::Rejected => vec![protocol::event_frame(ticket, &WireOutcome::Rejected, None)],
        Outcome::Refused => vec![protocol::event_frame(ticket, &WireOutcome::Refused, None)],
    }
}

/// Asserts that `events`, everything one subscribed submitter was streamed
/// in arrival order, is frame for frame what `reference` recorded, in its
/// answer order.
fn assert_stream_matches(events: &[String], reference: &[RequestRecord], what: &str) {
    let expected: Vec<String> = reference.iter().flat_map(streamed).collect();
    for (i, (got, want)) in events.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "{what}: frame {i}");
    }
    assert_eq!(events.len(), expected.len(), "{what}: frames streamed");
}

/// The `(status, kind)` of every answer event in `frames` for `ticket`.
fn answer_of(frames: &[String], ticket: u64) -> Vec<(String, Option<String>)> {
    frames
        .iter()
        .map(|f| parse(f))
        .filter(|v| v.get("ticket").is_ok_and(|t| t.as_u64().unwrap() == ticket))
        .filter_map(|v| {
            let status = v.get("event").ok()?.as_str().unwrap().to_string();
            let kind = v.get("kind").ok().map(|k| k.as_str().unwrap().to_string());
            (status != "topology").then_some((status, kind))
        })
        .collect()
}

#[test]
fn hello_is_required_and_negotiates_the_actual_config() {
    let mut lb = Loopback::new(ServeConfig::new(Family::Centralized, 16, 4)).unwrap();
    let c = lb.connect();

    // Anything before hello is refused, but the connection stays usable.
    lb.send(c, r#"{"op": "stats"}"#);
    assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "hello-required");

    // Wrong protocol version.
    lb.send(c, r#"{"op": "hello", "proto": 99}"#);
    assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "unsupported-proto");

    // Asserting a different family/m/w is a mismatch, not a reconfigure.
    lb.send(c, r#"{"op": "hello", "family": "distributed"}"#);
    assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "config-mismatch");
    lb.send(c, r#"{"op": "hello", "m": 999}"#);
    assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "config-mismatch");

    // A bare hello (or one asserting the true config) is welcomed with the
    // server's actual parameters.
    lb.send(
        c,
        r#"{"op": "hello", "proto": 1, "family": "centralized", "m": 16, "w": 4}"#,
    );
    let welcome = parse(&recv_one(&mut lb, c));
    assert_eq!(welcome.get("ok").unwrap().as_str().unwrap(), "welcome");
    assert_eq!(
        welcome.get("family").unwrap().as_str().unwrap(),
        "centralized"
    );
    assert_eq!(welcome.get("m").unwrap().as_u64().unwrap(), 16);
    assert_eq!(welcome.get("w").unwrap().as_u64().unwrap(), 4);
    // The default shape is an 8-leaf star: 9 nodes including the root.
    assert_eq!(welcome.get("nodes").unwrap().as_u64().unwrap(), 9);
}

#[test]
fn full_round_trip_for_all_six_families() {
    for family in Family::ALL {
        let mut lb = Loopback::new(ServeConfig::new(family, 16, 4)).unwrap();
        let c = lb.connect();
        lb.send(c, r#"{"op": "hello", "proto": 1}"#);
        assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "welcome", "{family:?}");
        lb.send(c, r#"{"op": "subscribe"}"#);
        assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "subscribed");

        // submit: a permit request at the root.
        lb.send(
            c,
            r#"{"op": "submit", "kind": "event", "node": 0, "tag": 7}"#,
        );
        let ticket_frame = parse(&recv_one(&mut lb, c));
        assert_eq!(ticket_frame.get("ok").unwrap().as_str().unwrap(), "ticket");
        assert_eq!(ticket_frame.get("tag").unwrap().as_u64().unwrap(), 7);
        let ticket = ticket_frame.get("ticket").unwrap().as_u64().unwrap();

        // Nothing streams until the engine pumps, then exactly one answer.
        assert_eq!(lb.engine().in_flight(), 1);
        assert!(lb.recv(c).is_empty());
        lb.run_to_quiescence();
        let events = lb.recv(c);
        assert_eq!(
            answer_of(&events, ticket),
            [("granted".to_string(), Some("event".to_string()))],
            "{family:?}: {events:?}"
        );
        assert!(
            events
                .iter()
                .all(|f| parse(f).get("tag").unwrap().as_u64().unwrap() == 7),
            "{events:?}"
        );

        // add-leaf: grow a leaf under the root.
        lb.send(
            c,
            r#"{"op": "submit", "kind": "add-leaf", "node": 0, "tag": 8}"#,
        );
        let t = parse(&recv_one(&mut lb, c));
        assert_eq!(t.get("ok").unwrap().as_str().unwrap(), "ticket");
        let grow = t.get("ticket").unwrap().as_u64().unwrap();
        lb.run_to_quiescence();
        let answer = answer_of(&lb.recv(c), grow);
        assert!(
            answer == [("granted".to_string(), Some("add-leaf".to_string()))]
                || answer == [("rejected".to_string(), None)],
            "{family:?}: add-leaf resolved to {answer:?}"
        );

        // remove-self: outside the AAPS baseline's grow-only model —
        // it must refuse (not crash, not grant); other families answer.
        lb.send(
            c,
            r#"{"op": "submit", "kind": "remove-self", "node": 3, "tag": 9}"#,
        );
        let reply = recv_one(&mut lb, c);
        let (kind, _) = frame_kind(&reply);
        if kind == "ok" {
            let del = parse(&reply).get("ticket").unwrap().as_u64().unwrap();
            lb.run_to_quiescence();
            let answer = answer_of(&lb.recv(c), del);
            assert_eq!(answer.len(), 1, "{family:?}: {answer:?}");
            let status = answer[0].0.as_str();
            if family == Family::Aaps {
                assert_eq!(status, "refused", "AAPS is grow-only");
            } else {
                assert!(
                    status == "granted" || status == "rejected",
                    "{family:?}: {status}"
                );
            }
        }

        // An answer leaves only as a streamed event: `poll` is no op.
        lb.send(c, r#"{"op": "poll", "ticket": 0}"#);
        assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "unknown-op");
        assert_eq!(lb.engine().in_flight(), 0);

        // stats reflect the traffic.
        lb.send(c, r#"{"op": "stats"}"#);
        let stats = parse(&recv_one(&mut lb, c));
        assert!(stats.get("granted").unwrap().as_u64().unwrap() >= 1);
        assert!(stats.get("submitted").unwrap().as_u64().unwrap() >= 2);
        assert_eq!(stats.get("clients").unwrap().as_u64().unwrap(), 1);
        assert!(!stats.get("shutting_down").unwrap().as_bool().unwrap());

        // shutdown: acknowledged, flagged, and stats say so.
        lb.send(c, r#"{"op": "shutdown"}"#);
        assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "shutting-down");
        assert!(lb.engine().is_shutting_down());
    }
}

#[test]
fn events_stream_only_to_the_submitting_client() {
    let mut lb = Loopback::new(ServeConfig::new(Family::Centralized, 16, 4)).unwrap();
    let a = lb.connect();
    let b = lb.connect();
    for c in [a, b] {
        lb.send(c, r#"{"op": "hello", "proto": 1}"#);
        lb.send(c, r#"{"op": "subscribe"}"#);
        let _ = lb.recv(c);
    }
    lb.send(
        a,
        r#"{"op": "submit", "kind": "event", "node": 0, "tag": 1}"#,
    );
    let _ = lb.recv(a);
    lb.run_to_quiescence();
    assert!(!lb.recv(a).is_empty(), "submitter streams its outcome");
    assert!(lb.recv(b).is_empty(), "bystander sees nothing");

    // An unsubscribed client submits fire-and-forget: it never receives
    // streamed frames, even for its own tickets, and reads totals from
    // `stats`.
    let d = lb.connect();
    lb.send(d, r#"{"op": "hello", "proto": 1}"#);
    let _ = lb.recv(d);
    lb.send(d, r#"{"op": "submit", "kind": "event", "node": 0}"#);
    assert_eq!(frame_kind(&recv_one(&mut lb, d)).1, "ticket");
    lb.run_to_quiescence();
    assert!(lb.recv(d).is_empty(), "no subscription, no stream");
    assert!(lb.recv(a).is_empty() && lb.recv(b).is_empty());
    assert_eq!(lb.engine().in_flight(), 0);
    lb.send(d, r#"{"op": "stats"}"#);
    let stats = parse(&recv_one(&mut lb, d));
    assert_eq!(stats.get("granted").unwrap().as_u64().unwrap(), 2);
}

/// `stats` reads the served controller's tally, so an answer counts once the
/// controller has given it, before a pump streams its event: the AAPS
/// baseline refuses `remove-self` inside `submit`, and a `stats` sent
/// before any pump reads that refusal as it reads a grant made in the same
/// position.
#[test]
fn stats_counts_a_refusal_before_any_pump() {
    let mut lb = Loopback::new(ServeConfig::new(Family::Aaps, 16, 4)).unwrap();
    let c = lb.connect();
    lb.send(c, r#"{"op": "hello", "proto": 1}"#);
    lb.send(c, r#"{"op": "subscribe"}"#);
    let _ = lb.recv(c);
    lb.send(c, r#"{"op": "submit", "kind": "remove-self", "node": 3}"#);
    lb.send(c, r#"{"op": "submit", "kind": "event", "node": 0}"#);
    assert_eq!(lb.recv(c).len(), 2, "two tickets");
    let tally = |lb: &mut Loopback| {
        lb.send(c, r#"{"op": "stats"}"#);
        let stats = parse(&recv_one(lb, c));
        let field = |key: &str| stats.get(key).unwrap().as_u64().unwrap();
        [field("submitted"), field("granted"), field("refused")]
    };
    assert_eq!(lb.engine().in_flight(), 2, "nothing streamed yet");
    assert_eq!(tally(&mut lb), [2, 1, 1]);
    lb.run_to_quiescence();
    let events: Vec<_> = lb.recv(c).iter().map(|f| frame_kind(f).1).collect();
    assert_eq!(events, ["refused", "granted"]);
    assert_eq!(tally(&mut lb), [2, 1, 1]);
}

#[test]
fn loopback_sessions_are_byte_identical() {
    let script: &[&str] = &[
        r#"{"op": "hello", "proto": 1}"#,
        r#"{"op": "subscribe"}"#,
        r#"{"op": "submit", "kind": "event", "node": 2, "tag": 1}"#,
        r#"{"op": "submit", "kind": "add-leaf", "node": 0, "tag": 2}"#,
        r#"{"op": "submit", "kind": "add-leaf", "node": 1, "tag": 3}"#,
        r#"{"op": "stats"}"#,
    ];
    let run = || {
        let mut lb =
            Loopback::new(ServeConfig::new(Family::Distributed, 16, 4).with_seed(7)).unwrap();
        let c = lb.connect();
        let mut transcript = Vec::new();
        for line in script {
            lb.send(c, line);
            transcript.extend(lb.recv(c));
            lb.run_to_quiescence();
            transcript.extend(lb.recv(c));
        }
        transcript
    };
    assert_eq!(run(), run());
}

/// Drives a loopback server through the exact submission stream of a
/// [`ScenarioRunner`] from one subscribed client; returns the engine and
/// every event streamed to that client, in arrival order.
fn drive_loopback(scenario: &Scenario) -> (Loopback, Vec<String>) {
    let runner = ScenarioRunner::new(scenario.clone());
    let family = Family::from_name(
        // The parity scenarios name their family in the scenario name.
        scenario.name.split('/').next().unwrap(),
    )
    .unwrap();
    let step_budget = match scenario.arrival {
        ArrivalMode::Batch => 4096,
        ArrivalMode::Interleaved { quantum } => quantum,
    };
    let config = ServeConfig::new(family, scenario.m, scenario.w)
        .with_shape(scenario.shape)
        .with_seed(scenario.seed)
        .with_step_budget(step_budget);
    // The runner's own controller: same seed and node bound `U` (families
    // like the iterated controller partition their budget by a
    // `U`-dependent schedule, so a different bound is a different
    // controller).
    let ctrl = ControllerSpec::for_scenario(family, scenario)
        .build_for(&runner)
        .unwrap();
    let mut lb = Loopback::over(EngineCore::with_controller(config, ctrl));
    let c = lb.connect();
    lb.send(c, r#"{"op": "hello", "proto": 1}"#);
    lb.send(c, r#"{"op": "subscribe"}"#);
    let _ = lb.recv(c);

    let mut events = Vec::new();
    let mut stream = runner.op_stream();
    let mut issued = 0usize;
    let mut stalled = 0u32;
    while issued < scenario.requests {
        let want = runner.batch().min(scenario.requests - issued);
        let ops = stream.next_batch(lb.engine().controller().tree(), want);
        if ops.is_empty() {
            break;
        }
        let mut sent_this_batch = 0usize;
        for op in &ops {
            // Placement resolves against the served controller's tree at
            // submit time, exactly as the runner resolves against its own.
            let (at, kind) = stream.place(lb.engine().controller().tree(), op);
            let frame = match kind {
                RequestKind::AddLeaf => format!(
                    r#"{{"op": "submit", "kind": "add-leaf", "node": {}}}"#,
                    at.index()
                ),
                RequestKind::AddInternalAbove(child) => format!(
                    r#"{{"op": "submit", "kind": "add-internal-above", "node": {}, "child": {}}}"#,
                    at.index(),
                    child.index()
                ),
                RequestKind::RemoveSelf => format!(
                    r#"{{"op": "submit", "kind": "remove-self", "node": {}}}"#,
                    at.index()
                ),
                RequestKind::NonTopological => {
                    format!(
                        r#"{{"op": "submit", "kind": "event", "node": {}}}"#,
                        at.index()
                    )
                }
            };
            lb.send(c, &frame);
            let (kind_key, _) = frame_kind(&recv_one(&mut lb, c));
            // Stale ops surface as submit-rejected error frames — the
            // protocol twin of the runner's dropped counter.
            if kind_key == "ok" {
                issued += 1;
                sent_this_batch += 1;
            }
        }
        match scenario.arrival {
            ArrivalMode::Batch => lb.run_to_quiescence(),
            ArrivalMode::Interleaved { .. } => lb.pump_slice(),
        }
        events.extend(lb.recv(c));
        if sent_this_batch == 0 {
            stalled += 1;
            if stalled > 8 {
                break;
            }
        } else {
            stalled = 0;
        }
    }
    lb.run_to_quiescence();
    events.extend(lb.recv(c));
    (lb, events)
}

#[test]
fn loopback_matches_scenario_runner_for_every_family() {
    for family in Family::ALL {
        for arrival in [ArrivalMode::Batch, ArrivalMode::Interleaved { quantum: 64 }] {
            let scenario = Scenario {
                name: format!("{}/parity", family.name()).into(),
                shape: TreeShape::Star { nodes: 12 },
                churn: ChurnModel::FullChurn {
                    add_leaf: 50,
                    add_internal: 20,
                    remove: 10,
                },
                placement: Placement::Uniform,
                arrival,
                requests: 64,
                m: 48,
                w: 8,
                seed: 1234,
            };

            // Reference: the batch driver over the plain Controller API.
            let runner = ScenarioRunner::new(scenario.clone());
            let mut ctrl = ControllerSpec::for_scenario(family, &scenario)
                .build_for(&runner)
                .unwrap();
            let report = runner.run(ctrl.as_mut()).unwrap();
            report.check().unwrap();

            // Same scenario through the wire protocol: every ticket streams
            // as the runner's record of it, in the runner's answer order,
            // and no other ticket was issued.
            let what = format!("{family:?}/{arrival:?}");
            let (lb, events) = drive_loopback(&scenario);
            assert_stream_matches(&events, ctrl.records(), &what);
            assert_eq!(lb.engine().in_flight(), 0, "{what}");
            let stats = lb.engine().stats();
            assert_eq!(stats.submitted, ctrl.records().len() as u64, "{what}");
            assert_eq!(stats.granted, report.granted, "{what}");
            assert_eq!(stats.rejected, report.rejected, "{what}");
            assert_eq!(stats.refused, report.refused, "{what}");
            assert_eq!(stats.messages, report.messages, "{what}");
        }
    }
}

/// The `batch` frame: one line carrying several submit bodies is answered
/// with one ticket frame per element in array order, each ticket resolves
/// independently, and a batch with any malformed element is rejected as a
/// whole (no tickets issued, nothing enqueued).
#[test]
fn batch_frames_issue_tickets_in_order_and_reject_as_a_whole() {
    let mut lb = Loopback::new(ServeConfig::new(Family::Centralized, 16, 4)).unwrap();
    let c = lb.connect();
    lb.send(c, r#"{"op": "hello", "proto": 1}"#);
    assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "welcome");
    lb.send(c, r#"{"op": "subscribe"}"#);
    assert_eq!(frame_kind(&recv_one(&mut lb, c)).1, "subscribed");

    lb.send(
        c,
        r#"{"op": "batch", "requests": [
            {"kind": "event", "node": 0, "tag": 100},
            {"kind": "add-leaf", "node": 0, "tag": 101},
            {"kind": "event", "node": 1, "tag": 102}
        ]}"#,
    );
    let frames = lb.recv(c);
    assert_eq!(frames.len(), 3, "one ticket per element: {frames:?}");
    let mut tickets = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let v = parse(frame);
        assert_eq!(v.get("ok").unwrap().as_str().unwrap(), "ticket");
        assert_eq!(
            v.get("tag").unwrap().as_u64().unwrap(),
            100 + i as u64,
            "tickets come back in array order"
        );
        tickets.push(v.get("ticket").unwrap().as_u64().unwrap());
    }
    assert!(tickets.windows(2).all(|w| w[0] < w[1]));

    // Every batched ticket resolves through the normal lifecycle: one
    // granted event each, tag echoed, and the insertion's `topology` event.
    lb.run_to_quiescence();
    let events = lb.recv(c);
    for (i, (ticket, kind)) in tickets
        .iter()
        .zip(["event", "add-leaf", "event"])
        .enumerate()
    {
        assert_eq!(
            answer_of(&events, *ticket),
            [("granted".to_string(), Some(kind.to_string()))],
            "{events:?}"
        );
        let tag = 100 + i as u64;
        let tagged = events
            .iter()
            .filter(|f| f.ends_with(&format!(r#""tag": {tag}}}"#)));
        assert_eq!(tagged.count(), if kind == "add-leaf" { 2 } else { 1 });
    }
    assert_eq!(events.len(), 4, "{events:?}");

    // A batch with one malformed element is refused whole: a single error
    // frame, and the submission counter does not move.
    lb.send(c, r#"{"op": "stats"}"#);
    let before = parse(&recv_one(&mut lb, c))
        .get("submitted")
        .unwrap()
        .as_u64()
        .unwrap();
    lb.send(
        c,
        r#"{"op": "batch", "requests": [
            {"kind": "event", "node": 0},
            {"kind": "dance", "node": 0}
        ]}"#,
    );
    let err = parse(&recv_one(&mut lb, c));
    assert_eq!(err.get("error").unwrap().as_str().unwrap(), "bad-frame");
    lb.send(c, r#"{"op": "stats"}"#);
    let after = parse(&recv_one(&mut lb, c))
        .get("submitted")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(before, after, "a rejected batch enqueues nothing");

    // The batch op sits behind the hello gate like everything else.
    let fresh = lb.connect();
    lb.send(
        fresh,
        r#"{"op": "batch", "requests": [{"kind": "event", "node": 0}]}"#,
    );
    assert_eq!(frame_kind(&recv_one(&mut lb, fresh)).1, "hello-required");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The six served configurations, one per family, on a small budget so a
/// session meets rejections too.
fn served_configs() -> Vec<(&'static str, ServeConfig)> {
    Family::ALL
        .iter()
        .map(|&f| (f.name(), ServeConfig::new(f, 12, 3).with_seed(5)))
        .collect()
}

/// A scripted two-and-a-half-client session that records every reply line,
/// prefixed with the receiving client.
struct Session {
    lb: Loopback,
    clients: Vec<u64>,
    transcript: Vec<String>,
}

impl Session {
    fn new(config: ServeConfig) -> Self {
        Session {
            lb: Loopback::new(config).unwrap(),
            clients: Vec::new(),
            transcript: Vec::new(),
        }
    }

    fn connect(&mut self) -> u64 {
        let c = self.lb.connect();
        self.clients.push(c);
        self.send(c, r#"{"op": "hello", "proto": 1}"#);
        c
    }

    fn disconnect(&mut self, client: u64) {
        self.lb.disconnect(client);
        self.clients.retain(|&c| c != client);
    }

    /// Moves everything queued for any open connection into the transcript.
    fn collect(&mut self) {
        for &c in &self.clients {
            for frame in self.lb.recv(c) {
                self.transcript.push(format!("{c}< {frame}"));
            }
        }
    }

    fn send(&mut self, client: u64, line: &str) {
        self.lb.send(client, line);
        self.collect();
    }

    fn pump_slice(&mut self) {
        self.lb.pump_slice();
        self.collect();
    }

    fn quiesce(&mut self) {
        self.lb.run_to_quiescence();
        self.collect();
    }
}

fn golden_session(config: ServeConfig) -> Vec<String> {
    let mut s = Session::new(config.with_step_budget(48));
    let a = s.connect();
    let b = s.connect();
    s.send(a, r#"{"op": "subscribe"}"#);

    // One permit: streamed to its submitter by the pump, to nobody else.
    s.send(
        a,
        r#"{"op": "submit", "kind": "event", "node": 0, "tag": 1}"#,
    );
    s.quiesce();

    // Insertions of both kinds, streamed after one bounded slice (the
    // asynchronous families are still mid-flight) and at quiescence.
    s.send(
        a,
        r#"{"op": "submit", "kind": "add-leaf", "node": 0, "tag": 2}"#,
    );
    s.send(
        a,
        r#"{"op": "submit", "kind": "add-leaf", "node": 1, "tag": 3}"#,
    );
    s.send(
        a,
        r#"{"op": "submit", "kind": "add-internal-above", "node": 0, "child": 1, "tag": 4}"#,
    );
    s.pump_slice();
    s.quiesce();

    // A deletion (refused by the grow-only baseline), then the deleted node
    // and an out-of-range one as submission targets.
    s.send(
        a,
        r#"{"op": "submit", "kind": "remove-self", "node": 3, "tag": 5}"#,
    );
    s.quiesce();
    s.send(
        a,
        r#"{"op": "submit", "kind": "event", "node": 3, "tag": 6}"#,
    );
    s.send(
        a,
        r#"{"op": "submit", "kind": "event", "node": 999, "tag": 7}"#,
    );
    s.quiesce();

    // A batch from the unsubscribed client: tickets, and nothing streams.
    s.send(
        b,
        r#"{"op": "batch", "requests": [
            {"kind": "event", "node": 0, "tag": 10},
            {"kind": "add-leaf", "node": 0, "tag": 11},
            {"kind": "remove-self", "node": 4, "tag": 12},
            {"kind": "event", "node": 2}
        ]}"#,
    );
    s.quiesce();

    // Enough permits to run the budget out, so rejections appear.
    s.send(
        a,
        r#"{"op": "batch", "requests": [
            {"kind": "event", "node": 0, "tag": 20}, {"kind": "event", "node": 1, "tag": 21},
            {"kind": "event", "node": 2, "tag": 22}, {"kind": "event", "node": 5, "tag": 23},
            {"kind": "event", "node": 6, "tag": 24}, {"kind": "event", "node": 7, "tag": 25},
            {"kind": "event", "node": 0, "tag": 26}, {"kind": "event", "node": 1, "tag": 27},
            {"kind": "add-leaf", "node": 2, "tag": 28}, {"kind": "event", "node": 5, "tag": 29}
        ]}"#,
    );
    s.pump_slice();
    s.quiesce();

    // The submitter leaves before its ticket is pumped, so its answer
    // streams to nobody; a third client leaves after.
    s.send(
        b,
        r#"{"op": "submit", "kind": "event", "node": 0, "tag": 30}"#,
    );
    s.disconnect(b);
    let c = s.connect();
    s.send(c, r#"{"op": "subscribe"}"#);
    s.send(
        c,
        r#"{"op": "submit", "kind": "add-leaf", "node": 0, "tag": 31}"#,
    );
    s.quiesce();
    s.disconnect(c);
    s.send(a, r#"{"op": "stats"}"#);
    s.transcript
}

/// Wire bytes are pinned: every reply line of the scripted session, for
/// every served configuration. Recorded at commit 371758f (before `poll`
/// moved from the engine's own outcome table to the controller's records);
/// a change here is a protocol change and needs a conscious re-pin. The
/// `distributed`, `adaptive-distributed` and `sharded-k2` rows were re-pinned
/// when the request agent began releasing its locks on the way down (answer
/// times and message counts moved; the other four rows did not), and the
/// first two again when a blocked topological change began to apply in the
/// step that frees its gate instead of at the next poll (42 of 189 lines,
/// answer times only; `sharded-k2` and the other four did not move), and all
/// three when the simulator's port numbers were deleted and hop delays became
/// the first samples of the seed's stream (55, 58 and 78 of 189 lines: answer
/// times, the order of concurrent answers and which of two racing requests
/// takes the last permit; `granted` / `rejected` in `stats` and the other
/// four rows did not move), and none when `adaptive-distributed` began to
/// run in bounded slices on the epoch engine (the session's 48-event slices
/// answer what its whole-run step answered), and none when `poll` moved back
/// to a window of wire outcomes kept by the engine. The `sharded-k2` row went
/// when `dcn-serve` stopped serving sharded federations; the six family rows
/// did not move. Every row was re-pinned when `poll` went: each transcript is
/// the one before with every poll reply deleted (140 lines, 146 for `aaps`)
/// and the final `stats` line's `protocol_errors` 26 lower; no other byte
/// moved.
#[test]
fn golden_transcript_is_unchanged_for_every_family() {
    let golden: [(&str, usize, u64); 6] = [
        ("centralized", 49, 0xc978_321a_9c9f_f251),
        ("iterated", 49, 0x35f0_c894_6951_d956),
        ("distributed", 49, 0xa2b4_50c3_ce46_8b51),
        ("adaptive-distributed", 49, 0x25c9_e0e0_ebbe_3131),
        ("trivial", 49, 0xbf95_8e9f_b303_eada),
        ("aaps", 48, 0x4449_31e6_daef_dd61),
    ];
    let mut got = Vec::new();
    for (name, config) in served_configs() {
        let transcript = golden_session(config);
        let hash = fnv1a(transcript.join("\n").as_bytes());
        got.push((name, transcript.len(), hash));
    }
    assert_eq!(
        got, golden,
        "reply bytes changed; got (name, lines, fnv1a): {got:#x?}"
    );
}

/// The paper's adaptive controller served in slices of 16 events: a deep
/// request is still in flight, and has streamed nothing, after one slice,
/// and a session that recycles permits and refreshes epochs answers every
/// ticket, drains `in_flight()`, reconciles `stats` and streams every
/// ticket, frame for frame and in order, as a twin controller run to
/// quiescence after every round recorded it — slicing moves nothing.
#[test]
fn adaptive_distributed_is_served_in_bounded_slices() {
    /// Submits to the server and the twin alike; returns the wire ticket.
    fn submit(
        lb: &mut Loopback,
        twin: &mut AdaptiveDistributedController,
        client: u64,
        node: NodeId,
        kind: RequestKind,
    ) -> u64 {
        let wire = if kind == RequestKind::AddLeaf {
            "add-leaf"
        } else {
            "event"
        };
        let line = format!(
            r#"{{"op": "submit", "kind": "{wire}", "node": {}}}"#,
            node.index()
        );
        lb.send(client, &line);
        twin.submit(node, kind).unwrap();
        let ticket = parse(&recv_one(lb, client));
        ticket.get("ticket").unwrap().as_u64().unwrap()
    }

    let (m, w, seed, shape) = (400, 4, 3, TreeShape::Path { nodes: 8 });
    let config = ServeConfig::new(Family::AdaptiveDistributed, m, w)
        .with_shape(shape)
        .with_seed(seed)
        .with_step_budget(16);
    let mut lb = Loopback::new(config).unwrap();
    let mut twin =
        AdaptiveDistributedController::new(SimConfig::new(seed), build_tree(shape), m, w).unwrap();
    let c = lb.connect();
    lb.send(c, r#"{"op": "hello", "proto": 1}"#);
    lb.send(c, r#"{"op": "subscribe"}"#);
    let _ = lb.recv(c);

    // The deepest node's request climbs eight hops and walks back: one
    // slice of 16 events leaves it in flight.
    let deep = NodeId::from_index(8);
    let deep = submit(&mut lb, &mut twin, c, deep, RequestKind::NonTopological);
    lb.pump_slice();
    assert!(lb.recv(c).is_empty(), "ticket {deep} answered in one slice");
    assert_eq!(lb.engine().in_flight(), 1);

    // Then the workload of `adaptive_distributed_runs_match_the_pre_shell_
    // fingerprints`: 400 permits over 9 nodes strand permits in static
    // packages (a recycle), the insertions of rounds 0, 5 and 10 cross U/4
    // changes (an epoch refresh), and the budget runs out.
    lb.run_to_quiescence();
    twin.run_to_quiescence().unwrap();
    let mut submitted = 1;
    let mut events = lb.recv(c);
    for round in 0..12usize {
        let nodes: Vec<NodeId> = twin.tree().nodes().collect();
        for i in 0..40usize {
            let kind = if round % 5 == 0 && i < 6 {
                RequestKind::AddLeaf
            } else {
                RequestKind::NonTopological
            };
            let at = nodes[(i * 7 + round) % nodes.len()];
            submit(&mut lb, &mut twin, c, at, kind);
            submitted += 1;
        }
        lb.run_to_quiescence();
        twin.run_to_quiescence().unwrap();
        events.extend(lb.recv(c));
        assert_eq!(lb.engine().in_flight(), 0, "round {round}");
    }
    assert_eq!(answers(&events), submitted);
    assert!(twin.recycles() >= 1, "no recycle forced");
    assert!(twin.epochs() >= 2, "no epoch refresh forced");
    assert_stream_matches(&events, twin.records(), "adaptive-distributed");
    assert_eq!(lb.engine().stats().messages, twin.metrics().messages);

    lb.send(c, r#"{"op": "stats"}"#);
    let stats = parse(&recv_one(&mut lb, c));
    let field = |key: &str| stats.get(key).unwrap().as_u64().unwrap();
    assert_eq!(field("submitted"), submitted as u64);
    assert_eq!(field("granted"), twin.granted());
    assert_eq!(field("rejected"), twin.rejected());
    assert_eq!(field("granted") + field("rejected"), submitted as u64);
    assert!(field("rejected") > 0 && twin.granted() >= m - w);
}

/// Counts the answer events (`granted` / `rejected` / `refused`) in a batch
/// of streamed frames.
fn answers(frames: &[String]) -> usize {
    frames
        .iter()
        .filter(|f| {
            let (key, value) = frame_kind(f);
            key == "event" && value != "topology"
        })
        .count()
}

/// The engine's routing table holds tickets in flight: it is
/// `submitted − answered` at every point of a session and empty at
/// quiescence, however many requests went through, and the served
/// controller keeps no record past a pump.
#[test]
fn in_flight_is_submitted_minus_answered_and_zero_at_quiescence() {
    // 100 000 permits on the synchronous family, 64 a round.
    let config = ServeConfig::new(Family::Centralized, 200_000, 8);
    let mut lb = Loopback::new(config).unwrap();
    let c = lb.connect();
    lb.send(c, r#"{"op": "hello", "proto": 1}"#);
    lb.send(c, r#"{"op": "subscribe"}"#);
    let _ = lb.recv(c);
    let round: Vec<String> = (0..64)
        .map(|i| format!(r#"{{"kind": "event", "node": {}}}"#, i % 9))
        .collect();
    let round = format!(r#"{{"op": "batch", "requests": [{}]}}"#, round.join(", "));
    let mut submitted = 0;
    while submitted < 100_000 {
        lb.send(c, &round);
        submitted += lb.recv(c).len();
        assert_eq!(lb.engine().in_flight(), 64);
        lb.run_to_quiescence();
        assert_eq!(answers(&lb.recv(c)), 64);
        assert_eq!(lb.engine().in_flight(), 0);
        assert!(lb.engine().controller().records().is_empty());
    }
    assert_eq!(lb.engine().stats().granted, submitted as u64);

    // A churn session on the asynchronous family, pumped a slice at a time
    // so tickets of several rounds are in flight together.
    let config = ServeConfig::new(Family::Distributed, 4_000, 64)
        .with_shape(TreeShape::Path { nodes: 32 })
        .with_seed(9)
        .with_step_budget(16);
    let mut lb = Loopback::new(config).unwrap();
    let c = lb.connect();
    lb.send(c, r#"{"op": "hello", "proto": 1}"#);
    lb.send(c, r#"{"op": "subscribe"}"#);
    let _ = lb.recv(c);
    let (mut submitted, mut answered, mut peak) = (0, 0, 0);
    for round in 0..400u64 {
        let node = (round * 7) % 32;
        let kind = match round % 5 {
            0 => "add-leaf",
            1 if node != 0 => "remove-self",
            _ => "event",
        };
        lb.send(
            c,
            &format!(r#"{{"op": "submit", "kind": "{kind}", "node": {node}}}"#),
        );
        // A node an earlier round deleted is a `bad-node` error, no ticket.
        submitted += lb
            .recv(c)
            .iter()
            .filter(|f| frame_kind(f).0 == "ok")
            .count();
        lb.pump_slice();
        answered += answers(&lb.recv(c));
        assert_eq!(
            lb.engine().in_flight(),
            submitted - answered,
            "round {round}"
        );
        peak = peak.max(lb.engine().in_flight());
    }
    assert!(
        peak > 4,
        "slices should leave several tickets in flight: {peak}"
    );
    lb.run_to_quiescence();
    answered += answers(&lb.recv(c));
    assert_eq!(answered, submitted);
    assert_eq!(lb.engine().in_flight(), 0);
}
