//! The engine's event stream against a reference model.
//!
//! One seeded session over a scripted controller that answers out of order
//! after random delays — some inside `submit`, like a synchronous family,
//! some hundreds of pumps later — with random created nodes, and that
//! sometimes burns a ticket and then fails the submit. After every pump the
//! frames the engine sent out must equal, in take order, what
//! [`protocol::event_frame`] and [`protocol::topology_event_frame`] make of
//! the records the controller handed out, each addressed to its submitter:
//! a granted topological ticket streams `granted` and then `topology` with
//! its node, each exactly once; a burned id never streams; and
//! `in_flight()` counts the tickets the model still routes. A second
//! subscribed client leaves midway with tickets in flight: their events go
//! nowhere, and the first client's stream does not change.

use dcn_controller::{
    Controller, ControllerError, ControllerMetrics, Outcome, Progress, RequestId, RequestKind,
    RequestLedger, RequestRecord,
};
use dcn_rng::{DetRng, Rng, SeedableRng, SliceRandom};
use dcn_server::protocol::{self, WireOutcome};
use dcn_server::{ClientId, EngineCore, Outgoing, ServeConfig};
use dcn_tree::{DynamicTree, NodeId};
use dcn_workload::Family;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// What the test reads back from the controller it handed to the engine.
#[derive(Default)]
struct Log {
    /// Tickets issued, burned ones included.
    issued: u64,
    /// The records the last `take_records` handed out, in take order.
    taken: Vec<RequestRecord>,
}

/// A controller that answers each ticket with a random outcome after a
/// random number of steps (none: inside `submit`), in random order within
/// a step.
struct Scripted {
    rng: DetRng,
    tree: DynamicTree,
    log: Rc<RefCell<Log>>,
    /// Steps taken so far: the scripted clock.
    steps: u64,
    /// Unanswered tickets: the step at which each is answered.
    due: Vec<(u64, RequestRecord)>,
    /// Answered since the last step, in no order yet.
    answered: Vec<RequestRecord>,
    /// Tickets, and the answers not yet taken in the order a step gave them.
    ledger: RequestLedger,
}

impl Controller for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn budget(&self) -> u64 {
        16
    }
    fn waste_bound(&self) -> u64 {
        4
    }
    fn submit(&mut self, origin: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        let id = self.ledger.issue().0;
        self.log.borrow_mut().issued = self.ledger.issued();
        let rng = &mut self.rng;
        let roll = rng.gen_range(0..1000u32);
        if roll < 20 {
            // Issued, then failed: the id is burned and never answered.
            return Err(ControllerError::Sim("dispatch failed".to_string()));
        }
        let outcome = match rng.gen_range(0..4u32) {
            0 => Outcome::Rejected,
            1 => Outcome::Refused,
            _ => Outcome::Granted {
                serial: None,
                new_node: rng
                    .gen_bool(0.5)
                    .then(|| NodeId::from_index(rng.gen::<u32>() as usize)),
            },
        };
        let shift = rng.gen_range(0..64u32);
        let record = RequestRecord {
            id: RequestId(id),
            origin,
            kind,
            outcome,
            submitted_at: 0,
            answered_at: rng.next_u64() >> shift,
        };
        let delay = match roll {
            // Stragglers: answered after many pumps of newer tickets.
            20..=29 => rng.gen_range(64..512u64),
            // Answered inside `submit`, like a synchronous family.
            30..=299 => 0,
            _ => rng.gen_range(1..8u64),
        };
        if delay == 0 {
            self.answered.push(record);
        } else {
            self.due.push((self.steps + delay, record));
        }
        Ok(RequestId(id))
    }
    fn step(&mut self, _: u64) -> Result<Progress, ControllerError> {
        self.steps += 1;
        let mut i = 0;
        while i < self.due.len() {
            if self.due[i].0 <= self.steps {
                self.answered.push(self.due.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        self.answered.shuffle(&mut self.rng);
        for record in self.answered.drain(..) {
            self.ledger.push(record);
        }
        Ok(Progress {
            processed: 0,
            quiescent: self.due.is_empty(),
        })
    }
    fn take_records(&mut self) -> Vec<RequestRecord> {
        let taken = self.ledger.take_records();
        self.log.borrow_mut().taken.clone_from(&taken);
        taken
    }
    fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }
    fn tree(&self) -> &DynamicTree {
        &self.tree
    }
    fn metrics(&self) -> ControllerMetrics {
        ControllerMetrics::default()
    }
}

/// The engine's routing as a plain map: who submitted each ticket in
/// flight, with what tag, and which clients are still there to stream to.
#[derive(Default)]
struct Model {
    routed: BTreeMap<u64, (ClientId, Option<u64>)>,
    connected: BTreeSet<ClientId>,
    /// Answers whose submitter had left: streamed to nobody.
    orphaned: u64,
    /// `topology` frames expected, with a node and without.
    topology: [u64; 2],
}

impl Model {
    /// The frames a pump that took `taken` sends, in take order.
    fn pumped(&mut self, taken: &[RequestRecord]) -> Vec<Outgoing> {
        let mut out = Vec::new();
        for record in taken {
            let ticket = record.id.0;
            let (client, tag) = self
                .routed
                .remove(&ticket)
                .unwrap_or_else(|| panic!("ticket {ticket} answered but not in flight"));
            if !self.connected.contains(&client) {
                self.orphaned += 1;
                continue;
            }
            let answer = match record.outcome {
                Outcome::Granted { .. } => WireOutcome::Granted {
                    at: record.answered_at,
                    kind: record.kind,
                    new_node: None,
                },
                Outcome::Rejected => WireOutcome::Rejected,
                Outcome::Refused => WireOutcome::Refused,
            };
            out.push((client, protocol::event_frame(ticket, &answer, tag)));
            if let Outcome::Granted { new_node, .. } = record.outcome {
                if record.kind.is_topological() {
                    let node = new_node.map(|n| n.index() as u64);
                    self.topology[usize::from(node.is_none())] += 1;
                    let frame = protocol::topology_event_frame(ticket, record.kind, node, tag);
                    out.push((client, frame));
                }
            }
        }
        out
    }
}

#[test]
fn streamed_events_match_a_model_of_the_routes() {
    let log = Rc::new(RefCell::new(Log::default()));
    let scripted = Scripted {
        rng: DetRng::seed_from_u64(0x5eed),
        tree: DynamicTree::with_initial_star(4),
        log: Rc::clone(&log),
        steps: 0,
        due: Vec::new(),
        answered: Vec::new(),
        ledger: RequestLedger::new(),
    };
    let config = ServeConfig::new(Family::Centralized, 16, 4);
    let mut engine = EngineCore::with_controller(config, Box::new(scripted));
    let (submitter, leaver) = (1, 2);
    let mut model = Model::default();
    let mut out = Vec::new();
    for client in [submitter, leaver] {
        engine.client_connected(client);
        engine.handle_line(client, r#"{"op": "hello", "proto": 1}"#, &mut out);
        engine.handle_line(client, r#"{"op": "subscribe"}"#, &mut out);
        model.connected.insert(client);
    }
    out.clear();

    let mut rng = DetRng::seed_from_u64(0xa11ce);
    let mut burned = BTreeSet::new();
    let mut pumps = 0;
    while log.borrow().issued < 40_000 {
        for _ in 0..rng.gen_range(1..64u32) {
            let client = if pumps <= 300 && rng.gen_bool(0.5) {
                leaver
            } else {
                submitter
            };
            let tag = rng.gen_bool(0.5).then(|| rng.gen_range(0..1000u64));
            let kind = match rng.gen_range(0..4u32) {
                0 => r#""add-leaf", "node": 0"#.to_string(),
                1 => r#""remove-self", "node": 2"#.to_string(),
                2 => format!(
                    r#""add-internal-above", "node": 0, "child": {}"#,
                    rng.gen_range(1..=4u32)
                ),
                _ => r#""event", "node": 3"#.to_string(),
            };
            let tag_field = tag.map_or(String::new(), |t| format!(r#", "tag": {t}"#));
            let line = format!(r#"{{"op": "submit", "kind": {kind}{tag_field}}}"#);
            engine.handle_line(client, &line, &mut out);
            let ticket = log.borrow().issued - 1;
            if out == [(client, protocol::ticket_frame(ticket, tag))] {
                model.routed.insert(ticket, (client, tag));
            } else {
                assert_eq!(out.len(), 1);
                assert!(
                    out[0].1.starts_with(r#"{"error": "submit-rejected""#),
                    "{out:?}"
                );
                burned.insert(ticket);
            }
            out.clear();
        }
        if pumps == 300 {
            // The leaver goes with tickets in flight, some of them answered
            // inside `submit` and not yet pumped.
            assert!(model.routed.values().any(|&(c, _)| c == leaver));
            engine.client_disconnected(leaver);
            model.connected.remove(&leaver);
        }
        engine.pump(&mut out);
        pumps += 1;
        check_pump(&engine, &mut model, &log, &burned, &out);
        out.clear();
    }
    // Drain: every routed ticket streams or is orphaned, and nothing stays.
    while !engine.is_quiescent() {
        engine.pump(&mut out);
        check_pump(&engine, &mut model, &log, &burned, &out);
        out.clear();
    }
    assert_eq!(engine.in_flight(), 0);
    assert!(model.routed.is_empty());

    // Every case was reached.
    assert!(burned.len() >= 500, "{} burned", burned.len());
    assert!(model.orphaned >= 50, "{} orphaned", model.orphaned);
    assert!(
        model.topology.iter().all(|&n| n >= 1000),
        "topology frames with and without a node: {:?}",
        model.topology
    );
}

/// Asserts that one pump sent exactly what the model derives from the
/// records it took, that no burned id streamed, and that the engine routes
/// what the model routes.
fn check_pump(
    engine: &EngineCore,
    model: &mut Model,
    log: &RefCell<Log>,
    burned: &BTreeSet<u64>,
    out: &[Outgoing],
) {
    let taken = &log.borrow().taken;
    assert!(taken.iter().all(|r| !burned.contains(&r.id.0)));
    assert_eq!(out, model.pumped(taken));
    assert_eq!(engine.in_flight(), model.routed.len());
}
