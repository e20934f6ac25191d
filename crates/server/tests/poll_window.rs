//! `poll` against a reference model of the engine's answer window.
//!
//! One seeded session over a scripted controller that answers out of order
//! after random delays — some tickets only after more than the window of
//! newer ones exists (stragglers) — and that sometimes burns a ticket and
//! then fails the submit. A second connection polls live, answered, expired,
//! burned and never-issued tickets, between a submit and its pump and after
//! pumps, and every reply must equal, byte for byte, what the window as
//! DESIGN.md §9 "Per-request state" defines it says: a map of the answers of
//! the newest `WINDOW` tickets issued, evicted at each pump.

use dcn_controller::{
    Controller, ControllerError, ControllerMetrics, Outcome, Progress, RequestId, RequestKind,
    RequestRecord,
};
use dcn_rng::{DetRng, Rng, SeedableRng, SliceRandom};
use dcn_server::protocol::{self, WireOutcome};
use dcn_server::{EngineCore, ServeConfig};
use dcn_tree::{DynamicTree, NodeId};
use dcn_workload::Family;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// The engine's answer window: how many of the newest tickets issued `poll`
/// answers for.
const WINDOW: u64 = 65_536;

/// What the test reads back from the controller it handed to the engine.
#[derive(Default)]
struct Log {
    /// Tickets issued, burned ones included.
    issued: u64,
    /// The records the last `take_records` handed out.
    taken: Vec<RequestRecord>,
}

/// A controller that answers each ticket with a random outcome once a
/// random number of newer tickets exists, in random order within a step.
struct Scripted {
    rng: DetRng,
    tree: DynamicTree,
    log: Rc<RefCell<Log>>,
    /// Unanswered tickets: the issued count at which each is answered.
    due: Vec<(u64, RequestRecord)>,
    /// Answered and not yet taken.
    answered: Vec<RequestRecord>,
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
        let id = {
            let mut log = self.log.borrow_mut();
            log.issued += 1;
            log.issued - 1
        };
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
            // Answered around the moment the ticket leaves the window.
            20..=39 => WINDOW - 64 + rng.gen_range(0..128u64),
            // Stragglers: answered after more than a window of newer tickets.
            40..=44 => WINDOW + rng.gen_range(2..2 * WINDOW),
            // Answered inside `submit`, like a synchronous family.
            45..=299 => 0,
            _ => rng.gen_range(1..512u64),
        };
        if delay == 0 {
            self.answered.push(record);
        } else {
            self.due.push((id + delay, record));
        }
        Ok(RequestId(id))
    }
    fn run_to_quiescence(&mut self) -> Result<(), ControllerError> {
        Ok(())
    }
    fn step(&mut self, _: u64) -> Result<Progress, ControllerError> {
        let issued = self.log.borrow().issued;
        let mut i = 0;
        while i < self.due.len() {
            if self.due[i].0 <= issued {
                self.answered.push(self.due.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        self.answered.shuffle(&mut self.rng);
        Ok(Progress {
            processed: 0,
            quiescent: self.due.is_empty(),
        })
    }
    fn take_records(&mut self) -> Vec<RequestRecord> {
        let taken = std::mem::take(&mut self.answered);
        self.log.borrow_mut().taken.clone_from(&taken);
        taken
    }
    fn records(&self) -> &[RequestRecord] {
        &self.answered
    }
    fn granted(&self) -> u64 {
        0
    }
    fn rejected(&self) -> u64 {
        0
    }
    fn tree(&self) -> &DynamicTree {
        &self.tree
    }
    fn metrics(&self) -> ControllerMetrics {
        ControllerMetrics::default()
    }
}

/// The answer window as a plain map: each pump evicts every ticket below
/// `tickets_end − WINDOW`, then keeps the answer of each taken record at or
/// above it.
#[derive(Default)]
struct Model {
    /// Tickets submitted and not yet answered by a pump.
    routed: BTreeSet<u64>,
    answers: BTreeMap<u64, RequestRecord>,
    /// One past the highest ticket a submit returned.
    tickets_end: u64,
    /// `tickets_end` as of the last pump.
    pumped_end: u64,
    /// Answers that came after their ticket had left the window.
    stragglers: u64,
}

impl Model {
    fn issued(&mut self, ticket: u64) {
        self.routed.insert(ticket);
        self.tickets_end = self.tickets_end.max(ticket + 1);
    }

    fn pumped(&mut self, taken: &[RequestRecord]) {
        let floor = self.tickets_end.saturating_sub(WINDOW);
        self.answers = self.answers.split_off(&floor);
        self.pumped_end = self.tickets_end;
        for record in taken {
            let ticket = record.id.0;
            assert!(self.routed.remove(&ticket), "{ticket} answered twice");
            if ticket >= floor {
                self.answers.insert(ticket, *record);
            } else {
                self.stragglers += 1;
            }
        }
    }

    fn poll(&self, ticket: u64) -> String {
        if self.routed.contains(&ticket) {
            return protocol::outcome_frame(ticket, &WireOutcome::Pending);
        }
        if let Some(record) = self.answers.get(&ticket) {
            let outcome = match record.outcome {
                Outcome::Granted { new_node, .. } => WireOutcome::Granted {
                    at: record.answered_at,
                    kind: record.kind,
                    new_node: new_node.map(|n| n.index() as u64),
                },
                Outcome::Rejected => WireOutcome::Rejected,
                Outcome::Refused => WireOutcome::Refused,
            };
            return protocol::outcome_frame(ticket, &outcome);
        }
        let (code, detail) = if ticket < self.tickets_end {
            ("expired-ticket", "was answered too long ago")
        } else {
            ("unknown-ticket", "was never issued")
        };
        protocol::error_frame(code, &format!("ticket {ticket} {detail}"), None)
    }

    /// A ticket worth polling: in flight, in the window, below it, burned,
    /// never issued, or on one of the window's edges.
    fn target(&self, rng: &mut DetRng, burned: &[u64]) -> u64 {
        let end = self.tickets_end;
        let floor = end.saturating_sub(WINDOW);
        match rng.gen_range(0..6u32) {
            0 => {
                let from = rng.gen_range(0..=end);
                let live = self.routed.range(from..).next();
                live.or(self.routed.first()).copied().unwrap_or(end)
            }
            1 => rng.gen_range(floor..=end),
            2 => rng.gen_range(0..=floor),
            3 => burned.choose(rng).copied().unwrap_or(0),
            4 => [end + rng.gen_range(0..4u64), u64::MAX]
                .choose(rng)
                .copied()
                .unwrap_or(end),
            _ => {
                let pumped = self.pumped_end;
                let edges = [
                    floor.saturating_sub(1),
                    floor,
                    pumped.saturating_sub(WINDOW + 1),
                    pumped.saturating_sub(WINDOW),
                    pumped.saturating_sub(1),
                    pumped,
                    end.saturating_sub(1),
                ];
                edges.choose(rng).copied().unwrap_or(end)
            }
        }
    }
}

#[test]
fn poll_replies_match_a_model_of_the_answer_window() {
    let log = Rc::new(RefCell::new(Log::default()));
    let scripted = Scripted {
        rng: DetRng::seed_from_u64(0x5eed),
        tree: DynamicTree::with_initial_star(4),
        log: Rc::clone(&log),
        due: Vec::new(),
        answered: Vec::new(),
    };
    let config = ServeConfig::new(Family::Centralized, 16, 4);
    let mut engine = EngineCore::with_controller(config, Box::new(scripted));
    let (submitter, poller) = (1, 2);
    let mut out = Vec::new();
    for client in [submitter, poller] {
        engine.client_connected(client);
        engine.handle_line(client, r#"{"op": "hello", "proto": 1}"#, &mut out);
    }
    out.clear();

    let mut rng = DetRng::seed_from_u64(0xa11ce);
    let mut model = Model::default();
    let mut burned = Vec::new();
    let mut replies: BTreeMap<&str, u64> = BTreeMap::new();
    let mut poll = |engine: &mut EngineCore, model: &Model, burned: &[u64], rng: &mut DetRng| {
        let ticket = model.target(rng, burned);
        let mut out = Vec::new();
        engine.handle_line(
            poller,
            &format!(r#"{{"op": "poll", "ticket": {ticket}}}"#),
            &mut out,
        );
        let expected = model.poll(ticket);
        assert_eq!(out, [(poller, expected.clone())], "poll of ticket {ticket}");
        let kind = [
            "pending", "granted", "rejected", "refused", "expired", "unknown",
        ]
        .into_iter()
        .find(|k| expected.contains(k))
        .unwrap_or("?");
        *replies.entry(kind).or_default() += 1;
    };

    let mut burst = true;
    while model.tickets_end < 3 * WINDOW + 4096 {
        // Once, more than a window of tickets between two pumps.
        let submits = if burst && model.tickets_end > WINDOW + WINDOW / 2 {
            burst = false;
            WINDOW + 300
        } else {
            rng.gen_range(1..64u64)
        };
        for _ in 0..submits {
            let line = match rng.gen_range(0..4u32) {
                0 => r#"{"op": "submit", "kind": "add-leaf", "node": 0}"#.to_string(),
                1 => r#"{"op": "submit", "kind": "remove-self", "node": 2}"#.to_string(),
                2 => format!(
                    r#"{{"op": "submit", "kind": "add-internal-above", "node": 0, "child": {}}}"#,
                    rng.gen_range(1..=4u32)
                ),
                _ => r#"{"op": "submit", "kind": "event", "node": 3}"#.to_string(),
            };
            engine.handle_line(submitter, &line, &mut out);
            let ticket = log.borrow().issued - 1;
            let reply = &out[0].1;
            if *reply == protocol::ticket_frame(ticket, None) {
                model.issued(ticket);
            } else {
                assert!(
                    reply.starts_with(r#"{"error": "submit-rejected""#),
                    "{reply}"
                );
                burned.push(ticket);
            }
            assert_eq!(out.len(), 1);
            out.clear();
            if rng.gen_range(0..8u32) == 0 {
                poll(&mut engine, &model, &burned, &mut rng);
            }
        }
        engine.pump(&mut out);
        out.clear();
        model.pumped(&log.borrow().taken);
        for _ in 0..rng.gen_range(0..6u32) {
            poll(&mut engine, &model, &burned, &mut rng);
        }
    }

    // Every case was reached, stragglers and burned ids included.
    assert!(model.stragglers >= 100, "{} stragglers", model.stragglers);
    assert!(burned.len() >= 1000, "{} burned", burned.len());
    for kind in [
        "pending", "granted", "rejected", "refused", "expired", "unknown",
    ] {
        let seen = replies.get(kind).copied().unwrap_or(0);
        assert!(seen >= 1000, "{seen} {kind} replies: {replies:?}");
    }
}
