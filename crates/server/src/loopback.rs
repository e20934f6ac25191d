//! The deterministic in-process loopback transport.
//!
//! Same [`EngineCore`], no sockets: clients are small handles into an
//! in-memory queue table, and "time" is purely the controller's virtual
//! clock. Two loopback sessions fed the same frame sequence produce
//! byte-identical reply sequences — which is what lets the protocol state
//! machine (and its parity with the batch
//! [`ScenarioRunner`](dcn_workload::ScenarioRunner)) be pinned by ordinary
//! unit tests even though the real TCP server is wall-clock and thread
//! nondeterministic.
//!
//! The transport mirrors the TCP framing rules exactly: one request line in,
//! zero or more reply/event lines out, oversized lines answered with a
//! `line-too-long` error frame — both paths go through
//! [`EngineCore::handle_line`] and [`protocol::parse_frame`].

use crate::engine::{ClientId, EngineCore, ServeConfig};
use crate::protocol;
use dcn_collections::FxHashMap;
use dcn_controller::ControllerError;
use std::collections::VecDeque;

/// An in-process server: the engine plus per-client reply queues.
pub struct Loopback {
    engine: EngineCore,
    next_client: ClientId,
    queues: FxHashMap<ClientId, VecDeque<String>>,
    scratch: Vec<(ClientId, String)>,
}

impl Loopback {
    /// Builds a loopback server over a fresh engine.
    ///
    /// # Errors
    ///
    /// Propagates controller construction errors (see [`EngineCore::new`]).
    pub fn new(config: ServeConfig) -> Result<Self, ControllerError> {
        Ok(Loopback::over(EngineCore::new(config)?))
    }

    /// Builds a loopback server over an engine the caller built (e.g. with
    /// [`EngineCore::with_controller`]).
    pub fn over(engine: EngineCore) -> Self {
        Loopback {
            engine,
            next_client: 0,
            queues: FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// Opens a connection and returns its id.
    pub fn connect(&mut self) -> ClientId {
        self.next_client += 1;
        let client = self.next_client;
        self.queues.insert(client, VecDeque::new());
        self.engine.client_connected(client);
        client
    }

    /// Closes a connection, dropping any undelivered frames.
    pub fn disconnect(&mut self, client: ClientId) {
        self.queues.remove(&client);
        self.engine.client_disconnected(client);
    }

    /// Sends one request line; direct replies land in the recipients'
    /// queues immediately. Outcome events flow on the next
    /// [`Loopback::pump_slice`] / [`Loopback::run_to_quiescence`] — the
    /// loopback analogue of the TCP engine thread pumping between inbox
    /// reads, kept explicit here so tests control the submit/pump
    /// interleaving exactly (the parity tests replicate
    /// [`ScenarioRunner`](dcn_workload::ScenarioRunner)'s batch semantics
    /// with it).
    pub fn send(&mut self, client: ClientId, line: &str) {
        self.scratch.clear();
        if line.len() > protocol::MAX_LINE_BYTES {
            // The TCP reader answers oversized lines before they reach the
            // engine; mirror that here so framing behaviour is identical.
            self.scratch.push((
                client,
                protocol::error_frame(
                    "line-too-long",
                    &format!(
                        "lines are capped at {} bytes, got {}",
                        protocol::MAX_LINE_BYTES,
                        line.len()
                    ),
                    None,
                ),
            ));
        } else {
            self.engine.handle_line(client, line, &mut self.scratch);
        }
        self.deliver();
    }

    /// Pumps one bounded step slice (at most the config's `step_budget`
    /// simulator events), delivering whatever resolved.
    pub fn pump_slice(&mut self) {
        self.scratch.clear();
        self.engine.pump(&mut self.scratch);
        self.deliver();
    }

    /// Pumps the engine until quiescent (the loopback analogue of the TCP
    /// engine thread spinning while work is in flight), delivering all
    /// streamed events.
    pub fn run_to_quiescence(&mut self) {
        self.scratch.clear();
        while self.engine.pump(&mut self.scratch) {}
        self.deliver();
    }

    /// Drains every frame queued for `client`, in delivery order.
    pub fn recv(&mut self, client: ClientId) -> Vec<String> {
        self.queues
            .get_mut(&client)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// The engine, for stats and parity assertions.
    pub fn engine(&self) -> &EngineCore {
        &self.engine
    }

    fn deliver(&mut self) {
        for (client, frame) in self.scratch.drain(..) {
            if let Some(q) = self.queues.get_mut(&client) {
                q.push_back(frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ANSWER_WINDOW;
    use dcn_controller::{
        Controller, ControllerMetrics, Outcome, Progress, RequestId, RequestKind, RequestLedger,
        RequestRecord,
    };
    use dcn_tree::{DynamicTree, NodeId};
    use dcn_workload::Family;

    /// A test controller: [`Stub::broken`] issues tickets, never answers
    /// them, and errs on every `step` and `run_to_quiescence`;
    /// [`Stub::straggling`] grants every request inside `submit` except the
    /// first, which it holds in flight until `ANSWER_WINDOW` newer tickets
    /// exist and grants at the next `step`.
    struct Stub {
        ledger: RequestLedger,
        tree: DynamicTree,
        broken: bool,
        holding: bool,
    }

    impl Stub {
        fn broken() -> Self {
            Stub {
                ledger: RequestLedger::new(),
                tree: DynamicTree::with_initial_star(4),
                broken: true,
                holding: false,
            }
        }

        fn straggling() -> Self {
            Stub {
                broken: false,
                holding: true,
                ..Stub::broken()
            }
        }

        fn grant(&mut self, id: RequestId, origin: NodeId, kind: RequestKind) {
            let outcome = Outcome::Granted {
                serial: None,
                new_node: None,
            };
            self.ledger.record(id, origin, kind, outcome);
        }
    }

    impl Controller for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn budget(&self) -> u64 {
            16
        }
        fn waste_bound(&self) -> u64 {
            4
        }
        fn submit(
            &mut self,
            origin: NodeId,
            kind: RequestKind,
        ) -> Result<RequestId, ControllerError> {
            let id = self.ledger.issue();
            if !self.broken && id != RequestId(0) {
                self.grant(id, origin, kind);
            }
            Ok(id)
        }
        fn run_to_quiescence(&mut self) -> Result<(), ControllerError> {
            if self.broken {
                return Err(ControllerError::Sim("the simulator refused".to_string()));
            }
            if self.holding && self.ledger.issued() > ANSWER_WINDOW as u64 {
                self.holding = false;
                self.grant(
                    RequestId(0),
                    NodeId::from_index(0),
                    RequestKind::NonTopological,
                );
            }
            Ok(())
        }
        fn step(&mut self, _: u64) -> Result<Progress, ControllerError> {
            self.run_to_quiescence().map(|()| Progress::quiescent())
        }
        fn take_records(&mut self) -> Vec<RequestRecord> {
            self.ledger.take_records()
        }
        fn records(&self) -> &[RequestRecord] {
            self.ledger.records()
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

    /// After a `step` error the engine is in an explicit failed state: it
    /// refuses new work with `engine-failed` before the controller sees it,
    /// keeps answering `poll` / `stats` / `shutdown`, and the tickets that
    /// were in flight read `pending`.
    #[test]
    fn a_step_error_fails_the_engine_for_good() {
        let config = ServeConfig::new(Family::Centralized, 16, 4);
        let mut lb = Loopback::over(EngineCore::with_controller(
            config,
            Box::new(Stub::broken()),
        ));
        let c = lb.connect();
        lb.send(c, r#"{"op": "hello", "proto": 1}"#);
        lb.send(c, r#"{"op": "subscribe"}"#);
        lb.send(
            c,
            r#"{"op": "submit", "kind": "event", "node": 0, "tag": 1}"#,
        );
        assert_eq!(lb.recv(c).len(), 3);
        assert_eq!(lb.engine().last_engine_error(), None);

        lb.run_to_quiescence();
        assert!(lb.recv(c).is_empty());
        let error = lb.engine().last_engine_error().map(str::to_string);
        assert!(
            error.as_deref().is_some_and(|e| e.contains("refused")),
            "{error:?}"
        );
        assert!(lb.engine().is_quiescent());

        // Every way in is refused, tag echoed, one frame per batch element.
        for line in [
            r#"{"op": "submit", "kind": "event", "node": 0, "tag": 2}"#,
            r#"{"op": "submit", "kind": "add-leaf", "node": 0, "tag": 3}"#,
            r#"{"op": "batch", "requests": [{"kind": "event", "node": 1, "tag": 4}, {"kind": "add-leaf", "node": 99}]}"#,
        ] {
            lb.send(c, line);
        }
        let detail = crate::protocol::error_frame("engine-failed", error.as_deref().unwrap(), None);
        let detail = detail.trim_end_matches('}');
        assert_eq!(
            lb.recv(c),
            [
                format!("{detail}, \"tag\": 2}}"),
                format!("{detail}, \"tag\": 3}}"),
                format!("{detail}, \"tag\": 4}}"),
                format!("{detail}}}"),
            ]
        );
        // Refusals neither wake the engine nor reach the controller.
        assert!(lb.engine().is_quiescent());
        lb.run_to_quiescence();
        assert_eq!(lb.engine().in_flight(), 1);

        // The ticket caught by the failure reads pending; nothing was
        // issued after it; stats and shutdown still answer.
        lb.send(c, r#"{"op": "poll", "ticket": 0}"#);
        lb.send(c, r#"{"op": "poll", "ticket": 1}"#);
        lb.send(c, r#"{"op": "stats"}"#);
        lb.send(c, r#"{"op": "shutdown"}"#);
        let frames = lb.recv(c);
        assert_eq!(
            frames[0],
            r#"{"ok": "outcome", "ticket": 0, "status": "pending"}"#
        );
        assert!(frames[1].contains("unknown-ticket"), "{}", frames[1]);
        assert!(
            frames[2].contains(r#""submitted": 1,"#)
                && frames[2].contains(r#""protocol_errors": 5,"#),
            "{}",
            frames[2]
        );
        assert_eq!(frames[3], r#"{"ok": "shutting-down"}"#);
        assert!(lb.engine().is_shutting_down());
    }

    /// A served process remembers the newest tickets' answers, not all of
    /// them: the controller keeps no record past a pump, `poll` answers for
    /// the newest `ANSWER_WINDOW` tickets issued, and it tells a forgotten
    /// ticket from one that never was.
    #[test]
    fn the_history_stays_within_the_answer_window() {
        let mut lb = Loopback::new(ServeConfig::new(Family::Centralized, 1 << 20, 8)).unwrap();
        let c = lb.connect();
        lb.send(c, r#"{"op": "hello", "proto": 1}"#);
        let batch = format!(
            r#"{{"op": "batch", "requests": [{}]}}"#,
            vec![r#"{"kind": "event", "node": 1}"#; 128].join(", ")
        );
        let total = 3 * ANSWER_WINDOW;
        for _ in 0..total / 128 {
            lb.send(c, &batch);
            lb.run_to_quiescence();
            assert!(lb.engine().controller().records().is_empty());
        }
        assert_eq!(lb.recv(c).len(), 1 + total);
        assert_eq!(lb.engine().controller().granted(), total as u64);
        assert_eq!(lb.engine().in_flight(), 0);

        let (newest, window) = (total as u64 - 1, ANSWER_WINDOW as u64);
        for ticket in [newest, newest + 1 - window, 0, newest - window] {
            lb.send(c, &format!(r#"{{"op": "poll", "ticket": {ticket}}}"#));
        }
        lb.send(c, r#"{"op": "poll", "ticket": 18446744073709551615}"#);
        lb.send(c, &format!(r#"{{"op": "poll", "ticket": {total}}}"#));
        lb.send(c, r#"{"op": "stats"}"#);
        let frames = lb.recv(c);
        let granted = |ticket: u64| {
            format!(
                r#"{{"ok": "outcome", "ticket": {ticket}, "status": "granted", "at": {}, "kind": "event"}}"#,
                ticket + 1
            )
        };
        assert_eq!(frames[0], granted(newest));
        assert_eq!(frames[1], granted(newest + 1 - window));
        let expired = |ticket: u64| {
            format!(
                r#"{{"error": "expired-ticket", "detail": "ticket {ticket} was answered too long ago"}}"#
            )
        };
        assert_eq!(frames[2], expired(0));
        assert_eq!(frames[3], expired(newest - window));
        assert_eq!(
            frames[4],
            r#"{"error": "unknown-ticket", "detail": "ticket 18446744073709551615 was never issued"}"#
        );
        assert!(frames[5].contains("unknown-ticket"), "{}", frames[5]);
        // Both codes count as protocol errors, like `unknown-ticket` always did.
        assert!(
            frames[6].contains(r#""protocol_errors": 4,"#),
            "{}",
            frames[6]
        );
    }

    /// A straggler — a ticket answered only once `ANSWER_WINDOW` newer ones
    /// were issued — polls `pending` while in flight and `expired-ticket`
    /// once answered, while its event still streams to its subscribed
    /// submitter.
    #[test]
    fn a_straggler_streams_its_answer_but_polls_as_expired() {
        let config = ServeConfig::new(Family::Centralized, 16, 4);
        let stub = Box::new(Stub::straggling());
        let mut lb = Loopback::over(EngineCore::with_controller(config, stub));
        let c = lb.connect();
        lb.send(c, r#"{"op": "hello", "proto": 1}"#);
        lb.send(c, r#"{"op": "subscribe"}"#);
        lb.send(
            c,
            r#"{"op": "submit", "kind": "event", "node": 0, "tag": 7}"#,
        );
        assert_eq!(lb.recv(c).len(), 3);
        let batch = format!(
            r#"{{"op": "batch", "requests": [{}]}}"#,
            vec![r#"{"kind": "event", "node": 1}"#; 128].join(", ")
        );
        let poll = |ticket: u64| format!(r#"{{"op": "poll", "ticket": {ticket}}}"#);
        let pending = r#"{"ok": "outcome", "ticket": 0, "status": "pending"}"#;
        for _ in 0..ANSWER_WINDOW / 128 {
            lb.run_to_quiescence();
            lb.send(c, &poll(0));
            lb.send(c, &batch);
        }
        let polls = lb.recv(c).iter().filter(|f| *f == pending).count();
        assert_eq!(polls, ANSWER_WINDOW / 128);
        // The newest of the window's tickets was just issued: the straggler
        // is still routed, so it still reads pending.
        lb.send(c, &poll(0));
        assert_eq!(lb.recv(c), [pending]);
        assert_eq!(lb.engine().in_flight(), 1 + 128);

        lb.run_to_quiescence();
        let at = ANSWER_WINDOW + 1;
        let event = format!(
            r#"{{"event": "granted", "ticket": 0, "at": {at}, "kind": "event", "tag": 7}}"#
        );
        assert!(lb.recv(c).contains(&event), "{event} was not streamed");
        assert_eq!(lb.engine().in_flight(), 0);
        lb.send(c, &poll(0));
        lb.send(c, &poll(1));
        assert_eq!(
            lb.recv(c),
            [
                r#"{"error": "expired-ticket", "detail": "ticket 0 was answered too long ago"}"#,
                r#"{"ok": "outcome", "ticket": 1, "status": "granted", "at": 2, "kind": "event"}"#,
            ]
        );
    }
}
