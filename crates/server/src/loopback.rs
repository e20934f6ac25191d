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
//! zero or more reply/event lines out, an oversized line answered with the
//! bytes of [`protocol::line_too_long_frame`] before the engine sees it, and
//! every other line through [`EngineCore::handle_line`] and
//! [`protocol::parse_frame`]. A ticket's answer comes back only as streamed
//! events, to a subscribed submitter.

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
            self.scratch.push((client, protocol::line_too_long_frame()));
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
    use dcn_controller::{
        Controller, ControllerMetrics, Progress, RequestId, RequestKind, RequestLedger,
        RequestRecord,
    };
    use dcn_tree::{DynamicTree, NodeId};
    use dcn_workload::Family;

    /// A broken controller: it issues tickets, never answers them, and errs
    /// on every `step` and `run_to_quiescence`.
    struct Stub {
        ledger: RequestLedger,
        tree: DynamicTree,
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
        fn submit(&mut self, _: NodeId, _: RequestKind) -> Result<RequestId, ControllerError> {
            Ok(self.ledger.issue())
        }
        // Overridden: the provided one calls `step`, which calls this.
        fn run_to_quiescence(&mut self) -> Result<(), ControllerError> {
            Err(ControllerError::Sim("the simulator refused".to_string()))
        }
        fn step(&mut self, _: u64) -> Result<Progress, ControllerError> {
            self.run_to_quiescence().map(|()| Progress::quiescent())
        }
        fn take_records(&mut self) -> Vec<RequestRecord> {
            self.ledger.take_records()
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

    /// After a `step` error the engine is in an explicit failed state: it
    /// refuses new work with `engine-failed` before the controller sees it,
    /// keeps answering `stats` / `shutdown`, and the ticket that was in
    /// flight stays routed and never streams.
    #[test]
    fn a_step_error_fails_the_engine_for_good() {
        let config = ServeConfig::new(Family::Centralized, 16, 4);
        let stub = Stub {
            ledger: RequestLedger::new(),
            tree: DynamicTree::with_initial_star(4),
        };
        let mut lb = Loopback::over(EngineCore::with_controller(config, Box::new(stub)));
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
        // Refusals neither wake the engine nor reach the controller, and the
        // ticket caught by the failure never streams.
        assert!(lb.engine().is_quiescent());
        lb.run_to_quiescence();
        assert!(lb.recv(c).is_empty());
        assert_eq!(lb.engine().in_flight(), 1);

        // Nothing was issued after it; stats and shutdown still answer.
        lb.send(c, r#"{"op": "stats"}"#);
        lb.send(c, r#"{"op": "shutdown"}"#);
        let frames = lb.recv(c);
        assert!(
            frames[0].contains(r#""submitted": 1,"#)
                && frames[0].contains(r#""protocol_errors": 4,"#),
            "{}",
            frames[0]
        );
        assert_eq!(frames[1], r#"{"ok": "shutting-down"}"#);
        assert!(lb.engine().is_shutting_down());
    }

    /// A served process keeps no history: however many tickets pass, the
    /// controller holds no record once a pump has returned, nothing is
    /// routed at quiescence, every ticket streams its answer exactly once,
    /// and there is no way to ask for an answer again — `poll` is an
    /// unknown op.
    #[test]
    fn a_served_process_keeps_no_history() {
        let mut lb = Loopback::new(ServeConfig::new(Family::Centralized, 1 << 20, 8)).unwrap();
        let c = lb.connect();
        lb.send(c, r#"{"op": "hello", "proto": 1}"#);
        lb.send(c, r#"{"op": "subscribe"}"#);
        assert_eq!(lb.recv(c).len(), 2);
        let batch = format!(
            r#"{{"op": "batch", "requests": [{}]}}"#,
            vec![r#"{"kind": "event", "node": 1}"#; 128].join(", ")
        );
        let total = 1 << 17;
        for round in 0..total / 128 {
            lb.send(c, &batch);
            assert_eq!(lb.recv(c).len(), 128);
            lb.run_to_quiescence();
            assert!(lb.engine().controller().records().is_empty());
            assert_eq!(lb.engine().in_flight(), 0);
            let events = lb.recv(c);
            assert_eq!(events.len(), 128);
            let first = round * 128;
            assert_eq!(
                events[0],
                format!(
                    r#"{{"event": "granted", "ticket": {first}, "at": {}, "kind": "event"}}"#,
                    first + 1
                )
            );
        }
        assert_eq!(lb.engine().controller().granted(), total as u64);

        lb.send(c, r#"{"op": "poll", "ticket": 0}"#);
        assert_eq!(
            lb.recv(c),
            [r#"{"error": "unknown-op", "detail": "unknown op \"poll\""}"#]
        );
        assert_eq!(lb.engine().stats().protocol_errors, 1);
    }
}
