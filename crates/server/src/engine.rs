//! The deterministic protocol engine: one controller, many clients.
//!
//! [`EngineCore`] is the single-writer heart of the server. It owns one
//! [`ControllerSpec`]-constructed controller and turns decoded
//! [`ClientFrame`]s into reply frames, pumping the controller with bounded
//! [`Controller::step`] slices and routing the [`ControllerEvent`]s of the
//! answers it takes back to the client that submitted each ticket. Those
//! streamed events are the one way an answer leaves the engine: it keeps
//! nothing of a ticket once its last event is routed.
//!
//! Crucially, the core is **pure state machine**: no sockets, no threads, no
//! wall clock — time is the controller's own virtual clock. Both transports
//! drive it the same way (`handle_line` per request line, `pump` while
//! non-quiescent):
//!
//! * the TCP layer ([`serve`](crate::serve)) runs it on a dedicated engine
//!   thread behind mpsc channels (a `Box<dyn Controller>` is not `Send`, so
//!   the engine is *built* on that thread from the `Send`-able
//!   [`ServeConfig`]);
//! * the [`Loopback`](crate::Loopback) transport calls it directly, which is
//!   what makes protocol semantics testable byte-for-byte.

use crate::protocol::{self, ClientFrame, StatsSnapshot, Submission, WireKind, WireOutcome};
use dcn_collections::FxHashMap;
use dcn_controller::{Controller, ControllerError, ControllerEvent, RequestKind};
use dcn_simnet::SimConfig;
use dcn_tree::NodeId;
use dcn_workload::{build_tree, ControllerSpec, Family, TreeShape};

/// Identifies one client connection for the engine's routing tables. The
/// transport allocates these (monotonically, starting at 1).
pub type ClientId = u64;

/// Everything needed to build the served controller — `Send + Copy`, so a
/// transport thread can carry it to the engine thread and construct the
/// (non-`Send`) controller there.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// The controller family to serve.
    pub family: Family,
    /// The permit budget `M`.
    pub m: u64,
    /// The waste bound `W`.
    pub w: u64,
    /// The initial tree the controller is constructed over.
    pub shape: TreeShape,
    /// Seed for the distributed families' simulator.
    pub seed: u64,
    /// Simulator events per [`Controller::step`] slice; bounds how long the
    /// engine computes between looking at its inbox.
    pub step_budget: u64,
}

impl ServeConfig {
    /// A config with an 8-node star, seed 0, and a 4096-event step budget.
    pub fn new(family: Family, m: u64, w: u64) -> Self {
        ServeConfig {
            family,
            m,
            w,
            shape: TreeShape::Star { nodes: 8 },
            seed: 0,
            step_budget: 4096,
        }
    }

    /// Replaces the initial tree shape.
    pub fn with_shape(mut self, shape: TreeShape) -> Self {
        self.shape = shape;
        self
    }

    /// Replaces the simulator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the per-slice step budget (clamped to ≥ 1).
    pub fn with_step_budget(mut self, step_budget: u64) -> Self {
        self.step_budget = step_budget.max(1);
        self
    }

    /// The node bound `U` the controller is built with: a bound that covers
    /// every tree this config can grow — the initial nodes plus one per
    /// permit (each grant can add at most one node), plus the root slack the
    /// constructors expect.
    pub fn u_bound(&self) -> usize {
        let permits = usize::try_from(self.m).unwrap_or(usize::MAX);
        (self.shape.node_budget() + 2).saturating_add(permits)
    }
}

#[derive(Default)]
struct ClientState {
    greeted: bool,
    subscribed: bool,
}

/// A reply or event line addressed to one client. Transports deliver these
/// in order; the engine never writes to sockets itself.
pub type Outgoing = (ClientId, String);

/// The deterministic protocol state machine (see the module docs).
pub struct EngineCore {
    ctrl: Box<dyn Controller>,
    config: ServeConfig,
    clients: FxHashMap<ClientId, ClientState>,
    /// Tickets in flight: ticket → (submitting client, its correlation
    /// tag), from `submit` until a pump has delivered the ticket's last
    /// event — even when the controller resolved it inside `submit`. The
    /// engine's one per-request table: nothing of a ticket outlives it.
    route: FxHashMap<u64, (ClientId, Option<u64>)>,
    submitted: u64,
    protocol_errors: u64,
    dropped_frames: u64,
    quiescent: bool,
    shutting_down: bool,
    last_engine_error: Option<String>,
}

impl EngineCore {
    /// Builds the engine: constructs the configured controller over the
    /// configured initial tree.
    ///
    /// # Errors
    ///
    /// Propagates the family's parameter validation (e.g. `W = 0` for
    /// families that require `W ≥ 1`).
    pub fn new(config: ServeConfig) -> Result<Self, ControllerError> {
        let spec = ControllerSpec {
            family: config.family,
            m: config.m,
            w: config.w,
            sim: SimConfig::new(config.seed),
        };
        let ctrl = spec.build(build_tree(config.shape), config.u_bound())?;
        Ok(EngineCore::with_controller(config, ctrl))
    }

    /// Builds the engine over a controller the caller constructed (`config`
    /// supplies the family name reported by `welcome` and the step budget).
    pub fn with_controller(config: ServeConfig, ctrl: Box<dyn Controller>) -> Self {
        EngineCore {
            ctrl,
            config,
            clients: FxHashMap::default(),
            route: FxHashMap::default(),
            submitted: 0,
            protocol_errors: 0,
            dropped_frames: 0,
            quiescent: true,
            shutting_down: false,
            last_engine_error: None,
        }
    }

    /// The config the engine was built from.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The served controller (read-only; for stats, tests and parity
    /// checks against [`ScenarioRunner`](dcn_workload::ScenarioRunner)).
    pub fn controller(&self) -> &dyn Controller {
        self.ctrl.as_ref()
    }

    /// Whether the controller has no in-flight work (nothing to [`pump`]).
    ///
    /// [`pump`]: EngineCore::pump
    pub fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    /// Whether a `shutdown` frame (or [`EngineCore::begin_shutdown`]) has
    /// been seen; the transport drains and exits once quiescent.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Starts a shutdown without a protocol frame (transport-level stop).
    pub fn begin_shutdown(&mut self) {
        self.shutting_down = true;
    }

    /// Records frames the transport had to drop on full outboxes (reported
    /// in `stats`).
    pub fn note_dropped_frames(&mut self, n: u64) {
        self.dropped_frames += n;
    }

    /// The controller-step error that put the engine into its failed state,
    /// if any (see [`EngineCore::pump`]).
    pub fn last_engine_error(&self) -> Option<&str> {
        self.last_engine_error.as_deref()
    }

    /// Number of tickets in flight: issued, and their last event not yet
    /// delivered by a pump. 0 whenever the engine is quiescent and has not
    /// failed.
    pub fn in_flight(&self) -> usize {
        self.route.len()
    }

    /// Registers a connection.
    pub fn client_connected(&mut self, client: ClientId) {
        self.clients.insert(client, ClientState::default());
    }

    /// Unregisters a connection. Its tickets in flight keep their routing
    /// entries until their events are pumped, to nobody: nothing further is
    /// streamed.
    pub fn client_disconnected(&mut self, client: ClientId) {
        self.clients.remove(&client);
    }

    /// Decodes and applies one request line. Direct replies are appended to
    /// `out` immediately (a `submit`'s `ticket` frame therefore always
    /// precedes that ticket's events); outcome events flow when the
    /// transport next calls [`EngineCore::pump`] — an accepted submission
    /// marks the engine non-quiescent so transports know to.
    pub fn handle_line(&mut self, client: ClientId, line: &str, out: &mut Vec<Outgoing>) {
        match protocol::parse_frame(line) {
            Ok(frame) => self.apply(client, frame, out),
            Err(e) => {
                self.protocol_errors += 1;
                out.push((client, protocol::error_frame(e.code, &e.detail, None)));
            }
        }
    }

    /// Applies one decoded frame (no pump; [`EngineCore::handle_line`] is
    /// the usual entry point).
    pub fn apply(&mut self, client: ClientId, frame: ClientFrame, out: &mut Vec<Outgoing>) {
        // A connection must introduce itself before anything else; every
        // other pre-hello frame is refused but the connection stays open.
        let greeted = self
            .clients
            .get(&client)
            .map(|c| c.greeted)
            .unwrap_or(false);
        if !greeted && !matches!(frame, ClientFrame::Hello { .. }) {
            self.protocol_errors += 1;
            out.push((
                client,
                protocol::error_frame("hello-required", "send a hello frame first", None),
            ));
            return;
        }
        match frame {
            ClientFrame::Hello {
                proto,
                family,
                m,
                w,
            } => self.apply_hello(client, proto, family, m, w, out),
            ClientFrame::Submit(s) => self.apply_submit(client, s, out),
            // The parser validated the whole batch, so every element is
            // enqueued; replies come back one ticket frame per element, in
            // array order.
            ClientFrame::Batch(subs) => {
                for s in subs {
                    self.apply_submit(client, s, out);
                }
            }
            ClientFrame::Subscribe => {
                if let Some(state) = self.clients.get_mut(&client) {
                    state.subscribed = true;
                }
                out.push((client, protocol::subscribed_frame()));
            }
            ClientFrame::Stats => {
                let frame = protocol::stats_frame(&self.stats());
                out.push((client, frame));
            }
            ClientFrame::Shutdown => {
                self.shutting_down = true;
                out.push((client, protocol::shutting_down_frame()));
            }
        }
    }

    fn apply_hello(
        &mut self,
        client: ClientId,
        proto: Option<u64>,
        family: Option<String>,
        m: Option<u64>,
        w: Option<u64>,
        out: &mut Vec<Outgoing>,
    ) {
        if let Some(p) = proto {
            if p != protocol::PROTO_VERSION {
                self.protocol_errors += 1;
                out.push((
                    client,
                    protocol::error_frame(
                        "unsupported-proto",
                        &format!("this server speaks proto {}", protocol::PROTO_VERSION),
                        None,
                    ),
                ));
                return;
            }
        }
        let actual = (
            self.config.family.name(),
            self.ctrl.budget(),
            self.ctrl.waste_bound(),
        );
        let mismatch = family.as_deref().is_some_and(|f| f != actual.0)
            || m.is_some_and(|m| m != actual.1)
            || w.is_some_and(|w| w != actual.2);
        if mismatch {
            self.protocol_errors += 1;
            out.push((
                client,
                protocol::error_frame(
                    "config-mismatch",
                    &format!(
                        "server runs family={} m={} w={}",
                        actual.0, actual.1, actual.2
                    ),
                    None,
                ),
            ));
            return;
        }
        if let Some(state) = self.clients.get_mut(&client) {
            state.greeted = true;
        }
        out.push((
            client,
            protocol::welcome_frame(actual.0, actual.1, actual.2, self.ctrl.tree().node_count()),
        ));
    }

    fn apply_submit(&mut self, client: ClientId, s: Submission, out: &mut Vec<Outgoing>) {
        // A failed engine will never answer: refuse before the controller
        // sees the request, so no ticket is issued and `route` cannot grow.
        if let Some(detail) = &self.last_engine_error {
            self.protocol_errors += 1;
            out.push((
                client,
                protocol::error_frame("engine-failed", detail, s.tag),
            ));
            return;
        }
        let node = match self.wire_node(s.node) {
            Ok(n) => n,
            Err(detail) => {
                self.protocol_errors += 1;
                out.push((client, protocol::error_frame("bad-node", &detail, s.tag)));
                return;
            }
        };
        let kind = match s.kind {
            WireKind::AddLeaf => RequestKind::AddLeaf,
            WireKind::AddInternalAbove { child } => match self.wire_node(child) {
                Ok(c) => RequestKind::AddInternalAbove(c),
                Err(detail) => {
                    self.protocol_errors += 1;
                    out.push((client, protocol::error_frame("bad-node", &detail, s.tag)));
                    return;
                }
            },
            WireKind::RemoveSelf => RequestKind::RemoveSelf,
            WireKind::Event => RequestKind::NonTopological,
        };
        match self.ctrl.submit(node, kind) {
            Ok(id) => {
                self.submitted += 1;
                // The new ticket's answer (and, for synchronous families,
                // its already-queued events) is work for the next pump.
                self.quiescent = false;
                self.route.insert(id.0, (client, s.tag));
                out.push((client, protocol::ticket_frame(id.0, s.tag)));
            }
            // Submission validation failed (stale node, bad edge): no
            // ticket exists, so the refusal is an error frame, tagged so
            // pipelined clients can correlate it.
            Err(e) => {
                self.protocol_errors += 1;
                out.push((
                    client,
                    protocol::error_frame("submit-rejected", &e.to_string(), s.tag),
                ));
            }
        }
    }

    /// Validates a wire node index against the current tree.
    fn wire_node(&self, raw: u64) -> Result<NodeId, String> {
        let index = usize::try_from(raw).map_err(|_| format!("node {raw} out of range"))?;
        if index > u32::MAX as usize {
            return Err(format!("node {raw} out of range"));
        }
        let id = NodeId::from_index(index);
        if self.ctrl.tree().contains(id) {
            Ok(id)
        } else {
            Err(format!("node {raw} is not in the tree"))
        }
    }

    /// Advances the controller by one bounded step slice and takes the
    /// slice's answers out of it, so the controller keeps no history past a
    /// pump. Each answer's events go to its submitting client (streamed only
    /// to a connected, subscribed one), and its ticket's routing entry goes
    /// with the last of them: nothing of an answered ticket is kept. Returns
    /// `true` while there is more in-flight work.
    ///
    /// A step error is final: the engine keeps it
    /// ([`EngineCore::last_engine_error`]), never steps again, answers every
    /// later submission `engine-failed`, and leaves the tickets that were in
    /// flight routed; `stats` and `shutdown` keep working.
    pub fn pump(&mut self, out: &mut Vec<Outgoing>) -> bool {
        if self.last_engine_error.is_some() {
            return false;
        }
        match self.ctrl.step(self.config.step_budget) {
            Ok(progress) => self.quiescent = progress.quiescent,
            Err(e) => {
                self.last_engine_error = Some(e.to_string());
                self.quiescent = true;
            }
        }
        for ev in self.ctrl.drain_events() {
            self.route_event(ev, out);
        }
        !self.quiescent
    }

    /// Routes one answer's event to the ticket's submitting client, dropping
    /// the routing entry with the ticket's last event.
    fn route_event(&mut self, ev: ControllerEvent, out: &mut Vec<Outgoing>) {
        let ticket = ev.id().0;
        // A ticket's last event is its answer, except that a granted
        // topological request's `TopologyApplied` follows its `Granted`
        // (`ControllerEvent::push_for_record` emits the pair together).
        let last = match ev {
            ControllerEvent::Granted { kind, .. } => !kind.is_topological(),
            ControllerEvent::Rejected { .. }
            | ControllerEvent::Refused { .. }
            | ControllerEvent::TopologyApplied { .. } => true,
        };
        let routed = if last {
            self.route.remove(&ticket)
        } else {
            self.route.get(&ticket).copied()
        };
        // Streamed only while the submitter is connected and subscribed.
        let Some((client, tag)) = routed else {
            return;
        };
        if !self.clients.get(&client).is_some_and(|c| c.subscribed) {
            return;
        }
        let frame = match ev {
            ControllerEvent::Granted { at, kind, .. } => {
                let outcome = WireOutcome::Granted {
                    at,
                    kind,
                    new_node: None,
                };
                protocol::event_frame(ticket, &outcome, tag)
            }
            ControllerEvent::Rejected { .. } => {
                protocol::event_frame(ticket, &WireOutcome::Rejected, tag)
            }
            ControllerEvent::Refused { .. } => {
                protocol::event_frame(ticket, &WireOutcome::Refused, tag)
            }
            ControllerEvent::TopologyApplied { kind, node, .. } => {
                protocol::topology_event_frame(ticket, kind, node.map(wire_index), tag)
            }
        };
        out.push((client, frame));
    }

    /// The current counter snapshot (the payload of a `stats` reply).
    pub fn stats(&self) -> StatsSnapshot {
        let metrics = self.ctrl.metrics();
        StatsSnapshot {
            submitted: self.submitted,
            granted: self.ctrl.granted(),
            rejected: self.ctrl.rejected(),
            refused: self.ctrl.refused(),
            protocol_errors: self.protocol_errors,
            dropped_frames: self.dropped_frames,
            clients: self.clients.len() as u64,
            nodes: self.ctrl.tree().node_count(),
            moves: metrics.moves,
            messages: metrics.messages,
            peak_node_memory_bits: metrics.peak_node_memory_bits,
            shutting_down: self.shutting_down,
        }
    }
}

fn wire_index(node: NodeId) -> u64 {
    node.index() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u_bound_covers_the_budget_and_saturates() {
        // The benchmark's serve-central configuration: a 64-node star.
        let config = ServeConfig::new(Family::Centralized, 4_194_304, 8)
            .with_shape(TreeShape::Star { nodes: 64 });
        assert_eq!(config.u_bound(), 64 + 2 + 4_194_304);
        // `--m 18446744073709551615` must neither wrap to a small `U`
        // (release builds) nor panic on overflow (debug builds).
        let huge = ServeConfig {
            m: u64::MAX,
            ..config
        };
        assert_eq!(huge.u_bound(), usize::MAX);
    }
}
