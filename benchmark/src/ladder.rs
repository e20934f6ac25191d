//! The traced run's ladder: the same generated requests replayed in-process
//! through each layer's public functions, one rung per layer.
//!
//! ```text
//! core      ControllerSpec::build, submit / step / drain_events
//! engine    parse_frame, EngineCore::apply / pump (+ the frame encoders)
//! loopback  Loopback::send / run_to_quiescence / recv
//! tcp       the untraced workload itself (serve.rs)
//! ```
//!
//! Every rung sees the same request stream in the same chunks, so a rung
//! minus the rung below it is that layer's own cost. Below the ladder,
//! `tree` and `collections.calendar` are timed on their own, on inputs
//! shaped like the workload's.

use crate::clock::now_ns;
use crate::gen::{stream_seed, ChurnSource, EventSource, OpSource};
use crate::serve::{ServeKind, CHURN_BAND, CHURN_WINDOW, PIPE_UNIT};
use crate::stats::{fnv1a, median, FNV_OFFSET};
use crate::trace::{Span, Tracer};
use crate::wire::{self, Op, OpKind, Reply};
use dcn_collections::CalendarQueue;
use dcn_controller::{ControllerEvent, RequestKind};
use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_server::protocol::{self, ClientFrame, WireOutcome};
use dcn_server::{EngineCore, Loopback, ServeConfig};
use dcn_simnet::{DelayModel, SimConfig};
use dcn_tree::{DynamicTree, NodeId, RegionMap};
use dcn_workload::{build_tree, ControllerSpec, Family, TreeShape};

/// Segments a rung is cut into; a per-request time is the median segment's.
const SEGMENTS: usize = 8;

/// The in-process twin of the `dcn-serve` command line of `kind`: built from
/// the same [`ServerSpec`](crate::server::ServerSpec), so the rungs cannot
/// drift from what the TCP rung serves.
fn config(kind: ServeKind, seed: u64) -> ServeConfig {
    let spec = kind.server(seed);
    let family = Family::from_name(spec.family).expect("ServerSpec names a known family");
    let shape = match spec.shape {
        "path" => TreeShape::Path { nodes: spec.nodes },
        _ => TreeShape::Star { nodes: spec.nodes },
    };
    ServeConfig::new(family, spec.m, spec.w)
        .with_shape(shape)
        .with_seed(spec.seed)
}

fn source(kind: ServeKind, seed: u64, nodes: usize) -> Box<dyn OpSource> {
    let ops_seed = stream_seed(seed, "ops");
    match kind {
        ServeKind::Churn => Box::new(ChurnSource::new(ops_seed, nodes, CHURN_BAND)),
        _ => Box::new(EventSource::new(ops_seed, nodes as u64)),
    }
}

fn request_kind(kind: OpKind) -> RequestKind {
    match kind {
        OpKind::Event => RequestKind::NonTopological,
        OpKind::AddLeaf => RequestKind::AddLeaf,
        OpKind::RemoveSelf => RequestKind::RemoveSelf,
    }
}

/// What one rung counted; equal seeds must give equal counts, on every rung.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RungCounts {
    pub requests: u64,
    pub granted: u64,
    pub other_outcomes: u64,
    pub messages: u64,
    pub moves: u64,
    /// Simulator events processed inside `Controller::step`.
    pub sim_events: u64,
    /// Request and reply bytes that crossed the (loopback) wire.
    pub bytes: u64,
    /// FNV-1a over the generated request lines: what "the same inputs"
    /// means.
    pub input_hash: u64,
}

/// The replay plan shared by all rungs of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub kind: ServeKind,
    pub seed: u64,
    pub requests: usize,
    /// Requests per chunk: one closed-loop window's worth.
    pub chunk: usize,
}

impl Plan {
    pub fn new(kind: ServeKind, seed: u64, requests: usize) -> Plan {
        let chunk = match kind {
            ServeKind::Churn => CHURN_WINDOW,
            _ => PIPE_UNIT,
        };
        Plan {
            kind,
            seed,
            requests: (requests / chunk).max(SEGMENTS) * chunk,
            chunk,
        }
    }

    fn chunks(&self) -> usize {
        self.requests / self.chunk
    }
}

/// The request stream of one rung: every rung owns an identical one.
struct Feed {
    src: Box<dyn OpSource>,
    ops: Vec<Op>,
    /// The current chunk's request lines.
    buf: Vec<u8>,
    counts: RungCounts,
}

impl Feed {
    fn new(plan: &Plan, nodes: usize) -> Feed {
        Feed {
            src: source(plan.kind, plan.seed, nodes),
            ops: Vec::with_capacity(plan.chunk),
            buf: Vec::new(),
            counts: RungCounts {
                input_hash: FNV_OFFSET,
                ..RungCounts::default()
            },
        }
    }

    /// Generates the next chunk of requests and their wire form.
    fn next_chunk(&mut self, plan: &Plan) {
        self.ops.clear();
        self.ops.extend((0..plan.chunk).map(|_| self.src.next_op()));
        self.buf.clear();
        if plan.kind == ServeKind::Batch {
            wire::push_batch(&mut self.buf, &self.ops);
        } else {
            wire::push_submits(&mut self.buf, &self.ops);
        }
        self.counts.input_hash = fnv1a(self.counts.input_hash, &self.buf);
        self.counts.requests += self.ops.len() as u64;
    }

    /// Feeds reply lines back to the source, as the TCP client would.
    fn reply_lines(&mut self, lines: &[String]) {
        self.counts.bytes += self.buf.len() as u64;
        for line in lines {
            self.counts.bytes += line.len() as u64 + 1;
            match wire::scan(line.as_bytes()) {
                Reply::Final { outcome, tag } => {
                    if outcome == wire::Outcome::Granted {
                        self.counts.granted += 1;
                    } else {
                        self.counts.other_outcomes += 1;
                    }
                    self.src.answered(tag.expect("every request is tagged"));
                }
                Reply::Topology {
                    node,
                    tag: Some(tag),
                } => self.src.applied(tag, node),
                Reply::Error { .. } | Reply::Malformed => self.counts.other_outcomes += 1,
                _ => {}
            }
        }
    }
}

/// Rung 1: the controller alone.
struct CoreRung {
    ctrl: Box<dyn dcn_controller::Controller>,
    step_budget: u64,
    /// Ticket → tag.
    tags: Vec<u64>,
    feed: Feed,
}

impl CoreRung {
    fn new(plan: &Plan, tracer: &mut Tracer) -> CoreRung {
        let cfg = config(plan.kind, plan.seed);
        let tree = build_tree(cfg.shape);
        let nodes = tree.node_count();
        let spec = ControllerSpec {
            family: cfg.family,
            m: cfg.m,
            w: cfg.w,
            sim: SimConfig::new(cfg.seed),
        };
        let ctrl = tracer.span("core.build", 0, || {
            spec.build(tree, cfg.u_bound())
                .expect("the served configuration is valid")
        });
        CoreRung {
            ctrl,
            step_budget: cfg.step_budget,
            tags: Vec::new(),
            feed: Feed::new(plan, nodes),
        }
    }

    fn chunk(&mut self, plan: &Plan, chunk: u32, tracer: &mut Tracer) {
        self.feed.next_chunk(plan);
        let (ctrl, tags, feed) = (&mut self.ctrl, &mut self.tags, &mut self.feed);
        tracer.span("core.submit", chunk, || {
            for op in &feed.ops {
                let id = ctrl
                    .submit(NodeId::from_index(op.node as usize), request_kind(op.kind))
                    .expect("generated requests name live nodes");
                let ticket = id.0 as usize;
                if tags.len() <= ticket {
                    tags.resize(ticket + 1, u64::MAX);
                }
                tags[ticket] = op.tag;
            }
        });
        let budget = self.step_budget;
        tracer.span("core.step", chunk, || loop {
            let progress = ctrl.step(budget).expect("the simulator advances");
            feed.counts.sim_events += progress.processed;
            if progress.quiescent {
                break;
            }
        });
        let events = tracer.span("core.drain", chunk, || ctrl.drain_events());
        for event in events {
            let tag = tags[event.id().0 as usize];
            match event {
                ControllerEvent::Granted { .. } => {
                    feed.counts.granted += 1;
                    feed.src.answered(tag);
                }
                ControllerEvent::Rejected { .. } | ControllerEvent::Refused { .. } => {
                    feed.counts.other_outcomes += 1;
                    feed.src.answered(tag);
                }
                ControllerEvent::TopologyApplied { node, .. } => {
                    feed.src.applied(tag, node.map(|n| n.index() as u64));
                }
            }
        }
    }

    fn finish(mut self) -> RungCounts {
        let metrics = self.ctrl.metrics();
        self.feed.counts.messages = metrics.messages;
        self.feed.counts.moves = metrics.moves;
        self.feed.counts
    }
}

/// Rung 2: the protocol state machine over the controller, plus the frame
/// parser in front of it and the encoders it calls.
struct EngineRung {
    engine: EngineCore,
    out: Vec<(u64, String)>,
    feed: Feed,
}

impl EngineRung {
    fn new(plan: &Plan) -> EngineRung {
        let mut engine = EngineCore::new(config(plan.kind, plan.seed))
            .expect("the served configuration is valid");
        let nodes = engine.controller().tree().node_count();
        engine.client_connected(1);
        let mut out = Vec::new();
        for line in ["{\"op\":\"hello\",\"proto\":1}", "{\"op\":\"subscribe\"}"] {
            engine.handle_line(1, line, &mut out);
        }
        out.clear();
        EngineRung {
            engine,
            out,
            feed: Feed::new(plan, nodes),
        }
    }

    fn chunk(&mut self, plan: &Plan, chunk: u32, tracer: &mut Tracer) {
        self.feed.next_chunk(plan);
        let (engine, out, feed) = (&mut self.engine, &mut self.out, &mut self.feed);
        let text = std::str::from_utf8(&feed.buf).expect("request lines are ASCII");
        let parse_name = if plan.kind == ServeKind::Batch {
            "server.protocol.parse_batch"
        } else {
            "server.protocol.parse"
        };
        let frames: Vec<ClientFrame> = tracer.span(parse_name, chunk, || {
            text.lines()
                .map(|l| protocol::parse_frame(l).expect("generated frames are well-formed"))
                .collect()
        });
        tracer.span("server.engine.apply", chunk, || {
            for frame in frames {
                engine.apply(1, frame, out);
            }
        });
        tracer.span("server.engine.pump", chunk, || while engine.pump(out) {});
        let lines: Vec<String> = out.drain(..).map(|(_, line)| line).collect();
        // The same number and kinds of frames, encoded on their own.
        tracer.span("server.protocol.encode", chunk, || {
            let granted = WireOutcome::Granted {
                at: 1_000_000,
                kind: RequestKind::NonTopological,
                new_node: None,
            };
            for op in &feed.ops {
                std::hint::black_box(protocol::ticket_frame(op.tag, Some(op.tag)));
                std::hint::black_box(protocol::event_frame(op.tag, &granted, Some(op.tag)));
                if op.kind != OpKind::Event {
                    std::hint::black_box(protocol::topology_event_frame(
                        op.tag,
                        request_kind(op.kind),
                        None,
                        Some(op.tag),
                    ));
                }
            }
        });
        feed.reply_lines(&lines);
    }

    fn finish(mut self) -> RungCounts {
        let stats = self.engine.stats();
        self.feed.counts.messages = stats.messages;
        self.feed.counts.moves = stats.moves;
        self.feed.counts
    }
}

/// Rung 3: the same lines through the in-process transport.
struct LoopbackRung {
    lb: Loopback,
    client: u64,
    feed: Feed,
}

impl LoopbackRung {
    fn new(plan: &Plan) -> LoopbackRung {
        let mut lb =
            Loopback::new(config(plan.kind, plan.seed)).expect("the served configuration is valid");
        let nodes = lb.engine().controller().tree().node_count();
        let client = lb.connect();
        lb.send(client, "{\"op\":\"hello\",\"proto\":1}");
        lb.send(client, "{\"op\":\"subscribe\"}");
        lb.recv(client);
        LoopbackRung {
            lb,
            client,
            feed: Feed::new(plan, nodes),
        }
    }

    fn chunk(&mut self, plan: &Plan, chunk: u32, tracer: &mut Tracer) {
        self.feed.next_chunk(plan);
        let (lb, client, feed) = (&mut self.lb, self.client, &mut self.feed);
        let text = std::str::from_utf8(&feed.buf).expect("request lines are ASCII");
        let lines = tracer.span("server.loopback", chunk, || {
            for line in text.lines() {
                lb.send(client, line);
            }
            lb.run_to_quiescence();
            lb.recv(client)
        });
        feed.reply_lines(&lines);
    }

    fn finish(mut self) -> RungCounts {
        let stats = self.lb.engine().stats();
        self.feed.counts.messages = stats.messages;
        self.feed.counts.moves = stats.moves;
        self.feed.counts
    }
}

/// What the three in-process rungs counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LadderCounts {
    pub core: RungCounts,
    pub engine: RungCounts,
    pub loopback: RungCounts,
}

/// Replays the plan through all three in-process rungs **in lockstep**:
/// chunk `k` goes through the core rung, then the engine rung, then the
/// loopback rung, before chunk `k + 1` starts. The rungs are subtracted
/// from one another, and on a host whose speed drifts by a fifth within
/// seconds two replays run one after the other differ by more than the
/// layer between them costs; run in lockstep, each rung meets the same host.
pub fn run_ladder(plan: &Plan, tracer: &mut Tracer) -> LadderCounts {
    let root = tracer.enter("ladder", 0);
    let mut core = CoreRung::new(plan, tracer);
    let mut engine = EngineRung::new(plan);
    let mut loopback = LoopbackRung::new(plan);
    for chunk in 0..plan.chunks() as u32 {
        core.chunk(plan, chunk, tracer);
        engine.chunk(plan, chunk, tracer);
        loopback.chunk(plan, chunk, tracer);
    }
    tracer.exit(root);
    LadderCounts {
        core: core.finish(),
        engine: engine.finish(),
        loopback: loopback.finish(),
    }
}

/// Time per request of the spans called `name`: chunks are grouped into
/// [`SEGMENTS`] consecutive segments and the median segment is reported, so
/// a host stall during one segment does not move the figure.
pub fn per_request_ns(spans: &[Span], name: &str, plan: &Plan) -> f64 {
    let chunks = plan.chunks();
    let mut segment_ns = [0u64; SEGMENTS];
    let mut segment_chunks = [0u64; SEGMENTS];
    for s in spans.iter().filter(|s| s.name == name) {
        let segment = (s.chunk as usize * SEGMENTS / chunks).min(SEGMENTS - 1);
        segment_ns[segment] += s.end_ns - s.start_ns;
        segment_chunks[segment] += 1;
    }
    let per_request: Vec<f64> = segment_ns
        .iter()
        .zip(segment_chunks)
        .filter(|(_, chunks)| *chunks > 0)
        .map(|(ns, chunks)| *ns as f64 / (chunks * plan.chunk as u64) as f64)
        .collect();
    median(&per_request)
}

/// `tree` and `collections.calendar` on their own.
#[derive(Clone, Copy, Debug, Default)]
pub struct MicroLayers {
    pub tree_add_leaf_ns: f64,
    pub tree_remove_ns: f64,
    pub tree_ancestor_hop_ns: f64,
    pub tree_carve_ms: f64,
    pub calendar_schedule_ns: f64,
    pub calendar_pop_ns: f64,
}

/// Times the tree mutators and the calendar queue on inputs shaped like the
/// workload's: `shape` is the tree the workload starts from; delays are
/// drawn from the simulator's default delay model; the queue holds about as
/// many events as the workload keeps agents in flight.
pub fn micro_layers(
    shape: TreeShape,
    seed: u64,
    rounds: usize,
    tracer: &mut Tracer,
) -> MicroLayers {
    const BATCH: usize = 64;
    let mut rng = DetRng::seed_from_u64(stream_seed(seed, "micro"));
    let rung = tracer.enter("rung.micro", 0);
    let mut tree: DynamicTree = build_tree(shape);
    let base: Vec<NodeId> = tree.nodes().collect();
    let deepest = base
        .iter()
        .copied()
        .max_by_key(|&n| tree.depth(n))
        .unwrap_or(tree.root());
    let mut leaves = Vec::with_capacity(BATCH);
    let (mut add_ns, mut remove_ns, mut hop_ns, mut hops) = (0u64, 0u64, 0u64, 0u64);
    for round in 0..rounds as u32 {
        let parents: Vec<NodeId> = (0..BATCH)
            .map(|_| base[rng.gen_range(0..base.len())])
            .collect();
        let start = now_ns();
        tracer.span("tree.add_leaf", round, || {
            for &p in &parents {
                leaves.push(tree.add_leaf(p).expect("base nodes stay live"));
            }
        });
        add_ns += now_ns() - start;
        let start = now_ns();
        tracer.span("tree.remove", round, || {
            for leaf in leaves.drain(..) {
                tree.remove(leaf).expect("the leaf was just added");
            }
        });
        remove_ns += now_ns() - start;
        let start = now_ns();
        tracer.span("tree.ancestor_hop", round, || {
            for _ in 0..BATCH.div_ceil(tree.depth(deepest).max(1)) {
                let mut at = deepest;
                while let Some(p) = tree.parent(at) {
                    at = p;
                    hops += 1;
                }
                std::hint::black_box(at);
            }
        });
        hop_ns += now_ns() - start;
    }
    let carves = (rounds / 8).max(4);
    let start = now_ns();
    tracer.span("tree.carve", 0, || {
        for _ in 0..carves {
            std::hint::black_box(RegionMap::carve(&tree, 4));
        }
    });
    let carve_ns = now_ns() - start;

    let delays = DelayModel::default();
    let mut queue: CalendarQueue<u32> = CalendarQueue::new();
    for i in 0..256 {
        queue.schedule(delays.sample(&mut rng), i);
    }
    let (mut schedule_ns, mut pop_ns) = (0u64, 0u64);
    for round in 0..rounds as u32 {
        let draws: Vec<u64> = (0..BATCH).map(|_| delays.sample(&mut rng)).collect();
        let start = now_ns();
        tracer.span("collections.calendar.schedule", round, || {
            for (i, &d) in draws.iter().enumerate() {
                queue.schedule(d, i as u32);
            }
        });
        schedule_ns += now_ns() - start;
        let start = now_ns();
        tracer.span("collections.calendar.pop", round, || {
            for _ in 0..BATCH {
                std::hint::black_box(queue.pop());
            }
        });
        pop_ns += now_ns() - start;
    }
    tracer.exit(rung);
    let calls = (rounds * BATCH) as f64;
    MicroLayers {
        tree_add_leaf_ns: add_ns as f64 / calls,
        tree_remove_ns: remove_ns as f64 / calls,
        tree_ancestor_hop_ns: hop_ns as f64 / hops.max(1) as f64,
        tree_carve_ms: carve_ns as f64 / carves as f64 / 1e6,
        calendar_schedule_ns: schedule_ns as f64 / calls,
        calendar_pop_ns: pop_ns as f64 / calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_sees_the_same_inputs_and_counts_the_same_outcomes() {
        for kind in [ServeKind::Pipe, ServeKind::Batch, ServeKind::Churn] {
            let plan = Plan::new(kind, 9, 1_024);
            let LadderCounts {
                core,
                engine,
                loopback,
            } = run_ladder(&plan, &mut Tracer::new(true));
            assert_eq!(core.requests, plan.requests as u64);
            assert_eq!(
                core.granted, core.requests,
                "{kind:?}: every request is granted"
            );
            for other in [engine, loopback] {
                assert_eq!(other.input_hash, core.input_hash, "{kind:?}");
                assert_eq!(
                    (other.requests, other.granted, other.other_outcomes),
                    (core.requests, core.granted, core.other_outcomes),
                    "{kind:?}"
                );
                assert_eq!(
                    (other.messages, other.moves),
                    (core.messages, core.moves),
                    "{kind:?}"
                );
            }
            assert_eq!(engine.bytes, loopback.bytes, "{kind:?}");
            // Equal seeds repeat exactly, spans or no spans; different
            // seeds differ.
            let again = run_ladder(&plan, &mut Tracer::new(false));
            assert_eq!((again.core, again.loopback), (core, loopback), "{kind:?}");
            let other_seed = run_ladder(&Plan::new(kind, 10, 1_024), &mut Tracer::new(false));
            assert_ne!(other_seed.core.input_hash, core.input_hash);
        }
    }

    #[test]
    fn per_request_time_is_the_median_segment() {
        let plan = Plan {
            kind: ServeKind::Pipe,
            seed: 0,
            requests: 8 * 10,
            chunk: 10,
        };
        // Eight chunks of 10 requests, 1000 ns each, one stalled 100×.
        let spans: Vec<Span> = (0..8)
            .map(|c| Span {
                name: "x",
                start_ns: 0,
                end_ns: if c == 5 { 100_000 } else { 1_000 },
                parent: None,
                chunk: c,
            })
            .collect();
        assert_eq!(per_request_ns(&spans, "x", &plan), 100.0);
        assert_eq!(per_request_ns(&spans, "y", &plan), 0.0);
    }

    #[test]
    fn micro_layers_time_real_work() {
        let m = micro_layers(TreeShape::Path { nodes: 64 }, 3, 16, &mut Tracer::new(true));
        assert!(m.tree_add_leaf_ns > 0.0 && m.tree_remove_ns > 0.0);
        assert!(m.tree_ancestor_hop_ns > 0.0 && m.tree_carve_ms > 0.0);
        assert!(m.calendar_schedule_ns > 0.0 && m.calendar_pop_ns > 0.0);
    }
}
