//! Seeded input generators: arrival schedules and request streams.
//!
//! Everything a workload sends is a function of `--seed` (and, for the churn
//! mix, of the node ids the server answered with). The server never sees the
//! seed, only the generated request lines.

use crate::wire::{Op, OpKind};
use dcn_rng::{split_mix64, DetRng, Rng, SeedableRng};
use std::collections::VecDeque;

/// Derives an independent stream seed from the run seed and a stream label.
pub fn stream_seed(seed: u64, label: &str) -> u64 {
    label
        .bytes()
        .fold(split_mix64(seed), |acc, b| split_mix64(acc ^ u64::from(b)))
}

/// Due times (ns from the start of the step, ascending) of `count` Poisson
/// arrivals at `rate_per_s`: exponential gaps by inversion.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            // 53 uniform bits in (0, 1]: the logarithm is finite.
            let unit = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at -= unit.ln() * mean_gap_ns;
            at as u64
        })
        .collect()
}

/// A stream of requests. Tags are the request's index in the stream, so a
/// latency table can be indexed by tag.
pub trait OpSource {
    /// The next request, given what has been applied so far.
    fn next_op(&mut self) -> Op;
    /// The request with this tag got its final outcome.
    fn answered(&mut self, _tag: u64) {}
    /// Whether a grant of this tag is followed by a topology event (which a
    /// closed loop must wait for before it may call the run complete).
    fn awaits_topology(&self, _tag: u64) -> bool {
        false
    }
    /// The granted change with this tag took effect; an insertion reports
    /// the node it created.
    fn applied(&mut self, _tag: u64, _node: Option<u64>) {}
}

/// `event` permit requests at uniformly chosen nodes of a fixed tree.
pub struct EventSource {
    rng: DetRng,
    nodes: u64,
    next_tag: u64,
}

impl EventSource {
    pub fn new(seed: u64, nodes: u64) -> Self {
        EventSource {
            rng: DetRng::seed_from_u64(seed),
            nodes,
            next_tag: 0,
        }
    }
}

impl OpSource for EventSource {
    fn next_op(&mut self) -> Op {
        let tag = self.next_tag;
        self.next_tag += 1;
        Op {
            kind: OpKind::Event,
            node: self.rng.gen_range(0..self.nodes),
            tag,
        }
    }
}

/// The churn mix: 80 % `event` at a uniformly chosen live node, 10 %
/// `add-leaf` under a uniformly chosen node of the initial tree, 10 %
/// `remove-self` of the oldest leaf this client added and saw applied.
///
/// The client keeps every request valid on a server that applies changes
/// asynchronously: a node is *live* from the topology event of its insertion
/// until the client decides to remove it, and it is only removed while no
/// request is in flight at it, so no submission ever names a node that is
/// going away. When the tree leaves `initial ± band` the two topology kinds
/// swap, which keeps its size — and with it the per-request cost —
/// stationary over a long run.
///
/// The distributed family assigns node ids inside its simulator and does not
/// report them on the wire. This client is the only one changing the tree
/// and the arena hands out ids in sequence without reuse, so after `k`
/// applied insertions the nodes `initial..initial + k` exist — though not
/// which insertion made which. That is why leaves are only hung under the
/// initial nodes: an added node then never has children, and can be removed
/// without knowing where it hangs. A run's final node-count check confirms
/// the client counted right.
pub struct ChurnSource {
    rng: DetRng,
    next_tag: u64,
    initial: usize,
    band: usize,
    /// Nodes that may be named by a request.
    live: Vec<u64>,
    /// Index of each node in `live` (`usize::MAX` when not live).
    slot: Vec<usize>,
    /// Events in flight at each node.
    pins: Vec<u32>,
    /// Leaves this client added and saw applied, oldest first.
    added: VecDeque<u64>,
    /// In-flight requests by tag: the node they name and their kind.
    in_flight: Vec<Option<(u64, OpKind)>>,
    /// The id the server's arena gives the next inserted node.
    next_node: u64,
    /// Insertions sent and not applied yet: they count towards the band.
    pending_adds: usize,
}

impl ChurnSource {
    /// A source over a server whose initial tree has nodes `0..initial`;
    /// the live set is kept within `initial ± band`.
    pub fn new(seed: u64, initial: usize, band: usize) -> Self {
        ChurnSource {
            rng: DetRng::seed_from_u64(seed),
            next_tag: 0,
            initial,
            band,
            live: (0..initial as u64).collect(),
            slot: (0..initial).collect(),
            pins: vec![0; initial],
            added: VecDeque::new(),
            in_flight: Vec::new(),
            next_node: initial as u64,
            pending_adds: 0,
        }
    }

    /// Nodes the client currently counts as present.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    fn retire(&mut self, node: u64) {
        let at = self.slot[node as usize];
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.slot[moved as usize] = at;
        }
        self.slot[node as usize] = usize::MAX;
    }

    /// The oldest added leaf with nothing in flight at it, if any.
    fn removable(&mut self) -> Option<u64> {
        let at = self
            .added
            .iter()
            .position(|&n| self.pins[n as usize] == 0)?;
        self.added.remove(at)
    }
}

impl OpSource for ChurnSource {
    fn next_op(&mut self) -> Op {
        let tag = self.next_tag;
        self.next_tag += 1;
        let mut kind = match self.rng.gen_range(0u32..10) {
            0 => OpKind::AddLeaf,
            1 => OpKind::RemoveSelf,
            _ => OpKind::Event,
        };
        // Keep the tree inside the band: outside it the two topology kinds
        // trade places. Insertions still in flight count as made.
        let room = self.live.len() + self.pending_adds < self.initial + self.band;
        if kind == OpKind::AddLeaf && !room {
            kind = OpKind::RemoveSelf;
        } else if kind == OpKind::RemoveSelf && self.live.len() + self.band <= self.initial {
            kind = OpKind::AddLeaf;
        }
        let victim = (kind == OpKind::RemoveSelf)
            .then(|| self.removable())
            .flatten();
        let node = match (kind, victim) {
            (OpKind::RemoveSelf, Some(node)) => {
                self.retire(node);
                node
            }
            // Nothing to remove yet: grow instead, room permitting.
            (OpKind::RemoveSelf | OpKind::AddLeaf, _) if room => {
                kind = OpKind::AddLeaf;
                self.pending_adds += 1;
                self.rng.gen_range(0..self.initial as u64)
            }
            // An `event`, or a change the band has no room for.
            _ => {
                kind = OpKind::Event;
                let node = self.live[self.rng.gen_range(0..self.live.len())];
                self.pins[node as usize] += 1;
                node
            }
        };
        if self.in_flight.len() <= tag as usize {
            self.in_flight.resize(tag as usize + 1, None);
        }
        self.in_flight[tag as usize] = Some((node, kind));
        Op { kind, node, tag }
    }

    fn answered(&mut self, tag: u64) {
        if let Some(Some((node, OpKind::Event))) = self.in_flight.get(tag as usize).copied() {
            self.pins[node as usize] -= 1;
        }
    }

    fn awaits_topology(&self, tag: u64) -> bool {
        matches!(
            self.in_flight.get(tag as usize),
            Some(Some((_, OpKind::AddLeaf | OpKind::RemoveSelf)))
        )
    }

    fn applied(&mut self, tag: u64, created: Option<u64>) {
        if let Some(Some((_, OpKind::AddLeaf))) = self.in_flight.get(tag as usize) {
            self.pending_adds = self.pending_adds.saturating_sub(1);
            let node = created.unwrap_or(self.next_node);
            self.next_node = node + 1;
            let need = node as usize + 1;
            if self.slot.len() < need {
                self.slot.resize(need, usize::MAX);
                self.pins.resize(need, 0);
            }
            self.slot[node as usize] = self.live.len();
            self.live.push(node);
            self.added.push_back(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_ascending_and_on_rate() {
        let a = poisson_schedule(7, 10_000.0, 50_000);
        assert_eq!(a, poisson_schedule(7, 10_000.0, 50_000));
        assert_ne!(a, poisson_schedule(8, 10_000.0, 50_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 50 000 arrivals at 10 k/s take 5 s ± a few standard deviations
        // (σ = √n / rate ≈ 22 ms).
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((span_s - 5.0).abs() < 0.15, "span {span_s}");
    }

    #[test]
    fn stream_seeds_differ_by_label_and_seed() {
        assert_eq!(stream_seed(1, "ops"), stream_seed(1, "ops"));
        assert_ne!(stream_seed(1, "ops"), stream_seed(1, "schedule"));
        assert_ne!(stream_seed(1, "ops"), stream_seed(2, "ops"));
    }

    #[test]
    fn event_source_is_a_function_of_the_seed() {
        let take = |seed| {
            let mut s = EventSource::new(seed, 64);
            (0..100).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
        assert!(take(3)
            .iter()
            .enumerate()
            .all(|(i, op)| op.tag == i as u64 && op.node < 64 && op.kind == OpKind::Event));
    }

    /// Drives a churn source against a model server that applies every
    /// change at once, and checks the validity rules the real server relies
    /// on.
    #[test]
    fn churn_never_names_a_departing_node_and_stays_in_band() {
        let mut src = ChurnSource::new(11, 256, 64);
        let mut present: Vec<bool> = vec![true; 256];
        let mut counts = [0usize; 3];
        for _ in 0..60_000 {
            let op = src.next_op();
            assert!(present[op.node as usize], "{op:?} names a removed node");
            match op.kind {
                OpKind::Event => counts[0] += 1,
                OpKind::AddLeaf => {
                    counts[1] += 1;
                    assert!(op.node < 256, "leaves hang under initial nodes");
                    let node = present.len() as u64;
                    present.push(true);
                    // Half the time the server names the node, half the
                    // time the client has to number it itself.
                    src.applied(op.tag, (node % 2 == 0).then_some(node));
                }
                OpKind::RemoveSelf => {
                    counts[2] += 1;
                    assert!(op.node >= 256, "only added nodes are removed");
                    present[op.node as usize] = false;
                    src.applied(op.tag, None);
                }
            }
            src.answered(op.tag);
            assert!((256 - 64..=256 + 64).contains(&src.live_count()));
            assert_eq!(src.live_count(), present.iter().filter(|&&p| p).count());
        }
        let share = |n: usize| n as f64 / 60_000.0;
        assert!((share(counts[0]) - 0.8).abs() < 0.02, "{counts:?}");
        assert!((share(counts[1]) - 0.1).abs() < 0.02, "{counts:?}");
        assert!((share(counts[2]) - 0.1).abs() < 0.02, "{counts:?}");
    }

    /// The same against a server that applies insertions a window late, as
    /// the real one does: the tree it ends up with stays in the band too.
    #[test]
    fn insertions_in_flight_count_towards_the_band() {
        let mut src = ChurnSource::new(3, 256, 8);
        let mut nodes = 256usize;
        let mut late: VecDeque<u64> = VecDeque::new();
        for _ in 0..60_000 {
            let op = src.next_op();
            match op.kind {
                OpKind::AddLeaf => late.push_back(op.tag),
                OpKind::RemoveSelf => {
                    nodes -= 1;
                    src.applied(op.tag, None);
                }
                OpKind::Event => {}
            }
            src.answered(op.tag);
            if late.len() > 32 {
                nodes += 1;
                src.applied(late.pop_front().unwrap(), None);
            }
            assert!((256 - 8..=256 + 8).contains(&nodes), "{nodes} nodes");
        }
    }
}
