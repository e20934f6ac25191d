//! The sharded (M, W)-controller: k independent per-region distributed
//! controllers federated by a cross-shard permit exchange.
//!
//! The paper's AAPS bin hierarchy and iterated construction already describe a
//! federation scheme — bins hold budget slices and rebalance them in charged
//! exchange waves — and [`ShardedController`] applies it to whole controllers:
//!
//! 1. the spanning tree is carved into `k` regions behind the
//!    [`RegionMap`] addressing seam (global `NodeId` →
//!    `(shard, local NodeId)`);
//! 2. each region runs its own
//!    [`DistributedController`](crate::distributed::DistributedController)
//!    (inside an epoch shell, the mechanism under the
//!    [`IterationDriver`](crate::distributed::IterationDriver) — but not its
//!    loop) over its own simulated network, granting
//!    locally against a budget slice `(M_i, W_i)` with `Σ M_i ≤ M`; every
//!    execution slice steps the shards one after another in shard order on
//!    the calling thread and merges their results in that order;
//! 3. a shard that exhausts its slice *parks* the rejected ticket instead of
//!    surfacing the rejection; once every shard is quiescent a deterministic
//!    **exchange wave** recomputes all slices from the unspent global pool
//!    (`M − Σ granted`, requesters first — see the `exchange` submodule) and
//!    resubmits
//!    the parked tickets. Only when the pool itself is empty are rejections
//!    surfaced globally, so the federation preserves the paper's liveness
//!    shape: a surfaced rejection implies `granted == M ≥ M − W`.
//!
//! Each wave is charged `k` messages (one slice announcement per shard) in
//! [`Controller::metrics`], the `O(k)` exchange cost of the bin hierarchy.
//!
//! A federation has `k ≥ 2` shards: one shard would be the distributed
//! family itself, which is what the sweep's `sharded:k1` driver builds. Shard
//! seeds are derived family-blind (`split_mix64(seed ^ split_mix64(shard))`),
//! so results never depend on the driving sweep's worker count.
//!
//! DESIGN.md §10 documents the addressing scheme, the wave protocol and the
//! global-invariant argument.

pub(crate) mod exchange;

use crate::api::{Controller, ControllerMetrics, Progress};
use crate::distributed::{EpochShell, Pending};
use crate::ledger::RequestLedger;
use crate::request::{check_request, Outcome, RequestId, RequestKind, RequestRecord};
use crate::ControllerError;
use dcn_collections::SlidingMap;
use dcn_rng::split_mix64;
use dcn_simnet::SimConfig;
use dcn_tree::{DynamicTree, LocalMap, NodeId, RegionMap, TopologyEvent};

/// Safety valve: consecutive exchange waves without a single grant before the
/// controller reports a livelock instead of spinning.
const MAX_BARREN_WAVES: u64 = 8;

/// Routing and bookkeeping state of one unanswered ticket.
#[derive(Clone, Copy, Debug)]
struct Ticket {
    /// Global node the request arrived at.
    origin: NodeId,
    /// Global request kind.
    kind: RequestKind,
    /// Shard the request is routed to (fixed: regions never migrate).
    shard: u32,
    /// Global virtual time of the first submission (preserved across
    /// exchange-wave resubmissions).
    submitted_at: u64,
}

/// One shard: the region's epoch shell (parked while its slice is empty) and
/// its address map. The region tree records its changes (switched on by
/// [`ShardedController::new`]) for the log's one reader,
/// `ShardedController::collect_shard`, which takes them after every slice.
#[derive(Debug)]
struct Shard {
    /// The region's sequence of slice controllers.
    shell: EpochShell,
    /// Local → global address map for this region.
    map: LocalMap,
    /// Base seed for this shard; per-epoch seeds are derived from it.
    seed: u64,
}

impl Shard {
    /// Starts this shard's next epoch over the parked region tree, with slice
    /// `(m_i, w_i)` and the given epoch seed. The `U` bound is re-derived per
    /// epoch: current region nodes plus at most `m_i` insertions (one per
    /// granted permit) plus slack for the proxy root.
    fn install(
        &mut self,
        base: &SimConfig,
        seed: u64,
        m_i: u64,
        w_i: u64,
    ) -> Result<(), ControllerError> {
        let u_bound = self.shell.tree().node_count() + m_i as usize + 2;
        let config = SimConfig { seed, ..*base };
        self.shell.install(config, m_i, w_i, u_bound, None)
    }
}

/// A federation of per-region distributed controllers behind the single
/// [`Controller`] interface (see the [module docs](self)).
///
/// ```
/// use dcn_controller::sharded::ShardedController;
/// use dcn_controller::{Controller, RequestKind};
/// use dcn_simnet::SimConfig;
/// use dcn_tree::DynamicTree;
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// let tree = DynamicTree::with_initial_star(15);
/// let mut ctrl = ShardedController::new(SimConfig::new(7), tree, 8, 4, 64, 4)?;
/// let leaves: Vec<_> = ctrl.tree().nodes().skip(1).take(4).collect();
/// for leaf in leaves {
///     ctrl.submit(leaf, RequestKind::AddLeaf)?;
/// }
/// ctrl.run_to_quiescence()?;
/// assert_eq!(ctrl.granted(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedController {
    k: usize,
    m: u64,
    w: u64,
    /// Authoritative global tree: submit-time validation runs against it and
    /// per-shard change logs are replayed into it in shard order. Nobody
    /// reads its own history, so it records none.
    mirror: DynamicTree,
    map: RegionMap,
    shards: Vec<Shard>,
    /// Routing state of every unanswered ticket, from `submit` until
    /// [`ShardedController::resolve`] answers it: the window spans the
    /// tickets in flight or parked, not every ticket issued.
    tickets: SlidingMap<RequestId, Ticket>,
    ledger: RequestLedger,
    /// Parked tickets awaiting the next exchange wave (FIFO).
    pending: Vec<u64>,
    epoch: u64,
    waves: u64,
    exchange_messages: u64,
    barren_waves: u64,
    /// The caller's simulator configuration; per-shard configs reuse its
    /// delay model and event valve with derived seeds.
    base_config: SimConfig,
}

impl ShardedController {
    /// Creates a sharded (m, w)-controller over `tree`, carved into `shards`
    /// regions. `config.seed` seeds every shard through one `split_mix64`
    /// derivation; `u_bound` is the global bound on nodes ever to exist,
    /// against which `(m, w)` is validated (each shard epoch derives its own).
    ///
    /// # Errors
    ///
    /// Same parameter validation as
    /// [`DistributedController::new`](crate::distributed::DistributedController::new),
    /// plus `shards ≥ 2`.
    pub fn new(
        config: SimConfig,
        tree: DynamicTree,
        m: u64,
        w: u64,
        u_bound: usize,
        shards: usize,
    ) -> Result<Self, ControllerError> {
        if shards < 2 {
            return Err(ControllerError::Sim(
                "a federation needs at least 2 shards".to_string(),
            ));
        }
        if u_bound < tree.node_count() {
            return Err(ControllerError::BoundTooSmall {
                u: u_bound,
                nodes: tree.node_count(),
            });
        }
        // Validate (m, w) once globally, before slicing.
        crate::params::Params::new(m, w, u_bound as u64)?;

        let (map, regions) = RegionMap::carve(&tree, shards);
        let slices = exchange::slices(m, w, shards, &vec![false; shards]);
        let mut shard_vec = Vec::with_capacity(shards);
        for (i, mut region) in regions.into_iter().enumerate() {
            region.tree.record_changes();
            let seed = split_mix64(config.seed ^ split_mix64(i as u64));
            let (m_i, w_i) = slices[i];
            let mut shard = Shard {
                shell: EpochShell::parked(region.tree),
                map: region.map,
                seed,
            };
            if m_i > 0 {
                shard.install(&config, seed, m_i, w_i)?;
            }
            shard_vec.push(shard);
        }
        Ok(ShardedController {
            k: shards,
            m,
            w,
            mirror: tree,
            map,
            shards: shard_vec,
            tickets: SlidingMap::new(),
            ledger: RequestLedger::new(),
            pending: Vec::new(),
            epoch: 0,
            waves: 0,
            exchange_messages: 0,
            barren_waves: 0,
            base_config: config,
        })
    }

    /// Number of exchange waves run so far.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Messages charged to the permit exchange so far (`k` per wave).
    pub fn exchange_messages(&self) -> u64 {
        self.exchange_messages
    }

    /// Translates a validated global request into its shard-local form:
    /// `(shard, local arrival node, local kind)`.
    fn route(
        &self,
        at: NodeId,
        kind: RequestKind,
    ) -> Result<(usize, NodeId, RequestKind), ControllerError> {
        let unmapped = |node: NodeId| ControllerError::Sim(format!("node {node} has no shard"));
        match kind {
            RequestKind::AddInternalAbove(child) => {
                // Route to the child's shard; locally the request arrives at
                // the child's local parent (a mapped node when the edge is
                // region-internal, the proxy root when `at` lives elsewhere).
                let (shard, lchild) = self.map.locate(child).ok_or(unmapped(child))?;
                let lat = self.shards[shard]
                    .shell
                    .tree()
                    .parent(lchild)
                    .ok_or_else(|| unmapped(child))?;
                Ok((shard, lat, RequestKind::AddInternalAbove(lchild)))
            }
            _ => {
                let (shard, lat) = self.map.locate(at).ok_or(unmapped(at))?;
                Ok((shard, lat, kind))
            }
        }
    }

    /// The routing state of an unanswered ticket.
    fn ticket(&self, gid: u64) -> Ticket {
        #[expect(
            clippy::expect_used,
            reason = "a ticket stays in the table from submit until resolve"
        )]
        let ticket = self
            .tickets
            .get(RequestId(gid))
            .expect("unanswered tickets are in the table");
        *ticket
    }

    /// Hands a routed ticket to its shard's running epoch, or parks it for
    /// the next exchange wave when the shard currently has no slice.
    fn dispatch(
        &mut self,
        gid: u64,
        shard: usize,
        lat: NodeId,
        lkind: RequestKind,
    ) -> Result<(), ControllerError> {
        let submitted_at = self.ticket(gid).submitted_at;
        let shell = &mut self.shards[shard].shell;
        if shell.live().is_none() {
            self.pending.push(gid);
            return Ok(());
        }
        shell.submit(Pending {
            id: RequestId(gid),
            origin: lat,
            kind: lkind,
            submitted_at,
        })
    }

    /// Answers a ticket for good: drops its routing state and records the
    /// answer in the ledger, which counts it.
    fn resolve(&mut self, gid: u64, outcome: Outcome, answered_at: u64) {
        let t = self.ticket(gid);
        self.tickets.remove(RequestId(gid));
        if outcome.is_granted() {
            self.barren_waves = 0;
        }
        self.ledger.push(RequestRecord {
            id: RequestId(gid),
            origin: t.origin,
            kind: t.kind,
            outcome,
            submitted_at: t.submitted_at,
            answered_at,
        });
    }

    /// Takes shard `i`'s recorded changes and replays them into the global
    /// mirror (in log order), then translates its fresh records into global
    /// ones. Called in ascending shard order after every execution slice,
    /// which fixes the global interleaving.
    fn collect_shard(&mut self, i: usize) -> Result<(), ControllerError> {
        let corrupt = || ControllerError::Sim("shard address maps out of sync".to_string());
        // Phase 1: replay topology changes, learning new node addresses.
        {
            let sh = &mut self.shards[i];
            let log = sh.shell.take_change_log();
            for &event in log.events() {
                match event {
                    TopologyEvent::AddLeaf { parent, child } => {
                        let gparent = sh.map.to_global(parent).ok_or_else(corrupt)?;
                        let gchild = self
                            .mirror
                            .add_leaf(gparent)
                            .map_err(ControllerError::Tree)?;
                        sh.map.bind(child, gchild);
                        self.map.bind(gchild, i, child);
                    }
                    TopologyEvent::AddInternal { node, below, .. } => {
                        let gbelow = sh.map.to_global(below).ok_or_else(corrupt)?;
                        let gnode = self
                            .mirror
                            .add_internal_above(gbelow)
                            .map_err(ControllerError::Tree)?;
                        sh.map.bind(node, gnode);
                        self.map.bind(gnode, i, node);
                    }
                    TopologyEvent::RemoveLeaf { node, .. }
                    | TopologyEvent::RemoveInternal { node, .. } => {
                        // A locally-leaf node may be internal globally (its
                        // global children can live in other regions), so the
                        // mirror uses the generic dispatching removal.
                        let gnode = sh.map.to_global(node).ok_or_else(corrupt)?;
                        self.mirror.remove(gnode).map_err(ControllerError::Tree)?;
                    }
                }
            }
        }
        // Phase 2: translate fresh records (the shell hands them over under
        // their global tickets and clock). Local rejections are intercepted
        // and parked for the exchange wave.
        for r in self.shards[i].shell.collect() {
            let gid = r.id.0;
            match r.outcome {
                Outcome::Rejected => self.pending.push(gid),
                Outcome::Granted { serial, new_node } => {
                    let gnew = new_node.and_then(|l| self.shards[i].map.to_global(l));
                    let outcome = Outcome::Granted {
                        serial,
                        new_node: gnew,
                    };
                    self.resolve(gid, outcome, r.answered_at);
                }
                outcome => self.resolve(gid, outcome, r.answered_at),
            }
        }
        Ok(())
    }

    /// Runs one exchange wave at a global quiescence point: recomputes every
    /// slice from the unspent pool (requesters first), rebuilds the shard
    /// controllers on fresh epoch seeds, and resubmits the parked tickets —
    /// or surfaces them as rejections once the pool is empty. Charged `k`
    /// messages.
    fn exchange_wave(&mut self) -> Result<(), ControllerError> {
        self.waves += 1;
        self.exchange_messages += self.k as u64;
        let pool = self.m - self.ledger.granted();
        if pool == 0 {
            // The global budget is spent: every parked ticket is rejected.
            // Liveness holds trivially — granted == M ≥ M − W.
            for gid in std::mem::take(&mut self.pending) {
                let at = self.shards[self.ticket(gid).shard as usize].shell.now();
                self.resolve(gid, Outcome::Rejected, at);
            }
            return Ok(());
        }
        self.barren_waves += 1;
        if self.barren_waves > self.k as u64 + MAX_BARREN_WAVES {
            return Err(ControllerError::Sim(format!(
                "cross-shard permit exchange stalled: {} waves without a grant",
                self.barren_waves
            )));
        }
        self.epoch += 1;
        let mut wants = vec![false; self.k];
        for &gid in &self.pending {
            wants[self.ticket(gid).shard as usize] = true;
        }
        let slices = exchange::slices(pool, self.w, self.k, &wants);
        let base_config = self.base_config;
        let epoch = self.epoch;
        for (sh, &(m_i, w_i)) in self.shards.iter_mut().zip(&slices) {
            sh.shell.retire();
            if m_i > 0 {
                let seed = split_mix64(sh.seed ^ split_mix64(epoch));
                sh.install(&base_config, seed, m_i, w_i)?;
            }
        }
        // Resubmit parked tickets in arrival order; shards still without a
        // slice keep theirs parked for the next wave.
        for gid in std::mem::take(&mut self.pending) {
            let t = self.ticket(gid);
            if check_request(&self.mirror, t.origin, t.kind).is_err() {
                // The one refusal rule (DESIGN §2.1).
                let at = self.shards[t.shard as usize].shell.now();
                self.resolve(gid, Outcome::Refused, at);
                continue;
            }
            let (shard, lat, lkind) = self.route(t.origin, t.kind)?;
            debug_assert_eq!(shard as u32, t.shard);
            self.dispatch(gid, shard, lat, lkind)?;
        }
        Ok(())
    }

    /// `true` when no shard has anything in flight.
    fn shards_quiescent(&self) -> bool {
        self.shards.iter().all(|sh| sh.shell.is_quiescent())
    }
}

impl Controller for ShardedController {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn budget(&self) -> u64 {
        self.m
    }

    fn waste_bound(&self) -> u64 {
        self.w
    }

    /// Validates against the global mirror (the same checks as the
    /// distributed family), routes to the owning shard and submits there.
    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        check_request(&self.mirror, at, kind)?;
        let (shard, lat, lkind) = self.route(at, kind)?;
        let id = self.ledger.issue();
        let ticket = Ticket {
            origin: at,
            kind,
            shard: shard as u32,
            submitted_at: self.shards[shard].shell.now(),
        };
        self.tickets.insert(id, ticket);
        self.dispatch(id.0, shard, lat, lkind)?;
        Ok(id)
    }

    /// Advances every shard, in shard order, by an equal share of `budget`,
    /// then merges results in shard order and runs an exchange wave if the
    /// federation is quiescent with parked tickets. Each shard advances by
    /// at least one event, so a `budget` below `k` processes up to `k`
    /// events. Each share is one shard simulator slice under the
    /// `max_events` valve. Propagates shard simulator errors (first shard
    /// wins) and exchange livelock errors.
    fn step(&mut self, budget: u64) -> Result<Progress, ControllerError> {
        let slice = (budget / self.k as u64).max(1);
        let results: Vec<_> = self
            .shards
            .iter_mut()
            .map(|sh| sh.shell.step(slice))
            .collect();
        let mut processed = 0;
        for (i, result) in results.into_iter().enumerate() {
            processed += result?.processed;
            self.collect_shard(i)?;
        }
        if self.shards_quiescent() && !self.pending.is_empty() {
            self.exchange_wave()?;
        }
        Ok(Progress {
            processed,
            quiescent: self.pending.is_empty() && self.shards_quiescent(),
        })
    }

    fn take_records(&mut self) -> Vec<RequestRecord> {
        self.ledger.take_records()
    }

    /// Surfaced answers only: a rejection a shard parks for the exchange
    /// wave enters the ledger, and counts, once the wave surfaces it.
    fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }

    /// The global mirror every shard's changes replay into.
    fn tree(&self) -> &DynamicTree {
        &self.mirror
    }

    /// Sums over all shard epochs, plus `k` messages per exchange wave.
    fn metrics(&self) -> ControllerMetrics {
        let mut total = ControllerMetrics {
            messages: self.exchange_messages,
            ..ControllerMetrics::default()
        };
        for sh in &self.shards {
            let shard = sh.shell.totals();
            total.moves += shard.moves;
            total.messages += shard.messages;
            total.peak_node_memory_bits =
                total.peak_node_memory_bits.max(shard.peak_node_memory_bits);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_tree(extra: usize) -> DynamicTree {
        DynamicTree::with_initial_star(extra)
    }

    fn deep_tree(levels: usize, arity: usize) -> DynamicTree {
        let mut tree = DynamicTree::new();
        let mut frontier = vec![tree.root()];
        for _ in 0..levels {
            let mut next = Vec::new();
            for p in frontier {
                for _ in 0..arity {
                    next.push(tree.add_leaf(p).unwrap());
                }
            }
            frontier = next;
        }
        tree
    }

    /// Drives a controller with a deterministic mixed workload and returns
    /// its records.
    fn drive(ctrl: &mut dyn Controller, requests: usize) -> Vec<RequestRecord> {
        for i in 0..requests {
            let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
            let at = nodes[(i * 7 + 3) % nodes.len()];
            let kind = match i % 3 {
                0 => RequestKind::AddLeaf,
                1 => RequestKind::NonTopological,
                _ => RequestKind::AddLeaf,
            };
            ctrl.submit(at, kind).unwrap();
            if i % 5 == 4 {
                ctrl.step(64).unwrap();
            }
        }
        crate::run_to_quiescence(ctrl).unwrap();
        ctrl.records().to_vec()
    }

    #[test]
    fn sharded_run_preserves_global_safety_and_liveness() {
        for k in [2usize, 3, 8] {
            let mut ctrl =
                ShardedController::new(SimConfig::new(11), deep_tree(3, 3), 10, 3, 400, k).unwrap();
            let records = drive(&mut ctrl, 30);
            assert_eq!(records.len(), 30, "k={k}: every ticket answered");
            let summary = ctrl.summary();
            assert!(summary.granted <= 10, "safety: {summary:?}");
            if summary.rejected > 0 {
                // Rejections only surface once the pool is spent.
                assert_eq!(summary.granted, 10, "liveness: {summary:?}");
            }
            assert_eq!(summary.unanswered, 0);
            ctrl.tree().check_invariants().unwrap();
        }
    }

    #[test]
    fn exhaustion_triggers_exchange_waves_and_charges_o_k_messages() {
        // M = 4 permits over 2 shards, 12 add-leaf requests: the slices run
        // dry, waves rebalance, and the 8 surplus requests reject globally.
        let mut ctrl =
            ShardedController::new(SimConfig::new(5), star_tree(11), 4, 2, 200, 2).unwrap();
        let nodes: Vec<NodeId> = ShardedController::tree(&ctrl).nodes().skip(1).collect();
        for i in 0..12 {
            ctrl.submit(nodes[i % nodes.len()], RequestKind::AddLeaf)
                .unwrap();
        }
        ctrl.run_to_quiescence().unwrap();
        assert_eq!(ctrl.granted(), 4);
        assert_eq!(ctrl.rejected(), 8);
        assert!(ctrl.waves() >= 1, "exchange waves ran");
        assert_eq!(ctrl.exchange_messages(), ctrl.waves() * 2);
        // The charged wave cost is part of the uniform metrics.
        let without_waves: u64 = ShardedController::metrics(&ctrl).messages;
        assert!(without_waves >= ctrl.exchange_messages());
    }

    #[test]
    fn sharded_output_is_independent_of_thread_interleaving() {
        // Identical runs (same seed) must produce identical records, and
        // small and large slices must answer the same requests.
        let run = |quantum: u64| {
            let mut ctrl =
                ShardedController::new(SimConfig::new(23), deep_tree(4, 2), 16, 4, 300, 4).unwrap();
            let nodes: Vec<NodeId> = ShardedController::tree(&ctrl).nodes().collect();
            for i in 0..20 {
                ctrl.submit(
                    nodes[(i * 5 + 1) % nodes.len()],
                    RequestKind::NonTopological,
                )
                .unwrap();
                ctrl.step(quantum).unwrap();
            }
            ctrl.run_to_quiescence().unwrap();
            ctrl.records().to_vec()
        };
        // 4 shards: quantum 64 -> slice 16; 4096 -> 1024.
        assert_eq!(run(64), run(64));
        let seq: Vec<RequestId> = run(64).iter().map(|r| r.id).collect();
        let par: Vec<RequestId> = run(4096).iter().map(|r| r.id).collect();
        assert_eq!(seq.len(), par.len());
    }

    #[test]
    fn cross_region_add_internal_routes_through_the_proxy() {
        // A deep path tree carved into 2 shards guarantees a cross-region
        // parent edge somewhere along the path.
        let mut tree = DynamicTree::new();
        let mut prev = tree.root();
        let mut chain = vec![prev];
        for _ in 0..16 {
            prev = tree.add_leaf(prev).unwrap();
            chain.push(prev);
        }
        let mut ctrl = ShardedController::new(SimConfig::new(3), tree, 8, 2, 200, 2).unwrap();
        // Submit AddInternalAbove for every parent/child pair on the path;
        // at least one pair straddles the region boundary.
        for pair in chain.windows(2).take(6) {
            ctrl.submit(pair[0], RequestKind::AddInternalAbove(pair[1]))
                .unwrap();
        }
        ctrl.run_to_quiescence().unwrap();
        assert_eq!(ctrl.granted(), 6);
        ctrl.tree().check_invariants().unwrap();
        // Every new internal node took effect on the global mirror.
        assert_eq!(ShardedController::tree(&ctrl).node_count(), 17 + 6);
    }

    #[test]
    fn summary_counts_refusals_after_the_records_are_taken() {
        // Two permits per shard; one leaf asks to leave and then for three
        // leaves of its own. Its shard grants the removal and one leaf and
        // parks the other two; by the time the wave resubmits them the node
        // is gone, so they are refused.
        let mut ctrl =
            ShardedController::new(SimConfig::new(5), star_tree(7), 4, 2, 200, 2).unwrap();
        let leaf = ShardedController::tree(&ctrl).nodes().last().unwrap();
        ctrl.submit(leaf, RequestKind::RemoveSelf).unwrap();
        for _ in 0..3 {
            ctrl.submit(leaf, RequestKind::AddLeaf).unwrap();
        }
        ctrl.run_to_quiescence().unwrap();
        let refused = ctrl.records().iter().filter(|r| r.outcome.is_refused());
        assert!(refused.count() >= 1, "{:?}", ctrl.records());
        let before = ctrl.summary();
        assert_eq!(before.unanswered, 0);
        assert_eq!(ctrl.take_records().len() as u64, ctrl.ledger().issued());
        assert!(ctrl.records().is_empty());
        assert_eq!(ctrl.summary(), before);
    }

    /// The ticket table holds exactly the tickets in flight, not every
    /// request submitted: a served federation would otherwise keep one entry
    /// per request for ever. Answers come back out of ticket order across
    /// shards, so the window spans the oldest to the newest unanswered
    /// ticket, which can be wider than the number in flight.
    #[test]
    fn the_ticket_table_spans_the_requests_in_flight() {
        const REQUESTS: u64 = 10_000;
        const CAP: usize = 64;
        let mut ctrl =
            ShardedController::new(SimConfig::new(17), star_tree(63), 1 << 20, 64, 1 << 21, 4)
                .unwrap();
        let leaves: Vec<NodeId> = ShardedController::tree(&ctrl).nodes().skip(1).collect();
        let mut in_flight = std::collections::BTreeSet::new();
        let mut submitted = 0u64;
        while submitted < REQUESTS || !in_flight.is_empty() {
            while submitted < REQUESTS && in_flight.len() < CAP {
                let at = leaves[(submitted as usize * 7) % leaves.len()];
                in_flight.insert(ctrl.submit(at, RequestKind::NonTopological).unwrap());
                submitted += 1;
            }
            ctrl.step(64).unwrap();
            for record in ctrl.take_records() {
                assert!(in_flight.remove(&record.id), "{record:?} answered twice");
            }
            let extent = match (in_flight.first(), in_flight.last()) {
                (Some(oldest), Some(newest)) => (newest.0 - oldest.0 + 1) as usize,
                _ => 0,
            };
            assert_eq!(ctrl.tickets.len(), in_flight.len());
            assert_eq!(ctrl.tickets.span(), extent);
        }
        assert_eq!(ctrl.granted(), REQUESTS);
        assert_eq!(ctrl.tickets.span(), 0);
    }

    /// A long-running federation keeps no topology history: after every step
    /// each shard's log is empty, however many changes its tree has applied.
    #[test]
    fn shard_logs_are_empty_after_every_step() {
        const REQUESTS: u64 = 10_000;
        const CAP: usize = 64;
        let mut ctrl =
            ShardedController::new(SimConfig::new(29), star_tree(63), 1 << 20, 64, 1 << 21, 4)
                .unwrap();
        let built: u64 = ctrl.shards.iter().map(|sh| sh.shell.tree().changes()).sum();
        let mut in_flight = std::collections::BTreeSet::new();
        let mut submitted = 0u64;
        while submitted < REQUESTS || !in_flight.is_empty() {
            let nodes: Vec<NodeId> = ShardedController::tree(&ctrl).nodes().collect();
            while submitted < REQUESTS && in_flight.len() < CAP {
                let at = nodes[(submitted as usize * 7 + 1) % nodes.len()];
                let parent = ctrl.tree().parent(at);
                let (at, kind) = match (submitted % 4, parent) {
                    (0, _) | (1, None) => (at, RequestKind::AddLeaf),
                    (1, Some(_)) => (at, RequestKind::RemoveSelf),
                    (2, Some(p)) => (p, RequestKind::AddInternalAbove(at)),
                    _ => (at, RequestKind::NonTopological),
                };
                in_flight.insert(ctrl.submit(at, kind).unwrap());
                submitted += 1;
            }
            ctrl.step(64).unwrap();
            for record in ctrl.take_records() {
                assert!(in_flight.remove(&record.id), "{record:?} answered twice");
            }
            for sh in &ctrl.shards {
                assert!(sh.shell.tree().change_log().is_empty());
            }
        }
        let applied: u64 = ctrl.shards.iter().map(|sh| sh.shell.tree().changes()).sum();
        assert!(
            applied - built > REQUESTS / 4,
            "{} changes",
            applied - built
        );
    }

    /// The mirror is the regions glued back together. Under churn with
    /// removals, splits and exchange waves, once quiescent: every region node
    /// but the proxy maps to a live mirror node, every region edge below a
    /// non-proxy parent is a mirror edge, and the regions hold exactly the
    /// mirror's nodes.
    #[test]
    fn the_mirror_is_the_regions_glued_back_together() {
        for k in [2usize, 4, 8] {
            for seed in [3u64, 31] {
                let mut ctrl =
                    ShardedController::new(SimConfig::new(seed), deep_tree(4, 2), 40, 8, 400, k)
                        .unwrap();
                for i in 0..120 {
                    let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
                    let at = nodes[(i * 7 + seed as usize) % nodes.len()];
                    let (at, kind) = match (i % 4, ctrl.tree().parent(at)) {
                        (1, Some(_)) => (at, RequestKind::RemoveSelf),
                        (2, Some(p)) => (p, RequestKind::AddInternalAbove(at)),
                        (3, _) => (at, RequestKind::NonTopological),
                        _ => (at, RequestKind::AddLeaf),
                    };
                    ctrl.submit(at, kind).unwrap();
                    if i % 6 == 5 {
                        ctrl.step(64).unwrap();
                    }
                }
                ctrl.run_to_quiescence().unwrap();
                assert!(ctrl.waves() > 0, "k={k} seed={seed}: no exchange wave");
                let mirror = &ctrl.mirror;
                mirror.check_invariants().unwrap();
                let mut members = 0;
                for sh in &ctrl.shards {
                    let region = sh.shell.tree();
                    let proxy = region.root();
                    for local in region.nodes().filter(|&l| l != proxy) {
                        members += 1;
                        let global = sh.map.to_global(local);
                        assert!(
                            global.is_some_and(|g| mirror.contains(g)),
                            "k={k} seed={seed}: {local} maps to no live node"
                        );
                        let lparent = region.parent(local).unwrap();
                        if lparent != proxy {
                            assert_eq!(
                                global.and_then(|g| mirror.parent(g)),
                                sh.map.to_global(lparent),
                                "k={k} seed={seed}: edge {lparent} -> {local}"
                            );
                        }
                    }
                }
                assert_eq!(members, mirror.node_count(), "k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn zero_shards_and_bad_params_are_rejected() {
        assert!(ShardedController::new(SimConfig::new(0), star_tree(3), 8, 4, 64, 0).is_err());
        assert!(ShardedController::new(SimConfig::new(0), star_tree(3), 8, 4, 64, 1).is_err());
        assert!(ShardedController::new(SimConfig::new(0), star_tree(3), 4, 8, 64, 2).is_err());
        assert!(ShardedController::new(SimConfig::new(0), star_tree(3), 8, 4, 1, 2).is_err());
    }
}
