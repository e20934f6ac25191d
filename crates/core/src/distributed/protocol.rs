//! The controller as a [`dcn_simnet::Protocol`]: whiteboards, outputs and the
//! agent program of §4.3.1.

use super::agent::{CtrlAgent, Phase, RequestAgent};
use crate::package::{MobilePackage, PackageStore, PermitInterval};
use crate::params::Params;
use crate::request::{Outcome, RequestKind, RequestRecord};
use dcn_simnet::{Action, NodeCtx, NodeId, Protocol, TopologyChange};

/// Per-node protocol state (the whiteboard of §4.3.1).
#[derive(Clone, Debug)]
pub struct CtrlWhiteboard {
    /// The protocol parameters `(M, W, U, φ, ψ)`, handed from parent to child
    /// when a node joins.
    pub params: Params,
    /// The packages stored at this node.
    pub store: PackageStore,
    /// Permits still in the root's storage (always 0 at non-root nodes).
    pub storage: u64,
    /// Serial-number interval of the root's storage (interval mode only).
    pub storage_interval: Option<PermitInterval>,
    /// Total number of permits that have passed down the tree through this
    /// node (inclusive), maintained for the subtree estimator of Lemma 5.3.
    pub permits_passed_down: u64,
}

impl CtrlWhiteboard {
    fn fresh(params: Params) -> Self {
        CtrlWhiteboard {
            params,
            store: PackageStore::new(),
            storage: 0,
            storage_interval: None,
            permits_passed_down: 0,
        }
    }
}

/// Output records reported by the protocol to the driving harness.
pub type CtrlOutput = RequestRecord;

/// One step in the life of a deposited mobile package, in the vocabulary of
/// the §3.2 domain analysis ([`DomainAuditor`](crate::domain::DomainAuditor)).
/// Recorded only on request ([`ControllerProtocol::record_packages`]); a test
/// that steps the simulator one event at a time can replay them into an
/// auditor, because the path between `origin` and `host` is still locked when
/// the deposit is made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackageEvent {
    /// The agent created at `origin` deposited package `pkg` at `host`.
    Deposited {
        /// The deposited package's identifier.
        pkg: u64,
        /// Its level.
        level: u32,
        /// The deposit point `u_level`.
        host: NodeId,
        /// The requesting node `u`.
        origin: NodeId,
    },
    /// Package `pkg` was taken from its host by a climbing agent.
    Taken {
        /// The taken package's identifier.
        pkg: u64,
    },
}

/// The distributed (M, W)-Controller protocol (one instance drives one
/// controller over one simulated network).
#[derive(Debug)]
pub struct ControllerProtocol {
    params: Params,
    initial_interval: Option<PermitInterval>,
    next_package_id: u64,
    package_log: Option<Vec<PackageEvent>>,
}

impl ControllerProtocol {
    /// Creates the protocol for the given parameters. The root's whiteboard
    /// will be initialised with `params.m` permits in storage (and the serial
    /// interval, if one is supplied).
    pub fn new(params: Params, initial_interval: Option<PermitInterval>) -> Self {
        ControllerProtocol {
            params,
            initial_interval,
            next_package_id: 0,
            package_log: None,
        }
    }

    /// Starts recording [`PackageEvent`]s (off by default: the log grows
    /// with the execution).
    pub fn record_packages(&mut self) {
        self.package_log.get_or_insert_with(Vec::new);
    }

    /// Removes and returns the package events recorded since the last call
    /// (empty unless [`ControllerProtocol::record_packages`] was called).
    pub fn take_package_events(&mut self) -> Vec<PackageEvent> {
        self.package_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The protocol parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    fn fresh_package_id(&mut self) -> u64 {
        let id = self.next_package_id;
        self.next_package_id += 1;
        id
    }

    // ------------------------------------------------------------------
    // Agent program
    // ------------------------------------------------------------------

    /// Item 1 / item 2 of the agent program: the agent has just been created
    /// at (or re-activated at) its origin and holds the lock.
    fn at_origin(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &mut RequestAgent) -> Action {
        if ctx.whiteboard().store.has_reject() {
            return self.reject_here(ctx, agent);
        }
        if let Some(serial) = ctx.whiteboard_mut().store.grant_static() {
            self.grant(ctx, agent, serial);
            ctx.unlock();
            return Action::Terminate;
        }
        agent.phase = Phase::Climb;
        self.climb_checks(ctx, agent)
    }

    /// Item 3: the agent is at a locked-by-itself node on its way up and
    /// decides whether this node is a reject node, a filler node, the root, or
    /// just another hop.
    fn climb_checks(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &mut RequestAgent) -> Action {
        let dist = ctx.distance_from_origin() as u64;
        let params = ctx.whiteboard().params;
        if ctx.whiteboard().store.has_reject() {
            // Item 1b: walk back down to the origin, leaving reject packages.
            return self.start_reject_descent(ctx, agent, dist);
        }
        if let Some(pkg) = ctx.whiteboard_mut().store.take_filler(dist, &params) {
            // Item 3a: this node is the closest filler node ρ(u).
            if let Some(log) = &mut self.package_log {
                log.push(PackageEvent::Taken { pkg: pkg.id });
            }
            agent.phase = Phase::Distribute {
                level: pkg.level,
                interval: pkg.interval,
            };
            return self.distribute_step(ctx, agent);
        }
        if ctx.is_root() {
            // Item 3c.
            let level = params.root_level_for_distance(dist);
            let size = params.mobile_size(level);
            if ctx.whiteboard().storage < size {
                // Not enough permits: trigger the reject wave and answer with
                // a reject.
                ctx.whiteboard_mut().store.place_reject();
                for child in ctx.children() {
                    ctx.spawn_agent(CtrlAgent::RejectWave {
                        next_child: Some(child),
                    });
                }
                return self.start_reject_descent(ctx, agent, dist);
            }
            let interval = {
                let wb = ctx.whiteboard_mut();
                wb.storage -= size;
                match wb.storage_interval {
                    Some(iv) => {
                        let (taken, rest) = iv.split_off(size);
                        wb.storage_interval = rest;
                        Some(taken)
                    }
                    None => None,
                }
            };
            agent.phase = Phase::Distribute { level, interval };
            return self.distribute_step(ctx, agent);
        }
        Action::Up
    }

    /// Item 4: the agent carries a package down the locked path, depositing a
    /// half at every deposit point `u_k`, until a level-0 package reaches the
    /// origin, becomes static and answers the request. Every node is unlocked
    /// as the agent leaves it (the reject descent of item 1b does the same):
    /// the agent is done with it, and whatever is below stays locked until
    /// the agent gets there.
    fn distribute_step(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &mut RequestAgent) -> Action {
        let Phase::Distribute {
            mut level,
            mut interval,
        } = agent.phase
        else {
            unreachable!("distribute_step called outside the Distribute phase");
        };
        let dist = ctx.distance_from_origin() as u64;
        let params = ctx.whiteboard().params;
        // Account the permits moving down through this node (subtree
        // estimator, Lemma 5.3). The super-weight counts nodes that *joined*
        // the subtree, so only insertion-carrying agents feed the
        // observable: permits consumed by deletions or by non-topological
        // events travel the same paths but must not inflate it.
        if matches!(
            agent.kind,
            RequestKind::AddLeaf | RequestKind::AddInternalAbove(_)
        ) {
            ctx.whiteboard_mut().permits_passed_down += params.mobile_size(level);
        }

        if level == 0 && dist == 0 {
            // The carried level-0 package becomes static at the origin and
            // grants one permit.
            let size = params.mobile_size(0);
            let serial = ctx.whiteboard_mut().store.settle_and_grant(size, interval);
            self.grant(ctx, agent, serial);
            ctx.unlock();
            return Action::Terminate;
        }
        if level > 0 {
            let target = params.deposit_distance(level - 1);
            debug_assert!(dist >= target, "the agent overshot a deposit point");
            if dist == target {
                // Split: one level-(k−1) package stays here, the other stays
                // in the bag. (Deposit distances are strictly decreasing, so
                // there is at most one deposit per node.)
                let pkg = MobilePackage {
                    id: 0,
                    level,
                    interval,
                };
                let (stay, carry) = pkg.split(self.fresh_package_id(), self.fresh_package_id());
                if let Some(log) = &mut self.package_log {
                    log.push(PackageEvent::Deposited {
                        pkg: stay.id,
                        level: stay.level,
                        host: ctx.node(),
                        origin: ctx.origin(),
                    });
                }
                ctx.whiteboard_mut().store.add_mobile(stay);
                level = carry.level;
                interval = carry.interval;
            }
        }
        agent.phase = Phase::Distribute { level, interval };
        ctx.unlock();
        Action::Down
    }

    /// Grants the request handled by `agent` using the permit `serial`,
    /// schedules the granted event and reports the answer.
    fn grant(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &RequestAgent, serial: Option<u64>) {
        match agent.kind {
            RequestKind::NonTopological => {}
            RequestKind::AddLeaf => {
                ctx.schedule_change(TopologyChange::AddLeaf { parent: ctx.node() })
            }
            RequestKind::AddInternalAbove(child) => {
                ctx.schedule_change(TopologyChange::AddInternalAbove { below: child })
            }
            RequestKind::RemoveSelf => {
                ctx.schedule_change(TopologyChange::Remove { node: ctx.node() })
            }
        }
        let record = RequestRecord {
            id: agent.id,
            origin: ctx.origin(),
            kind: agent.kind,
            outcome: Outcome::Granted {
                serial,
                new_node: None,
            },
            submitted_at: agent.submitted_at,
            answered_at: ctx.time(),
        };
        ctx.emit(record);
    }

    /// Rejects the request at its origin node (which the agent currently
    /// occupies and has locked).
    fn reject_here(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &RequestAgent) -> Action {
        ctx.unlock();
        self.reject_here_after_unlock(ctx, agent)
    }

    /// Starts the descent of item 1b: the agent found a reject package (or an
    /// empty root storage) at the current node and returns to its origin,
    /// leaving reject packages at the intermediate nodes and unlocking its
    /// path.
    fn start_reject_descent(
        &mut self,
        ctx: &mut NodeCtx<'_, Self>,
        agent: &mut RequestAgent,
        dist: u64,
    ) -> Action {
        ctx.unlock();
        if dist == 0 {
            return self.reject_here_after_unlock(ctx, agent);
        }
        agent.phase = Phase::RejectDescent;
        Action::Down
    }

    fn reject_here_after_unlock(
        &mut self,
        ctx: &mut NodeCtx<'_, Self>,
        agent: &RequestAgent,
    ) -> Action {
        let record = RequestRecord {
            id: agent.id,
            origin: ctx.origin(),
            kind: agent.kind,
            outcome: Outcome::Rejected,
            submitted_at: agent.submitted_at,
            answered_at: ctx.time(),
        };
        ctx.emit(record);
        Action::Terminate
    }

    /// One step of the reject descent (item 1b): place a reject package,
    /// unlock, keep descending; at the origin, deliver the reject.
    fn reject_descent_step(
        &mut self,
        ctx: &mut NodeCtx<'_, Self>,
        agent: &mut RequestAgent,
    ) -> Action {
        ctx.whiteboard_mut().store.place_reject();
        ctx.unlock();
        if ctx.distance_from_origin() == 0 {
            return self.reject_here_after_unlock(ctx, agent);
        }
        Action::Down
    }

    /// One step of the reject wave: place a reject package here and fan out to
    /// every child.
    fn reject_wave_step(&mut self, ctx: &mut NodeCtx<'_, Self>) -> Action {
        ctx.whiteboard_mut().store.place_reject();
        for child in ctx.children() {
            ctx.spawn_agent(CtrlAgent::RejectWave {
                next_child: Some(child),
            });
        }
        Action::Terminate
    }
}

impl Protocol for ControllerProtocol {
    type Whiteboard = CtrlWhiteboard;
    type Agent = CtrlAgent;
    type Output = CtrlOutput;

    fn make_whiteboard(
        &mut self,
        _node: NodeId,
        parent: Option<&CtrlWhiteboard>,
    ) -> CtrlWhiteboard {
        match parent {
            Some(parent_wb) => CtrlWhiteboard::fresh(parent_wb.params),
            None => {
                let mut wb = CtrlWhiteboard::fresh(self.params);
                wb.storage = self.params.m;
                wb.storage_interval = self.initial_interval;
                wb
            }
        }
    }

    fn merge_whiteboard(&mut self, removed: CtrlWhiteboard, parent: &mut CtrlWhiteboard) -> u64 {
        let moved = parent.store.merge(removed.store);
        parent.storage += removed.storage;
        parent.permits_passed_down += removed.permits_passed_down;
        moved + 1
    }

    fn on_activate(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &mut CtrlAgent) -> Action {
        match agent {
            CtrlAgent::RejectWave { next_child } => {
                if let Some(child) = next_child.take() {
                    return Action::MoveToChild(child);
                }
                self.reject_wave_step(ctx)
            }
            CtrlAgent::Request(req) => match req.phase {
                Phase::Start | Phase::Climb => {
                    if ctx.is_locked() && !ctx.locked_by_me() {
                        return Action::WaitForUnlock;
                    }
                    ctx.lock();
                    if req.phase == Phase::Start {
                        self.at_origin(ctx, req)
                    } else {
                        self.climb_checks(ctx, req)
                    }
                }
                Phase::Distribute { .. } => self.distribute_step(ctx, req),
                Phase::RejectDescent => self.reject_descent_step(ctx, req),
            },
        }
    }
}
