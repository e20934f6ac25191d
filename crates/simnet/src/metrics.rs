//! Cost accounting for simulated executions.

/// Message and work counters accumulated over a simulated execution.
///
/// The paper's primary cost measure is the **message complexity**: every agent
/// hop over a tree edge is one message ([`Metrics::agent_hops`]). The one
/// cost the simulator charges beside hops is the whiteboard hand-off of a
/// graceful deletion ([`Metrics::aux_messages`], as returned by
/// [`Protocol::merge_whiteboard`](crate::Protocol::merge_whiteboard)); the
/// total is exposed by [`Metrics::total_messages`]. Waves a higher layer
/// models abstractly are charged by that layer, not here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of events processed by the engine.
    pub events_processed: u64,
    /// Number of agent hops (each hop is one message over a tree edge).
    pub agent_hops: u64,
    /// Messages of the data-structure hand-off on graceful deletion.
    pub aux_messages: u64,
    /// Number of agents ever created.
    pub agents_created: u64,
    /// Number of agent activations (arrivals, creations and dequeues).
    pub activations: u64,
    /// Number of times an agent had to wait in a locked node's queue.
    pub waits: u64,
    /// Number of granted topological changes physically applied.
    pub topology_changes_applied: u64,
    /// Number of granted topological changes dropped because their target
    /// vanished before they could be applied (or never could exist: the
    /// root's removal). Nothing else drops a change — a busy target makes
    /// it wait, see the crate docs.
    pub topology_changes_dropped: u64,
    /// Number of agents dropped because their destination vanished (wave
    /// agents racing a concurrent removal).
    pub agents_dropped: u64,
    /// Largest agent queue length observed at any node.
    pub max_queue_len: usize,
    /// Largest number of simultaneously live agents observed.
    pub max_live_agents: usize,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total messages: agent hops plus auxiliary service messages.
    pub fn total_messages(&self) -> u64 {
        self.agent_hops + self.aux_messages
    }

    /// Adds `other` into `self` (used when chaining iterations/phases).
    pub fn absorb(&mut self, other: &Metrics) {
        self.events_processed += other.events_processed;
        self.agent_hops += other.agent_hops;
        self.aux_messages += other.aux_messages;
        self.agents_created += other.agents_created;
        self.activations += other.activations;
        self.waits += other.waits;
        self.topology_changes_applied += other.topology_changes_applied;
        self.topology_changes_dropped += other.topology_changes_dropped;
        self.agents_dropped += other.agents_dropped;
        self.max_queue_len = self.max_queue_len.max(other.max_queue_len);
        self.max_live_agents = self.max_live_agents.max(other.max_live_agents);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_messages_sums_hops_and_aux() {
        let m = Metrics {
            agent_hops: 10,
            aux_messages: 5,
            ..Metrics::new()
        };
        assert_eq!(m.total_messages(), 15);
    }

    #[test]
    fn absorb_adds_counters_and_maxes_peaks() {
        let mut a = Metrics {
            agent_hops: 3,
            max_queue_len: 2,
            max_live_agents: 7,
            ..Metrics::new()
        };
        let b = Metrics {
            agent_hops: 4,
            aux_messages: 1,
            max_queue_len: 5,
            max_live_agents: 3,
            ..Metrics::new()
        };
        a.absorb(&b);
        assert_eq!(a.agent_hops, 7);
        assert_eq!(a.aux_messages, 1);
        assert_eq!(a.max_queue_len, 5);
        assert_eq!(a.max_live_agents, 7);
    }

    #[test]
    fn default_is_zeroed() {
        assert_eq!(Metrics::new().total_messages(), 0);
    }
}
