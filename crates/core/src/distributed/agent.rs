//! Agent state carried by the mobile agents of the distributed controller.

use crate::package::PermitInterval;
use crate::request::{RequestId, RequestKind};
use dcn_tree::NodeId;

/// The phase of a request-handling agent (the paper's agent program, §4.3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Just created at its origin; about to lock it and inspect it.
    Start,
    /// Climbing towards the root, locking every node, looking for a reject
    /// package, a filler node, or the root.
    Climb,
    /// Carrying (the remaining half of) a package of the given level down the
    /// locked path, depositing a package at every deposit point `u_k` and
    /// unlocking every node as it leaves it.
    Distribute {
        /// Level of the package currently in the agent's bag.
        level: u32,
        /// Serial-number interval of the carried package (interval mode).
        interval: Option<PermitInterval>,
    },
    /// A reject package was encountered (or the root's storage was empty):
    /// descending to the origin, placing reject packages and unlocking.
    RejectDescent,
}

/// State of a request-handling agent.
#[derive(Clone, Copy, Debug)]
pub struct RequestAgent {
    /// The identifier assigned to the request by the driver.
    pub id: RequestId,
    /// What the request asks permission for.
    pub kind: RequestKind,
    /// Simulated time at which the request arrives at its origin; the agent
    /// carries it into the answer's record.
    pub submitted_at: u64,
    pub(crate) phase: Phase,
}

impl RequestAgent {
    /// Creates the agent for a request arriving at `submitted_at`.
    pub fn new(id: RequestId, kind: RequestKind, submitted_at: u64) -> Self {
        RequestAgent {
            id,
            kind,
            submitted_at,
            phase: Phase::Start,
        }
    }
}

/// The agents used by the distributed controller.
#[derive(Clone, Copy, Debug)]
pub enum CtrlAgent {
    /// An agent serving one request.
    Request(RequestAgent),
    /// A reject-wave agent: moves to `next_child` (if set), then places a
    /// reject package at its node and fans out to that node's children.
    RejectWave {
        /// The child the agent must move to before acting, if any.
        next_child: Option<NodeId>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_request_agents_start_in_start_phase() {
        let a = RequestAgent::new(RequestId(3), RequestKind::AddLeaf, 17);
        assert_eq!(a.phase, Phase::Start);
        assert_eq!(a.id, RequestId(3));
        assert_eq!(a.submitted_at, 17);
    }
}
