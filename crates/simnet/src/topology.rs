//! Graceful topology changes.
//!
//! In the controlled dynamic model a topological change is performed by the
//! requesting entity only *after* its request has been granted, and it must be
//! performed "gracefully" (paper §4.2): no messages are lost and the deleted
//! node's protocol data is handed to its parent. The paper leaves the concrete
//! hand-shake out of scope; the simulator's is a wait list. A granted change
//! is attempted once, [`CHANGE_DELAY`] ticks after the grant. A removal goes
//! through only if its target is unlocked, has no queued agents and no
//! message inbound; an edge split only if its lower endpoint is unlocked and
//! no locked descent pointer crosses the edge. A change refused by one of
//! these gates is parked on the node whose state refused it and re-attempted
//! by the activation that changes that state, so it is applied in the step
//! that releases it — or dropped, if its target vanished meanwhile. See
//! DESIGN.md §6 for why this preserves what the controller relies on.

use crate::engine::Time;
use crate::NodeId;

/// A topological change scheduled for graceful application.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyChange {
    /// Attach a new leaf under `parent`.
    AddLeaf {
        /// The prospective parent.
        parent: NodeId,
    },
    /// Split the edge between `below` and its parent with a new internal node.
    AddInternalAbove {
        /// The lower endpoint of the edge to split.
        below: NodeId,
    },
    /// Remove `node` (leaf or internal; the appropriate variant is chosen at
    /// application time based on the node's current degree).
    Remove {
        /// The node to remove.
        node: NodeId,
    },
}

/// Ticks between a change being granted and the environment's one timed
/// attempt to apply it ("after finite time", §2.1.2).
pub(crate) const CHANGE_DELAY: Time = 4;
