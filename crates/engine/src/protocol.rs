//! Protocol traits implemented by the discovery algorithms.
//!
//! A protocol is a *per-node* state machine: it sees only its own slot or
//! frame counter, its own randomness, and the beacons it hears. Engines
//! guarantee nodes cannot observe global state, so an implementation of
//! these traits is a genuinely distributed algorithm.

use crate::table::NeighborTable;
use mmhew_obs::ProtocolPhase;
use mmhew_radio::{Beacon, FrameAction, SlotAction};
use mmhew_spectrum::ChannelId;
use mmhew_util::Xoshiro256StarStar;

/// A node's behaviour under the slot-synchronous engines (Algorithms 1–3).
pub trait SyncProtocol {
    /// Decides the action for the node's `active_slot`-th slot since it
    /// started executing (0-based). Called once per slot while the node is
    /// active.
    fn on_slot(&mut self, active_slot: u64, rng: &mut Xoshiro256StarStar) -> SlotAction;

    /// Delivers a clear beacon heard while listening on `channel`.
    fn on_beacon(&mut self, beacon: &Beacon, channel: ChannelId);

    /// The neighbors discovered so far.
    fn table(&self) -> &NeighborTable;

    /// True once the node has locally decided to stop participating (the
    /// paper's algorithms run forever; termination-detection wrappers
    /// override this). The engine can be configured to stop once every
    /// node reports termination.
    fn is_terminated(&self) -> bool {
        false
    }

    /// Whether the event executor (`run_event`) may drive this protocol.
    /// The executor asks every protocol once, at slot 0, and reads only
    /// `is_some()`: a `None` anywhere sends the whole run to the
    /// slot-by-slot oracle.
    ///
    /// `Some` is one promise: from active slot `now` on, the action
    /// stream ignores beacon receptions (`on_beacon` only updates the
    /// table) and `is_terminated` stays constant. The executor runs its
    /// stop checks only on the slots it steps, and the constant
    /// `is_terminated` is what makes that sound. Implementations that
    /// keep the promise return `Some(now)`.
    ///
    /// The default `None` opts out. Reception-coupled wrappers (quiescent
    /// termination, continuous re-discovery) must keep the default.
    fn next_transmission_bound(&self, now: u64) -> Option<u64> {
        let _ = now;
        None
    }

    /// The protocol's current internal phase, if it has a notion of one
    /// (Algorithm 1 reports its stage, Algorithm 2 its estimate,
    /// termination wrappers their vote). Observing engines emit a
    /// [`mmhew_obs::SimEvent::Phase`] whenever this changes.
    fn phase(&self) -> Option<ProtocolPhase> {
        None
    }
}

/// A node's behaviour under the asynchronous engine (Algorithm 4).
pub trait AsyncProtocol {
    /// Decides the action for the node's `frame`-th frame since it started
    /// executing (0-based). Called once per frame.
    fn on_frame(&mut self, frame: u64, rng: &mut Xoshiro256StarStar) -> FrameAction;

    /// Delivers a clear beacon heard during a listening frame on `channel`.
    fn on_beacon(&mut self, beacon: &Beacon, channel: ChannelId);

    /// The neighbors discovered so far.
    fn table(&self) -> &NeighborTable;

    /// True once the node has locally decided to stop participating: the
    /// engine stops scheduling frames for a terminated node, and the run
    /// ends once every node has terminated (or the budget is exhausted).
    fn is_terminated(&self) -> bool {
        false
    }

    /// The protocol's current internal phase, if it has a notion of one.
    /// See [`SyncProtocol::phase`].
    fn phase(&self) -> Option<ProtocolPhase> {
        None
    }
}
