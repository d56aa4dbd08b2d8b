//! What the two engines share: one world, two clocks.
//!
//! [`SyncEngine`](crate::SyncEngine) steps global slots and
//! [`AsyncEngine`](crate::AsyncEngine) pops frame boundaries off a
//! real-time queue, but both run the paper's model on the same world: a
//! network whose ground truth a dynamics schedule may rewrite, an optional
//! fault plan, the coverage tracker every theorem is measured by, one
//! cached beacon per node, the node and medium RNG streams, and an
//! optional event sink. [`World`] holds that state and the one copy of
//! each rule over it — how a dynamics boundary is applied, how crash
//! transitions surface, what a delivery does and emits, how phases are
//! polled — so the two engines cannot drift apart.
//!
//! Times enter as a [`Stamp`]: a slot index for the slotted engine, real
//! nanoseconds for the asynchronous one. Dynamics schedules and fault
//! plans read the same `u64` in the same unit.

use crate::energy::ActionCounts;
use crate::observer::CoverageTracker;
use mmhew_dynamics::DynamicsSchedule;
use mmhew_faults::{ActiveFaults, FaultPlan};
use mmhew_obs::{EventSink, ProtocolPhase, SimEvent, Stamp};
use mmhew_radio::Beacon;
use mmhew_spectrum::ChannelId;
use mmhew_topology::{Link, Network, NetworkEvent, NodeId};
use mmhew_util::{SeedTree, Xoshiro256StarStar};
use std::borrow::Cow;
use std::ops::Range;

/// The state both engines run on; `T` is the coverage tracker's time
/// (slot indices or [`mmhew_time::RealTime`]).
pub(crate) struct World<'n, T> {
    /// Borrowed while static; promoted to an owned copy on the first
    /// dynamics mutation (copy-on-write keeps static runs allocation-free).
    pub(crate) network: Cow<'n, Network>,
    pub(crate) dynamics: Option<DynamicsSchedule>,
    /// The events due at the boundary being applied, kept across
    /// boundaries so a warm boundary allocates nothing.
    due: Vec<NetworkEvent>,
    /// `None` when the fault plan is empty, so fault-free runs take the
    /// exact pre-fault code path (neutrality).
    pub(crate) faults: Option<ActiveFaults>,
    pub(crate) tracker: CoverageTracker<T>,
    /// One prebuilt beacon per node, so deliveries don't clone the sender's
    /// `ChannelSet` each time. Entries are refreshed only when a dynamics
    /// event changes that node's availability (`NodeJoin`,
    /// `ChannelGained`, `ChannelLost`).
    beacons: Vec<Beacon>,
    pub(crate) node_rngs: Vec<Xoshiro256StarStar>,
    pub(crate) medium_rng: Xoshiro256StarStar,
    pub(crate) action_counts: Vec<ActionCounts>,
    pub(crate) deliveries: u64,
    pub(crate) impairment_losses: u64,
    pub(crate) beacon_losses: u64,
    pub(crate) jam_losses: u64,
    pub(crate) obs: Observer<'n>,
}

/// The attached event sink, and the phase each node last reported to it.
pub(crate) struct Observer<'n> {
    sink: Option<&'n mut dyn EventSink>,
    phases: Vec<Option<ProtocolPhase>>,
}

impl<'n> Observer<'n> {
    pub(crate) fn attach(&mut self, sink: &'n mut dyn EventSink) {
        self.sink = Some(sink);
    }

    /// The sink, only while one is attached and enabled. Every event, and
    /// every computation made only for one, sits behind this.
    pub(crate) fn sink(&mut self) -> Option<&mut (dyn EventSink + 'n)> {
        self.sink.as_deref_mut().filter(|s| s.enabled())
    }

    /// True while [`sink`](Self::sink) would return one.
    pub(crate) fn is_enabled(&self) -> bool {
        self.sink.as_ref().is_some_and(|s| s.enabled())
    }

    /// While observed, emits a [`SimEvent::Phase`] for every node in
    /// `nodes` whose `phase(node)` differs from what it last reported.
    /// Unobserved runs never call `phase`.
    pub(crate) fn poll_phases(
        &mut self,
        at: Stamp,
        nodes: Range<usize>,
        phase: impl Fn(usize) -> Option<ProtocolPhase>,
    ) {
        let Some(sink) = self.sink.as_deref_mut().filter(|s| s.enabled()) else {
            return;
        };
        for i in nodes {
            let phase = phase(i);
            if phase != self.phases[i] {
                self.phases[i] = phase;
                if let Some(p) = phase {
                    sink.on_event(&SimEvent::Phase {
                        at,
                        node: NodeId::new(i as u32),
                        phase: p,
                    });
                }
            }
        }
    }
}

impl<'n, T: Copy + Ord> World<'n, T> {
    /// A fresh world over `network`. Node `i` draws from
    /// `seed.branch("node").index(i)`, the medium from
    /// `seed.branch("medium")`.
    pub(crate) fn new(network: &'n Network, seed: &SeedTree) -> Self {
        let n = network.node_count();
        Self {
            network: Cow::Borrowed(network),
            dynamics: None,
            due: Vec::new(),
            faults: None,
            tracker: CoverageTracker::new(network),
            beacons: (0..n)
                .map(|i| {
                    let u = NodeId::new(i as u32);
                    Beacon::new(u, network.available(u).to_owned())
                })
                .collect(),
            node_rngs: (0..n)
                .map(|i| seed.branch("node").index(i as u64).rng())
                .collect(),
            medium_rng: seed.branch("medium").rng(),
            action_counts: vec![ActionCounts::default(); n],
            deliveries: 0,
            impairment_losses: 0,
            beacon_losses: 0,
            jam_losses: 0,
            obs: Observer {
                sink: None,
                phases: vec![None; n],
            },
        }
    }

    /// Activates `plan`. An empty plan is dropped on the floor, so the run
    /// stays bit-identical — outcomes, RNG stream and traces — to a run
    /// without faults (fault neutrality).
    pub(crate) fn set_faults(&mut self, plan: FaultPlan) {
        if !plan.is_empty() {
            let n = self.network.node_count();
            let universe = self.network.universe_size() as usize;
            self.faults = Some(ActiveFaults::new(plan, n, universe));
        }
    }

    /// True while the dynamics schedule still holds events: a transiently
    /// complete (or empty) ground truth with mutations pending is not the
    /// end of a run.
    pub(crate) fn dynamics_pending(&self) -> bool {
        self.dynamics.as_ref().is_some_and(|s| !s.is_exhausted())
    }

    /// Applies every dynamics event due at `at` as one batch (one
    /// ground-truth refresh per boundary), resyncs the coverage tracker to
    /// the mutated ground truth and refreshes the beacon of every node
    /// whose availability changed. While observed, emits each event and
    /// then [`SimEvent::GroundTruthChanged`].
    pub(crate) fn apply_due_dynamics(&mut self, at: Stamp) {
        let Some(schedule) = self.dynamics.as_mut() else {
            return;
        };
        self.due.clear();
        while let Some(timed) = schedule.next_due(ticks(at)) {
            self.due.push(timed.event.clone());
        }
        if self.due.is_empty() {
            return;
        }
        self.network
            .to_mut()
            .apply_all(&self.due)
            .expect("dynamics events must be valid for this network");
        if let Some(sink) = self.obs.sink() {
            for event in &self.due {
                sink.on_event(&dynamics_sim_event(event, at));
            }
        }
        self.tracker.resync(&self.network);
        // Join, channel gain and channel loss may change a node's
        // availability; topology-only events leave beacons untouched.
        for event in &self.due {
            let node = match event {
                NetworkEvent::NodeJoin { node, .. }
                | NetworkEvent::ChannelGained { node, .. }
                | NetworkEvent::ChannelLost { node, .. } => *node,
                NetworkEvent::NodeLeave { .. }
                | NetworkEvent::EdgeAdd { .. }
                | NetworkEvent::EdgeRemove { .. } => continue,
            };
            self.beacons[node.as_usize()].update_available(self.network.available(node));
        }
        if let Some(sink) = self.obs.sink() {
            sink.on_event(&SimEvent::GroundTruthChanged {
                at,
                covered: self.tracker.covered() as u64,
                expected: self.tracker.expected() as u64,
            });
        }
    }

    /// Advances the fault runtime to `at` (stamps must be nondecreasing)
    /// and, while observed, emits its crash and recovery transitions.
    pub(crate) fn advance_faults(&mut self, at: Stamp) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        faults.advance_to(ticks(at));
        if let Some(sink) = self.obs.sink() {
            for t in faults.transitions() {
                sink.on_event(&if t.up {
                    SimEvent::NodeRecovered { at, node: t.node }
                } else {
                    SimEvent::NodeCrashed { at, node: t.node }
                });
            }
        }
    }

    /// Delivers `link.from`'s beacon, heard on `channel`, to `on_beacon`
    /// (the receiver's protocol), stamps the link covered at `time` and
    /// counts the delivery. While observed, emits [`SimEvent::Delivery`]
    /// and, on first coverage, [`SimEvent::LinkCovered`], both at `at`.
    pub(crate) fn deliver(
        &mut self,
        link: Link,
        channel: ChannelId,
        time: T,
        at: Stamp,
        on_beacon: impl FnOnce(&Beacon, ChannelId),
    ) {
        on_beacon(&self.beacons[link.from.as_usize()], channel);
        let newly_covered = self.tracker.record(link, time);
        self.deliveries += 1;
        if let Some(sink) = self.obs.sink() {
            let Link { from, to } = link;
            sink.on_event(&SimEvent::Delivery {
                at,
                from,
                to,
                channel,
            });
            if newly_covered {
                sink.on_event(&SimEvent::LinkCovered {
                    at,
                    from,
                    to,
                    covered: self.tracker.covered() as u64,
                    expected: self.tracker.expected() as u64,
                });
            }
        }
    }
}

/// The schedule time of `at`: the slot index, or real nanoseconds.
fn ticks(at: Stamp) -> u64 {
    match at {
        Stamp::Slot(slot) => slot,
        Stamp::Real(t) => t.as_nanos(),
    }
}

/// Translates an applied [`NetworkEvent`] into the observability
/// vocabulary, stamped with the boundary it fired at.
fn dynamics_sim_event(event: &NetworkEvent, at: Stamp) -> SimEvent {
    match *event {
        NetworkEvent::NodeJoin { node, .. } => SimEvent::NodeJoined { at, node },
        NetworkEvent::NodeLeave { node } => SimEvent::NodeLeft { at, node },
        NetworkEvent::EdgeAdd { from, to } => SimEvent::EdgeChanged {
            at,
            from,
            to,
            added: true,
        },
        NetworkEvent::EdgeRemove { from, to } => SimEvent::EdgeChanged {
            at,
            from,
            to,
            added: false,
        },
        NetworkEvent::ChannelGained { node, channel } => SimEvent::ChannelChanged {
            at,
            node,
            channel,
            gained: true,
        },
        NetworkEvent::ChannelLost { node, channel } => SimEvent::ChannelChanged {
            at,
            node,
            channel,
            gained: false,
        },
    }
}
