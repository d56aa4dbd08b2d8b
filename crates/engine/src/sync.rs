//! The slot-synchronous simulation engine (Algorithms 1–3).
//!
//! Execution is divided into globally synchronized slots (paper §II). In
//! each slot the engine asks every *active* node for an action (nodes
//! before their start slot are quiet), resolves the medium with the
//! paper's collision rules, delivers clear beacons, and tracks link
//! coverage.

use crate::config::SyncRunConfig;
use crate::energy::{ActionCounts, EnergyModel};
use crate::observer::CoverageTracker;
use crate::protocol::SyncProtocol;
use crate::table::NeighborTable;
use crate::world::World;
use mmhew_dynamics::DynamicsSchedule;
use mmhew_faults::FaultPlan;
use mmhew_obs::{EventSink, MediumResolution, SimEvent, Stamp};
use mmhew_radio::{SlotAction, SlotOutcome, SlotResolver};
use mmhew_spectrum::ChannelId;
use mmhew_topology::{Link, Network, NodeId};
use mmhew_util::SeedTree;
use serde::Serialize;

/// Result of a synchronous run.
#[derive(Debug, Clone, Serialize)]
pub struct SyncOutcome {
    /// True if every link was covered within the slot budget.
    completed: bool,
    /// Slot in which the last link was first covered (absolute slot index).
    completion_slot: Option<u64>,
    /// Total slots executed.
    slots_executed: u64,
    /// The latest start slot `T_s` (0 for identical starts).
    latest_start: u64,
    /// First-coverage slot per link (`None` = never covered).
    link_coverage: Vec<(Link, Option<u64>)>,
    /// Final neighbor table of every node.
    tables: Vec<NeighborTable>,
    /// Total clear deliveries.
    deliveries: u64,
    /// Total collisions observed (diagnostics).
    collisions: u64,
    /// Clear receptions lost to impairments.
    impairment_losses: u64,
    /// Clear receptions destroyed by fault-plan link loss models.
    beacon_losses: u64,
    /// Receptions suppressed by jammed channels.
    jam_losses: u64,
    /// Collisions resolved into deliveries by the capture effect (also
    /// included in `deliveries`).
    capture_deliveries: u64,
    /// Per-node transceiver action counts (energy accounting).
    action_counts: Vec<ActionCounts>,
    /// True if every protocol reported local termination.
    all_terminated: bool,
    /// First slot (exclusive upper edge) at which all nodes had
    /// terminated, if they did.
    terminated_slot: Option<u64>,
}

impl SyncOutcome {
    /// True if every link was covered within the slot budget.
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// Absolute slot in which discovery completed.
    pub fn completion_slot(&self) -> Option<u64> {
        self.completion_slot
    }

    /// Slots from the latest start `T_s` to completion — the quantity
    /// Theorems 1–3 bound. `None` if incomplete.
    pub fn slots_to_complete(&self) -> Option<u64> {
        self.completion_slot
            .map(|s| s.saturating_sub(self.latest_start) + 1)
    }

    /// Total slots executed (equals the budget for incomplete runs).
    pub fn slots_executed(&self) -> u64 {
        self.slots_executed
    }

    /// The latest start slot `T_s`.
    pub fn latest_start(&self) -> u64 {
        self.latest_start
    }

    /// First-coverage slot per link.
    pub fn link_coverage(&self) -> &[(Link, Option<u64>)] {
        &self.link_coverage
    }

    /// Final neighbor table of node `u`.
    pub fn table(&self, u: NodeId) -> &NeighborTable {
        &self.tables[u.as_usize()]
    }

    /// Final neighbor tables, indexed by node.
    pub fn tables(&self) -> &[NeighborTable] {
        &self.tables
    }

    /// Total clear deliveries across the run.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Total collisions across the run (nodes themselves cannot see these).
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Clear receptions dropped by channel impairments.
    pub fn impairment_losses(&self) -> u64 {
        self.impairment_losses
    }

    /// Clear receptions destroyed by the fault plan's link loss models
    /// (Gilbert–Elliott or per-link Bernoulli). Zero without faults.
    pub fn beacon_losses(&self) -> u64 {
        self.beacon_losses
    }

    /// Receptions suppressed because their channel was jammed. Zero
    /// without faults.
    pub fn jam_losses(&self) -> u64 {
        self.jam_losses
    }

    /// Collisions resolved into deliveries by the capture effect. These
    /// are also counted in [`deliveries`](Self::deliveries).
    pub fn capture_deliveries(&self) -> u64 {
        self.capture_deliveries
    }

    /// Per-node transceiver action counts, for energy accounting.
    pub fn action_counts(&self) -> &[ActionCounts] {
        &self.action_counts
    }

    /// Total energy spent across the network under `model`.
    pub fn total_energy(&self, model: &EnergyModel) -> f64 {
        model.total_cost(&self.action_counts)
    }

    /// True if every protocol reported local termination.
    pub fn all_terminated(&self) -> bool {
        self.all_terminated
    }

    /// The slot count executed when the last node terminated.
    pub fn terminated_slot(&self) -> Option<u64> {
        self.terminated_slot
    }
}

/// The slot-synchronous engine.
///
/// # Examples
///
/// Run a trivial two-node protocol to completion (a real algorithm from
/// `mmhew-discovery` would normally be used):
///
/// ```
/// use mmhew_engine::{SyncEngine, SyncProtocol, SyncRunConfig, NeighborTable};
/// use mmhew_radio::{Beacon, SlotAction};
/// use mmhew_spectrum::ChannelId;
/// use mmhew_topology::NetworkBuilder;
/// use mmhew_util::{SeedTree, Xoshiro256StarStar};
///
/// struct Alternator { even_tx: bool, table: NeighborTable }
/// impl SyncProtocol for Alternator {
///     fn on_slot(&mut self, slot: u64, _rng: &mut Xoshiro256StarStar) -> SlotAction {
///         let c = ChannelId::new(0);
///         if slot.is_multiple_of(2) == self.even_tx {
///             SlotAction::Transmit { channel: c }
///         } else {
///             SlotAction::Listen { channel: c }
///         }
///     }
///     fn on_beacon(&mut self, b: &Beacon, _c: ChannelId) {
///         self.table.record(b.sender(), b.available().clone());
///     }
///     fn table(&self) -> &NeighborTable { &self.table }
/// }
///
/// let net = NetworkBuilder::line(2).universe(1).build(SeedTree::new(0))?;
/// let engine = SyncEngine::new(
///     &net,
///     vec![
///         Box::new(Alternator { even_tx: true, table: NeighborTable::new() }),
///         Box::new(Alternator { even_tx: false, table: NeighborTable::new() }),
///     ],
///     vec![0, 0],
///     SeedTree::new(1),
/// );
/// let outcome = engine.run(SyncRunConfig::until_complete(10));
/// assert!(outcome.completed());
/// assert_eq!(outcome.completion_slot(), Some(1));
/// # Ok::<(), mmhew_topology::BuildError>(())
/// ```
pub struct SyncEngine<'n> {
    world: World<'n, u64>,
    protocols: Vec<Box<dyn SyncProtocol>>,
    start_slots: Vec<u64>,
    slot: u64,
    collisions: u64,
    capture_deliveries: u64,
    /// This slot's actions, reused across slots (cleared, never shrunk).
    actions: Vec<SlotAction>,
    /// Transmitter-centric medium resolution with persistent scratch.
    resolver: SlotResolver,
    /// Scratch for per-channel resolution events on observed slots.
    chan_scratch: ChannelScratch,
}

/// Persistent scratch for [`SyncEngine`]'s per-channel resolution events:
/// per-channel tallies plus the list of channels actually touched this
/// slot, so an observed slot costs O(actions + touched channels) instead of
/// O(universe) — and allocates nothing after warm-up.
#[derive(Default)]
struct ChannelScratch {
    tx_count: Vec<u32>,
    tx_node: Vec<NodeId>,
    listeners: Vec<u32>,
    rx_count: Vec<u32>,
    /// Channels with at least one transmitter or listener this slot, in
    /// first-touch order; sorted ascending before emission to match the
    /// 0..universe scan order of the straightforward implementation.
    touched: Vec<u16>,
}

impl ChannelScratch {
    /// Emits one [`SimEvent::Channel`] per channel touched this slot,
    /// classifying the network-wide medium resolution. Untouched channels
    /// (no transmitter, no listener) are skipped without being visited.
    fn emit(
        &mut self,
        universe: usize,
        actions: &[SlotAction],
        outcome: &SlotOutcome,
        at: Stamp,
        sink: &mut dyn EventSink,
    ) {
        if self.tx_count.len() < universe {
            self.tx_count.resize(universe, 0);
            self.tx_node.resize(universe, NodeId::new(0));
            self.listeners.resize(universe, 0);
            self.rx_count.resize(universe, 0);
        }
        debug_assert!(self.touched.is_empty());
        for (i, action) in actions.iter().enumerate() {
            match *action {
                SlotAction::Transmit { channel } => {
                    let c = channel.index() as usize;
                    if self.tx_count[c] == 0 && self.listeners[c] == 0 {
                        self.touched.push(channel.index());
                    }
                    self.tx_count[c] += 1;
                    self.tx_node[c] = NodeId::new(i as u32);
                }
                SlotAction::Listen { channel } => {
                    let c = channel.index() as usize;
                    if self.tx_count[c] == 0 && self.listeners[c] == 0 {
                        self.touched.push(channel.index());
                    }
                    self.listeners[c] += 1;
                }
                SlotAction::Quiet => {}
            }
        }
        // A delivery implies a listener on that channel, so every delivery
        // channel is already in `touched`.
        for d in &outcome.deliveries {
            self.rx_count[d.channel.index() as usize] += 1;
        }
        // Touched channels are unique, so the unstable sort is
        // deterministic.
        self.touched.sort_unstable();
        for &c16 in &self.touched {
            let c = c16 as usize;
            let resolution = match self.tx_count[c] {
                0 => MediumResolution::Silence {
                    listeners: self.listeners[c],
                },
                1 => MediumResolution::Clear {
                    tx: self.tx_node[c],
                    rx_count: self.rx_count[c],
                },
                contenders => MediumResolution::Collision { contenders },
            };
            sink.on_event(&SimEvent::Channel {
                at,
                channel: ChannelId::new(c16),
                resolution,
            });
            self.tx_count[c] = 0;
            self.listeners[c] = 0;
            self.rx_count[c] = 0;
        }
        self.touched.clear();
    }
}

impl<'n> SyncEngine<'n> {
    /// Creates an engine over `network` with one protocol instance and one
    /// start slot per node.
    ///
    /// # Panics
    ///
    /// Panics if `protocols` or `start_slots` length differs from the node
    /// count.
    pub fn new(
        network: &'n Network,
        protocols: Vec<Box<dyn SyncProtocol>>,
        start_slots: Vec<u64>,
        seed: SeedTree,
    ) -> Self {
        let n = network.node_count();
        assert_eq!(protocols.len(), n, "one protocol per node required");
        assert_eq!(start_slots.len(), n, "one start slot per node required");
        Self {
            world: World::new(network, &seed),
            protocols,
            start_slots,
            slot: 0,
            collisions: 0,
            capture_deliveries: 0,
            actions: Vec::with_capacity(n),
            resolver: SlotResolver::new(),
            chan_scratch: ChannelScratch::default(),
        }
    }

    /// Attaches an [`EventSink`] that receives every simulation event.
    ///
    /// Without a sink (or with a disabled one such as
    /// [`mmhew_obs::NullSink`]) the engine skips event assembly entirely.
    pub fn with_sink(mut self, sink: &'n mut dyn EventSink) -> Self {
        self.world.obs.attach(sink);
        self
    }

    /// Attaches a [`DynamicsSchedule`]: due events (interpreting `at` as a
    /// slot index) are applied at the start of each slot, before any node
    /// acts. An empty schedule leaves the run bit-identical to a run
    /// without one (dynamics neutrality).
    pub fn with_dynamics(mut self, schedule: DynamicsSchedule) -> Self {
        self.world.dynamics = Some(schedule);
        self
    }

    /// Attaches a [`FaultPlan`]: link loss models, jammers, the capture
    /// effect, and crash/recover outages, resolved per slot.
    ///
    /// An empty plan is dropped on the floor so the run stays
    /// bit-identical — in outcomes, RNG stream, *and* emitted traces — to
    /// a run without faults (fault neutrality, the same discipline as
    /// [`with_dynamics`](Self::with_dynamics)).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.world.set_faults(plan);
        self
    }

    /// The current absolute slot index (slots executed so far).
    pub fn current_slot(&self) -> u64 {
        self.slot
    }

    /// The link-coverage tracker (inspection between steps).
    pub fn tracker(&self) -> &CoverageTracker<u64> {
        &self.world.tracker
    }

    /// The network as of the last applied dynamics event (the original
    /// borrow while no event has fired).
    pub fn network(&self) -> &Network {
        &self.world.network
    }

    /// Clones every node's current neighbor table — mid-run inspection for
    /// continuous-discovery studies (e.g. staleness sampling in E22).
    pub fn tables_snapshot(&self) -> Vec<NeighborTable> {
        self.protocols.iter().map(|p| p.table().clone()).collect()
    }

    /// Executes one slot and returns what happened on the medium. The
    /// returned outcome borrows the engine's reused buffer; copy out
    /// anything needed across steps.
    pub fn step(&mut self, config: &SyncRunConfig) -> &SlotOutcome {
        self.step_traced(config).1
    }

    /// Executes one slot, returning every node's action alongside the
    /// medium outcome — the raw material for timeline visualizations and
    /// debugging. Both slices borrow buffers the engine reuses on the next
    /// step (the steady-state slot loop allocates nothing).
    pub fn step_traced(&mut self, config: &SyncRunConfig) -> (&[SlotAction], &SlotOutcome) {
        self.begin_slot();
        self.decide_actions();
        self.finish_slot(config);
        (&self.actions, self.resolver.last_outcome())
    }

    /// Fills `self.actions` with every node's action for the current slot:
    /// `Quiet` before the node's start slot, its protocol's `on_slot`
    /// from then on. Returns true if any node transmits. Shared verbatim
    /// by the slotted step and the event executor, so both call `on_slot`
    /// for the same (node, slot) pairs in the same order.
    pub(crate) fn decide_actions(&mut self) -> bool {
        let slot = self.slot;
        self.actions.clear();
        let mut transmits = false;
        let nodes = self
            .protocols
            .iter_mut()
            .zip(&self.start_slots)
            .zip(&mut self.world.node_rngs);
        for ((protocol, &start), rng) in nodes {
            let action = if slot < start {
                SlotAction::Quiet
            } else {
                protocol.on_slot(slot - start, rng)
            };
            transmits |= matches!(action, SlotAction::Transmit { .. });
            self.actions.push(action);
        }
        transmits
    }

    /// The pre-action half of a slot: apply due dynamics, then advance the
    /// fault plan. Shared verbatim by the slotted step and the event
    /// executor so the two can never drift.
    pub(crate) fn begin_slot(&mut self) {
        self.world.apply_due_dynamics(Stamp::Slot(self.slot));
        self.world.advance_faults(Stamp::Slot(self.slot));
    }

    /// The post-action half of a slot: tally `self.actions`, resolve the
    /// medium, deliver beacons, update counters, advance the slot cursor.
    /// Expects `self.actions` to hold one action per node for the current
    /// slot; shared verbatim by the slotted step and the event executor.
    pub(crate) fn finish_slot(&mut self, config: &SyncRunConfig) {
        self.tally_actions();
        let slot = self.slot;
        let at = Stamp::Slot(slot);
        let world = &mut self.world;
        if let Some(sink) = world.obs.sink() {
            sink.on_event(&SimEvent::SlotStart { slot });
            for (i, action) in self.actions.iter().enumerate() {
                sink.on_event(&SimEvent::Action {
                    at,
                    node: NodeId::new(i as u32),
                    action: *action,
                });
            }
        }
        match world.faults.as_mut() {
            None => {
                self.resolver.resolve(
                    &world.network,
                    &self.actions,
                    &config.impairments,
                    &mut world.medium_rng,
                );
            }
            Some(faults) => {
                self.resolver.resolve_faulted(
                    &world.network,
                    &self.actions,
                    &config.impairments,
                    faults,
                    &mut world.medium_rng,
                );
            }
        }
        let outcome = self.resolver.last_outcome();
        let universe = world.network.universe_size() as usize;
        if let Some(sink) = world.obs.sink() {
            self.chan_scratch
                .emit(universe, &self.actions, outcome, at, sink);
        }
        if let Some(faults) = world.faults.as_ref() {
            world.beacon_losses += faults.beacon_losses().len() as u64;
            world.jam_losses += faults
                .jam_losses()
                .iter()
                .map(|&(_, n)| n as u64)
                .sum::<u64>();
            self.capture_deliveries += faults.captures().len() as u64;
            if let Some(sink) = world.obs.sink() {
                for &(from, to) in faults.beacon_losses() {
                    sink.on_event(&SimEvent::BeaconLost { at, from, to });
                }
                for &(channel, losses) in faults.jam_losses() {
                    sink.on_event(&SimEvent::SlotJammed {
                        at,
                        channel,
                        losses,
                    });
                }
                for c in faults.captures() {
                    sink.on_event(&SimEvent::CaptureDelivery {
                        at,
                        to: c.to,
                        from: c.from,
                        contenders: c.contenders,
                    });
                }
            }
        }
        for d in &outcome.deliveries {
            let link = Link {
                from: d.from,
                to: d.to,
            };
            world.deliver(link, d.channel, slot, at, |beacon, channel| {
                self.protocols[d.to.as_usize()].on_beacon(beacon, channel)
            });
        }
        let lost = outcome.impairment_losses as u64;
        if lost > 0 {
            if let Some(sink) = world.obs.sink() {
                sink.on_event(&SimEvent::ImpairmentLoss { at, count: lost });
            }
        }
        world
            .obs
            .poll_phases(at, 0..self.protocols.len(), |i| self.protocols[i].phase());
        self.collisions += outcome.collisions.len() as u64;
        world.impairment_losses += lost;
        self.slot += 1;
    }

    /// Ends the current slot without resolving it, for a slot in which no
    /// node transmits and no sink or fault plan is attached: such a slot
    /// delivers nothing and draws nothing from the medium RNG, so only its
    /// action tallies change. The event executor's dead air.
    pub(crate) fn skip_silent_slot(&mut self) {
        debug_assert!(!self.actions.iter().any(|a| a.is_transmit()));
        self.tally_actions();
        self.slot += 1;
    }

    /// Adds `self.actions` to the per-node action counts.
    fn tally_actions(&mut self) {
        for (counts, action) in self.world.action_counts.iter_mut().zip(&self.actions) {
            match action {
                SlotAction::Transmit { .. } => counts.transmit += 1,
                SlotAction::Listen { .. } => counts.listen += 1,
                SlotAction::Quiet => counts.quiet += 1,
            }
        }
    }

    /// Runs until completion or the slot budget, consuming the engine.
    ///
    /// With a dynamics schedule attached, `stop_when_complete` only fires
    /// once the schedule is exhausted — a transiently complete (or empty)
    /// ground truth with mutations still pending is not the end of the
    /// story.
    pub fn run(mut self, config: SyncRunConfig) -> SyncOutcome {
        let mut terminated_slot = None;
        while self.slot < config.max_slots {
            self.step(&config);
            if self.post_step_stop(&config, &mut terminated_slot) {
                break;
            }
        }
        self.into_outcome(terminated_slot)
    }

    /// The slotted loop's post-step bookkeeping: records the first slot at
    /// which every protocol reports termination and decides whether the run
    /// should stop now. Shared verbatim with the event executor so the two
    /// loops apply identical stop conditions.
    pub(crate) fn post_step_stop(
        &self,
        config: &SyncRunConfig,
        terminated_slot: &mut Option<u64>,
    ) -> bool {
        if terminated_slot.is_none() && self.protocols.iter().all(|p| p.is_terminated()) {
            *terminated_slot = Some(self.slot);
            if config.stop_when_all_terminated {
                return true;
            }
        }
        config.stop_when_complete
            && self.world.tracker.is_complete()
            && !self.world.dynamics_pending()
    }

    /// True if a dynamics event is due at the current slot — the event
    /// executor must step a full slot at every such boundary.
    pub(crate) fn dynamics_due(&self) -> bool {
        self.world
            .dynamics
            .as_ref()
            .and_then(|s| s.peek_at())
            .is_some_and(|at| at <= self.slot)
    }

    /// Whether the event executor may drive this engine. Trace-bearing
    /// runs are excluded (every slot emits events, so there is no dead air
    /// to skip), as are faulted runs (jam, crash, and loss state advance
    /// per slot) and any run with a protocol whose
    /// [`SyncProtocol::next_transmission_bound`] is `None` at slot 0.
    pub(crate) fn event_fast_path_eligible(&self) -> bool {
        !self.world.obs.is_enabled()
            && self.world.faults.is_none()
            && self
                .protocols
                .iter()
                .all(|p| p.next_transmission_bound(0).is_some())
    }

    /// Consumes the engine into the run outcome (the shared epilogue of
    /// [`run`](Self::run) and the event executor).
    pub(crate) fn into_outcome(self, terminated_slot: Option<u64>) -> SyncOutcome {
        let latest_start = self.start_slots.iter().copied().max().unwrap_or(0);
        let world = self.world;
        SyncOutcome {
            completed: world.tracker.is_complete(),
            completion_slot: world.tracker.completion_time(),
            slots_executed: self.slot,
            latest_start,
            link_coverage: world.tracker.per_link().collect(),
            tables: self.protocols.iter().map(|p| p.table().clone()).collect(),
            deliveries: world.deliveries,
            collisions: self.collisions,
            impairment_losses: world.impairment_losses,
            beacon_losses: world.beacon_losses,
            jam_losses: world.jam_losses,
            capture_deliveries: self.capture_deliveries,
            action_counts: world.action_counts,
            all_terminated: terminated_slot.is_some(),
            terminated_slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_radio::{Beacon, Impairments};
    use mmhew_spectrum::ChannelSet;
    use mmhew_topology::NetworkBuilder;
    use mmhew_util::Xoshiro256StarStar;

    /// Transmits on even (or odd) active slots on a fixed channel.
    struct Alternator {
        even_tx: bool,
        channel: ChannelId,
        own: ChannelSet,
        table: NeighborTable,
    }

    impl Alternator {
        fn boxed(even_tx: bool, channel: u16, own: ChannelSet) -> Box<dyn SyncProtocol> {
            Box::new(Self {
                even_tx,
                channel: ChannelId::new(channel),
                own,
                table: NeighborTable::new(),
            })
        }
    }

    impl SyncProtocol for Alternator {
        fn on_slot(&mut self, slot: u64, _rng: &mut Xoshiro256StarStar) -> SlotAction {
            if slot.is_multiple_of(2) == self.even_tx {
                SlotAction::Transmit {
                    channel: self.channel,
                }
            } else {
                SlotAction::Listen {
                    channel: self.channel,
                }
            }
        }

        fn on_beacon(&mut self, beacon: &Beacon, _channel: ChannelId) {
            self.table
                .record(beacon.sender(), beacon.available().intersection(&self.own));
        }

        fn table(&self) -> &NeighborTable {
            &self.table
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn two_nodes_complete_in_two_slots() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 0],
            SeedTree::new(1),
        );
        let out = engine.run(SyncRunConfig::until_complete(100));
        assert!(out.completed());
        // Slot 0: node 0 tx, node 1 rx -> link (0,1). Slot 1: reverse.
        assert_eq!(out.completion_slot(), Some(1));
        assert_eq!(out.slots_to_complete(), Some(2));
        assert_eq!(out.deliveries(), 2);
        assert_eq!(out.collisions(), 0);
        // Tables contain the right common sets.
        assert_eq!(
            out.table(n(0)).to_sorted_vec(),
            vec![(n(1), ChannelSet::full(1))]
        );
        assert_eq!(
            out.table(n(1)).to_sorted_vec(),
            vec![(n(0), ChannelSet::full(1))]
        );
    }

    #[test]
    fn start_slots_delay_participation() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        // Node 1 starts at slot 10; before that, node 0's transmissions go
        // unheard.
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 10],
            SeedTree::new(1),
        );
        let out = engine.run(SyncRunConfig::until_complete(100));
        assert!(out.completed());
        // Node 1's active slot 0 is absolute slot 10 (listening); node 0 is
        // transmitting at absolute slot 10 (even): link (0,1) covered at 10.
        let cov: std::collections::BTreeMap<Link, Option<u64>> =
            out.link_coverage().iter().copied().collect();
        assert_eq!(
            cov[&Link {
                from: n(0),
                to: n(1)
            }],
            Some(10)
        );
        assert_eq!(
            cov[&Link {
                from: n(1),
                to: n(0)
            }],
            Some(11)
        );
        assert_eq!(out.latest_start(), 10);
        assert_eq!(out.slots_to_complete(), Some(2));
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        // Both transmit on even slots, both listen on odd: nobody ever
        // hears anything.
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(true, 0, ChannelSet::full(1)),
            ],
            vec![0, 0],
            SeedTree::new(1),
        );
        let out = engine.run(SyncRunConfig::until_complete(50));
        assert!(!out.completed());
        assert_eq!(out.completion_slot(), None);
        assert_eq!(out.slots_to_complete(), None);
        assert_eq!(out.slots_executed(), 50);
        assert!(out.link_coverage().iter().all(|(_, t)| t.is_none()));
    }

    #[test]
    fn fixed_budget_runs_past_completion() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 0],
            SeedTree::new(1),
        );
        let out = engine.run(SyncRunConfig::fixed(20));
        assert!(out.completed());
        assert_eq!(out.slots_executed(), 20);
        assert!(out.deliveries() > 2, "keeps delivering after completion");
    }

    #[test]
    fn collisions_are_counted() {
        // Star: both leaves transmit every even slot; hub listens.
        let net = NetworkBuilder::star(3)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(false, 0, ChannelSet::full(1)), // hub listens even
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(true, 0, ChannelSet::full(1)),
            ],
            vec![0, 0, 0],
            SeedTree::new(1),
        );
        let out = engine.run(SyncRunConfig::fixed(2));
        assert!(out.collisions() >= 1);
        // The hub never hears the simultaneous leaves.
        assert!(out.table(n(0)).is_empty());
    }

    #[test]
    fn impairments_slow_discovery() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 0],
            SeedTree::new(2),
        );
        let out = engine.run(
            SyncRunConfig::until_complete(10_000)
                .with_impairments(Impairments::with_delivery_probability(0.05)),
        );
        assert!(out.completed());
        assert!(
            out.completion_slot().expect("complete") > 1,
            "lossy channel should not complete in the minimum 2 slots"
        );
        assert!(out.impairment_losses() > 0);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let net = NetworkBuilder::ring(5)
            .universe(2)
            .build(SeedTree::new(0))
            .expect("build");
        let mk = |seed: u64| {
            let engine = SyncEngine::new(
                &net,
                (0..5)
                    .map(|i| Alternator::boxed(i % 2 == 0, 0, ChannelSet::full(2)))
                    .collect(),
                vec![0; 5],
                SeedTree::new(seed),
            );
            engine.run(SyncRunConfig::fixed(100))
        };
        let a = mk(7);
        let b = mk(7);
        assert_eq!(a.deliveries(), b.deliveries());
        assert_eq!(a.collisions(), b.collisions());
        assert_eq!(a.link_coverage(), b.link_coverage());
    }

    #[test]
    fn step_traced_exposes_actions() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let mut engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 0],
            SeedTree::new(1),
        );
        let config = SyncRunConfig::fixed(10);
        let (actions, outcome) = engine.step_traced(&config);
        assert_eq!(actions.len(), 2);
        assert!(actions[0].is_transmit());
        assert!(actions[1].is_listen());
        assert_eq!(outcome.deliveries.len(), 1);
        assert_eq!(engine.current_slot(), 1);
    }

    #[test]
    fn action_counts_account_every_slot() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 6],
            SeedTree::new(1),
        );
        let out = engine.run(SyncRunConfig::fixed(20));
        let counts = out.action_counts();
        // Every node accounts for all 20 slots.
        assert!(counts.iter().all(|c| c.total() == 20));
        // Node 1 was quiet for its 6 pre-start slots.
        assert_eq!(counts[1].quiet, 6);
        assert_eq!(counts[0].quiet, 0);
        // The alternator splits active time evenly.
        assert_eq!(counts[0].transmit, 10);
        assert_eq!(counts[0].listen, 10);
        assert_eq!(counts[1].transmit + counts[1].listen, 14);
        // Energy is positive and dominated by active slots.
        let energy = out.total_energy(&crate::energy::EnergyModel::default());
        assert!(energy > 0.0);
        let all_quiet = crate::energy::EnergyModel::default().cost(&ActionCounts {
            transmit: 0,
            listen: 0,
            quiet: 20,
        }) * 2.0;
        assert!(energy > all_quiet);
    }

    #[test]
    fn dynamics_rewire_ground_truth_mid_run() {
        use mmhew_dynamics::TimedEvent;
        use mmhew_topology::NetworkEvent;

        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        // The link vanishes before anyone can use it (slot 0) and returns
        // at slot 10; the alternators then cover it from scratch.
        let schedule = DynamicsSchedule::new(vec![
            TimedEvent::new(
                0,
                NetworkEvent::EdgeRemove {
                    from: n(0),
                    to: n(1),
                },
            ),
            TimedEvent::new(
                0,
                NetworkEvent::EdgeRemove {
                    from: n(1),
                    to: n(0),
                },
            ),
            TimedEvent::new(
                10,
                NetworkEvent::EdgeAdd {
                    from: n(0),
                    to: n(1),
                },
            ),
            TimedEvent::new(
                10,
                NetworkEvent::EdgeAdd {
                    from: n(1),
                    to: n(0),
                },
            ),
        ]);
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 0],
            SeedTree::new(1),
        )
        .with_dynamics(schedule);
        let out = engine.run(SyncRunConfig::until_complete(100));
        assert!(out.completed());
        // Coverage stamps postdate the re-add: slot 10 (0 transmits on even
        // slots) and slot 11.
        let cov: std::collections::BTreeMap<Link, Option<u64>> =
            out.link_coverage().iter().copied().collect();
        assert_eq!(
            cov[&Link {
                from: n(0),
                to: n(1)
            }],
            Some(10)
        );
        assert_eq!(
            cov[&Link {
                from: n(1),
                to: n(0)
            }],
            Some(11)
        );
    }

    #[test]
    fn empty_dynamics_schedule_is_neutral() {
        let net = NetworkBuilder::ring(5)
            .universe(2)
            .build(SeedTree::new(0))
            .expect("build");
        let mk = |dynamics: bool| {
            let engine = SyncEngine::new(
                &net,
                (0..5)
                    .map(|i| Alternator::boxed(i % 2 == 0, 0, ChannelSet::full(2)))
                    .collect(),
                vec![0; 5],
                SeedTree::new(7),
            );
            let engine = if dynamics {
                engine.with_dynamics(DynamicsSchedule::empty())
            } else {
                engine
            };
            engine.run(SyncRunConfig::fixed(100))
        };
        let plain = mk(false);
        let frozen = mk(true);
        assert_eq!(plain.deliveries(), frozen.deliveries());
        assert_eq!(plain.collisions(), frozen.collisions());
        assert_eq!(plain.link_coverage(), frozen.link_coverage());
        assert_eq!(plain.action_counts(), frozen.action_counts());
    }

    #[test]
    #[should_panic(expected = "one protocol per node")]
    fn wrong_protocol_count_panics() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let _ = SyncEngine::new(&net, vec![], vec![0, 0], SeedTree::new(0));
    }

    #[test]
    fn empty_fault_plan_is_neutral() {
        let net = NetworkBuilder::ring(5)
            .universe(2)
            .build(SeedTree::new(0))
            .expect("build");
        let mk = |faults: bool| {
            let engine = SyncEngine::new(
                &net,
                (0..5)
                    .map(|i| Alternator::boxed(i % 2 == 0, 0, ChannelSet::full(2)))
                    .collect(),
                vec![0; 5],
                SeedTree::new(7),
            );
            let engine = if faults {
                engine.with_faults(FaultPlan::new())
            } else {
                engine
            };
            engine.run(
                SyncRunConfig::fixed(100)
                    .with_impairments(Impairments::with_delivery_probability(0.7)),
            )
        };
        let plain = mk(false);
        let faulted = mk(true);
        assert_eq!(plain.deliveries(), faulted.deliveries());
        assert_eq!(plain.collisions(), faulted.collisions());
        assert_eq!(plain.impairment_losses(), faulted.impairment_losses());
        assert_eq!(plain.link_coverage(), faulted.link_coverage());
        assert_eq!(plain.action_counts(), faulted.action_counts());
        assert_eq!(faulted.beacon_losses(), 0);
        assert_eq!(faulted.jam_losses(), 0);
        assert_eq!(faulted.capture_deliveries(), 0);
    }

    #[test]
    fn dead_links_tally_beacon_losses_and_block_discovery() {
        use mmhew_faults::LinkLossModel;
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 0],
            SeedTree::new(1),
        )
        .with_faults(
            FaultPlan::new().with_default_loss(LinkLossModel::Bernoulli {
                delivery_probability: 0.0,
            }),
        );
        let out = engine.run(SyncRunConfig::fixed(10));
        assert!(!out.completed());
        assert_eq!(out.deliveries(), 0);
        // The alternators line up one clear reception per slot; every one
        // of them dies on the link.
        assert_eq!(out.beacon_losses(), 10);
        assert_eq!(out.impairment_losses(), 0);
    }

    #[test]
    fn crash_outage_delays_coverage_until_recovery() {
        use mmhew_faults::CrashSchedule;
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        // Node 0's radio is dead until slot 10: it neither beacons nor
        // hears, but its protocol keeps alternating (radio brown-out).
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 0],
            SeedTree::new(1),
        )
        .with_faults(FaultPlan::new().with_crashes(CrashSchedule::outage(n(0), 0, 10)));
        let out = engine.run(SyncRunConfig::until_complete(100));
        assert!(out.completed());
        let cov: std::collections::BTreeMap<Link, Option<u64>> =
            out.link_coverage().iter().copied().collect();
        assert_eq!(
            cov[&Link {
                from: n(0),
                to: n(1)
            }],
            Some(10),
            "first beacon after recovery lands at slot 10"
        );
        assert_eq!(
            cov[&Link {
                from: n(1),
                to: n(0)
            }],
            Some(11)
        );
    }

    #[test]
    fn capture_lets_the_hub_hear_through_collisions() {
        let net = NetworkBuilder::star(3)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        // Both leaves transmit every even slot while the hub listens: with
        // the base model the hub hears nothing (see collisions_are_counted);
        // with p_cap = 1 every collision resolves to one of the leaves.
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(false, 0, ChannelSet::full(1)),
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(true, 0, ChannelSet::full(1)),
            ],
            vec![0, 0, 0],
            SeedTree::new(1),
        )
        .with_faults(FaultPlan::new().with_capture(1.0));
        let out = engine.run(SyncRunConfig::fixed(20));
        assert!(out.capture_deliveries() > 0);
        assert!(!out.table(n(0)).is_empty(), "capture feeds the hub's table");
        assert_eq!(out.collisions(), 0, "p_cap = 1 resolves every collision");
    }

    #[test]
    fn full_jam_blocks_everything_and_is_counted() {
        use mmhew_faults::JamSchedule;
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let engine = SyncEngine::new(
            &net,
            vec![
                Alternator::boxed(true, 0, ChannelSet::full(1)),
                Alternator::boxed(false, 0, ChannelSet::full(1)),
            ],
            vec![0, 0],
            SeedTree::new(1),
        )
        .with_faults(FaultPlan::new().with_jamming(JamSchedule::fixed(ChannelSet::full(1))));
        let out = engine.run(SyncRunConfig::fixed(10));
        assert!(!out.completed());
        assert_eq!(out.deliveries(), 0);
        assert_eq!(out.jam_losses(), 10);
    }
}
