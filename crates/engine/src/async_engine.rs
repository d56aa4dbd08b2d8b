//! The event-driven continuous-time engine (Algorithm 4).
//!
//! Each node owns a drifting clock and divides its *local* time into
//! frames; the engine projects frame and slot boundaries onto real time,
//! keeps each node's one pending frame-start or frame-end event in a
//! tournament tree of minima, and resolves receptions with the
//! continuous-time medium of [`mmhew_radio::continuous`].
//!
//! A node never has more than one boundary pending: frame `f` ends at the
//! instant frame `f + 1` starts, and its end sorts first, so frame `f + 1`'s
//! start is queued only once frame `f`'s end has been handled. Each handler
//! overwrites its own node's slot, which costs one leaf-to-root update.
//!
//! Each boundary is projected once. A frame starts at the time of its
//! `FrameStart` event, which is the previous frame's projected end (or, for
//! frame 0, its own projected start); a transmit frame's slots come from
//! [`FrameSchedule::slot_intervals`], which projects only the two interior
//! slot boundaries.
//!
//! Causality: a node's action for frame `f` is requested at the real
//! instant frame `f` begins, by which time every reception that completed
//! earlier has been delivered (frame-end events sort before frame-start
//! events at equal timestamps). Every burst that can influence a listening
//! window has been registered before the window's end event fires, because
//! its originating frame starts before the window ends.
//!
//! Bursts live in a [`BurstLog`], one row per transmitter. A listening
//! window is one frame of the listener's clock, and with drift at most 1/2
//! a frame lasts at most `2L` of real time (`L` the frame length). So a
//! burst that ended at or before `t − 2L` is dead at `t`: it cannot lie
//! inside a window still unresolved at `t`, nor overlap a burst that does.
//! When a node starts a transmit frame at `t` its row drops those bursts,
//! which caps every row at a few frames of bursts. Resolving a window reads
//! only the rows of the listener's neighbors on its channel: the cost is
//! O(Σ over on-channel neighbors of their live bursts), not O(every burst
//! logged on the channel). Dropping dead bursts changes no reception, RNG
//! draw or trace event.

use crate::config::{AsyncRunConfig, BurstPlan};
use crate::energy::{ActionCounts, EnergyModel};
use crate::protocol::AsyncProtocol;
use crate::table::NeighborTable;
use crate::world::World;
use mmhew_dynamics::DynamicsSchedule;
use mmhew_faults::FaultPlan;
use mmhew_obs::{EventSink, SimEvent, Stamp};
use mmhew_radio::{
    BurstLog, ContinuousResolver, FrameAction, ListenWindow, SlotAction, Transmission,
};
use mmhew_time::{DriftedClock, FrameSchedule, RealInterval, RealTime, SLOTS_PER_FRAME};
use mmhew_topology::{Link, Network, NodeId};
use mmhew_util::SeedTree;
use serde::Serialize;

/// Result of an asynchronous run.
#[derive(Debug, Clone, Serialize)]
pub struct AsyncOutcome {
    completed: bool,
    completion_time: Option<RealTime>,
    latest_start: RealTime,
    frames_executed: Vec<u64>,
    min_full_frames_at_completion: Option<u64>,
    link_coverage: Vec<(Link, Option<RealTime>)>,
    tables: Vec<NeighborTable>,
    deliveries: u64,
    impairment_losses: u64,
    beacon_losses: u64,
    jam_losses: u64,
    action_counts: Vec<ActionCounts>,
}

impl AsyncOutcome {
    /// True if every link was covered within the frame budget.
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// Real time at which the last link was first covered.
    pub fn completion_time(&self) -> Option<RealTime> {
        self.completion_time
    }

    /// The latest protocol start time `T_s`.
    pub fn latest_start(&self) -> RealTime {
        self.latest_start
    }

    /// Frames fully executed per node.
    pub fn frames_executed(&self) -> &[u64] {
        &self.frames_executed
    }

    /// The minimum, over nodes, of full frames executed between `T_s` and
    /// completion — the measured analogue of the `M` frames Theorem 9
    /// requires of *every* node. `None` if incomplete.
    pub fn min_full_frames_at_completion(&self) -> Option<u64> {
        self.min_full_frames_at_completion
    }

    /// First-coverage real time per link.
    pub fn link_coverage(&self) -> &[(Link, Option<RealTime>)] {
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

    /// Total clear deliveries.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Clear receptions dropped by channel impairments.
    pub fn impairment_losses(&self) -> u64 {
        self.impairment_losses
    }

    /// Clear receptions destroyed by the fault plan's link loss models.
    /// Zero without faults.
    pub fn beacon_losses(&self) -> u64 {
        self.beacon_losses
    }

    /// Receptions suppressed because a jammer overlapped their burst.
    /// Zero without faults.
    pub fn jam_losses(&self) -> u64 {
        self.jam_losses
    }

    /// Per-node frame action counts (transmit/listen frames), for energy
    /// accounting.
    pub fn action_counts(&self) -> &[ActionCounts] {
        &self.action_counts
    }

    /// Total energy spent across the network under `model` (per-frame
    /// costs).
    pub fn total_energy(&self, model: &EnergyModel) -> f64 {
        model.total_cost(&self.action_counts)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Resolve a finished frame (receptions delivered here). Sorts before
    /// `FrameStart` at the same instant.
    FrameEnd = 0,
    /// Ask the protocol for its next frame action.
    FrameStart = 1,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: RealTime,
    kind: EventKind,
    node: u32,
    frame: u64,
}

/// No pending event: greater than every packed key, whose bits 33–63 are
/// always zero.
const NO_EVENT: u128 = u128::MAX;

/// Each node's one pending event, and a complete binary tree of minima
/// over them.
///
/// Events are ordered by `(time, kind, node)` packed into one `u128`
/// (`time << 64 | kind << 32 | node`), so one integer compare decides.
/// No node holds two events with the same `(time, kind)`, so the frame
/// never breaks a tie; it is kept beside the key.
struct FrameQueue {
    /// `tree[leaves + i]` is node `i`'s key; `tree[k]` for `1 ≤ k < leaves`
    /// is the smaller of `tree[2k]` and `tree[2k + 1]`, so `tree[1]` is the
    /// least key of all.
    tree: Vec<u128>,
    leaves: usize,
    /// The frame of each node's pending event.
    frames: Vec<u64>,
}

impl FrameQueue {
    fn new(n: usize) -> Self {
        let leaves = n.max(1);
        Self {
            tree: vec![NO_EVENT; 2 * leaves],
            leaves,
            frames: vec![0; n],
        }
    }

    /// The least pending event.
    fn peek(&self) -> Option<Event> {
        let key = self.tree[1];
        if key == NO_EVENT {
            return None;
        }
        let node = key as u32;
        Some(Event {
            time: RealTime::from_nanos((key >> 64) as u64),
            kind: if (key >> 32) & 1 == 0 {
                EventKind::FrameEnd
            } else {
                EventKind::FrameStart
            },
            node,
            frame: self.frames[node as usize],
        })
    }

    /// Makes `event` its node's pending event, replacing any other.
    fn set(&mut self, event: Event) {
        self.frames[event.node as usize] = event.frame;
        let key = (u128::from(event.time.as_nanos()) << 64)
            | ((event.kind as u128) << 32)
            | u128::from(event.node);
        self.update(event.node, key);
    }

    /// Leaves `node` with no pending event.
    fn clear(&mut self, node: u32) {
        self.update(node, NO_EVENT);
    }

    fn update(&mut self, node: u32, key: u128) {
        let mut k = self.leaves + node as usize;
        self.tree[k] = key;
        // Each level reloads both children. Carrying the running minimum in
        // a register instead makes LLVM compile the `u128` minimum to a
        // data-dependent branch, which mispredicts.
        while k > 1 {
            k /= 2;
            self.tree[k] = self.tree[2 * k].min(self.tree[2 * k + 1]);
        }
    }
}

struct NodeState {
    clock: DriftedClock,
    schedule: FrameSchedule,
    pending_listen: Option<ListenWindow>,
    frames_executed: u64,
}

/// The asynchronous engine.
///
/// Constructed via [`AsyncEngine::new`] from an [`AsyncRunConfig`] (clocks
/// and start times are materialized from the seed) and consumed by
/// [`AsyncEngine::run`].
pub struct AsyncEngine<'n> {
    world: World<'n, RealTime>,
    protocols: Vec<Box<dyn AsyncProtocol>>,
    nodes: Vec<NodeState>,
    starts: Vec<RealTime>,
    queue: FrameQueue,
    /// Every live burst, one row per transmitter; a row drops its dead
    /// bursts when its node starts a transmit frame (see the module doc).
    bursts: BurstLog,
    config: AsyncRunConfig,
    /// Continuous-time medium resolution with persistent scratch.
    resolver: ContinuousResolver,
}

impl<'n> AsyncEngine<'n> {
    /// Creates an engine, materializing clocks and start times from
    /// `config` and `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `protocols` length differs from the node count, the frame
    /// length is not divisible by [`SLOTS_PER_FRAME`], or the drift model
    /// admits a drift above 1/2 (its frames could outlast the `2L` horizon
    /// after which bursts are dropped; see the module doc).
    pub fn new(
        network: &'n Network,
        protocols: Vec<Box<dyn AsyncProtocol>>,
        config: AsyncRunConfig,
        seed: SeedTree,
    ) -> Self {
        let n = network.node_count();
        assert_eq!(protocols.len(), n, "one protocol per node required");
        let bound = config.clocks.drift.bound();
        assert!(
            bound.num() <= bound.den() / 2,
            "clock drift must be at most 1/2"
        );
        let clocks = config.clocks.materialize(n, seed.branch("clocks"));
        let starts = config.starts.materialize(n, seed.branch("starts"));
        let mut queue = FrameQueue::new(n);
        let mut nodes = Vec::with_capacity(n);
        for (i, mut clock) in clocks.into_iter().enumerate() {
            let start_local = clock.local_at(starts[i]);
            let schedule = FrameSchedule::new(start_local, config.frame_len);
            let first = schedule.frame_interval(0, &mut clock);
            if config.max_frames > 0 {
                queue.set(Event {
                    time: first.start(),
                    kind: EventKind::FrameStart,
                    node: i as u32,
                    frame: 0,
                });
            }
            nodes.push(NodeState {
                clock,
                schedule,
                pending_listen: None,
                frames_executed: 0,
            });
        }
        Self {
            world: World::new(network, &seed),
            protocols,
            nodes,
            starts,
            queue,
            bursts: BurstLog::new(n),
            config,
            resolver: ContinuousResolver::new(),
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

    /// Attaches a [`DynamicsSchedule`]: due events (interpreting `at` as
    /// real nanoseconds) are applied at frame-start boundaries, before the
    /// starting node's protocol is consulted. An empty schedule leaves the
    /// run bit-identical to a run without one (dynamics neutrality).
    pub fn with_dynamics(mut self, schedule: DynamicsSchedule) -> Self {
        self.world.dynamics = Some(schedule);
        self
    }

    /// Attaches a [`FaultPlan`]: link loss models, jammer schedules
    /// (matched against each burst's real-time interval), and
    /// crash/recover outages. The capture effect is a slot-synchronous
    /// concept and is not modelled here.
    ///
    /// An empty plan is dropped on the floor so the run stays
    /// bit-identical — outcomes, RNG stream, and traces — to a run
    /// without faults (fault neutrality).
    ///
    /// Crash state is sampled at frame boundaries: a node crashed when
    /// its transmit frame starts radiates nothing that frame, and a node
    /// crashed when its listen frame ends hears nothing from it.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.world.set_faults(plan);
        self
    }

    /// The network as of the last applied dynamics event (the original
    /// borrow while no event has fired).
    pub fn network(&self) -> &Network {
        &self.world.network
    }

    /// Runs to completion or budget exhaustion.
    ///
    /// With a dynamics schedule attached, `stop_when_complete` only fires
    /// once the schedule is exhausted — a transiently complete (or empty)
    /// ground truth with mutations still pending is not the end of the
    /// story.
    pub fn run(mut self) -> AsyncOutcome {
        while let Some(event) = self.queue.peek() {
            match event.kind {
                EventKind::FrameStart => self.on_frame_start(event),
                EventKind::FrameEnd => {
                    self.on_frame_end(event);
                    if self.config.stop_when_complete
                        && self.world.tracker.is_complete()
                        && !self.world.dynamics_pending()
                    {
                        break;
                    }
                }
            }
        }
        self.finish()
    }

    /// Starts frame `event.frame`; the node's pending event becomes that
    /// frame's end.
    fn on_frame_start(&mut self, event: Event) {
        let at = Stamp::Real(event.time);
        self.world.apply_due_dynamics(at);
        self.world.advance_faults(at);
        let i = event.node as usize;
        let f = event.frame;
        if self.protocols[i].is_terminated() {
            // The node shut itself down: schedule nothing further; its
            // radio stays off for the rest of the run.
            self.queue.clear(event.node);
            return;
        }
        let state = &mut self.nodes[i];
        // Frame f's start was projected when this event was queued (frame
        // f−1's end, or frame 0's own start), so only its end is projected.
        let end = state
            .clock
            .real_when_local_reaches(state.schedule.frame_start_local(f + 1));
        let interval = RealInterval::new(event.time, end);
        debug_assert_eq!(interval, state.schedule.frame_interval(f, &mut state.clock));
        let action = self.protocols[i].on_frame(f, &mut self.world.node_rngs[i]);
        // Under dynamics a protocol may lag behind a spectrum mutation and
        // transmit on a channel it just lost; the medium simply never
        // delivers it. Statically that is a protocol bug.
        debug_assert!(
            self.world.dynamics.is_some()
                || self
                    .world
                    .network
                    .available(NodeId::new(event.node))
                    .contains(action.channel()),
            "protocol chose a channel outside its available set"
        );
        if let Some(sink) = self.world.obs.sink() {
            let local = state.schedule.frame_start_local(f);
            let node = NodeId::new(event.node);
            let slot_action = match action {
                FrameAction::Transmit { channel } => SlotAction::Transmit { channel },
                FrameAction::Listen { channel } => SlotAction::Listen { channel },
            };
            sink.on_event(&SimEvent::FrameStart {
                node,
                frame: f,
                real: interval.start(),
                local,
            });
            sink.on_event(&SimEvent::Action {
                at,
                node,
                action: slot_action,
            });
        }
        // A crashed radio still burns the frame (the protocol acted and is
        // charged for it) but puts nothing on the medium and arms no
        // listening window.
        let crashed = self
            .world
            .faults
            .as_ref()
            .is_some_and(|fa| fa.is_crashed(NodeId::new(event.node)));
        match action {
            FrameAction::Transmit { channel } => {
                self.world.action_counts[i].transmit += 1;
                if !crashed {
                    let from = NodeId::new(event.node);
                    // Bursts that ended 2L before this frame are dead to
                    // every window still open (see the module doc).
                    let horizon = self.config.frame_len.as_nanos().saturating_mul(2);
                    let cutoff = interval.start().as_nanos().saturating_sub(horizon);
                    self.bursts
                        .retain_ending_after(from, RealTime::from_nanos(cutoff));
                    let mut push = |interval| {
                        self.bursts.push(Transmission {
                            from,
                            channel,
                            interval,
                        });
                    };
                    match self.config.burst_plan {
                        BurstPlan::EverySlot => {
                            let slots =
                                state.schedule.slot_intervals(f, interval, &mut state.clock);
                            slots.into_iter().for_each(push);
                        }
                        BurstPlan::SingleSlot { slot } => {
                            let slots =
                                state.schedule.slot_intervals(f, interval, &mut state.clock);
                            push(slots[slot.min(SLOTS_PER_FRAME - 1) as usize]);
                        }
                        BurstPlan::WholeFrame => push(interval),
                    }
                }
            }
            FrameAction::Listen { channel } => {
                self.world.action_counts[i].listen += 1;
                if !crashed {
                    state.pending_listen = Some(ListenWindow {
                        listener: NodeId::new(event.node),
                        channel,
                        interval,
                    });
                }
            }
        }
        self.queue.set(Event {
            time: interval.end(),
            kind: EventKind::FrameEnd,
            node: event.node,
            frame: f,
        });
        self.world
            .obs
            .poll_phases(at, i..i + 1, |i| self.protocols[i].phase());
    }

    /// Resolves frame `event.frame`; the node's pending event becomes the
    /// next frame's start, at the same instant, or none once `max_frames`
    /// frames have run.
    fn on_frame_end(&mut self, event: Event) {
        let at = Stamp::Real(event.time);
        self.world.advance_faults(at);
        let i = event.node as usize;
        let to = NodeId::new(event.node);
        self.nodes[i].frames_executed = event.frame + 1;
        if event.frame + 1 < self.config.max_frames {
            self.queue.set(Event {
                kind: EventKind::FrameStart,
                frame: event.frame + 1,
                ..event
            });
        } else {
            self.queue.clear(event.node);
        }
        if let Some(sink) = self.world.obs.sink() {
            sink.on_event(&SimEvent::FrameEnd {
                node: to,
                frame: event.frame,
                real: event.time,
                local: self.nodes[i].schedule.frame_start_local(event.frame + 1),
            });
        }
        let world = &mut self.world;
        let listener_crashed = world.faults.as_ref().is_some_and(|fa| fa.is_crashed(to));
        // A window whose radio died while listening resolves to nothing
        // (and its would-be receptions are not tallied).
        let window = self.nodes[i].pending_listen.take();
        if let Some(window) = window.filter(|_| !listener_crashed) {
            if let Some(faults) = world.faults.as_mut() {
                faults.begin_resolution();
            }
            self.resolver.resolve(&world.network, &window, &self.bursts);
            for &r in self.resolver.receptions() {
                if let Some(faults) = world.faults.as_mut() {
                    if faults.is_jammed_in(
                        window.channel,
                        r.burst.start().as_nanos(),
                        r.burst.end().as_nanos(),
                    ) {
                        world.jam_losses += 1;
                        if let Some(sink) = world.obs.sink() {
                            sink.on_event(&SimEvent::SlotJammed {
                                at,
                                channel: window.channel,
                                losses: 1,
                            });
                        }
                        continue;
                    }
                    if !faults.link_delivers(r.from, to, &mut world.medium_rng) {
                        world.beacon_losses += 1;
                        if let Some(sink) = world.obs.sink() {
                            sink.on_event(&SimEvent::BeaconLost {
                                at,
                                from: r.from,
                                to,
                            });
                        }
                        continue;
                    }
                }
                if self.config.impairments.delivers(&mut world.medium_rng) {
                    let link = Link { from: r.from, to };
                    let heard = r.burst.end();
                    world.deliver(link, window.channel, heard, Stamp::Real(heard), |b, c| {
                        self.protocols[i].on_beacon(b, c)
                    });
                } else {
                    world.impairment_losses += 1;
                    if let Some(sink) = world.obs.sink() {
                        sink.on_event(&SimEvent::ImpairmentLoss { at, count: 1 });
                    }
                }
            }
        }
        self.world
            .obs
            .poll_phases(at, i..i + 1, |i| self.protocols[i].phase());
    }

    fn finish(mut self) -> AsyncOutcome {
        let latest_start = self.starts.iter().copied().max().unwrap_or(RealTime::ZERO);
        let completion_time = self.world.tracker.completion_time();
        let min_full_frames = completion_time.map(|tc| {
            (0..self.nodes.len())
                .map(|i| {
                    let state = &mut self.nodes[i];
                    let k0 = state
                        .schedule
                        .first_full_frame_after(latest_start, &mut state.clock);
                    let local_tc = state.clock.local_at(tc);
                    let sched_start = state.schedule.start_local();
                    if local_tc <= sched_start {
                        return 0;
                    }
                    let elapsed = local_tc.as_nanos() - sched_start.as_nanos();
                    let last_full_end = elapsed / state.schedule.frame_len().as_nanos();
                    last_full_end.saturating_sub(k0)
                })
                .min()
                .unwrap_or(0)
        });
        let world = self.world;
        AsyncOutcome {
            completed: world.tracker.is_complete(),
            completion_time,
            latest_start,
            frames_executed: self.nodes.iter().map(|s| s.frames_executed).collect(),
            min_full_frames_at_completion: min_full_frames,
            link_coverage: world.tracker.per_link().collect(),
            // By value: each protocol, and with it its own table, is
            // dropped as soon as its copy is made, so the run never holds
            // two copies of every table.
            tables: self
                .protocols
                .into_iter()
                .map(|p| p.table().clone())
                .collect(),
            deliveries: world.deliveries,
            impairment_losses: world.impairment_losses,
            beacon_losses: world.beacon_losses,
            jam_losses: world.jam_losses,
            action_counts: world.action_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AsyncStartSchedule, ClockConfig};
    use mmhew_radio::Beacon;
    use mmhew_spectrum::{ChannelId, ChannelSet};
    use mmhew_time::{DriftBound, DriftModel, LocalDuration, RealDuration};
    use mmhew_topology::NetworkBuilder;
    use mmhew_util::Xoshiro256StarStar;
    use rand::Rng;
    use std::collections::BTreeSet;

    /// Transmits on even frames, listens on odd frames (or the reverse), on
    /// a fixed channel.
    struct FrameAlternator {
        even_tx: bool,
        channel: ChannelId,
        own: ChannelSet,
        table: NeighborTable,
    }

    impl FrameAlternator {
        fn boxed(even_tx: bool, own: ChannelSet) -> Box<dyn AsyncProtocol> {
            Box::new(Self {
                even_tx,
                channel: ChannelId::new(0),
                own,
                table: NeighborTable::new(),
            })
        }
    }

    impl AsyncProtocol for FrameAlternator {
        fn on_frame(&mut self, frame: u64, _rng: &mut Xoshiro256StarStar) -> FrameAction {
            if frame.is_multiple_of(2) == self.even_tx {
                FrameAction::Transmit {
                    channel: self.channel,
                }
            } else {
                FrameAction::Listen {
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

    fn run_two_nodes(config: AsyncRunConfig, seed: u64) -> AsyncOutcome {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let engine = AsyncEngine::new(
            &net,
            vec![
                FrameAlternator::boxed(true, ChannelSet::full(1)),
                FrameAlternator::boxed(false, ChannelSet::full(1)),
            ],
            config,
            SeedTree::new(seed),
        );
        engine.run()
    }

    #[test]
    fn ideal_clocks_identical_starts_complete_in_two_frames() {
        let out = run_two_nodes(AsyncRunConfig::until_complete(100), 1);
        assert!(out.completed());
        // Frame 0: node 0 transmits, node 1 listens -> (0,1) covered by the
        // first burst; frame 1 reverses.
        let tc = out.completion_time().expect("complete");
        assert!(tc.as_nanos() <= 2 * 3_000, "completed at {tc}");
        assert_eq!(
            out.table(n(1)).to_sorted_vec(),
            vec![(n(0), ChannelSet::full(1))]
        );
        assert_eq!(
            out.table(n(0)).to_sorted_vec(),
            vec![(n(1), ChannelSet::full(1))]
        );
        assert!(out.deliveries() >= 2);
    }

    #[test]
    fn budget_exhaustion_incomplete() {
        // Both nodes transmit on even frames and listen on odd: with ideal
        // clocks and identical starts they are always in the same mode, so
        // nothing is ever heard.
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let engine = AsyncEngine::new(
            &net,
            vec![
                FrameAlternator::boxed(true, ChannelSet::full(1)),
                FrameAlternator::boxed(true, ChannelSet::full(1)),
            ],
            AsyncRunConfig::until_complete(50),
            SeedTree::new(1),
        );
        let out = engine.run();
        assert!(!out.completed());
        assert_eq!(out.completion_time(), None);
        assert_eq!(out.frames_executed(), &[50, 50]);
        assert_eq!(out.min_full_frames_at_completion(), None);
    }

    #[test]
    fn misaligned_same_mode_nodes_hear_each_other() {
        // Same always-conflicting protocols as above, but node 1 starts
        // half a frame later: its listening frames now straddle node 0's
        // transmitting frames, and slots within them are heard.
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let config =
            AsyncRunConfig::until_complete(100).with_starts(AsyncStartSchedule::Explicit(vec![
                RealTime::ZERO,
                RealTime::from_nanos(1_500),
            ]));
        let engine = AsyncEngine::new(
            &net,
            vec![
                FrameAlternator::boxed(true, ChannelSet::full(1)),
                FrameAlternator::boxed(true, ChannelSet::full(1)),
            ],
            config,
            SeedTree::new(1),
        );
        let out = engine.run();
        assert!(out.completed(), "offset starts must break the symmetry");
    }

    #[test]
    fn drifted_clocks_still_complete() {
        let config = AsyncRunConfig::until_complete(2_000).with_clocks(ClockConfig {
            drift: DriftModel::RandomPiecewise {
                bound: DriftBound::PAPER,
                segment: RealDuration::from_nanos(7_000),
            },
            offset_window: LocalDuration::from_nanos(9_000),
        });
        let out = run_two_nodes(config, 3);
        assert!(out.completed());
    }

    #[test]
    fn min_full_frames_counts_from_latest_start() {
        let config =
            AsyncRunConfig::until_complete(1_000).with_starts(AsyncStartSchedule::Explicit(vec![
                RealTime::ZERO,
                RealTime::from_nanos(30_000), // 10 frames late
            ]));
        let out = run_two_nodes(config, 2);
        assert!(out.completed());
        assert_eq!(out.latest_start(), RealTime::from_nanos(30_000));
        let m = out.min_full_frames_at_completion().expect("complete");
        // Completion must occur within a few frames of the late start.
        assert!(m <= 4, "took {m} frames after T_s");
        let tc = out.completion_time().expect("complete");
        assert!(tc > out.latest_start(), "cannot complete before T_s");
    }

    #[test]
    fn determinism() {
        let config = AsyncRunConfig::until_complete(500).with_clocks(ClockConfig {
            drift: DriftModel::RandomPiecewise {
                bound: DriftBound::PAPER,
                segment: RealDuration::from_nanos(5_000),
            },
            offset_window: LocalDuration::from_nanos(4_000),
        });
        let a = run_two_nodes(config.clone(), 9);
        let b = run_two_nodes(config, 9);
        assert_eq!(a.completion_time(), b.completion_time());
        assert_eq!(a.link_coverage(), b.link_coverage());
        assert_eq!(a.deliveries(), b.deliveries());
    }

    #[test]
    fn burst_pruning_does_not_lose_live_receptions() {
        // Node 0 alternates tx/listen from time 0 for 3000 frames before
        // node 1 starts, its log row dropping dead bursts at every transmit
        // frame. If that ever dropped live bursts, completion right after
        // the late start would fail.
        let config =
            AsyncRunConfig::until_complete(10_000).with_starts(AsyncStartSchedule::Explicit(vec![
                RealTime::ZERO,
                RealTime::from_nanos(3_000 * 3_000),
            ]));
        let out = run_two_nodes(config, 4);
        assert!(out.completed());
        let m = out.min_full_frames_at_completion().expect("complete");
        assert!(
            m <= 4,
            "should complete within a few frames of T_s, took {m}"
        );
    }

    #[test]
    fn slow_listener_hears_bursts_older_than_one_frame() {
        // Node 1's clock runs at rate 1/2 (drift 1/2, the largest allowed),
        // so its first listening window spans [500, 6500): twice the frame
        // length. Node 0 (ideal) transmits in frames 0 and 2; its slot
        // burst [1000, 2000) is the first one inside that window. When
        // node 0 starts frame 2 at 6000 the window is still open, so its
        // row must keep bursts that ended up to 2L earlier — a one-frame
        // horizon would drop the burst before the window resolves.
        use mmhew_time::{LocalTime, Rate};
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let mut config =
            AsyncRunConfig::until_complete(3).with_starts(AsyncStartSchedule::Explicit(vec![
                RealTime::ZERO,
                RealTime::from_nanos(500),
            ]));
        config.stop_when_complete = false;
        let mut engine = AsyncEngine::new(
            &net,
            vec![
                FrameAlternator::boxed(true, ChannelSet::full(1)),
                FrameAlternator::boxed(false, ChannelSet::full(1)),
            ],
            config,
            SeedTree::new(1),
        );
        // Slow node 1 down before its first frame. Its clock reads 500 at
        // real 500, as the ideal one did, so the frame schedule and first
        // event `new` derived from that clock still hold.
        engine.nodes[1].clock = DriftedClock::new(
            DriftModel::Constant(Rate::new(1, 2)),
            LocalTime::from_nanos(250),
            SeedTree::new(0),
        );
        let out = engine.run();
        let heard = out
            .link_coverage()
            .iter()
            .find(|(link, _)| link.from == n(0) && link.to == n(1))
            .and_then(|&(_, at)| at);
        assert_eq!(heard, Some(RealTime::from_nanos(2_000)));
    }

    /// Transmits or listens on channel 0 by a fair coin from the node's
    /// own stream.
    struct CoinFlipper {
        table: NeighborTable,
    }

    impl AsyncProtocol for CoinFlipper {
        fn on_frame(&mut self, _frame: u64, rng: &mut Xoshiro256StarStar) -> FrameAction {
            let channel = ChannelId::new(0);
            if rng.gen_bool(0.5) {
                FrameAction::Transmit { channel }
            } else {
                FrameAction::Listen { channel }
            }
        }

        fn on_beacon(&mut self, beacon: &Beacon, _channel: ChannelId) {
            self.table
                .record(beacon.sender(), beacon.available().to_owned());
        }

        fn table(&self) -> &NeighborTable {
            &self.table
        }
    }

    #[test]
    fn log_rows_stay_within_the_dead_burst_horizon() {
        // A node's row is trimmed when it starts a transmit frame at `s`
        // and then gains that frame's S = SLOTS_PER_FRAME bursts. A kept
        // burst ended after s − 2L, so its frame ended in (s − 2L, s].
        // Frames run back to back and each lasts at least L/(1+δ) of real
        // time, so at most ⌈2(1+δ)⌉ earlier frames end in that span — 3 at
        // δ = 1/7. Hence no row ever exceeds S·(1 + ⌈2(1+δ)⌉) = 12 bursts.
        let delta = DriftBound::PAPER;
        let earlier_frames = (2 * (delta.den() + delta.num())).div_ceil(delta.den());
        let bound = (SLOTS_PER_FRAME * (1 + earlier_frames)) as usize;
        assert_eq!(bound, 12);

        let net = NetworkBuilder::grid(4, 4)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let mut config = AsyncRunConfig::until_complete(4_000).with_clocks(ClockConfig {
            drift: DriftModel::RandomPiecewise {
                bound: delta,
                segment: RealDuration::from_nanos(7_000),
            },
            offset_window: LocalDuration::from_nanos(30_000),
        });
        config.stop_when_complete = false;
        let protocols = (0..net.node_count())
            .map(|_| {
                Box::new(CoinFlipper {
                    table: NeighborTable::new(),
                }) as Box<dyn AsyncProtocol>
            })
            .collect();
        let mut engine = AsyncEngine::new(&net, protocols, config, SeedTree::new(5));
        let mut longest = 0;
        while let Some(event) = engine.queue.peek() {
            match event.kind {
                EventKind::FrameStart => engine.on_frame_start(event),
                EventKind::FrameEnd => engine.on_frame_end(event),
            }
            for v in 0..net.node_count() {
                longest = longest.max(engine.bursts.row(n(v as u32)).len());
            }
        }
        assert!(longest <= bound, "a row held {longest} bursts");
        // Rows do keep earlier frames: the trim is not stricter than the
        // horizon, and the run was long enough to reach the bound.
        assert!(
            longest > 2 * SLOTS_PER_FRAME as usize,
            "longest row {longest}"
        );
        assert!(engine.world.deliveries > 0);
    }

    #[test]
    fn frames_reuse_their_projected_boundaries() {
        // Each frame starts at its event's time, listening windows span the
        // frame's projected interval, and every burst a transmit frame logs
        // equals the slot (or frame) interval projected from scratch on a
        // clone of the node's clock.
        let net = NetworkBuilder::grid(4, 4)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let plans = [
            BurstPlan::EverySlot,
            BurstPlan::SingleSlot { slot: 0 },
            BurstPlan::SingleSlot { slot: 1 },
            BurstPlan::SingleSlot { slot: 2 },
            BurstPlan::WholeFrame,
        ];
        for delta in [DriftBound::PAPER, DriftBound::new(1, 2)] {
            for plan in plans {
                let mut config = AsyncRunConfig::until_complete(200)
                    .with_clocks(ClockConfig {
                        drift: DriftModel::RandomPiecewise {
                            bound: delta,
                            segment: RealDuration::from_nanos(7_000),
                        },
                        offset_window: LocalDuration::from_nanos(30_000),
                    })
                    .with_burst_plan(plan);
                config.stop_when_complete = false;
                let protocols = (0..net.node_count())
                    .map(|_| {
                        Box::new(CoinFlipper {
                            table: NeighborTable::new(),
                        }) as Box<dyn AsyncProtocol>
                    })
                    .collect();
                let mut engine = AsyncEngine::new(&net, protocols, config, SeedTree::new(7));
                let mut transmit_frames = 0;
                while let Some(event) = engine.queue.peek() {
                    if event.kind == EventKind::FrameEnd {
                        engine.on_frame_end(event);
                        continue;
                    }
                    let (i, f) = (event.node as usize, event.frame);
                    let schedule = engine.nodes[i].schedule;
                    let mut clock = engine.nodes[i].clock.clone();
                    let transmitted = engine.world.action_counts[i].transmit;
                    engine.on_frame_start(event);
                    let frame = schedule.frame_interval(f, &mut clock);
                    let context = format!("{delta} {plan:?} node {i} frame {f}");
                    assert_eq!(frame.start(), event.time, "{context}");
                    if engine.world.action_counts[i].transmit == transmitted {
                        let window = engine.nodes[i].pending_listen.expect("listening");
                        assert_eq!(window.interval, frame, "{context}");
                        continue;
                    }
                    transmit_frames += 1;
                    let want: Vec<RealInterval> = match plan {
                        BurstPlan::EverySlot => (0..SLOTS_PER_FRAME)
                            .map(|k| schedule.slot_interval(f, k, &mut clock))
                            .collect(),
                        BurstPlan::SingleSlot { slot } => {
                            vec![schedule.slot_interval(f, slot, &mut clock)]
                        }
                        BurstPlan::WholeFrame => vec![frame],
                    };
                    let row = engine.bursts.row(n(event.node));
                    let logged: Vec<RealInterval> = row[row.len() - want.len()..]
                        .iter()
                        .map(|b| b.interval)
                        .collect();
                    assert_eq!(logged, want, "{context}");
                }
                assert!(transmit_frames > 0, "{delta} {plan:?}");
            }
        }
    }

    #[test]
    fn action_counts_cover_all_frames() {
        let out = run_two_nodes(
            AsyncRunConfig::until_complete(50).with_starts(AsyncStartSchedule::Explicit(vec![
                RealTime::ZERO,
                RealTime::ZERO,
            ])),
            1,
        );
        for c in out.action_counts() {
            assert_eq!(
                c.transmit + c.listen,
                out.frames_executed()[0].min(c.total())
            );
            assert!(c.total() > 0);
        }
        assert!(out.total_energy(&crate::energy::EnergyModel::default()) > 0.0);
    }

    #[test]
    fn whole_frame_beacon_fails_on_misaligned_equal_clocks() {
        // Ideal clocks, equal frame lengths, node 1 offset by half a
        // frame: a beacon spanning node 0's whole frame can never lie
        // inside any single frame of node 1, so the WholeFrame ablation
        // must never discover anything — demonstrating why Algorithm 4
        // subdivides frames into repeated slot bursts.
        let starts =
            AsyncStartSchedule::Explicit(vec![RealTime::ZERO, RealTime::from_nanos(1_500)]);
        let base = AsyncRunConfig::until_complete(300).with_starts(starts);

        let whole = run_two_nodes(base.clone().with_burst_plan(BurstPlan::WholeFrame), 3);
        assert!(!whole.completed(), "whole-frame beacon should never fit");
        assert_eq!(whole.deliveries(), 0);

        let repeated = run_two_nodes(base.with_burst_plan(BurstPlan::EverySlot), 3);
        assert!(repeated.completed(), "the paper's design succeeds");
    }

    #[test]
    fn single_slot_burst_still_completes_but_with_fewer_opportunities() {
        // A one-third-frame offset puts the middle slot of each
        // transmitter inside the other's listening window in both
        // directions (offset 1000 of a 3000ns frame: slot 1 spans
        // [1000,2000) ⊆ [1000,4000) one way and [5000,6000) ⊆ [3000,6000)
        // the other).
        let starts =
            AsyncStartSchedule::Explicit(vec![RealTime::ZERO, RealTime::from_nanos(1_000)]);
        let out = run_two_nodes(
            AsyncRunConfig::until_complete(5_000)
                .with_starts(starts)
                .with_burst_plan(BurstPlan::SingleSlot { slot: 1 }),
            5,
        );
        assert!(out.completed());
    }

    #[test]
    fn dynamics_rewire_ground_truth_mid_run() {
        use mmhew_dynamics::TimedEvent;
        use mmhew_topology::NetworkEvent;

        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        // The link vanishes before the first frame fires and returns at
        // t = 30µs (frame 10 with ideal clocks); completion must postdate
        // the re-add.
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
                30_000,
                NetworkEvent::EdgeAdd {
                    from: n(0),
                    to: n(1),
                },
            ),
            TimedEvent::new(
                30_000,
                NetworkEvent::EdgeAdd {
                    from: n(1),
                    to: n(0),
                },
            ),
        ]);
        let engine = AsyncEngine::new(
            &net,
            vec![
                FrameAlternator::boxed(true, ChannelSet::full(1)),
                FrameAlternator::boxed(false, ChannelSet::full(1)),
            ],
            AsyncRunConfig::until_complete(100),
            SeedTree::new(1),
        )
        .with_dynamics(schedule);
        let out = engine.run();
        assert!(out.completed());
        let tc = out.completion_time().expect("complete");
        assert!(
            tc >= RealTime::from_nanos(30_000),
            "covered a link that did not exist yet: {tc}"
        );
    }

    #[test]
    fn channel_gain_refreshes_the_beacon_listeners_hear() {
        use mmhew_dynamics::TimedEvent;
        use mmhew_spectrum::AvailabilityModel;
        use mmhew_topology::NetworkEvent;

        // A(0) = {0, 1}, A(1) = {0, 2}: node 1 first records {0} for node
        // 0. Node 0 gains channel 2 at t = 30µs; every beacon it sends
        // after that boundary carries {0, 1, 2}, so node 1's entry must
        // grow to {0, 2}.
        let net = NetworkBuilder::line(2)
            .universe(3)
            .availability(AvailabilityModel::PairwiseOverlap {
                shared: 1,
                private: 1,
            })
            .build(SeedTree::new(0))
            .expect("build");
        let set = |channels: &[u16]| -> ChannelSet {
            channels.iter().map(|&c| ChannelId::new(c)).collect()
        };
        let schedule = DynamicsSchedule::new(vec![TimedEvent::new(
            30_000,
            NetworkEvent::ChannelGained {
                node: n(0),
                channel: ChannelId::new(2),
            },
        )]);
        let mut config = AsyncRunConfig::until_complete(100);
        config.stop_when_complete = false;
        let out = AsyncEngine::new(
            &net,
            vec![
                FrameAlternator::boxed(true, set(&[0, 1])),
                FrameAlternator::boxed(false, set(&[0, 2])),
            ],
            config,
            SeedTree::new(1),
        )
        .with_dynamics(schedule)
        .run();
        assert_eq!(out.table(n(1)).to_sorted_vec(), vec![(n(0), set(&[0, 2]))]);
    }

    #[test]
    fn empty_dynamics_schedule_is_neutral() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let mk = |dynamics: bool| {
            let engine = AsyncEngine::new(
                &net,
                vec![
                    FrameAlternator::boxed(true, ChannelSet::full(1)),
                    FrameAlternator::boxed(false, ChannelSet::full(1)),
                ],
                AsyncRunConfig::until_complete(100),
                SeedTree::new(9),
            );
            let engine = if dynamics {
                engine.with_dynamics(DynamicsSchedule::empty())
            } else {
                engine
            };
            engine.run()
        };
        let plain = mk(false);
        let frozen = mk(true);
        assert_eq!(plain.completion_time(), frozen.completion_time());
        assert_eq!(plain.link_coverage(), frozen.link_coverage());
        assert_eq!(plain.deliveries(), frozen.deliveries());
        assert_eq!(plain.action_counts(), frozen.action_counts());
    }

    #[test]
    fn empty_fault_plan_is_neutral() {
        let mk = |faults: bool| {
            let net = NetworkBuilder::line(2)
                .universe(1)
                .build(SeedTree::new(0))
                .expect("build");
            let engine = AsyncEngine::new(
                &net,
                vec![
                    FrameAlternator::boxed(true, ChannelSet::full(1)),
                    FrameAlternator::boxed(false, ChannelSet::full(1)),
                ],
                AsyncRunConfig::until_complete(100)
                    .with_impairments(mmhew_radio::Impairments::with_delivery_probability(0.7)),
                SeedTree::new(9),
            );
            let engine = if faults {
                engine.with_faults(FaultPlan::new())
            } else {
                engine
            };
            engine.run()
        };
        let plain = mk(false);
        let faulted = mk(true);
        assert_eq!(plain.completion_time(), faulted.completion_time());
        assert_eq!(plain.link_coverage(), faulted.link_coverage());
        assert_eq!(plain.deliveries(), faulted.deliveries());
        assert_eq!(plain.impairment_losses(), faulted.impairment_losses());
        assert_eq!(faulted.beacon_losses(), 0);
        assert_eq!(faulted.jam_losses(), 0);
    }

    #[test]
    fn dead_links_block_async_discovery() {
        use mmhew_faults::LinkLossModel;
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let mut cfg = AsyncRunConfig::until_complete(50);
        cfg.stop_when_complete = false;
        let engine = AsyncEngine::new(
            &net,
            vec![
                FrameAlternator::boxed(true, ChannelSet::full(1)),
                FrameAlternator::boxed(false, ChannelSet::full(1)),
            ],
            cfg,
            SeedTree::new(1),
        )
        .with_faults(
            FaultPlan::new().with_default_loss(LinkLossModel::Bernoulli {
                delivery_probability: 0.0,
            }),
        );
        let out = engine.run();
        assert!(!out.completed());
        assert_eq!(out.deliveries(), 0);
        assert!(out.beacon_losses() > 0);
    }

    #[test]
    fn crash_outage_silences_a_node_until_recovery() {
        use mmhew_faults::CrashSchedule;
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        // Node 0 is dead until t = 30µs; completion must postdate its
        // recovery (frames are 3µs with ideal clocks).
        let engine = AsyncEngine::new(
            &net,
            vec![
                FrameAlternator::boxed(true, ChannelSet::full(1)),
                FrameAlternator::boxed(false, ChannelSet::full(1)),
            ],
            AsyncRunConfig::until_complete(100),
            SeedTree::new(1),
        )
        .with_faults(FaultPlan::new().with_crashes(CrashSchedule::outage(n(0), 0, 30_000)));
        let out = engine.run();
        assert!(out.completed());
        let tc = out.completion_time().expect("complete");
        assert!(
            tc >= RealTime::from_nanos(30_000),
            "heard a crashed radio: {tc}"
        );
    }

    #[test]
    fn jammed_channel_suppresses_bursts_in_interval() {
        use mmhew_faults::JamSchedule;
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        // The single channel is jammed for the first 30µs: every burst in
        // that window dies, so completion postdates the jammer.
        let jam = JamSchedule::new(vec![
            mmhew_faults::JamStep {
                at: 0,
                channels: ChannelSet::full(1),
            },
            mmhew_faults::JamStep {
                at: 30_000,
                channels: ChannelSet::new(),
            },
        ]);
        let engine = AsyncEngine::new(
            &net,
            vec![
                FrameAlternator::boxed(true, ChannelSet::full(1)),
                FrameAlternator::boxed(false, ChannelSet::full(1)),
            ],
            AsyncRunConfig::until_complete(100),
            SeedTree::new(1),
        )
        .with_faults(FaultPlan::new().with_jamming(jam));
        let out = engine.run();
        assert!(out.completed());
        assert!(out.jam_losses() > 0);
        let tc = out.completion_time().expect("complete");
        assert!(
            tc >= RealTime::from_nanos(30_000),
            "a jammed burst was delivered: {tc}"
        );
    }

    #[test]
    fn frame_queue_takes_events_in_model_order() {
        // Times come from a handful of values, so ties across nodes and
        // between a `FrameEnd` and a `FrameStart` at one instant are common;
        // `u64::MAX` checks that a real key never reads as no event.
        const TIMES: [u64; 5] = [0, 1, 2, 1 << 40, u64::MAX];
        /// `(time, kind, node, frame)`.
        type Entry = (RealTime, EventKind, u32, u64);
        /// Takes the least event from the queue and the model, and checks
        /// that both agree on it.
        fn take(
            queue: &mut FrameQueue,
            model: &mut BTreeSet<Entry>,
            pending: &mut [Option<Entry>],
        ) -> bool {
            let got = queue.peek().map(|e| (e.time, e.kind, e.node, e.frame));
            assert_eq!(got, model.first().copied());
            if let Some(e) = got {
                queue.clear(e.2);
                model.remove(&e);
                pending[e.2 as usize] = None;
            }
            got.is_some()
        }
        mmhew_util::prop::check("frame_queue_takes_events_in_model_order", 256, |rng| {
            let n = rng.gen_range(1..41usize);
            let mut queue = FrameQueue::new(n);
            // Every pending event, and each node's own; one per node, so
            // the frame never breaks a tie.
            let mut model = BTreeSet::new();
            let mut pending = vec![None; n];
            for _ in 0..rng.gen_range(0..200u32) {
                let node = rng.gen_range(0..n as u32);
                match rng.gen_range(0..3u32) {
                    0 => {
                        let event = (
                            RealTime::from_nanos(TIMES[rng.gen_range(0..TIMES.len())]),
                            if rng.gen_bool(0.5) {
                                EventKind::FrameEnd
                            } else {
                                EventKind::FrameStart
                            },
                            node,
                            rng.gen_range(0..1_000u64),
                        );
                        queue.set(Event {
                            time: event.0,
                            kind: event.1,
                            node,
                            frame: event.3,
                        });
                        if let Some(old) = pending[node as usize].replace(event) {
                            model.remove(&old);
                        }
                        model.insert(event);
                    }
                    1 => {
                        queue.clear(node);
                        if let Some(old) = pending[node as usize].take() {
                            model.remove(&old);
                        }
                    }
                    _ => {
                        take(&mut queue, &mut model, &mut pending);
                    }
                }
            }
            while take(&mut queue, &mut model, &mut pending) {}
            assert!(model.is_empty());
        });
    }

    #[test]
    fn zero_max_frames_is_a_noop() {
        let mut cfg = AsyncRunConfig::until_complete(0);
        cfg.stop_when_complete = false;
        let out = run_two_nodes(cfg, 1);
        assert!(!out.completed());
        assert_eq!(out.frames_executed(), &[0, 0]);
    }
}
