//! `SimEvent` stream → Perfetto `Trace` conversion.
//!
//! The converter consumes the exact event vocabulary both engines emit
//! (live through [`crate::PerfettoSink`]) and produces one protobuf
//! `Trace`:
//!
//! - one **process track** for the simulation as a whole,
//! - one **thread track per node** carrying protocol-phase slices and
//!   beacon tx/rx instants, with child tracks for async frame spans and
//!   crash/recovery ranges,
//! - one **track per jammed channel** with merged jam ranges,
//! - **counter tracks** for discovered-fraction, contention, and
//!   staleness, so Perfetto plots discovery progress over simulated time.
//!
//! Timestamps: the slotted engine's slot index is scaled by
//! [`NS_PER_SLOT`] (slots are unitless in the paper, so the scale is
//! purely cosmetic — it makes Perfetto's time axis readable); the
//! continuous-time engine's `RealTime` nanoseconds are used as-is.
//!
//! Determinism: the converter holds no randomness, iterates only ordered
//! containers, and stable-sorts packets by timestamp at [`finish`] — the
//! same event stream always yields byte-identical output, so two runs
//! with the same seed write the same `.pftrace`.
//!
//! [`finish`]: PerfettoConverter::finish

use std::collections::{BTreeMap, BTreeSet};

use mmhew_obs::{MediumResolution, ProtocolPhase, SimEvent, Stamp};
use mmhew_radio::SlotAction;

use crate::proto::{fields, ProtoBuf};

/// Nanoseconds per slot on Perfetto's time axis (slotted traces only).
///
/// One slot renders as one microsecond. The paper's slots are unitless;
/// this constant only affects the UI scale, never event ordering.
pub const NS_PER_SLOT: u64 = 1_000;

/// `trusted_packet_sequence_id` stamped on every packet. The converter
/// is a single synthetic producer, so one sequence suffices.
pub const TRUSTED_SEQUENCE_ID: u64 = 1;

/// Track UUIDs are synthesized as `(kind << 32) | index`, so every
/// track kind owns a disjoint UUID range and uniqueness is structural.
mod uuid {
    /// The root process track.
    pub const PROCESS: u64 = 1;

    /// Per-node thread track (phase slices, tx/rx instants).
    pub fn node(node: u32) -> u64 {
        (2 << 32) | node as u64
    }

    /// Per-node child track holding async frame spans.
    pub fn frames(node: u32) -> u64 {
        (3 << 32) | node as u64
    }

    /// Per-node child track holding crash/recovery ranges.
    pub fn radio(node: u32) -> u64 {
        (4 << 32) | node as u64
    }

    /// Per-channel jam-range track.
    pub fn jam(channel: u16) -> u64 {
        (5 << 32) | channel as u64
    }

    /// Counter tracks (see [`super::Counter`]).
    pub fn counter(kind: u32) -> u64 {
        (6 << 32) | kind as u64
    }
}

/// The three counter tracks the converter maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Counter {
    /// `covered / expected` from coverage events, in `[0, 1]`.
    DiscoveredFraction,
    /// Simultaneous transmitters destroyed in collisions this slot.
    Contention,
    /// `expected - covered`: directed links still undiscovered.
    Staleness,
}

impl Counter {
    fn index(self) -> u32 {
        match self {
            Counter::DiscoveredFraction => 0,
            Counter::Contention => 1,
            Counter::Staleness => 2,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Counter::DiscoveredFraction => "discovered fraction",
            Counter::Contention => "contention",
            Counter::Staleness => "staleness",
        }
    }

    fn unit(self) -> &'static str {
        match self {
            Counter::DiscoveredFraction => "fraction",
            Counter::Contention => "transmitters",
            Counter::Staleness => "links",
        }
    }
}

/// Everything the converter buffered about one slot, flushed in a fixed
/// order when the next slot (or the end of the trace) arrives. Buffering
/// is what guarantees correct slice nesting: within one timestamp,
/// phase-slice transitions must precede the action slices they contain,
/// but the engine emits them in simulation order.
#[derive(Debug, Default)]
struct SlotBuffer {
    /// Non-quiet actions: `(node, is_tx, channel)`.
    actions: Vec<(u32, bool, u16)>,
    /// Phase transitions in arrival order.
    phases: Vec<(u32, String)>,
    /// Instant markers: `(node track?, name)`; `None` targets the
    /// process track.
    instants: Vec<(Option<u32>, String)>,
    /// Crash-state toggles: `(node, up)`.
    crashes: Vec<(u32, bool)>,
    /// Channels jammed during this slot.
    jams: BTreeSet<u16>,
    /// Latest `(covered, expected)` coverage snapshot.
    coverage: Option<(u64, u64)>,
    /// Sum of colliding transmitters across channels this slot.
    contention: u64,
    /// Whether any `Channel` resolution was seen (distinguishes "no
    /// collisions" from "resolutions not traced").
    saw_resolution: bool,
}

/// Per-node slice bookkeeping.
#[derive(Debug, Default)]
struct NodeState {
    /// A phase slice is open on the node track.
    phase_open: bool,
    /// A "crashed" slice is open on the radio child track.
    crash_open: bool,
    /// A frame slice is open on the frames child track (async engine).
    frame_open: bool,
}

/// Streaming `SimEvent` → Perfetto converter.
///
/// Feed events with [`push`]; call [`finish`] to close open slices and
/// receive the serialized `Trace`. Packets are buffered (descriptors
/// separately from events) and stable-sorted by timestamp on `finish`,
/// so timestamps in the output are monotonically nondecreasing no matter
/// how the async engine interleaved per-node frames.
///
/// [`push`]: PerfettoConverter::push
/// [`finish`]: PerfettoConverter::finish
pub struct PerfettoConverter {
    /// Encoded `TracePacket`s carrying descriptors, in creation order.
    descriptors: Vec<Vec<u8>>,
    /// Encoded event `TracePacket`s tagged with their timestamp.
    events: Vec<(u64, Vec<u8>)>,
    declared: BTreeSet<u64>,
    nodes: BTreeMap<u32, NodeState>,
    /// Channels with an open jam slice.
    open_jams: BTreeSet<u16>,
    /// The slot currently being buffered (slotted traces).
    cur_slot: Option<u64>,
    slot: SlotBuffer,
    last_fraction: Option<(u64, u64)>,
    last_contention: Option<u64>,
    last_staleness: Option<u64>,
    max_ts: u64,
    pushed: u64,
}

impl PerfettoConverter {
    /// An empty converter holding only the process track.
    pub fn new() -> Self {
        let mut c = Self {
            descriptors: Vec::new(),
            events: Vec::new(),
            declared: BTreeSet::new(),
            nodes: BTreeMap::new(),
            open_jams: BTreeSet::new(),
            cur_slot: None,
            slot: SlotBuffer::default(),
            last_fraction: None,
            last_contention: None,
            last_staleness: None,
            max_ts: 0,
            pushed: 0,
        };
        c.declare(uuid::PROCESS, |td| {
            td.message(fields::track_descriptor::PROCESS, |p| {
                p.varint(fields::process_descriptor::PID, 1);
                p.string(fields::process_descriptor::PROCESS_NAME, "mmhew simulation");
            });
        });
        c
    }

    /// Events consumed so far.
    pub fn events_pushed(&self) -> u64 {
        self.pushed
    }

    // ---- track declaration -------------------------------------------

    fn declare(&mut self, uuid: u64, build: impl FnOnce(&mut ProtoBuf)) {
        if !self.declared.insert(uuid) {
            return;
        }
        let mut packet = ProtoBuf::new();
        packet.varint(
            fields::packet::TRUSTED_PACKET_SEQUENCE_ID,
            TRUSTED_SEQUENCE_ID,
        );
        packet.message(fields::packet::TRACK_DESCRIPTOR, |td| {
            td.varint(fields::track_descriptor::UUID, uuid);
            build(td);
        });
        self.descriptors.push(packet.into_bytes());
    }

    fn ensure_node(&mut self, node: u32) {
        self.declare(uuid::node(node), |td| {
            td.message(fields::track_descriptor::THREAD, |t| {
                t.varint(fields::thread_descriptor::PID, 1);
                // tid 1 would collide with the pid-1 "main thread"
                // convention, so node n maps to tid n + 2.
                t.varint(fields::thread_descriptor::TID, node as u64 + 2);
                t.string(
                    fields::thread_descriptor::THREAD_NAME,
                    &format!("node {node}"),
                );
            });
        });
        self.nodes.entry(node).or_default();
    }

    fn ensure_frames(&mut self, node: u32) {
        self.ensure_node(node);
        self.declare(uuid::frames(node), |td| {
            td.string(
                fields::track_descriptor::NAME,
                &format!("node {node} frames"),
            );
            td.varint(fields::track_descriptor::PARENT_UUID, uuid::node(node));
        });
    }

    fn ensure_radio(&mut self, node: u32) {
        self.ensure_node(node);
        self.declare(uuid::radio(node), |td| {
            td.string(
                fields::track_descriptor::NAME,
                &format!("node {node} radio"),
            );
            td.varint(fields::track_descriptor::PARENT_UUID, uuid::node(node));
        });
    }

    fn ensure_jam(&mut self, channel: u16) {
        self.declare(uuid::jam(channel), |td| {
            td.string(fields::track_descriptor::NAME, &format!("ch {channel} jam"));
            td.varint(fields::track_descriptor::PARENT_UUID, uuid::PROCESS);
        });
    }

    fn ensure_counter(&mut self, counter: Counter) {
        self.declare(uuid::counter(counter.index()), |td| {
            td.string(fields::track_descriptor::NAME, counter.name());
            td.varint(fields::track_descriptor::PARENT_UUID, uuid::PROCESS);
            td.message(fields::track_descriptor::COUNTER, |c| {
                c.string(fields::counter_descriptor::UNIT_NAME, counter.unit());
            });
        });
    }

    // ---- event packet emission ---------------------------------------

    fn emit(&mut self, ts: u64, build: impl FnOnce(&mut ProtoBuf)) {
        let mut packet = ProtoBuf::new();
        packet.varint(fields::packet::TIMESTAMP, ts);
        packet.varint(
            fields::packet::TRUSTED_PACKET_SEQUENCE_ID,
            TRUSTED_SEQUENCE_ID,
        );
        packet.message(fields::packet::TRACK_EVENT, build);
        self.events.push((ts, packet.into_bytes()));
        self.max_ts = self.max_ts.max(ts);
    }

    fn slice_begin(&mut self, ts: u64, track: u64, name: &str) {
        self.emit(ts, |te| {
            te.varint(
                fields::track_event::TYPE,
                fields::track_event::event_type::SLICE_BEGIN,
            );
            te.varint(fields::track_event::TRACK_UUID, track);
            te.string(fields::track_event::NAME, name);
        });
    }

    fn slice_end(&mut self, ts: u64, track: u64) {
        self.emit(ts, |te| {
            te.varint(
                fields::track_event::TYPE,
                fields::track_event::event_type::SLICE_END,
            );
            te.varint(fields::track_event::TRACK_UUID, track);
        });
    }

    fn instant(&mut self, ts: u64, track: u64, name: &str) {
        self.emit(ts, |te| {
            te.varint(
                fields::track_event::TYPE,
                fields::track_event::event_type::INSTANT,
            );
            te.varint(fields::track_event::TRACK_UUID, track);
            te.string(fields::track_event::NAME, name);
        });
    }

    fn counter_i64(&mut self, ts: u64, counter: Counter, value: u64) {
        self.ensure_counter(counter);
        self.emit(ts, |te| {
            te.varint(
                fields::track_event::TYPE,
                fields::track_event::event_type::COUNTER,
            );
            te.varint(
                fields::track_event::TRACK_UUID,
                uuid::counter(counter.index()),
            );
            te.varint(fields::track_event::COUNTER_VALUE, value);
        });
    }

    fn counter_f64(&mut self, ts: u64, counter: Counter, value: f64) {
        self.ensure_counter(counter);
        self.emit(ts, |te| {
            te.varint(
                fields::track_event::TYPE,
                fields::track_event::event_type::COUNTER,
            );
            te.varint(
                fields::track_event::TRACK_UUID,
                uuid::counter(counter.index()),
            );
            te.double(fields::track_event::DOUBLE_COUNTER_VALUE, value);
        });
    }

    // ---- shared event semantics --------------------------------------

    fn phase_name(phase: &ProtocolPhase) -> String {
        match phase {
            ProtocolPhase::Stage(s) => format!("stage {s}"),
            ProtocolPhase::Estimate(e) => format!("estimate {e}"),
            ProtocolPhase::Terminated => "terminated".to_string(),
        }
    }

    fn action_name(action: &SlotAction) -> Option<(bool, u16)> {
        match action {
            SlotAction::Transmit { channel } => Some((true, channel.index())),
            SlotAction::Listen { channel } => Some((false, channel.index())),
            SlotAction::Quiet => None,
        }
    }

    /// The track and label of the eight events that render as an instant
    /// marker: a node's track, or the process track for `None`.
    fn marker(event: &SimEvent) -> Option<(Option<u32>, String)> {
        let sign = |plus: bool| if plus { '+' } else { '-' };
        Some(match event {
            SimEvent::Delivery {
                from, to, channel, ..
            } => (
                Some(to.index()),
                format!("beacon from {} ch{}", from.index(), channel.index()),
            ),
            SimEvent::CaptureDelivery {
                to,
                from,
                contenders,
                ..
            } => (
                Some(to.index()),
                format!("capture from {} ({contenders} contenders)", from.index()),
            ),
            SimEvent::BeaconLost { from, to, .. } => {
                (Some(to.index()), format!("lost from {}", from.index()))
            }
            SimEvent::ImpairmentLoss { count, .. } => (None, format!("impairment x{count}")),
            SimEvent::NodeJoined { node, .. } => (Some(node.index()), "join".into()),
            SimEvent::NodeLeft { node, .. } => (Some(node.index()), "leave".into()),
            SimEvent::EdgeChanged {
                from, to, added, ..
            } => (
                Some(from.index()),
                format!("edge {} to {}", sign(*added), to.index()),
            ),
            SimEvent::ChannelChanged {
                node,
                channel,
                gained,
                ..
            } => (
                Some(node.index()),
                format!("ch{} {}", channel.index(), sign(*gained)),
            ),
            _ => return None,
        })
    }

    /// Emits an instant marker on a node's track (declaring it first) or,
    /// for `None`, on the process track.
    fn marker_instant(&mut self, ts: u64, node: Option<u32>, name: &str) {
        let track = match node {
            Some(n) => {
                self.ensure_node(n);
                uuid::node(n)
            }
            None => uuid::PROCESS,
        };
        self.instant(ts, track, name);
    }

    fn set_phase(&mut self, ts: u64, node: u32, name: &str) {
        self.ensure_node(node);
        if self.nodes[&node].phase_open {
            self.slice_end(ts, uuid::node(node));
        }
        self.slice_begin(ts, uuid::node(node), name);
        self.nodes.get_mut(&node).expect("ensured").phase_open = true;
    }

    fn set_crashed(&mut self, ts: u64, node: u32, crashed: bool) {
        self.ensure_radio(node);
        let open = self.nodes[&node].crash_open;
        if crashed && !open {
            self.slice_begin(ts, uuid::radio(node), "crashed");
        } else if !crashed && open {
            self.slice_end(ts, uuid::radio(node));
        }
        self.nodes.get_mut(&node).expect("ensured").crash_open = crashed;
    }

    fn update_coverage(&mut self, ts: u64, covered: u64, expected: u64) {
        if self.last_fraction != Some((covered, expected)) {
            self.last_fraction = Some((covered, expected));
            let fraction = if expected == 0 {
                1.0
            } else {
                covered as f64 / expected as f64
            };
            self.counter_f64(ts, Counter::DiscoveredFraction, fraction);
            let stale = expected.saturating_sub(covered);
            if self.last_staleness != Some(stale) {
                self.last_staleness = Some(stale);
                self.counter_i64(ts, Counter::Staleness, stale);
            }
        }
    }

    // ---- slotted path ------------------------------------------------

    fn flush_slot(&mut self) {
        let Some(slot) = self.cur_slot else { return };
        let buf = std::mem::take(&mut self.slot);
        let ts = slot * NS_PER_SLOT;
        let ts_end = ts + NS_PER_SLOT;

        // 1. Phase transitions first: they are the outermost slices on
        //    each node track and must not interleave with action slices.
        for (node, name) in &buf.phases {
            self.set_phase(ts, *node, name);
        }
        // 2. Jam ranges: merge runs of consecutive jammed slots.
        let ended: Vec<u16> = self.open_jams.difference(&buf.jams).copied().collect();
        for c in ended {
            self.slice_end(ts, uuid::jam(c));
            self.open_jams.remove(&c);
        }
        let started: Vec<u16> = buf.jams.difference(&self.open_jams).copied().collect();
        for c in started {
            self.ensure_jam(c);
            self.slice_begin(ts, uuid::jam(c), "jammed");
            self.open_jams.insert(c);
        }
        // 3. Crash/recovery ranges.
        for (node, up) in &buf.crashes {
            self.set_crashed(ts, *node, !up);
        }
        // 4. One slice per non-quiet action, spanning exactly this slot.
        for (node, is_tx, channel) in &buf.actions {
            self.ensure_node(*node);
            let name = if *is_tx {
                format!("tx ch{channel}")
            } else {
                format!("rx ch{channel}")
            };
            self.slice_begin(ts, uuid::node(*node), &name);
        }
        // 5. Instant markers (deliveries, losses, dynamics).
        for (node, name) in &buf.instants {
            self.marker_instant(ts, *node, name);
        }
        // 6. Counters, attributed to this slot's start.
        if let Some((covered, expected)) = buf.coverage {
            self.update_coverage(ts, covered, expected);
        }
        if buf.saw_resolution && self.last_contention != Some(buf.contention) {
            self.last_contention = Some(buf.contention);
            self.counter_i64(ts, Counter::Contention, buf.contention);
        }
        // 7. Close this slot's action slices at the next slot boundary.
        //    (Emitted last so the stable sort keeps them after every
        //    packet stamped `ts`, and before the next slot's packets.)
        for (node, _, _) in &buf.actions {
            self.slice_end(ts_end, uuid::node(*node));
        }
    }

    fn buffer_slotted(&mut self, slot: u64, event: &SimEvent) {
        if self.cur_slot != Some(slot) {
            self.flush_slot();
            self.cur_slot = Some(slot);
        }
        match event {
            SimEvent::Action { node, action, .. } => {
                if let Some((is_tx, channel)) = Self::action_name(action) {
                    self.slot.actions.push((node.index(), is_tx, channel));
                }
            }
            SimEvent::Channel { resolution, .. } => {
                self.slot.saw_resolution = true;
                if let MediumResolution::Collision { contenders } = resolution {
                    self.slot.contention += *contenders as u64;
                }
            }
            SimEvent::LinkCovered {
                covered, expected, ..
            }
            | SimEvent::GroundTruthChanged {
                covered, expected, ..
            } => {
                self.slot.coverage = Some((*covered, *expected));
            }
            SimEvent::Phase { node, phase, .. } => {
                self.slot
                    .phases
                    .push((node.index(), Self::phase_name(phase)));
            }
            SimEvent::SlotJammed { channel, .. } => {
                self.slot.jams.insert(channel.index());
            }
            SimEvent::NodeCrashed { node, .. } => self.slot.crashes.push((node.index(), false)),
            SimEvent::NodeRecovered { node, .. } => self.slot.crashes.push((node.index(), true)),
            // Frame events carry real stamps and never reach this path;
            // a slot start carries nothing beyond its slot.
            _ => self.slot.instants.extend(Self::marker(event)),
        }
    }

    // ---- continuous-time path ----------------------------------------

    fn push_continuous(&mut self, ts: u64, event: &SimEvent) {
        match event {
            SimEvent::FrameStart { node, frame, .. } => {
                self.ensure_frames(node.index());
                if !self.nodes[&node.index()].frame_open {
                    self.slice_begin(ts, uuid::frames(node.index()), &format!("frame {frame}"));
                    self.nodes
                        .get_mut(&node.index())
                        .expect("ensured")
                        .frame_open = true;
                }
            }
            SimEvent::FrameEnd { node, .. } => {
                self.ensure_frames(node.index());
                if self.nodes[&node.index()].frame_open {
                    self.slice_end(ts, uuid::frames(node.index()));
                    self.nodes
                        .get_mut(&node.index())
                        .expect("ensured")
                        .frame_open = false;
                }
            }
            SimEvent::Action { node, action, .. } => {
                if let Some((is_tx, channel)) = Self::action_name(action) {
                    self.ensure_node(node.index());
                    let name = if is_tx {
                        format!("tx ch{channel}")
                    } else {
                        format!("rx ch{channel}")
                    };
                    self.instant(ts, uuid::node(node.index()), &name);
                }
            }
            SimEvent::LinkCovered {
                covered, expected, ..
            }
            | SimEvent::GroundTruthChanged {
                covered, expected, ..
            } => {
                self.update_coverage(ts, *covered, *expected);
            }
            SimEvent::Phase { node, phase, .. } => {
                let name = Self::phase_name(phase);
                self.set_phase(ts, node.index(), &name);
            }
            SimEvent::SlotJammed {
                channel, losses, ..
            } => {
                self.ensure_jam(channel.index());
                self.instant(
                    ts,
                    uuid::jam(channel.index()),
                    &format!("jammed ({losses} lost)"),
                );
            }
            SimEvent::NodeCrashed { node, .. } => self.set_crashed(ts, node.index(), true),
            SimEvent::NodeRecovered { node, .. } => self.set_crashed(ts, node.index(), false),
            SimEvent::Channel { resolution, .. } => {
                // The continuous-time engine has no network-wide slot, so
                // contention renders as a point sample.
                if let MediumResolution::Collision { contenders } = resolution {
                    let value = *contenders as u64;
                    if self.last_contention != Some(value) {
                        self.last_contention = Some(value);
                        self.counter_i64(ts, Counter::Contention, value);
                    }
                }
            }
            _ => {
                if let Some((node, name)) = Self::marker(event) {
                    self.marker_instant(ts, node, &name);
                }
            }
        }
    }

    // ---- public API --------------------------------------------------

    /// Consumes one event.
    pub fn push(&mut self, event: &SimEvent) {
        self.pushed += 1;
        match event {
            SimEvent::SlotStart { slot } => self.buffer_slotted(*slot, event),
            SimEvent::FrameStart { real, .. } | SimEvent::FrameEnd { real, .. } => {
                self.push_continuous(real.as_nanos(), event)
            }
            SimEvent::Action { at, .. }
            | SimEvent::Channel { at, .. }
            | SimEvent::Delivery { at, .. }
            | SimEvent::ImpairmentLoss { at, .. }
            | SimEvent::LinkCovered { at, .. }
            | SimEvent::Phase { at, .. }
            | SimEvent::NodeJoined { at, .. }
            | SimEvent::NodeLeft { at, .. }
            | SimEvent::EdgeChanged { at, .. }
            | SimEvent::ChannelChanged { at, .. }
            | SimEvent::GroundTruthChanged { at, .. }
            | SimEvent::BeaconLost { at, .. }
            | SimEvent::SlotJammed { at, .. }
            | SimEvent::CaptureDelivery { at, .. }
            | SimEvent::NodeCrashed { at, .. }
            | SimEvent::NodeRecovered { at, .. } => match at {
                Stamp::Slot(slot) => self.buffer_slotted(*slot, event),
                Stamp::Real(t) => self.push_continuous(t.as_nanos(), event),
            },
        }
    }

    /// Flushes buffered state, closes open slices, and serializes the
    /// `Trace`: all track descriptors first, then event packets in
    /// nondecreasing-timestamp order.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_slot();
        let close = self.max_ts;
        // Close in child-before-parent order per node: actions are
        // already closed by the flush; frames and crash ranges live on
        // child tracks; the phase slice is the only one on the node
        // track itself.
        let node_ids: Vec<u32> = self.nodes.keys().copied().collect();
        for node in node_ids {
            let state = &self.nodes[&node];
            let (frame_open, crash_open, phase_open) =
                (state.frame_open, state.crash_open, state.phase_open);
            if frame_open {
                self.slice_end(close, uuid::frames(node));
            }
            if crash_open {
                self.slice_end(close, uuid::radio(node));
            }
            if phase_open {
                self.slice_end(close, uuid::node(node));
            }
        }
        let jams: Vec<u16> = self.open_jams.iter().copied().collect();
        for c in jams {
            self.slice_end(close, uuid::jam(c));
        }

        self.events.sort_by_key(|(ts, _)| *ts);
        let mut trace = ProtoBuf::new();
        for packet in &self.descriptors {
            trace.bytes_field(fields::trace::PACKET, packet);
        }
        for (_, packet) in &self.events {
            trace.bytes_field(fields::trace::PACKET, packet);
        }
        trace.into_bytes()
    }
}

impl Default for PerfettoConverter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_spectrum::ChannelId;
    use mmhew_time::RealTime;
    use mmhew_topology::NodeId;

    fn slotted_events() -> Vec<SimEvent> {
        let n = NodeId::new;
        let c = ChannelId::new;
        vec![
            SimEvent::SlotStart { slot: 0 },
            SimEvent::Action {
                at: Stamp::Slot(0),
                node: n(0),
                action: SlotAction::Transmit { channel: c(1) },
            },
            SimEvent::Action {
                at: Stamp::Slot(0),
                node: n(1),
                action: SlotAction::Listen { channel: c(1) },
            },
            SimEvent::Channel {
                at: Stamp::Slot(0),
                channel: c(1),
                resolution: MediumResolution::Clear {
                    tx: n(0),
                    rx_count: 1,
                },
            },
            SimEvent::Delivery {
                at: Stamp::Slot(0),
                from: n(0),
                to: n(1),
                channel: c(1),
            },
            SimEvent::LinkCovered {
                at: Stamp::Slot(0),
                from: n(0),
                to: n(1),
                covered: 1,
                expected: 2,
            },
            SimEvent::Phase {
                at: Stamp::Slot(0),
                node: n(0),
                phase: ProtocolPhase::Stage(1),
            },
            SimEvent::SlotStart { slot: 1 },
            SimEvent::SlotJammed {
                at: Stamp::Slot(1),
                channel: c(0),
                losses: 1,
            },
            SimEvent::SlotStart { slot: 2 },
        ]
    }

    fn convert(events: &[SimEvent]) -> Vec<u8> {
        let mut conv = PerfettoConverter::new();
        for e in events {
            conv.push(e);
        }
        conv.finish()
    }

    #[test]
    fn conversion_is_deterministic() {
        let events = slotted_events();
        assert_eq!(convert(&events), convert(&events));
    }

    #[test]
    fn output_is_nonempty_and_grows_with_events() {
        let events = slotted_events();
        let all = convert(&events);
        let some = convert(&events[..3]);
        assert!(!some.is_empty());
        assert!(all.len() > some.len());
    }

    #[test]
    fn continuous_events_use_real_timestamps() {
        let n = NodeId::new;
        let events = vec![
            SimEvent::FrameStart {
                node: n(0),
                frame: 0,
                real: RealTime::from_nanos(100),
                local: mmhew_time::LocalTime::from_nanos(100),
            },
            SimEvent::FrameEnd {
                node: n(0),
                frame: 0,
                real: RealTime::from_nanos(1_100),
                local: mmhew_time::LocalTime::from_nanos(1_100),
            },
        ];
        let bytes = convert(&events);
        assert!(!bytes.is_empty());
    }
}
