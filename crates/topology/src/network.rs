//! The complete M²HeW network: communication graph ⊗ channel availability.
//!
//! A [`Network`] is the ground truth a simulation runs against: who can
//! hear whom on which channel, and therefore exactly which `(neighbor,
//! common channels)` pairs a correct neighbor-discovery run must output.
//! It also computes the paper's complexity parameters `S`, `Δ` and `ρ`.
//!
//! # Memory layout
//!
//! Per-channel adjacency is stored as two-level CSR (`ChannelCsr`): one
//! flat `Vec<NodeId>` of ids per direction plus an offset array of length
//! `N·S + 1`, so `neighbors_on(u, c)` / `receivers_on(v, c)` are O(1)
//! slice carves with no pointer chasing. Availability lives in a flat
//! [`AvailabilityArena`] (one `u64` allocation for all nodes), and
//! [`Network::available`] returns a borrowed [`ChannelSetRef`] view. A
//! batch of dynamics events ([`Network::apply_all`]) recomputes only the
//! union of the receiver rows it touched, once; rebuilds only the mirror
//! cells those rows name, before or after the batch; and drops and merges
//! only the touched receivers' links. Everything else is bulk-copied into
//! persistent double buffers — zero steady-state allocation, covered by
//! the engine's churn allocation audit.

use crate::event::NetworkEvent;
use crate::graph::Topology;
use crate::node::NodeId;
use mmhew_spectrum::{AvailabilityArena, ChannelId, ChannelSet, ChannelSetRef};
use serde::ser::SerializeStruct;
use serde::{Serialize, Serializer};
use std::fmt;
use std::ops::Range;

/// Per-channel propagation behaviour.
///
/// The paper's base model assumes all channels propagate identically, so a
/// link operating on one common channel operates on all of them
/// (`Uniform`). The diverse-propagation extension (conclusion item (c),
/// experiment E14) gives each channel its own maximum range.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Propagation {
    /// All channels have identical propagation: `span(u,v) = A(u) ∩ A(v)`.
    Uniform,
    /// Channel `c` only carries a link whose endpoints are within
    /// `ranges[c]` of each other (higher frequencies die sooner).
    PerChannelRange {
        /// Max link distance per channel, indexed by channel.
        ranges: Vec<f64>,
    },
}

impl Propagation {
    fn admits(&self, distance: f64, c: ChannelId) -> bool {
        match self {
            Propagation::Uniform => true,
            Propagation::PerChannelRange { ranges } => distance <= ranges[c.index() as usize],
        }
    }
}

/// Errors constructing a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The universe has no channels.
    EmptyUniverse,
    /// One availability set per node is required.
    AvailabilityCount {
        /// Sets provided.
        provided: usize,
        /// Nodes in the topology.
        nodes: usize,
    },
    /// An availability set references a channel outside the universe.
    ChannelOutOfUniverse {
        /// Offending node.
        node: NodeId,
        /// Offending channel.
        channel: ChannelId,
    },
    /// Per-channel propagation needs one range per universe channel.
    PropagationCount {
        /// Ranges provided.
        provided: usize,
        /// Universe size.
        universe: u16,
    },
    /// A dynamics event references a node outside the fixed node universe.
    NodeOutOfRange {
        /// Offending node.
        node: NodeId,
        /// Nodes in the network.
        nodes: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::EmptyUniverse => write!(f, "universe has no channels"),
            NetworkError::AvailabilityCount { provided, nodes } => {
                write!(f, "{provided} availability sets for {nodes} nodes")
            }
            NetworkError::ChannelOutOfUniverse { node, channel } => {
                write!(f, "node {node} lists {channel} outside the universe")
            }
            NetworkError::PropagationCount { provided, universe } => {
                write!(f, "{provided} propagation ranges for {universe} channels")
            }
            NetworkError::NodeOutOfRange { node, nodes } => {
                write!(f, "event references {node} in a {nodes}-node network")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A directed discovery obligation: receiver `to` must learn about
/// transmitter `from` (the paper's link `(from, to)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Link {
    /// Transmitting endpoint.
    pub from: NodeId,
    /// Receiving endpoint (the node that must make the discovery).
    pub to: NodeId,
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}→{})", self.from, self.to)
    }
}

/// Two-level compressed-sparse-row adjacency: for each `(node, channel)`
/// cell, a contiguous slice of a single flat id vector.
///
/// ```text
/// starts: [ s(0,0) s(0,1) … s(0,S-1) s(1,0) … s(N-1,S-1) end ]   (N·S + 1)
/// ids:    [ … row(0,0) … row(0,1) … … row(N-1,S-1) … ]
/// row(u,c) = ids[starts[u·S + c] .. starts[u·S + c + 1]]
/// ```
///
/// Row contents preserve the deterministic construction order (topology
/// neighbor-list order for the receiver-centric direction, ascending
/// receiver index for the transmitter-centric mirror), so CSR carves are
/// byte-identical to the nested `Vec<Vec<Vec<NodeId>>>` they replaced.
#[derive(Debug, Clone, PartialEq)]
struct ChannelCsr {
    universe: usize,
    /// Length `node_count * universe + 1`; `u32` offsets (a network is
    /// rejected by construction well before 2³² adjacency entries).
    starts: Vec<u32>,
    ids: Vec<NodeId>,
}

impl ChannelCsr {
    fn node_count(&self) -> usize {
        (self.starts.len() - 1) / self.universe.max(1)
    }

    #[inline]
    fn row(&self, node: usize, c: usize) -> &[NodeId] {
        self.cell(node * self.universe + c)
    }

    /// The row of flat cell index `i = node·S + channel`.
    #[inline]
    fn cell(&self, i: usize) -> &[NodeId] {
        &self.ids[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Writes the distinct ids across all of `node`'s rows into `out`,
    /// ascending: for the receiver-centric direction, the sources of the
    /// links into `node`.
    fn distinct_sources(&self, node: usize, out: &mut Vec<NodeId>) {
        out.clear();
        for c in 0..self.universe {
            out.extend_from_slice(self.row(node, c));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The maximum row length across all `(node, channel)` cells.
    fn max_row_len(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Appends the cells `cells` (flat `node·S + channel` indices) to a
    /// CSR under construction in `ids`/`starts`: one bulk copy of their
    /// ids plus their end offsets rebased onto `ids`' current length.
    fn copy_cells(&self, cells: Range<usize>, ids: &mut Vec<NodeId>, starts: &mut Vec<u32>) {
        let from = self.starts[cells.start];
        let base = ids.len() as u32;
        ids.extend_from_slice(&self.ids[from as usize..self.starts[cells.end] as usize]);
        starts.extend(
            self.starts[cells.start + 1..=cells.end]
                .iter()
                .map(|&end| end - from + base),
        );
    }

    /// Rebuilds the nested `[node][channel] -> Vec` shape (the wire
    /// format). Allocates; serialization only.
    fn to_nested(&self) -> Vec<Vec<Vec<NodeId>>> {
        (0..self.node_count())
            .map(|u| {
                (0..self.universe)
                    .map(|c| self.row(u, c).to_vec())
                    .collect()
            })
            .collect()
    }

    /// The transmitter-centric mirror by counting sort: visiting rows in
    /// `(u asc, c asc)` order leaves every mirrored row ascending in `u` —
    /// the canonical `receivers_on` ordering.
    fn invert(&self) -> ChannelCsr {
        let n = self.node_count();
        let s = self.universe;
        let mut counts = vec![0u32; n * s];
        for u in 0..n {
            for c in 0..s {
                for &v in self.row(u, c) {
                    counts[v.as_usize() * s + c] += 1;
                }
            }
        }
        let mut starts = Vec::with_capacity(n * s + 1);
        starts.push(0u32);
        let mut acc = 0u32;
        for &cnt in &counts {
            acc += cnt;
            starts.push(acc);
        }
        let mut cursor: Vec<u32> = starts[..n * s].to_vec();
        let mut ids = vec![NodeId::new(0); acc as usize];
        for u in 0..n {
            for c in 0..s {
                for &v in self.row(u, c) {
                    let k = v.as_usize() * s + c;
                    ids[cursor[k] as usize] = NodeId::new(u as u32);
                    cursor[k] += 1;
                }
            }
        }
        ChannelCsr {
            universe: s,
            starts,
            ids,
        }
    }
}

/// Persistent scratch for [`Network::apply_all`]: every buffer survives
/// between batches, so a steady stream of dynamics events performs zero
/// heap allocation once the buffers have grown to the network's size
/// (asserted by the engine's churn allocation audit).
#[derive(Debug, Clone, Default)]
struct ApplyScratch {
    /// Touched receiver rows, collected over a batch, then sorted + deduped.
    touched: Vec<NodeId>,
    /// The same set as one bit per node (`⌈N/64⌉` words), set for the
    /// length of a refresh and cleared again at its end.
    touched_bits: Vec<u64>,
    /// The mirror cells the touched rows name, old and new, as sorted
    /// [`mirror_key`]s.
    cell_keys: Vec<u64>,
    /// Recomputed rows for the touched nodes, flat in touched order.
    stage_ids: Vec<NodeId>,
    /// Per-channel widths of each staged block (`touched.len() * S`).
    stage_widths: Vec<u32>,
    /// One node's per-channel width tally (`S`).
    widths: Vec<u32>,
    /// One node's per-channel fill cursors (`S`).
    cursors: Vec<u32>,
    /// Double buffers each compaction (receiver side, then mirror) writes
    /// into, then swaps live.
    ids_buf: Vec<NodeId>,
    starts_buf: Vec<u32>,
    /// Distinct link sources for one touched receiver.
    froms: Vec<NodeId>,
    /// The touched receivers' recomputed links, sorted before the merge.
    fresh_links: Vec<Link>,
    /// Double buffer the link-inventory merge writes into, then swaps live.
    links_buf: Vec<Link>,
}

impl ApplyScratch {
    /// Sets (`true`) or clears (`false`) the bit of every node in
    /// `touched`.
    fn mark_touched(&mut self, marked: bool) {
        for &u in &self.touched {
            let (word, bit) = (u.as_usize() / 64, 1u64 << (u.as_usize() % 64));
            if marked {
                self.touched_bits[word] |= bit;
            } else {
                self.touched_bits[word] &= !bit;
            }
        }
    }

    #[inline]
    fn is_touched(&self, u: NodeId) -> bool {
        self.touched_bits[u.as_usize() / 64] >> (u.as_usize() % 64) & 1 == 1
    }
}

/// The receiver an old row's [`mirror_key`] carries: none. It sorts after
/// every node id, so a cell's new receivers come first among its keys.
const NO_RECEIVER: u32 = u32::MAX;

/// The sort key of a mirror cell (`v·S + c`) named by a touched row: the
/// cell in the high 32 bits, the receiver (or [`NO_RECEIVER`]) in the low
/// 32, so sorted keys group by cell and list each cell's receivers
/// ascending. [`Network::new`] keeps `N·S` below 2³².
#[inline]
fn mirror_key(cell: usize, receiver: u32) -> u64 {
    (cell as u64) << 32 | u64::from(receiver)
}

/// An M²HeW network: topology, universe, per-node availability, and
/// propagation — plus precomputed per-channel adjacency and the paper's
/// parameters.
///
/// # Examples
///
/// ```
/// use mmhew_topology::{generators, Network, Propagation};
/// use mmhew_spectrum::ChannelSet;
///
/// // Two nodes sharing channel 1 only.
/// let topo = generators::line(2);
/// let avail = vec![
///     [0u16, 1].into_iter().collect::<ChannelSet>(),
///     [1u16, 2].into_iter().collect(),
/// ];
/// let net = Network::new(topo, 3, avail, Propagation::Uniform)?;
/// assert_eq!(net.s_max(), 2);
/// assert_eq!(net.max_degree(), 1);
/// assert!((net.rho() - 0.5).abs() < 1e-12);
/// assert_eq!(net.links().len(), 2);
/// # Ok::<(), mmhew_topology::NetworkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    universe: u16,
    /// Flat per-node bitsets; [`Self::available`] carves borrowed views.
    availability: AvailabilityArena,
    propagation: Propagation,
    /// `neighbors.row(u, c)` = in-neighbors `v` of `u` with `c ∈ span(v,u)`.
    neighbors: ChannelCsr,
    links: Vec<Link>,
    /// `receivers.row(v, c)` = out-neighbors `u` of `v` with `c ∈ span(v,u)`,
    /// ascending — the transmitter-centric mirror of `neighbors`, so the
    /// hot slot-resolution path can walk only the (few) transmitters.
    /// Derived state, canonically rebuilt from `neighbors`; skipped on the
    /// wire to keep the serialized shape unchanged.
    receivers: ChannelCsr,
    scratch: ApplyScratch,
}

/// Scratch state is execution residue, not network identity: equality
/// compares the topology, spectrum, adjacency and links only, so an
/// incrementally maintained network equals a scratch rebuild.
impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.topology == other.topology
            && self.universe == other.universe
            && self.availability == other.availability
            && self.propagation == other.propagation
            && self.neighbors == other.neighbors
            && self.links == other.links
            && self.receivers == other.receivers
    }
}

/// Serializes the exact wire shape the former nested representation had
/// (field names, order, and nested `neighbors_on` lists), so manifests and
/// scenario files are byte-identical across the CSR migration.
impl Serialize for Network {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("Network", 6)?;
        st.serialize_field("topology", &self.topology)?;
        st.serialize_field("universe", &self.universe)?;
        st.serialize_field("availability", &self.availability.to_sets())?;
        st.serialize_field("propagation", &self.propagation)?;
        st.serialize_field("neighbors_on", &self.neighbors.to_nested())?;
        st.serialize_field("links", &self.links)?;
        st.end()
    }
}

impl Network {
    /// Assembles and validates a network.
    ///
    /// # Errors
    ///
    /// See [`NetworkError`] for each validation failure.
    pub fn new(
        topology: Topology,
        universe: u16,
        availability: Vec<ChannelSet>,
        propagation: Propagation,
    ) -> Result<Self, NetworkError> {
        if universe == 0 {
            return Err(NetworkError::EmptyUniverse);
        }
        let n = topology.node_count();
        if availability.len() != n {
            return Err(NetworkError::AvailabilityCount {
                provided: availability.len(),
                nodes: n,
            });
        }
        for (i, set) in availability.iter().enumerate() {
            if let Some(c) = set.max_channel() {
                if c.index() >= universe {
                    return Err(NetworkError::ChannelOutOfUniverse {
                        node: NodeId::new(i as u32),
                        channel: c,
                    });
                }
            }
        }
        if let Propagation::PerChannelRange { ranges } = &propagation {
            if ranges.len() != universe as usize {
                return Err(NetworkError::PropagationCount {
                    provided: ranges.len(),
                    universe,
                });
            }
        }
        let arena = AvailabilityArena::from_sets(&availability, universe);

        // Precompute the per-channel in-neighbor CSR and the link
        // inventory. Per-channel staging keeps the historical row order:
        // within a row, transmitters appear in topology neighbor-list
        // order.
        let s = universe as usize;
        let mut neighbors = ChannelCsr {
            universe: s,
            starts: Vec::with_capacity(n * s + 1),
            ids: Vec::new(),
        };
        neighbors.starts.push(0);
        let mut staging: Vec<Vec<NodeId>> = vec![Vec::new(); s];
        let mut links = Vec::new();
        for u in topology.nodes() {
            for &v in topology.in_neighbors(u) {
                let mut any = false;
                for c in arena.get(v.as_usize()).iter_common(arena.get(u.as_usize())) {
                    if propagation.admits(topology.distance(v, u), c) {
                        staging[c.index() as usize].push(v);
                        any = true;
                    }
                }
                if any {
                    links.push(Link { from: v, to: u });
                }
            }
            for cell in &mut staging {
                neighbors.ids.extend_from_slice(cell);
                neighbors.starts.push(neighbors.ids.len() as u32);
                cell.clear();
            }
        }
        assert!(
            neighbors.ids.len() < u32::MAX as usize && n * s < u32::MAX as usize,
            "adjacency exceeds u32 CSR offsets or cell indices"
        );
        links.sort_unstable();
        let receivers = neighbors.invert();

        Ok(Self {
            topology,
            universe,
            availability: arena,
            propagation,
            neighbors,
            links,
            receivers,
            scratch: ApplyScratch::default(),
        })
    }

    /// Applies one [`NetworkEvent`]: [`apply_all`](Self::apply_all) over a
    /// batch of one.
    ///
    /// # Errors
    ///
    /// As [`apply_all`](Self::apply_all); the network is unmodified on
    /// error.
    pub fn apply(&mut self, event: &NetworkEvent) -> Result<(), NetworkError> {
        self.apply_all(std::slice::from_ref(event))
    }

    /// Applies a batch of [`NetworkEvent`]s in order, incrementally
    /// recomputing the per-channel adjacency and link inventory — and
    /// therefore `S`, `Δ` and `ρ`, which are derived from them on demand.
    /// Each event's mutation is staged first, collecting the receiver rows
    /// whose inputs it changes; then the union of those rows is recomputed
    /// from the final state in one pass. Untouched receivers' rows are
    /// block-copied bit-for-bit during compaction, and all intermediate
    /// state lives in persistent scratch (no steady-state allocation).
    ///
    /// The result equals applying the events one at a time: a CSR row
    /// depends only on the final in-neighbors, positions and availability,
    /// and every event touches each row whose inputs it changes.
    ///
    /// The node universe is fixed: `NodeJoin` reactivates a known index
    /// (overwriting its position and availability), it never grows the
    /// network. Redundant events (removing an absent edge, losing a
    /// channel not held) are no-ops, so generators need not deduplicate.
    ///
    /// # Errors
    ///
    /// [`NetworkError::NodeOutOfRange`] if an event references a node
    /// index `≥ node_count()`, [`NetworkError::ChannelOutOfUniverse`] if
    /// it references a channel outside the universe. Every event is
    /// validated before any is applied, so the network is unmodified on
    /// error.
    pub fn apply_all(&mut self, events: &[NetworkEvent]) -> Result<(), NetworkError> {
        for event in events {
            self.validate(event)?;
        }
        self.scratch.touched.clear();
        for event in events {
            self.stage(event);
        }
        self.refresh_touched();
        Ok(())
    }

    /// Checks an event against the fixed node universe and channel
    /// universe; independent of the current state.
    fn validate(&self, event: &NetworkEvent) -> Result<(), NetworkError> {
        match event {
            NetworkEvent::NodeJoin {
                node, available, ..
            } => {
                self.check_node(*node)?;
                match available.max_channel() {
                    Some(c) => self.check_channel(*node, c),
                    None => Ok(()),
                }
            }
            NetworkEvent::NodeLeave { node } => self.check_node(*node),
            NetworkEvent::EdgeAdd { from, to } | NetworkEvent::EdgeRemove { from, to } => {
                self.check_node(*from)?;
                self.check_node(*to)
            }
            NetworkEvent::ChannelGained { node, channel }
            | NetworkEvent::ChannelLost { node, channel } => {
                self.check_node(*node)?;
                self.check_channel(*node, *channel)
            }
        }
    }

    /// Mutates the topology or availability for one validated event and
    /// adds every receiver row whose inputs it changed to
    /// `scratch.touched`, judged against the state at that moment.
    fn stage(&mut self, event: &NetworkEvent) {
        let touched = &mut self.scratch.touched;
        match event {
            NetworkEvent::NodeJoin {
                node,
                position,
                available,
            } => {
                self.topology.set_position(*node, *position);
                self.availability.assign(node.as_usize(), available.view());
                // Position and availability both feed every link at `node`
                // (in either direction), so refresh it and everyone who
                // hears it.
                touched.push(*node);
                touched.extend_from_slice(self.topology.out_neighbors(*node));
            }
            NetworkEvent::NodeLeave { node } => {
                touched.push(*node);
                touched.extend_from_slice(self.topology.out_neighbors(*node));
                self.topology.remove_incident(*node);
            }
            NetworkEvent::EdgeAdd { from, to } => {
                self.topology.add_edge(*from, *to);
                touched.push(*to);
            }
            NetworkEvent::EdgeRemove { from, to } => {
                self.topology.remove_edge(*from, *to);
                touched.push(*to);
            }
            NetworkEvent::ChannelGained { node, channel }
            | NetworkEvent::ChannelLost { node, channel } => {
                if matches!(event, NetworkEvent::ChannelGained { .. }) {
                    self.availability.insert(node.as_usize(), *channel);
                } else {
                    self.availability.remove(node.as_usize(), *channel);
                }
                // A(node) feeds node's own row and the row of every node
                // that hears it.
                touched.push(*node);
                touched.extend_from_slice(self.topology.out_neighbors(*node));
            }
        }
    }

    fn check_channel(&self, node: NodeId, channel: ChannelId) -> Result<(), NetworkError> {
        if channel.index() >= self.universe {
            return Err(NetworkError::ChannelOutOfUniverse { node, channel });
        }
        Ok(())
    }

    fn check_node(&self, node: NodeId) -> Result<(), NetworkError> {
        if node.as_usize() >= self.node_count() {
            return Err(NetworkError::NodeOutOfRange {
                node,
                nodes: self.node_count(),
            });
        }
        Ok(())
    }

    /// Recomputes the CSR rows of the receivers listed in
    /// `scratch.touched`, compacts the receiver-centric adjacency through
    /// the persistent double buffers, swaps the touched links, and patches
    /// the transmitter-centric mirror. Everything runs out of
    /// [`ApplyScratch`]; each pass costs the rows the batch touched plus
    /// one bulk copy of everything else.
    fn refresh_touched(&mut self) {
        let n = self.node_count();
        let s = self.universe as usize;
        let scratch = &mut self.scratch;
        scratch.touched.sort_unstable();
        scratch.touched.dedup();
        scratch.touched_bits.resize(n.div_ceil(64), 0);
        scratch.mark_touched(true);

        // Stage the recomputed rows of every touched receiver: a widths
        // pass then a cursor-guided fill, both visiting in-neighbors in
        // topology order so row contents match a from-scratch build.
        scratch.stage_ids.clear();
        scratch.stage_widths.clear();
        scratch.widths.resize(s, 0);
        scratch.cursors.resize(s, 0);
        for &u in &scratch.touched {
            scratch.widths.fill(0);
            for &v in self.topology.in_neighbors(u) {
                for c in self
                    .availability
                    .get(v.as_usize())
                    .iter_common(self.availability.get(u.as_usize()))
                {
                    if self.propagation.admits(self.topology.distance(v, u), c) {
                        scratch.widths[c.index() as usize] += 1;
                    }
                }
            }
            let base = scratch.stage_ids.len() as u32;
            let mut acc = base;
            for c in 0..s {
                scratch.cursors[c] = acc;
                acc += scratch.widths[c];
            }
            scratch.stage_ids.resize(acc as usize, NodeId::new(0));
            for &v in self.topology.in_neighbors(u) {
                for c in self
                    .availability
                    .get(v.as_usize())
                    .iter_common(self.availability.get(u.as_usize()))
                {
                    if self.propagation.admits(self.topology.distance(v, u), c) {
                        let cur = &mut scratch.cursors[c.index() as usize];
                        scratch.stage_ids[*cur as usize] = v;
                        *cur += 1;
                    }
                }
            }
            scratch.stage_widths.extend_from_slice(&scratch.widths);
        }

        // `u ∈ receivers_on(v, c)` iff `v ∈ neighbors_on(u, c)`, so a
        // mirror cell can change only if it holds a touched receiver
        // before the batch or after it: exactly the cells named by the
        // touched receivers' old rows (read here, before the compaction
        // below replaces them) and new rows (the stage).
        scratch.cell_keys.clear();
        let mut stage_pos = 0usize;
        for (t_idx, &u) in scratch.touched.iter().enumerate() {
            for c in 0..s {
                for &v in self.neighbors.row(u.as_usize(), c) {
                    scratch
                        .cell_keys
                        .push(mirror_key(v.as_usize() * s + c, NO_RECEIVER));
                }
                let w = scratch.stage_widths[t_idx * s + c] as usize;
                for &v in &scratch.stage_ids[stage_pos..stage_pos + w] {
                    scratch
                        .cell_keys
                        .push(mirror_key(v.as_usize() * s + c, u.index()));
                }
                stage_pos += w;
            }
        }
        scratch.cell_keys.sort_unstable();
        scratch.cell_keys.dedup();

        // Compact the receiver-centric CSR into the double buffers:
        // touched blocks come from the stage, each run of untouched nodes
        // between them is one bulk copy with rebased offsets.
        scratch.ids_buf.clear();
        scratch.starts_buf.clear();
        scratch.starts_buf.push(0);
        let mut clean = 0usize;
        let mut stage_pos = 0usize;
        for (t_idx, &u) in scratch.touched.iter().enumerate() {
            let u = u.as_usize();
            self.neighbors.copy_cells(
                clean * s..u * s,
                &mut scratch.ids_buf,
                &mut scratch.starts_buf,
            );
            for &w in &scratch.stage_widths[t_idx * s..(t_idx + 1) * s] {
                let w = w as usize;
                scratch
                    .ids_buf
                    .extend_from_slice(&scratch.stage_ids[stage_pos..stage_pos + w]);
                stage_pos += w;
                scratch.starts_buf.push(scratch.ids_buf.len() as u32);
            }
            clean = u + 1;
        }
        self.neighbors.copy_cells(
            clean * s..n * s,
            &mut scratch.ids_buf,
            &mut scratch.starts_buf,
        );
        std::mem::swap(&mut self.neighbors.ids, &mut scratch.ids_buf);
        std::mem::swap(&mut self.neighbors.starts, &mut scratch.starts_buf);

        // Swap the touched receivers' entries in the sorted link
        // inventory: their fresh links (distinct sources of each new row)
        // are sorted, then merged with the surviving links into the double
        // buffer, dropping every link into a touched receiver on the way.
        scratch.fresh_links.clear();
        for &u in &scratch.touched {
            self.neighbors
                .distinct_sources(u.as_usize(), &mut scratch.froms);
            scratch
                .fresh_links
                .extend(scratch.froms.iter().map(|&v| Link { from: v, to: u }));
        }
        scratch.fresh_links.sort_unstable();
        scratch.links_buf.clear();
        let mut fresh = scratch.fresh_links.iter().copied().peekable();
        for &l in &self.links {
            if scratch.is_touched(l.to) {
                continue;
            }
            while let Some(f) = fresh.next_if(|f| *f < l) {
                scratch.links_buf.push(f);
            }
            scratch.links_buf.push(l);
        }
        scratch.links_buf.extend(fresh);
        std::mem::swap(&mut self.links, &mut scratch.links_buf);

        // Patch the mirror into the double buffers: each named cell keeps
        // its untouched receivers and merges in, ascending, the touched
        // receivers whose new row names it; each run of cells between
        // named ones is one bulk copy with rebased offsets.
        scratch.ids_buf.clear();
        scratch.starts_buf.clear();
        scratch.starts_buf.push(0);
        let mut clean = 0usize;
        let mut keys = &scratch.cell_keys[..];
        while let Some(&first) = keys.first() {
            let cell = (first >> 32) as usize;
            let run = keys.partition_point(|&k| k >> 32 == first >> 32);
            self.receivers
                .copy_cells(clean..cell, &mut scratch.ids_buf, &mut scratch.starts_buf);
            let mut fresh = keys[..run]
                .iter()
                .map(|&k| k as u32)
                .take_while(|&u| u != NO_RECEIVER)
                .map(NodeId::new)
                .peekable();
            for &u in self.receivers.cell(cell) {
                if scratch.is_touched(u) {
                    continue;
                }
                while let Some(f) = fresh.next_if(|&f| f < u) {
                    scratch.ids_buf.push(f);
                }
                scratch.ids_buf.push(u);
            }
            scratch.ids_buf.extend(fresh);
            scratch.starts_buf.push(scratch.ids_buf.len() as u32);
            keys = &keys[run..];
            clean = cell + 1;
        }
        self.receivers
            .copy_cells(clean..n * s, &mut scratch.ids_buf, &mut scratch.starts_buf);
        std::mem::swap(&mut self.receivers.ids, &mut scratch.ids_buf);
        std::mem::swap(&mut self.receivers.starts, &mut scratch.starts_buf);
        scratch.mark_touched(false);
    }

    /// The underlying communication graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of nodes (`N`).
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// Size of the universal channel set.
    pub fn universe_size(&self) -> u16 {
        self.universe
    }

    /// The available channel set `A(u)`, as a borrowed view into the flat
    /// availability arena. Materialize with [`ChannelSetRef::to_owned`]
    /// only off the hot path.
    pub fn available(&self, u: NodeId) -> ChannelSetRef<'_> {
        self.availability.get(u.as_usize())
    }

    /// The propagation model.
    pub fn propagation(&self) -> &Propagation {
        &self.propagation
    }

    /// In-neighbors of `u` on channel `c`: the nodes whose transmissions on
    /// `c` reach (and can collide at) `u`. A borrowed CSR slice.
    pub fn neighbors_on(&self, u: NodeId, c: ChannelId) -> &[NodeId] {
        self.neighbors.row(u.as_usize(), c.index() as usize)
    }

    /// Out-neighbors of `v` on channel `c`: the nodes a transmission by `v`
    /// on `c` reaches, ascending. The transmitter-centric mirror of
    /// [`neighbors_on`](Self::neighbors_on): `u ∈ receivers_on(v, c)` iff
    /// `v ∈ neighbors_on(u, c)`. A borrowed CSR slice.
    pub fn receivers_on(&self, v: NodeId, c: ChannelId) -> &[NodeId] {
        self.receivers.row(v.as_usize(), c.index() as usize)
    }

    /// The span of the directed link `from → to`: channels on which `to`
    /// can hear `from`.
    pub fn span(&self, from: NodeId, to: NodeId) -> ChannelSet {
        (0..self.universe)
            .map(ChannelId::new)
            .filter(|&c| self.neighbors_on(to, c).contains(&from))
            .collect()
    }

    /// All discovery obligations: directed links with non-empty span,
    /// sorted.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The degree `Δ(u, c)` — number of neighbors of `u` on channel `c`.
    pub fn degree_on(&self, u: NodeId, c: ChannelId) -> usize {
        self.neighbors_on(u, c).len()
    }

    /// `S`: size of the largest available channel set.
    pub fn s_max(&self) -> usize {
        (0..self.node_count())
            .map(|i| self.availability.get(i).len())
            .max()
            .unwrap_or(0)
    }

    /// `Δ`: maximum degree of any node on any channel.
    pub fn max_degree(&self) -> usize {
        self.neighbors.max_row_len()
    }

    /// `ρ`: minimum span-ratio over all links — `|span(v,u)| / |A(u)|`,
    /// minimized over directed links `(v, u)`. Returns 1.0 for a network
    /// with no links (vacuous minimum, and the best case for the bounds).
    pub fn rho(&self) -> f64 {
        self.links
            .iter()
            .map(|l| {
                let span = self.span(l.from, l.to).len() as f64;
                let a = self.available(l.to).len() as f64;
                span / a
            })
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Ground truth for node `u`: every `(neighbor, common channel set)`
    /// pair a correct discovery run must report. The common set is
    /// `A(v) ∩ A(u)` — what `u` computes from `v`'s beacon — even when
    /// diverse propagation makes the usable span smaller.
    ///
    /// Sorted by neighbor. Costs O(deg·S): the neighbors are the distinct
    /// ids of `u`'s CSR rows, exactly the sources of its links.
    pub fn expected_discovery(&self, u: NodeId) -> Vec<(NodeId, ChannelSet)> {
        let mut froms = Vec::new();
        self.neighbors.distinct_sources(u.as_usize(), &mut froms);
        froms
            .into_iter()
            .map(|v| (v, self.available(v).intersection(self.available(u))))
            .collect()
    }

    /// Nodes with no discovery obligations toward them (no in-links).
    pub fn isolated_receivers(&self) -> Vec<NodeId> {
        let mut has_in = vec![false; self.node_count()];
        for l in &self.links {
            has_in[l.to.as_usize()] = true;
        }
        has_in
            .iter()
            .enumerate()
            .filter(|(_, &h)| !h)
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }
}

/// Bytes each directed link costs at least: 8 in the link inventory, 8 in
/// the topology's adjacency lists (`from`'s out-list and `to`'s in-list),
/// and 8 in the two CSR id arrays when its endpoints share one channel.
const STORAGE_BYTES_PER_LINK: u64 = 24;

/// Estimated resident bytes of a network's storage: the two CSR offset
/// arrays (`2 · (N·S + 1) · 4` bytes), the availability arena
/// (`N · ⌈S/64⌉ · 8` bytes), and at least 24 bytes for each of `links`
/// directed links (8 in the link inventory, 8 in the topology's adjacency
/// lists, 8 in the two CSR id arrays at one common channel). `links` is
/// the link count the topology implies: exact for a deterministic shape
/// (`N·(N−1)` for a complete graph), the expectation for a random one
/// (`p·N·(N−1)` for Erdős–Rényi). The link term is a floor: a link whose
/// endpoints share several channels takes more CSR ids. Saturates at
/// `u64::MAX`, so no node or link count wraps around to a small estimate.
pub fn estimate_storage_bytes(nodes: u64, universe: u16, links: u64) -> u64 {
    let s = u64::from(universe.max(1));
    let stride = s.div_ceil(64).max(1);
    let offsets = nodes.saturating_mul(s).saturating_add(1).saturating_mul(8);
    offsets
        .saturating_add(nodes.saturating_mul(stride).saturating_mul(8))
        .saturating_add(links.saturating_mul(STORAGE_BYTES_PER_LINK))
}

/// Default cap for [`check_storage_cap`]: 8 GiB.
pub const DEFAULT_STORAGE_CAP_BYTES: u64 = 8 * 1024 * 1024 * 1024;

/// The storage cap in effect: the `MMHEW_MEM_CAP_BYTES` environment
/// variable if set to a positive integer, else
/// [`DEFAULT_STORAGE_CAP_BYTES`].
pub fn storage_cap_bytes() -> u64 {
    std::env::var("MMHEW_MEM_CAP_BYTES")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(DEFAULT_STORAGE_CAP_BYTES)
}

/// A requested network would blow past the configured storage cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageCapError {
    /// Requested node count.
    pub nodes: u64,
    /// Requested universe size.
    pub universe: u16,
    /// Directed links the requested topology implies.
    pub links: u64,
    /// Estimated bytes ([`estimate_storage_bytes`]).
    pub estimate: u64,
    /// The cap in effect ([`storage_cap_bytes`]).
    pub cap: u64,
}

impl fmt::Display for StorageCapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a {}-node network over {} channels with about {} directed links needs \
             an estimated {} MiB of adjacency offsets, availability words and link \
             storage, over the {} MiB cap (set MMHEW_MEM_CAP_BYTES to raise it)",
            self.nodes,
            self.universe,
            self.links,
            self.estimate / (1024 * 1024),
            self.cap / (1024 * 1024),
        )
    }
}

impl std::error::Error for StorageCapError {}

/// Validates that the storage of a `nodes`-node network over `universe`
/// channels with `links` directed links fits under the cap, returning the
/// estimate-naming error otherwise. Call this *before* building a large
/// network so an oversized `--nodes` request fails with arithmetic
/// instead of the OOM killer.
///
/// # Errors
///
/// [`StorageCapError`] when [`estimate_storage_bytes`] exceeds
/// [`storage_cap_bytes`].
pub fn check_storage_cap(nodes: u64, universe: u16, links: u64) -> Result<(), StorageCapError> {
    let estimate = estimate_storage_bytes(nodes, universe, links);
    let cap = storage_cap_bytes();
    if estimate > cap {
        return Err(StorageCapError {
            nodes,
            universe,
            links,
            estimate,
            cap,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn cs(xs: &[u16]) -> ChannelSet {
        xs.iter().copied().collect()
    }

    fn two_node_net(a0: &[u16], a1: &[u16], universe: u16) -> Network {
        Network::new(
            generators::line(2),
            universe,
            vec![cs(a0), cs(a1)],
            Propagation::Uniform,
        )
        .expect("valid network")
    }

    #[test]
    fn basic_parameters() {
        let net = two_node_net(&[0, 1, 2], &[1, 2], 4);
        assert_eq!(net.s_max(), 3);
        assert_eq!(net.max_degree(), 1);
        assert_eq!(net.span(n(0), n(1)), cs(&[1, 2]));
        // rho = min(|span|/|A(receiver)|) = min(2/2, 2/3) = 2/3.
        assert!((net.rho() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(net.links().len(), 2);
    }

    #[test]
    fn disjoint_availability_removes_link() {
        let net = two_node_net(&[0, 1], &[2, 3], 4);
        assert!(net.links().is_empty());
        assert_eq!(net.rho(), 1.0, "vacuous minimum");
        assert_eq!(net.max_degree(), 0);
        assert_eq!(net.isolated_receivers(), vec![n(0), n(1)]);
    }

    #[test]
    fn degree_counts_per_channel() {
        // Star with hub 0; leaves 1,2 share channel 0 with hub, leaf 3 only
        // channel 1.
        let net = Network::new(
            generators::star(4),
            2,
            vec![cs(&[0, 1]), cs(&[0]), cs(&[0]), cs(&[1])],
            Propagation::Uniform,
        )
        .expect("valid network");
        assert_eq!(net.degree_on(n(0), ChannelId::new(0)), 2);
        assert_eq!(net.degree_on(n(0), ChannelId::new(1)), 1);
        assert_eq!(net.max_degree(), 2);
        assert_eq!(net.neighbors_on(n(0), ChannelId::new(0)), &[n(1), n(2)]);
    }

    #[test]
    fn expected_discovery_ground_truth() {
        let net = Network::new(
            generators::line(3),
            4,
            vec![cs(&[0, 1]), cs(&[1, 2]), cs(&[2, 3])],
            Propagation::Uniform,
        )
        .expect("valid network");
        assert_eq!(
            net.expected_discovery(n(1)),
            vec![(n(0), cs(&[1])), (n(2), cs(&[2]))]
        );
        assert_eq!(net.expected_discovery(n(0)), vec![(n(1), cs(&[1]))]);
        // Non-adjacent nodes never appear even with common channels.
        assert!(net.expected_discovery(n(0)).iter().all(|(v, _)| *v != n(2)));
    }

    #[test]
    fn asymmetric_links() {
        let mut topo = Topology::new(2);
        topo.add_edge(n(0), n(1)); // only 1 hears 0
        let net = Network::new(topo, 2, vec![cs(&[0]), cs(&[0])], Propagation::Uniform)
            .expect("valid network");
        assert_eq!(
            net.links(),
            &[Link {
                from: n(0),
                to: n(1)
            }]
        );
        assert!(net.expected_discovery(n(0)).is_empty());
        assert_eq!(net.expected_discovery(n(1)).len(), 1);
    }

    #[test]
    fn per_channel_propagation_prunes_spans() {
        // Nodes 3.0 apart; channel 0 reaches 5.0, channel 1 only 2.0.
        let mut topo = Topology::new(2);
        topo.set_position(n(0), (0.0, 0.0));
        topo.set_position(n(1), (3.0, 0.0));
        topo.add_bidirectional(n(0), n(1));
        let net = Network::new(
            topo,
            2,
            vec![cs(&[0, 1]), cs(&[0, 1])],
            Propagation::PerChannelRange {
                ranges: vec![5.0, 2.0],
            },
        )
        .expect("valid network");
        assert_eq!(net.span(n(0), n(1)), cs(&[0]));
        // rho uses the pruned span: 1/2.
        assert!((net.rho() - 0.5).abs() < 1e-12);
        // But the reported common set is the full intersection.
        assert_eq!(net.expected_discovery(n(1)), vec![(n(0), cs(&[0, 1]))]);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            Network::new(generators::line(2), 0, vec![], Propagation::Uniform),
            Err(NetworkError::EmptyUniverse)
        );
        assert!(matches!(
            Network::new(generators::line(2), 2, vec![cs(&[0])], Propagation::Uniform),
            Err(NetworkError::AvailabilityCount {
                provided: 1,
                nodes: 2
            })
        ));
        assert!(matches!(
            Network::new(
                generators::line(2),
                2,
                vec![cs(&[0]), cs(&[5])],
                Propagation::Uniform
            ),
            Err(NetworkError::ChannelOutOfUniverse { .. })
        ));
        assert!(matches!(
            Network::new(
                generators::line(2),
                2,
                vec![cs(&[0]), cs(&[1])],
                Propagation::PerChannelRange { ranges: vec![1.0] }
            ),
            Err(NetworkError::PropagationCount { .. })
        ));
    }

    /// Rebuilds a network from scratch out of the mutated state; since the
    /// inputs are identical, every derived structure must match the
    /// incrementally maintained one bit-for-bit.
    fn rebuilt(net: &Network) -> Network {
        let avail: Vec<ChannelSet> = (0..net.node_count())
            .map(|i| net.available(n(i as u32)).to_owned())
            .collect();
        Network::new(
            net.topology().clone(),
            net.universe_size(),
            avail,
            net.propagation().clone(),
        )
        .expect("mutated state stays valid")
    }

    #[test]
    fn apply_edge_events_match_scratch_rebuild() {
        let mut net = Network::new(
            generators::star(4),
            3,
            vec![cs(&[0, 1]), cs(&[0]), cs(&[0, 2]), cs(&[1])],
            Propagation::Uniform,
        )
        .expect("valid network");
        net.apply(&NetworkEvent::EdgeAdd {
            from: n(1),
            to: n(2),
        })
        .expect("apply");
        net.apply(&NetworkEvent::EdgeRemove {
            from: n(3),
            to: n(0),
        })
        .expect("apply");
        assert_eq!(net, rebuilt(&net));
        // Removing an absent edge is a no-op, not an error.
        let before = net.clone();
        net.apply(&NetworkEvent::EdgeRemove {
            from: n(3),
            to: n(0),
        })
        .expect("apply");
        assert_eq!(net, before);
    }

    #[test]
    fn apply_channel_events_update_spans_and_params() {
        let mut net = two_node_net(&[0, 1], &[0], 4);
        assert_eq!(net.span(n(0), n(1)), cs(&[0]));
        net.apply(&NetworkEvent::ChannelGained {
            node: n(1),
            channel: ChannelId::new(1),
        })
        .expect("apply");
        assert_eq!(net.span(n(0), n(1)), cs(&[0, 1]));
        assert_eq!(net.s_max(), 2);
        net.apply(&NetworkEvent::ChannelLost {
            node: n(1),
            channel: ChannelId::new(0),
        })
        .expect("apply");
        net.apply(&NetworkEvent::ChannelLost {
            node: n(1),
            channel: ChannelId::new(1),
        })
        .expect("apply");
        // Last common channel gone: the link (in both directions) vanishes.
        assert!(net.links().is_empty());
        assert_eq!(net.max_degree(), 0);
        assert_eq!(net, rebuilt(&net));
        // Regain one: the link reappears.
        net.apply(&NetworkEvent::ChannelGained {
            node: n(1),
            channel: ChannelId::new(1),
        })
        .expect("apply");
        assert_eq!(net.links().len(), 2);
        assert_eq!(net.span(n(1), n(0)), cs(&[1]));
        assert_eq!(net, rebuilt(&net));
    }

    #[test]
    fn apply_leave_and_rejoin() {
        let mut net = Network::new(
            generators::complete(3),
            2,
            vec![cs(&[0, 1]), cs(&[0, 1]), cs(&[0, 1])],
            Propagation::Uniform,
        )
        .expect("valid network");
        assert_eq!(net.links().len(), 6);
        net.apply(&NetworkEvent::NodeLeave { node: n(2) })
            .expect("apply");
        assert_eq!(net.links().len(), 2, "only 0↔1 remains");
        assert!(net.isolated_receivers().contains(&n(2)));
        assert_eq!(net, rebuilt(&net));
        // Rejoin with a narrower availability and restore its edges.
        net.apply(&NetworkEvent::NodeJoin {
            node: n(2),
            position: net.topology().position(n(2)),
            available: cs(&[1]),
        })
        .expect("apply");
        for (a, b) in [(0, 2), (1, 2)] {
            net.apply(&NetworkEvent::EdgeAdd {
                from: n(a),
                to: n(b),
            })
            .expect("apply");
            net.apply(&NetworkEvent::EdgeAdd {
                from: n(b),
                to: n(a),
            })
            .expect("apply");
        }
        assert_eq!(net.links().len(), 6);
        assert_eq!(net.span(n(0), n(2)), cs(&[1]));
        assert_eq!(net, rebuilt(&net));
    }

    #[test]
    fn receivers_on_mirrors_neighbors_on() {
        let mut net = Network::new(
            generators::star(4),
            3,
            vec![cs(&[0, 1]), cs(&[0]), cs(&[0, 2]), cs(&[1])],
            Propagation::Uniform,
        )
        .expect("valid network");
        let mirror_holds = |net: &Network| {
            for u in 0..net.node_count() as u32 {
                for c in 0..net.universe_size() {
                    let c = ChannelId::new(c);
                    let rx = net.receivers_on(n(u), c);
                    assert!(rx.windows(2).all(|w| w[0] < w[1]), "ascending receivers");
                    for v in 0..net.node_count() as u32 {
                        assert_eq!(
                            rx.contains(&n(v)),
                            net.neighbors_on(n(v), c).contains(&n(u)),
                            "mirror property for tx n{u} rx n{v} on {c}"
                        );
                    }
                }
            }
        };
        mirror_holds(&net);
        assert_eq!(net.receivers_on(n(0), ChannelId::new(0)), &[n(1), n(2)]);
        // The mirror must follow every class of dynamics event.
        net.apply(&NetworkEvent::ChannelLost {
            node: n(2),
            channel: ChannelId::new(0),
        })
        .expect("apply");
        mirror_holds(&net);
        net.apply(&NetworkEvent::EdgeAdd {
            from: n(1),
            to: n(3),
        })
        .expect("apply");
        mirror_holds(&net);
        net.apply(&NetworkEvent::NodeLeave { node: n(1) })
            .expect("apply");
        mirror_holds(&net);
        assert_eq!(net, rebuilt(&net));
    }

    #[test]
    fn apply_rejects_out_of_range() {
        let mut net = two_node_net(&[0], &[0], 2);
        let before = net.clone();
        assert!(matches!(
            net.apply(&NetworkEvent::NodeLeave { node: n(9) }),
            Err(NetworkError::NodeOutOfRange { nodes: 2, .. })
        ));
        assert!(matches!(
            net.apply(&NetworkEvent::ChannelGained {
                node: n(0),
                channel: ChannelId::new(7),
            }),
            Err(NetworkError::ChannelOutOfUniverse { .. })
        ));
        assert!(matches!(
            net.apply(&NetworkEvent::NodeJoin {
                node: n(1),
                position: (0.0, 0.0),
                available: cs(&[5]),
            }),
            Err(NetworkError::ChannelOutOfUniverse { .. })
        ));
        assert_eq!(net, before, "failed events leave the network untouched");
    }

    #[test]
    fn apply_all_rejects_a_batch_with_one_bad_event_whole() {
        let mut net = Network::new(
            generators::complete(3),
            2,
            vec![cs(&[0, 1]), cs(&[0, 1]), cs(&[0])],
            Propagation::Uniform,
        )
        .expect("valid network");
        let before = net.clone();
        // Valid mutations precede the bad event; none may land.
        let batch = [
            NetworkEvent::NodeLeave { node: n(2) },
            NetworkEvent::ChannelLost {
                node: n(0),
                channel: ChannelId::new(1),
            },
            NetworkEvent::EdgeAdd {
                from: n(0),
                to: n(3),
            },
        ];
        assert!(matches!(
            net.apply_all(&batch),
            Err(NetworkError::NodeOutOfRange { nodes: 3, .. })
        ));
        assert_eq!(net, before, "a failed batch leaves the network untouched");
        assert_eq!(net.topology(), before.topology());
        net.apply_all(&batch[..2])
            .expect("the valid prefix applies");
        assert_eq!(net, rebuilt(&net));
        // The empty batch is a no-op.
        let after = net.clone();
        net.apply_all(&[]).expect("empty batch");
        assert_eq!(net, after);
    }

    #[test]
    fn apply_all_matches_sequential_apply() {
        let base = Network::new(
            generators::star(5),
            3,
            vec![cs(&[0, 1]), cs(&[0]), cs(&[0, 2]), cs(&[1]), cs(&[0, 1, 2])],
            Propagation::Uniform,
        )
        .expect("valid network");
        // Events that overlap on the same rows, undo each other, and touch
        // a row both before and after its node leaves.
        let batch = [
            NetworkEvent::EdgeAdd {
                from: n(1),
                to: n(2),
            },
            NetworkEvent::ChannelLost {
                node: n(0),
                channel: ChannelId::new(0),
            },
            NetworkEvent::NodeLeave { node: n(4) },
            NetworkEvent::EdgeAdd {
                from: n(4),
                to: n(3),
            },
            NetworkEvent::ChannelGained {
                node: n(3),
                channel: ChannelId::new(0),
            },
            NetworkEvent::EdgeRemove {
                from: n(1),
                to: n(2),
            },
            NetworkEvent::NodeJoin {
                node: n(4),
                position: (0.5, 0.5),
                available: cs(&[1]),
            },
            NetworkEvent::EdgeAdd {
                from: n(0),
                to: n(4),
            },
        ];
        let mut sequential = base.clone();
        for event in &batch {
            sequential.apply(event).expect("apply");
        }
        let mut batched = base.clone();
        batched.apply_all(&batch).expect("apply_all");
        assert_eq!(batched, sequential);
        assert_eq!(batched, rebuilt(&batched));
        assert_ne!(batched, base, "the batch must change something");
    }

    #[test]
    fn expected_discovery_is_the_link_inventory_per_receiver() {
        let net = Network::new(
            generators::star(5),
            3,
            vec![cs(&[0, 1]), cs(&[0]), cs(&[2]), cs(&[1]), cs(&[0, 1, 2])],
            Propagation::Uniform,
        )
        .expect("valid network");
        for u in 0..5 {
            let from_links: Vec<(NodeId, ChannelSet)> = net
                .links()
                .iter()
                .filter(|l| l.to == n(u))
                .map(|l| {
                    (
                        l.from,
                        net.available(l.from).intersection(net.available(n(u))),
                    )
                })
                .collect();
            assert_eq!(net.expected_discovery(n(u)), from_links, "receiver n{u}");
        }
        assert_eq!(
            net.expected_discovery(n(0)),
            vec![(n(1), cs(&[0])), (n(3), cs(&[1])), (n(4), cs(&[0, 1]))]
        );
    }

    #[test]
    fn error_display() {
        let e = NetworkError::ChannelOutOfUniverse {
            node: n(3),
            channel: ChannelId::new(9),
        };
        assert!(e.to_string().contains("n3"));
        assert!(e.to_string().contains("ch9"));
    }

    #[test]
    fn link_display_and_order() {
        let l = Link {
            from: n(2),
            to: n(5),
        };
        assert_eq!(l.to_string(), "(n2→n5)");
        let net = two_node_net(&[0], &[0], 1);
        assert_eq!(
            net.links(),
            &[
                Link {
                    from: n(0),
                    to: n(1)
                },
                Link {
                    from: n(1),
                    to: n(0)
                }
            ]
        );
    }

    #[test]
    fn storage_estimate_and_cap() {
        // 1M nodes × 8 channels: 2·(8M+1)·4 B of offsets + 1M·8 B of arena.
        let est = estimate_storage_bytes(1_000_000, 8, 0);
        assert_eq!(est, 2 * (8_000_000 + 1) * 4 + 1_000_000 * 8);
        assert!(check_storage_cap(1_000_000, 8, 0).is_ok());
        let err = check_storage_cap(u64::MAX / 1_000, 64, 0).expect_err("over any sane cap");
        let msg = err.to_string();
        assert!(msg.contains("MiB"), "names the estimate: {msg}");
        assert!(msg.contains("MMHEW_MEM_CAP_BYTES"), "names the knob: {msg}");
        assert_eq!(err.estimate, estimate_storage_bytes(err.nodes, 64, 0));
        // 2⁶¹ nodes × 8 channels would wrap a plain product to 8 bytes.
        assert_eq!(estimate_storage_bytes(1 << 61, 8, 0), u64::MAX);
        assert_eq!(estimate_storage_bytes(4, 8, u64::MAX / 2), u64::MAX);
    }

    #[test]
    fn storage_estimate_counts_the_links_a_dense_topology_implies() {
        // Each directed link adds its 24 bytes on top of the node terms.
        let nodes_only = estimate_storage_bytes(1_000, 8, 0);
        assert_eq!(
            estimate_storage_bytes(1_000, 8, 999_000),
            nodes_only + 999_000 * STORAGE_BYTES_PER_LINK
        );
        // A complete graph on 30 000 nodes implies about 9·10⁸ directed
        // links, over 20 GB, while its node terms alone are a few MB.
        let links = 30_000 * 29_999;
        assert!(check_storage_cap(30_000, 8, 0).is_ok());
        let err = check_storage_cap(30_000, 8, links).expect_err("links alone exceed the cap");
        assert_eq!(err.links, links);
        assert!(err.estimate >= links * 24);
        let msg = err.to_string();
        assert!(msg.contains("899970000 directed links"), "{msg}");
        assert!(msg.contains("MiB"), "names the estimate: {msg}");
    }
}
