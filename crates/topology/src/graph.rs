//! The communication graph of an M²HeW network.
//!
//! Edges are *directed*: `u → v` means "`v` can hear `u`" (any message `u`
//! transmits reaches `v` if no collision occurs at `v`). The paper assumes a
//! symmetric graph for exposition but notes the algorithms extend to
//! asymmetric graphs; we keep direction explicit so the asymmetric
//! extension (experiment E12) is first-class.

use crate::node::NodeId;
use serde::Serialize;

/// A directed communication graph with per-node planar positions.
///
/// # Examples
///
/// ```
/// use mmhew_topology::{NodeId, Topology};
///
/// let mut t = Topology::new(3);
/// t.add_bidirectional(NodeId::new(0), NodeId::new(1));
/// t.add_edge(NodeId::new(1), NodeId::new(2)); // 2 hears 1, not vice versa
/// assert!(t.contains_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(t.contains_edge(NodeId::new(1), NodeId::new(2)));
/// assert!(!t.contains_edge(NodeId::new(2), NodeId::new(1)));
/// assert!(!t.is_symmetric());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Topology {
    /// `out[u]` = nodes that hear `u`.
    out: Vec<Vec<NodeId>>,
    /// `in_[u]` = nodes `u` hears.
    in_: Vec<Vec<NodeId>>,
    positions: Vec<(f64, f64)>,
}

/// `n` points evenly spaced on the unit circle, node `i` at angle
/// `2πi/n`: where [`Topology::new`] places its nodes.
pub(crate) fn circle_positions(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / n.max(1) as f64;
            (theta.cos(), theta.sin())
        })
        .collect()
}

/// Euclidean distance between two planar points.
pub(crate) fn distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

impl Topology {
    /// Creates an edgeless graph of `n` nodes positioned on a unit circle
    /// (generators overwrite positions as appropriate).
    pub fn new(n: usize) -> Self {
        Self {
            out: vec![Vec::new(); n],
            in_: vec![Vec::new(); n],
            positions: circle_positions(n),
        }
    }

    /// Builds the graph on `positions.len()` nodes whose edges are
    /// `edges`, equal to the graph that [`add_edge`](Self::add_edge) gives
    /// when called on each edge in stream order: lists keep insertion
    /// order, a repeated edge keeps its first place, and self-loops are
    /// dropped.
    ///
    /// One counting pass sizes every out- and in-list, and a second pass
    /// fills them, so no insert scans a list and a stream that repeats no
    /// edge allocates each list once, at its final length.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a node `≥ positions.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mmhew_topology::{NodeId, Topology};
    ///
    /// let (a, b) = (NodeId::new(0), NodeId::new(1));
    /// let t = Topology::from_edges(vec![(0.0, 0.0); 2], &[(a, b), (a, a), (a, b)]);
    /// let mut one_by_one = Topology::new(2);
    /// one_by_one.add_edge(a, b);
    /// assert_eq!(t.out_neighbors(a), one_by_one.out_neighbors(a));
    /// assert_eq!(t.edge_count(), 1);
    /// ```
    pub fn from_edges(positions: Vec<(f64, f64)>, edges: &[(NodeId, NodeId)]) -> Self {
        let n = positions.len();
        let mut out_len = vec![0usize; n];
        let mut in_len = vec![0usize; n];
        for &(u, v) in edges {
            assert!(u.as_usize() < n, "source out of range");
            assert!(v.as_usize() < n, "target out of range");
            if u != v {
                out_len[u.as_usize()] += 1;
                in_len[v.as_usize()] += 1;
            }
        }
        let mut out: Vec<Vec<NodeId>> = out_len.into_iter().map(Vec::with_capacity).collect();
        let mut in_: Vec<Vec<NodeId>> = in_len.into_iter().map(Vec::with_capacity).collect();
        for &(u, v) in edges {
            if u != v {
                out[u.as_usize()].push(v);
                in_[v.as_usize()].push(u);
            }
        }
        // A stream that repeats no edge repeats no id within an out-list,
        // and then none within an in-list either.
        let mut seen = vec![0usize; n];
        if keep_first_of_each(&mut out, &mut seen) {
            seen.fill(0);
            keep_first_of_each(&mut in_, &mut seen);
        }
        Self {
            out,
            in_,
            positions,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Adds the directed edge `u → v` (`v` hears `u`). Duplicate edges and
    /// self-loops are ignored.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u.as_usize() < self.node_count(), "source out of range");
        assert!(v.as_usize() < self.node_count(), "target out of range");
        if u == v || self.contains_edge(u, v) {
            return;
        }
        self.out[u.as_usize()].push(v);
        self.in_[v.as_usize()].push(u);
    }

    /// Adds edges in both directions.
    pub fn add_bidirectional(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Removes the directed edge `u → v`. Returns whether the edge existed.
    /// Remaining neighbor order is preserved so recomputation stays
    /// deterministic.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u.as_usize() < self.node_count(), "source out of range");
        assert!(v.as_usize() < self.node_count(), "target out of range");
        if !self.contains_edge(u, v) {
            return false;
        }
        self.out[u.as_usize()].retain(|&w| w != v);
        self.in_[v.as_usize()].retain(|&w| w != u);
        true
    }

    /// Removes every edge incident to `u` (both directions). Returns the
    /// number of directed edges removed. Allocation-free: `u`'s own lists
    /// drain in place and the mirrors drop `u` with order-preserving
    /// `retain`, so churn-heavy dynamics schedules stay zero-allocation.
    pub fn remove_incident(&mut self, u: NodeId) -> usize {
        let mut removed = 0;
        while let Some(v) = self.out[u.as_usize()].pop() {
            self.in_[v.as_usize()].retain(|&w| w != u);
            removed += 1;
        }
        while let Some(v) = self.in_[u.as_usize()].pop() {
            self.out[v.as_usize()].retain(|&w| w != u);
            removed += 1;
        }
        removed
    }

    /// True if `v` hears `u`.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out[u.as_usize()].contains(&v)
    }

    /// Nodes that hear `u`.
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out[u.as_usize()]
    }

    /// Nodes `u` hears (its potential discoveries and interferers).
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.in_[u.as_usize()]
    }

    /// True if every edge has its reverse.
    pub fn is_symmetric(&self) -> bool {
        self.out.iter().enumerate().all(|(u, vs)| {
            vs.iter()
                .all(|&v| self.contains_edge(v, NodeId::new(u as u32)))
        })
    }

    /// Planar position of a node (used by spatial availability models).
    pub fn position(&self, u: NodeId) -> (f64, f64) {
        self.positions[u.as_usize()]
    }

    /// All node positions, indexed by node.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Overwrites a node's position.
    pub fn set_position(&mut self, u: NodeId, pos: (f64, f64)) {
        self.positions[u.as_usize()] = pos;
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Iterator over all directed edges `(u, v)` with `v` hearing `u`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (NodeId::new(u as u32), v)))
    }

    /// Euclidean distance between two nodes' positions.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        distance(self.position(u), self.position(v))
    }

    /// Mean in-degree (equals mean out-degree).
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// True if the *undirected support* of the graph is connected (each
    /// node can reach each other ignoring edge direction). The empty graph
    /// and single-node graph count as connected.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visited = 1;
        while let Some(u) = stack.pop() {
            let uid = NodeId::new(u as u32);
            for &v in self.out_neighbors(uid).iter().chain(self.in_neighbors(uid)) {
                if !seen[v.as_usize()] {
                    seen[v.as_usize()] = true;
                    visited += 1;
                    stack.push(v.as_usize());
                }
            }
        }
        visited == n
    }
}

/// Drops every later occurrence of an id within each list, keeping the
/// first, and returns whether any list lost one. `seen` holds one zeroed
/// stamp per node; a list that shrinks gives back its spare capacity.
fn keep_first_of_each(lists: &mut [Vec<NodeId>], seen: &mut [usize]) -> bool {
    let mut any = false;
    for (i, list) in lists.iter_mut().enumerate() {
        let len = list.len();
        list.retain(|&v| std::mem::replace(&mut seen[v.as_usize()], i + 1) != i + 1);
        if list.len() < len {
            list.shrink_to_fit();
            any = true;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_graph() {
        let t = Topology::new(4);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edge_count(), 0);
        assert!(t.is_symmetric());
        assert!(!t.is_connected());
        assert!(Topology::new(1).is_connected());
        assert!(Topology::new(0).is_connected());
    }

    #[test]
    fn directed_edges() {
        let mut t = Topology::new(3);
        t.add_edge(n(0), n(1));
        assert_eq!(t.out_neighbors(n(0)), &[n(1)]);
        assert_eq!(t.in_neighbors(n(1)), &[n(0)]);
        assert!(t.in_neighbors(n(0)).is_empty());
        assert!(!t.is_symmetric());
        t.add_edge(n(1), n(0));
        assert!(t.is_symmetric());
    }

    #[test]
    fn duplicates_and_self_loops_ignored() {
        let mut t = Topology::new(2);
        t.add_edge(n(0), n(1));
        t.add_edge(n(0), n(1));
        t.add_edge(n(0), n(0));
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn remove_edge_and_incident() {
        let mut t = Topology::new(4);
        t.add_bidirectional(n(0), n(1));
        t.add_bidirectional(n(0), n(2));
        t.add_edge(n(3), n(0));
        assert!(t.remove_edge(n(0), n(1)));
        assert!(!t.remove_edge(n(0), n(1)), "already gone");
        assert!(t.contains_edge(n(1), n(0)), "reverse untouched");
        // 0 still touches: 1→0, 0↔2, 3→0 = 4 directed edges.
        assert_eq!(t.remove_incident(n(0)), 4);
        assert_eq!(t.edge_count(), 0);
        assert!(t.in_neighbors(n(0)).is_empty() && t.out_neighbors(n(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut t = Topology::new(2);
        t.add_edge(n(0), n(5));
    }

    #[test]
    fn edges_iterator() {
        let mut t = Topology::new(3);
        t.add_bidirectional(n(0), n(1));
        t.add_edge(n(2), n(0));
        let mut edges: Vec<_> = t.edges().collect();
        edges.sort();
        assert_eq!(edges, vec![(n(0), n(1)), (n(1), n(0)), (n(2), n(0))]);
    }

    #[test]
    fn connectivity_ignores_direction() {
        let mut t = Topology::new(3);
        t.add_edge(n(0), n(1));
        t.add_edge(n(2), n(1));
        assert!(t.is_connected());
    }

    #[test]
    fn average_degree_counts_directed_edges() {
        let mut line = Topology::new(4);
        for i in 1..4 {
            line.add_bidirectional(n(i - 1), n(i));
        }
        assert!((line.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn positions_and_distance() {
        let mut t = Topology::new(2);
        t.set_position(n(0), (0.0, 0.0));
        t.set_position(n(1), (3.0, 4.0));
        assert_eq!(t.distance(n(0), n(1)), 5.0);
        assert_eq!(t.positions().len(), 2);
    }
}
