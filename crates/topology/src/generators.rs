//! Standard topology generators.
//!
//! All generators produce symmetric graphs except [`asymmetric_disk`],
//! which models nodes with unequal transmit powers (the asymmetric-graph
//! extension mentioned in the paper's conclusions).
//!
//! Each generator lists its edges once, in a fixed order, and builds the
//! graph with [`Topology::from_edges`], which sizes every adjacency list
//! before filling it. The result equals adding the same edges one at a
//! time with [`Topology::add_edge`], whose list order the resolver's
//! capture draw and every trace follow, without a duplicate scan per
//! insert. The two geometric generators find each node's partners in a
//! cell index (a counting sort of the nodes into square cells at least
//! one reach wide) instead of scanning all pairs.

use crate::graph::{circle_positions, distance, Topology};
use crate::node::NodeId;
use mmhew_util::SeedTree;
use rand::Rng;
use std::ops::Range;

/// Both directions of the link `i — j`, as `add_bidirectional` inserts
/// them.
fn both_ways(i: usize, j: usize) -> [(NodeId, NodeId); 2] {
    let (u, v) = (NodeId::new(i as u32), NodeId::new(j as u32));
    [(u, v), (v, u)]
}

/// A path of `n` nodes: `0 — 1 — ... — n−1`.
pub fn line(n: usize) -> Topology {
    let positions = (0..n).map(|i| (i as f64, 0.0)).collect();
    let edges: Vec<_> = (1..n).flat_map(|i| both_ways(i - 1, i)).collect();
    Topology::from_edges(positions, &edges)
}

/// A cycle of `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Topology {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let edges: Vec<_> = (0..n).flat_map(|i| both_ways(i, (i + 1) % n)).collect();
    Topology::from_edges(circle_positions(n), &edges)
}

/// A `w × h` grid with 4-neighborhood, positions at integer coordinates.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(w: usize, h: usize) -> Topology {
    assert!(w > 0 && h > 0, "grid dimensions must be positive");
    let positions = (0..w * h)
        .map(|i| ((i % w) as f64, (i / w) as f64))
        .collect();
    let mut edges = Vec::new();
    for i in 0..w * h {
        if i % w + 1 < w {
            edges.extend(both_ways(i, i + 1));
        }
        if i / w + 1 < h {
            edges.extend(both_ways(i, i + w));
        }
    }
    Topology::from_edges(positions, &edges)
}

/// A star: node 0 is the hub, nodes `1..n` its leaves.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Topology {
    assert!(n >= 2, "a star needs a hub and at least one leaf");
    let mut positions = circle_positions(n);
    positions[0] = (0.0, 0.0);
    let edges: Vec<_> = (1..n).flat_map(|i| both_ways(0, i)).collect();
    Topology::from_edges(positions, &edges)
}

/// The complete graph on `n` nodes (single-hop network).
pub fn complete(n: usize) -> Topology {
    let edges: Vec<_> = (0..n)
        .flat_map(|i| (i + 1..n).flat_map(move |j| both_ways(i, j)))
        .collect();
    Topology::from_edges(circle_positions(n), &edges)
}

/// Nodes bucketed by a grid of `axis × axis` square cells over the
/// `side × side` square (a counting sort), each cell's nodes ascending by
/// id and stored next to their positions, so a cell is one contiguous
/// read. Cells are at least `reach` wide, so every node within `reach` of
/// a point lies in the 3×3 block of cells around that point's cell.
struct CellIndex {
    side: f64,
    axis: usize,
    /// Cell `k` holds entries `starts[k]..starts[k + 1]`; cell `(cx, cy)`
    /// is `k = cy·axis + cx`.
    starts: Vec<usize>,
    ids: Vec<u32>,
    /// `points[e]` is the position of node `ids[e]`.
    points: Vec<(f64, f64)>,
}

impl CellIndex {
    fn new(positions: &[(f64, f64)], side: f64, reach: f64) -> Self {
        // Cell width `side / axis` stays ≥ reach (axis ≤ ⌊side/reach⌋);
        // the √n clamp only ever *widens* cells, which keeps the 3×3
        // window a superset of the disk while bounding the cell count.
        let most = ((positions.len() as f64).sqrt().ceil() as usize).max(1);
        let axis = ((side / reach).floor() as usize).clamp(1, most);
        let mut index = Self {
            side,
            axis,
            starts: vec![0; axis * axis + 1],
            ids: vec![0; positions.len()],
            points: vec![(0.0, 0.0); positions.len()],
        };
        for &p in positions {
            let k = index.cell_of(p);
            index.starts[k + 1] += 1;
        }
        for k in 0..axis * axis {
            index.starts[k + 1] += index.starts[k];
        }
        let mut cursor = index.starts[..axis * axis].to_vec();
        for (i, &p) in positions.iter().enumerate() {
            let e = &mut cursor[index.cell_of(p)];
            index.ids[*e] = i as u32;
            index.points[*e] = p;
            *e += 1;
        }
        index
    }

    /// The column (or row) of coordinate `x`.
    fn axis_cell(&self, x: f64) -> usize {
        ((x / self.side * self.axis as f64) as usize).min(self.axis - 1)
    }

    fn cell_of(&self, (x, y): (f64, f64)) -> usize {
        self.axis_cell(y) * self.axis + self.axis_cell(x)
    }

    /// The entries of the 3×3 block of cells around `p`'s cell, one range
    /// per row of the block: the cells of a row are adjacent, so their
    /// entries are too.
    fn around(&self, (x, y): (f64, f64)) -> impl Iterator<Item = Range<usize>> + '_ {
        let (cx, cy) = (self.axis_cell(x), self.axis_cell(y));
        let (first, last) = (cx.saturating_sub(1), (cx + 1).min(self.axis - 1));
        (cy.saturating_sub(1)..=(cy + 1).min(self.axis - 1)).map(move |wy| {
            let row = wy * self.axis;
            self.starts[row + first]..self.starts[row + last + 1]
        })
    }

    /// Appends to `out` each id in `entries` that `wanted` accepts and
    /// whose position is within `reach` of `p`. Both tests are coin flips
    /// for the branch predictor, so every entry is written and kept or
    /// overwritten by the next.
    fn push_within(
        &self,
        entries: Range<usize>,
        p: (f64, f64),
        reach: f64,
        wanted: impl Fn(u32) -> bool,
        out: &mut Vec<u32>,
    ) {
        let mut len = out.len();
        out.resize(len + entries.len(), 0);
        for (&j, &q) in self.ids[entries.clone()].iter().zip(&self.points[entries]) {
            out[len] = j;
            len += usize::from(wanted(j) & (distance(p, q) <= reach));
        }
        out.truncate(len);
    }
}

/// A random geometric (unit-disk) graph: `n` nodes uniform in a
/// `side × side` square, edges between nodes within `radius`.
///
/// Positions are drawn first, node by node. Partners come from a cell
/// index with cells at least `radius` wide, so only the 3×3 cells
/// around a node are searched: `O(n + edges)` expected instead of the
/// `O(n²)` all-pairs scan, which is what makes 10⁵–10⁶-node networks
/// constructible. Each node `i` links to its partners `j > i` in
/// ascending order, reproducing the all-pairs loop's `(i asc, j asc)`
/// insertion sequence, so the [`Topology`] is the same at the same seed:
/// every node's out- and in-list is its partners, ascending.
pub fn unit_disk(n: usize, side: f64, radius: f64, seed: SeedTree) -> Topology {
    assert!(side > 0.0 && radius >= 0.0, "invalid geometry");
    let mut rng = seed.branch("unit-disk").rng();
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    if n == 0 || radius == 0.0 {
        return Topology::from_edges(positions, &[]);
    }
    let index = CellIndex::new(&positions, side, radius);
    let mut edges = Vec::new();
    let mut partners: Vec<u32> = Vec::new();
    for (i, &p) in positions.iter().enumerate() {
        partners.clear();
        for entries in index.around(p) {
            index.push_within(entries, p, radius, |j| j as usize > i, &mut partners);
        }
        partners.sort_unstable();
        for &j in &partners {
            edges.extend(both_ways(i, j as usize));
        }
    }
    Topology::from_edges(positions, &edges)
}

/// An Erdős–Rényi graph `G(n, p)` (each undirected pair connected
/// independently with probability `p`).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, seed: SeedTree) -> Topology {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut rng = seed.branch("erdos-renyi").rng();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                edges.extend(both_ways(i, j));
            }
        }
    }
    Topology::from_edges(circle_positions(n), &edges)
}

/// An *asymmetric* random geometric graph: each node draws its own
/// transmit range uniformly from `[r_min, r_max]`; `v` hears `u` iff
/// `dist(u, v) ≤ range(u)`. With `r_min < r_max` some links are one-way.
///
/// Partners come from a cell index with cells at least `r_max` wide.
/// Each node's out-list is its partners, ascending, as the all-pairs
/// `(u asc, v asc)` scan inserts them.
///
/// # Panics
///
/// Panics if the geometry is invalid (`side ≤ 0` or `r_min > r_max`).
pub fn asymmetric_disk(n: usize, side: f64, r_min: f64, r_max: f64, seed: SeedTree) -> Topology {
    assert!(side > 0.0, "invalid geometry");
    assert!(0.0 <= r_min && r_min <= r_max, "invalid range interval");
    let mut rng = seed.branch("asym-disk").rng();
    let mut positions = Vec::with_capacity(n);
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        positions.push((rng.gen_range(0.0..side), rng.gen_range(0.0..side)));
        ranges.push(if r_min == r_max {
            r_min
        } else {
            rng.gen_range(r_min..=r_max)
        });
    }
    let index = CellIndex::new(&positions, side, r_max);
    let mut edges = Vec::new();
    let mut partners: Vec<u32> = Vec::new();
    for (i, (&p, &range)) in positions.iter().zip(&ranges).enumerate() {
        partners.clear();
        for entries in index.around(p) {
            index.push_within(entries, p, range, |j| j as usize != i, &mut partners);
        }
        partners.sort_unstable();
        edges.extend(
            partners
                .iter()
                .map(|&j| (NodeId::new(i as u32), NodeId::new(j))),
        );
    }
    Topology::from_edges(positions, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn line_shape() {
        let t = line(4);
        assert_eq!(t.edge_count(), 6); // 3 undirected edges
        assert!(t.contains_edge(n(0), n(1)));
        assert!(t.contains_edge(n(2), n(3)));
        assert!(!t.contains_edge(n(0), n(2)));
        assert!(t.is_connected());
        assert!(t.is_symmetric());
        assert_eq!(line(1).edge_count(), 0);
        assert_eq!(line(0).node_count(), 0);
    }

    #[test]
    fn ring_shape() {
        let t = ring(5);
        assert_eq!(t.edge_count(), 10);
        assert!(t.contains_edge(n(4), n(0)));
        assert!(t.is_connected());
        for u in t.nodes() {
            assert_eq!(t.in_neighbors(u).len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_panics() {
        let _ = ring(2);
    }

    #[test]
    fn grid_shape() {
        let t = grid(3, 2);
        assert_eq!(t.node_count(), 6);
        // Undirected edges: 2 rows * 2 horiz + 3 cols * 1 vert = 7.
        assert_eq!(t.edge_count(), 14);
        assert!(t.is_connected());
        // Corner has degree 2, middle-edge 3.
        assert_eq!(t.in_neighbors(n(0)).len(), 2);
        assert_eq!(t.in_neighbors(n(1)).len(), 3);
        assert_eq!(t.position(n(4)), (1.0, 1.0));
    }

    #[test]
    fn star_shape() {
        let t = star(6);
        assert_eq!(t.in_neighbors(n(0)).len(), 5);
        for i in 1..6 {
            assert_eq!(t.in_neighbors(n(i)).len(), 1);
        }
        assert!(t.is_connected());
    }

    #[test]
    fn complete_shape() {
        let t = complete(5);
        assert_eq!(t.edge_count(), 20);
        for u in t.nodes() {
            assert_eq!(t.in_neighbors(u).len(), 4);
        }
    }

    #[test]
    fn unit_disk_radius_zero_and_huge() {
        let seed = SeedTree::new(5);
        let empty = unit_disk(10, 1.0, 0.0, seed);
        assert_eq!(empty.edge_count(), 0);
        let full = unit_disk(10, 1.0, 10.0, seed);
        assert_eq!(full.edge_count(), 90);
        assert!(full.is_symmetric());
    }

    #[test]
    fn unit_disk_edges_match_distances() {
        let t = unit_disk(30, 10.0, 3.0, SeedTree::new(6));
        for u in t.nodes() {
            for v in t.nodes() {
                if u == v {
                    continue;
                }
                assert_eq!(
                    t.contains_edge(u, v),
                    t.distance(u, v) <= 3.0,
                    "edge ({u},{v}) inconsistent with distance"
                );
            }
        }
    }

    #[test]
    fn unit_disk_bucketing_matches_naive_scan() {
        // The spatial-hash fast path must reproduce the naive O(n²) loop
        // byte-for-byte: same positions (same RNG stream) and the same
        // edge insertion order, hence an identical Topology value.
        for (n_nodes, side, radius, seed) in [
            (80, 10.0, 1.5, 11u64),
            (50, 4.0, 4.5, 12), // radius > side: single cell, all pairs
            (64, 8.0, 0.3, 13), // sparse: many empty cells
        ] {
            let fast = unit_disk(n_nodes, side, radius, SeedTree::new(seed));
            let mut naive = Topology::new(n_nodes);
            let mut rng = SeedTree::new(seed).branch("unit-disk").rng();
            for i in 0..n_nodes {
                let pos = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
                naive.set_position(n(i as u32), pos);
            }
            for i in 0..n_nodes {
                for j in (i + 1)..n_nodes {
                    if naive.distance(n(i as u32), n(j as u32)) <= radius {
                        naive.add_bidirectional(n(i as u32), n(j as u32));
                    }
                }
            }
            assert_eq!(fast, naive, "n={n_nodes} side={side} radius={radius}");
        }
    }

    #[test]
    fn unit_disk_deterministic() {
        let a = unit_disk(20, 5.0, 2.0, SeedTree::new(7));
        let b = unit_disk(20, 5.0, 2.0, SeedTree::new(7));
        assert_eq!(a, b);
        let c = unit_disk(20, 5.0, 2.0, SeedTree::new(8));
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(10, 0.0, SeedTree::new(1)).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, SeedTree::new(1)).edge_count(), 90);
    }

    #[test]
    fn erdos_renyi_density_close_to_p() {
        let t = erdos_renyi(60, 0.3, SeedTree::new(2));
        let pairs = 60.0 * 59.0 / 2.0;
        let density = (t.edge_count() as f64 / 2.0) / pairs;
        assert!((density - 0.3).abs() < 0.06, "density {density}");
    }

    #[test]
    fn asymmetric_disk_has_oneway_links() {
        let t = asymmetric_disk(40, 10.0, 1.0, 5.0, SeedTree::new(3));
        assert!(!t.is_symmetric(), "expected some one-way links");
        // Every edge still respects the transmitter's range ordering:
        // v hears u => dist <= r_max.
        for (u, v) in t.edges() {
            assert!(t.distance(u, v) <= 5.0);
        }
    }

    #[test]
    fn asymmetric_disk_equal_ranges_is_symmetric() {
        let t = asymmetric_disk(20, 5.0, 2.0, 2.0, SeedTree::new(4));
        assert!(t.is_symmetric());
    }
}
