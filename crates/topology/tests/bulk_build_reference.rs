//! The one-pass network build against per-edge references.
//!
//! [`reference`] keeps the generator bodies that add one edge at a time
//! through `Topology::add_edge`, and [`Expected`] derives every adjacency
//! row and link of a network from its topology, availability and
//! propagation, one edge at a time, through the public API. Every
//! generator, `Topology::from_edges` and `Network::new` must reproduce them
//! exactly: the resolver's capture draw and every trace follow row order,
//! so equal sets are not enough. The ground-truth queries `span` and `rho`
//! are checked against the CSR scans they replaced.

use mmhew_spectrum::{AvailabilityModel, ChannelId, ChannelSet};
use mmhew_topology::{
    generators, Link, Network, NetworkBuilder, NetworkEvent, NodeId, Propagation, Topology,
};
use mmhew_util::{prop, SeedTree, Xoshiro256StarStar};
use rand::Rng;

/// The generator bodies that insert each edge with `add_edge` (whose
/// duplicate scan defines list order and first-kept repeats), and the
/// all-pairs scans in place of the cell index.
mod reference {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i as u32)
    }

    pub fn line(nodes: usize) -> Topology {
        let mut t = Topology::new(nodes);
        for i in 1..nodes {
            t.add_bidirectional(n(i - 1), n(i));
            t.set_position(n(i), (i as f64, 0.0));
        }
        if nodes > 0 {
            t.set_position(n(0), (0.0, 0.0));
        }
        t
    }

    pub fn ring(nodes: usize) -> Topology {
        let mut t = Topology::new(nodes);
        for i in 0..nodes {
            t.add_bidirectional(n(i), n((i + 1) % nodes));
        }
        t
    }

    pub fn grid(w: usize, h: usize) -> Topology {
        let mut t = Topology::new(w * h);
        let id = |x: usize, y: usize| n(y * w + x);
        for y in 0..h {
            for x in 0..w {
                t.set_position(id(x, y), (x as f64, y as f64));
                if x + 1 < w {
                    t.add_bidirectional(id(x, y), id(x + 1, y));
                }
                if y + 1 < h {
                    t.add_bidirectional(id(x, y), id(x, y + 1));
                }
            }
        }
        t
    }

    pub fn star(nodes: usize) -> Topology {
        let mut t = Topology::new(nodes);
        for i in 1..nodes {
            t.add_bidirectional(n(0), n(i));
        }
        t.set_position(n(0), (0.0, 0.0));
        t
    }

    pub fn complete(nodes: usize) -> Topology {
        let mut t = Topology::new(nodes);
        for i in 0..nodes {
            for j in (i + 1)..nodes {
                t.add_bidirectional(n(i), n(j));
            }
        }
        t
    }

    pub fn unit_disk(nodes: usize, side: f64, radius: f64, seed: SeedTree) -> Topology {
        let mut t = Topology::new(nodes);
        let mut rng = seed.branch("unit-disk").rng();
        for i in 0..nodes {
            let pos = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            t.set_position(n(i), pos);
        }
        if radius == 0.0 {
            return t;
        }
        for i in 0..nodes {
            for j in (i + 1)..nodes {
                if t.distance(n(i), n(j)) <= radius {
                    t.add_bidirectional(n(i), n(j));
                }
            }
        }
        t
    }

    pub fn erdos_renyi(nodes: usize, p: f64, seed: SeedTree) -> Topology {
        let mut t = Topology::new(nodes);
        let mut rng = seed.branch("erdos-renyi").rng();
        for i in 0..nodes {
            for j in (i + 1)..nodes {
                if rng.gen_bool(p) {
                    t.add_bidirectional(n(i), n(j));
                }
            }
        }
        t
    }

    pub fn asymmetric_disk(
        nodes: usize,
        side: f64,
        r_min: f64,
        r_max: f64,
        seed: SeedTree,
    ) -> Topology {
        let mut t = Topology::new(nodes);
        let mut rng = seed.branch("asym-disk").rng();
        let mut ranges = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let pos = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            t.set_position(n(i), pos);
            ranges.push(if r_min == r_max {
                r_min
            } else {
                rng.gen_range(r_min..=r_max)
            });
        }
        for (i, &range) in ranges.iter().enumerate() {
            for j in 0..nodes {
                if i != j && t.distance(n(i), n(j)) <= range {
                    t.add_edge(n(i), n(j));
                }
            }
        }
        t
    }

    /// `edges` inserted one at a time into an edgeless graph at `positions`.
    pub fn from_edges(positions: &[(f64, f64)], edges: &[Edge]) -> Topology {
        let mut t = Topology::new(positions.len());
        for (i, &p) in positions.iter().enumerate() {
            t.set_position(n(i), p);
        }
        for &(u, v) in edges {
            t.add_edge(u, v);
        }
        t
    }
}

/// A generator call: the shape and its parameters.
#[derive(Debug, Clone)]
enum Shape {
    Line(usize),
    Ring(usize),
    Grid(usize, usize),
    Star(usize),
    Complete(usize),
    UnitDisk(usize, f64, f64),
    ErdosRenyi(usize, f64),
    AsymmetricDisk(usize, f64, f64, f64),
}

impl Shape {
    /// The generator under test and its per-edge reference, both on `seed`.
    fn build(&self, seed: SeedTree) -> (Topology, Topology) {
        match *self {
            Shape::Line(n) => (generators::line(n), reference::line(n)),
            Shape::Ring(n) => (generators::ring(n), reference::ring(n)),
            Shape::Grid(w, h) => (generators::grid(w, h), reference::grid(w, h)),
            Shape::Star(n) => (generators::star(n), reference::star(n)),
            Shape::Complete(n) => (generators::complete(n), reference::complete(n)),
            Shape::UnitDisk(n, side, r) => (
                generators::unit_disk(n, side, r, seed),
                reference::unit_disk(n, side, r, seed),
            ),
            Shape::ErdosRenyi(n, p) => (
                generators::erdos_renyi(n, p, seed),
                reference::erdos_renyi(n, p, seed),
            ),
            Shape::AsymmetricDisk(n, side, lo, hi) => (
                generators::asymmetric_disk(n, side, lo, hi, seed),
                reference::asymmetric_disk(n, side, lo, hi, seed),
            ),
        }
    }

    /// The same call through [`NetworkBuilder`].
    fn builder(&self) -> NetworkBuilder {
        match *self {
            Shape::Line(n) => NetworkBuilder::line(n),
            Shape::Ring(n) => NetworkBuilder::ring(n),
            Shape::Grid(w, h) => NetworkBuilder::grid(w, h),
            Shape::Star(n) => NetworkBuilder::star(n),
            Shape::Complete(n) => NetworkBuilder::complete(n),
            Shape::UnitDisk(n, side, r) => NetworkBuilder::unit_disk(n, side, r),
            Shape::ErdosRenyi(n, p) => NetworkBuilder::erdos_renyi(n, p),
            Shape::AsymmetricDisk(n, side, lo, hi) => {
                NetworkBuilder::asymmetric_disk(n, side, lo, hi)
            }
        }
    }
}

/// The edge sizes of every generator: no, one and two nodes, radius 0, a
/// radius above the side, `r_min == r_max`, and a transmit range far above
/// `r_min`.
fn edge_shapes() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for n in 0..3 {
        shapes.extend([
            Shape::Line(n),
            Shape::Complete(n),
            Shape::UnitDisk(n, 5.0, 1.5),
            Shape::UnitDisk(n, 5.0, 9.0),
            Shape::ErdosRenyi(n, 0.5),
            Shape::AsymmetricDisk(n, 5.0, 1.0, 2.0),
        ]);
    }
    shapes.extend([
        Shape::Ring(3),
        Shape::Star(2),
        Shape::Grid(1, 1),
        Shape::Grid(1, 7),
        Shape::Grid(6, 1),
        Shape::UnitDisk(40, 10.0, 0.0),
        Shape::UnitDisk(40, 3.0, 3.0),
        Shape::UnitDisk(40, 4.0, 4.5),
        Shape::UnitDisk(60, 10.0, 1e-3),
        Shape::ErdosRenyi(30, 0.0),
        Shape::ErdosRenyi(30, 1.0),
        Shape::AsymmetricDisk(40, 10.0, 0.0, 0.0),
        Shape::AsymmetricDisk(40, 10.0, 2.0, 2.0),
        Shape::AsymmetricDisk(40, 10.0, 0.0, 3.0),
        Shape::AsymmetricDisk(40, 4.0, 5.0, 9.0),
        Shape::AsymmetricDisk(80, 10.0, 0.2, 4.0),
    ]);
    shapes
}

/// A random call of a random generator.
fn random_shape(rng: &mut Xoshiro256StarStar) -> Shape {
    let n = rng.gen_range(0usize..70);
    let side = rng.gen_range(1.0f64..15.0);
    match rng.gen_range(0..8u32) {
        0 => Shape::Line(n),
        1 => Shape::Ring(n.max(3)),
        2 => Shape::Grid(rng.gen_range(1usize..9), rng.gen_range(1usize..9)),
        3 => Shape::Star(n.max(2)),
        4 => Shape::Complete(n.min(30)),
        5 => Shape::UnitDisk(n * 2, side, rng.gen_range(0.0f64..6.0)),
        6 => Shape::ErdosRenyi(n, rng.gen_range(0.0f64..1.0)),
        _ => {
            let r_min = rng.gen_range(0.0f64..3.0);
            let r_max = if rng.gen_bool(0.2) {
                r_min
            } else {
                r_min + rng.gen_range(0.0f64..5.0)
            };
            Shape::AsymmetricDisk(n, side, r_min, r_max)
        }
    }
}

/// A directed edge `u → v`.
type Edge = (NodeId, NodeId);

/// Random positions and a random stream of directed edges over them, with
/// self-loops, repeats (some of an earlier edge, some reversed) and
/// one-way edges, in no particular order.
fn random_stream(rng: &mut Xoshiro256StarStar) -> (Vec<(f64, f64)>, Vec<Edge>) {
    let n = rng.gen_range(1usize..40);
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0f64..10.0), rng.gen_range(0.0f64..10.0)))
        .collect();
    let node = |rng: &mut Xoshiro256StarStar| NodeId::new(rng.gen_range(0..n as u32));
    let mut edges: Vec<Edge> = Vec::new();
    for _ in 0..rng.gen_range(0usize..4 * n) {
        let edge = match rng.gen_range(0..10u32) {
            0 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
            1 if !edges.is_empty() => {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                (v, u)
            }
            2 => {
                let u = node(rng);
                (u, u)
            }
            _ => (node(rng), node(rng)),
        };
        edges.push(edge);
    }
    (positions, edges)
}

/// A random availability model for `nodes` nodes over `universe` channels,
/// sometimes past 64 or 128 channels, where sets span several words and
/// leave inline storage.
fn random_availability(rng: &mut Xoshiro256StarStar, nodes: usize) -> (u16, AvailabilityModel) {
    let universe = match rng.gen_range(0..6u32) {
        0 => rng.gen_range(65u16..140),
        _ => rng.gen_range(1u16..10),
    };
    let model = match rng.gen_range(0..4u32) {
        0 => AvailabilityModel::Full,
        1 => AvailabilityModel::UniformSubset {
            size: rng.gen_range(1..=universe),
        },
        2 => AvailabilityModel::Clustered {
            clusters: rng.gen_range(1usize..4),
            size: rng.gen_range(1..=universe),
        },
        _ => AvailabilityModel::Explicit(
            (0..nodes)
                .map(|_| {
                    (0..universe)
                        .filter(|_| rng.gen_bool(0.4))
                        .collect::<ChannelSet>()
                })
                .collect(),
        ),
    };
    (universe, model)
}

/// Uniform propagation, or a range per channel that cuts some links.
fn random_propagation(rng: &mut Xoshiro256StarStar, universe: u16) -> Propagation {
    if rng.gen_bool(0.5) {
        Propagation::Uniform
    } else {
        Propagation::PerChannelRange {
            ranges: (0..universe).map(|_| rng.gen_range(0.0f64..12.0)).collect(),
        }
    }
}

/// Every adjacency row and link of a network, derived edge by edge from
/// its topology, availability and propagation.
struct Expected {
    /// `neighbors[u][c]`: the in-neighbors `v` of `u` whose span holds
    /// `c`, in in-list order.
    neighbors: Vec<Vec<Vec<NodeId>>>,
    /// `receivers[v][c]`: the `u` with `v` in `neighbors[u][c]`, ascending.
    receivers: Vec<Vec<Vec<NodeId>>>,
    /// The edges with a non-empty span, sorted.
    links: Vec<Link>,
}

impl Expected {
    fn of(net: &Network) -> Self {
        let t = net.topology();
        let s = net.universe_size() as usize;
        let mut neighbors = vec![vec![Vec::new(); s]; t.node_count()];
        let mut receivers = vec![vec![Vec::new(); s]; t.node_count()];
        let mut links = Vec::new();
        // Receivers visited ascending, so each receivers row ascends.
        for u in t.nodes() {
            for &v in t.in_neighbors(u) {
                let common = net.available(v).intersection(net.available(u));
                let span: Vec<ChannelId> = common
                    .iter()
                    .filter(|c| match net.propagation() {
                        Propagation::Uniform => true,
                        Propagation::PerChannelRange { ranges } => {
                            t.distance(v, u) <= ranges[c.index() as usize]
                        }
                    })
                    .collect();
                for c in &span {
                    neighbors[u.as_usize()][c.index() as usize].push(v);
                    receivers[v.as_usize()][c.index() as usize].push(u);
                }
                if !span.is_empty() {
                    links.push(Link { from: v, to: u });
                }
            }
        }
        links.sort();
        Self {
            neighbors,
            receivers,
            links,
        }
    }

    /// Asserts that every row and link of `net` is the expected one.
    fn assert_built(net: &Network, what: &str) {
        let expected = Self::of(net);
        for u in net.topology().nodes() {
            for c in 0..net.universe_size() {
                let ch = ChannelId::new(c);
                let (i, c) = (u.as_usize(), c as usize);
                assert_eq!(
                    net.neighbors_on(u, ch),
                    &expected.neighbors[i][c][..],
                    "{what}: neighbors_on({u}, {ch})"
                );
                assert_eq!(
                    net.receivers_on(u, ch),
                    &expected.receivers[i][c][..],
                    "{what}: receivers_on({u}, {ch})"
                );
            }
        }
        assert_eq!(net.links(), &expected.links[..], "{what}: links");
    }
}

/// `span` as the CSR scan it replaced: the channels whose row into `to`
/// lists `from`.
fn span_by_scan(net: &Network, from: NodeId, to: NodeId) -> ChannelSet {
    (0..net.universe_size())
        .map(ChannelId::new)
        .filter(|&c| net.neighbors_on(to, c).contains(&from))
        .collect()
}

/// `rho` as it was: the scanned span of every link over `|A(to)|`.
fn rho_by_scan(net: &Network) -> f64 {
    net.links()
        .iter()
        .map(|l| span_by_scan(net, l.from, l.to).len() as f64 / net.available(l.to).len() as f64)
        .fold(f64::INFINITY, f64::min)
        .min(1.0)
}

/// `span` of every ordered pair, adjacent or not, and `rho` equal their
/// scans bit for bit.
fn assert_ground_truth(net: &Network, what: &str) {
    for u in net.topology().nodes() {
        for v in net.topology().nodes() {
            assert_eq!(
                net.span(u, v),
                span_by_scan(net, u, v),
                "{what}: span({u}, {v})"
            );
        }
    }
    assert_eq!(
        net.rho().to_bits(),
        rho_by_scan(net).to_bits(),
        "{what}: rho"
    );
}

/// Builds `shape` through the builder and through its reference topology,
/// under random availability and propagation, and checks the network
/// against the per-edge rule.
fn check_shape(shape: &Shape, rng: &mut Xoshiro256StarStar) {
    let seed = SeedTree::new(rng.gen_range(0u64..u64::MAX));
    let (built, expected) = shape.build(seed.branch("topology"));
    assert_eq!(built, expected, "{shape:?}: topology");
    let (universe, model) = random_availability(rng, built.node_count());
    let propagation = random_propagation(rng, universe);
    let net = shape
        .builder()
        .universe(universe)
        .availability(model.clone())
        .propagation(propagation.clone())
        .build(seed)
        .expect("valid network");
    let rebuilt = NetworkBuilder::from_topology(expected)
        .universe(universe)
        .availability(model)
        .propagation(propagation)
        .build(seed)
        .expect("valid network");
    let what = format!("{shape:?} over {universe} channels");
    assert_eq!(net, rebuilt, "{what}: network");
    Expected::assert_built(&net, &what);
    if net.node_count() <= 40 {
        assert_ground_truth(&net, &what);
    }
}

#[test]
fn generators_at_their_edge_sizes_match_the_per_edge_bodies() {
    let mut rng = SeedTree::new(0xED6E).rng();
    for shape in edge_shapes() {
        check_shape(&shape, &mut rng);
    }
}

#[test]
fn generators_match_the_per_edge_bodies() {
    prop::check("generators_match_the_per_edge_bodies", 160, |rng| {
        let shape = random_shape(rng);
        check_shape(&shape, rng);
    });
}

#[test]
fn edge_streams_build_as_added_one_by_one() {
    prop::check("edge_streams_build_as_added_one_by_one", 256, |rng| {
        let (positions, edges) = random_stream(rng);
        let built = Topology::from_edges(positions.clone(), &edges);
        assert_eq!(built, reference::from_edges(&positions, &edges));
        let (universe, model) = random_availability(rng, positions.len());
        let propagation = random_propagation(rng, universe);
        let net = NetworkBuilder::from_topology(built)
            .universe(universe)
            .availability(model)
            .propagation(propagation)
            .build(SeedTree::new(rng.gen_range(0u64..u64::MAX)))
            .expect("valid network");
        Expected::assert_built(&net, "explicit topology");
        assert_ground_truth(&net, "explicit topology");
    });
}

#[test]
fn dynamics_keep_the_rows_and_ground_truth() {
    prop::check("dynamics_keep_the_rows_and_ground_truth", 96, |rng| {
        let (positions, edges) = random_stream(rng);
        let n = positions.len();
        let (universe, model) = random_availability(rng, n);
        let propagation = random_propagation(rng, universe);
        let mut net = NetworkBuilder::from_topology(Topology::from_edges(positions, &edges))
            .universe(universe)
            .availability(model)
            .propagation(propagation)
            .build(SeedTree::new(rng.gen_range(0u64..u64::MAX)))
            .expect("valid network");
        let node = |rng: &mut Xoshiro256StarStar| NodeId::new(rng.gen_range(0..n as u32));
        for _ in 0..3 {
            let batch: Vec<NetworkEvent> = (0..rng.gen_range(1usize..6))
                .map(|_| match rng.gen_range(0..6u32) {
                    0 => NetworkEvent::EdgeAdd {
                        from: node(rng),
                        to: node(rng),
                    },
                    1 => NetworkEvent::EdgeRemove {
                        from: node(rng),
                        to: node(rng),
                    },
                    2 => NetworkEvent::NodeLeave { node: node(rng) },
                    3 => NetworkEvent::NodeJoin {
                        node: node(rng),
                        position: (rng.gen_range(0.0f64..10.0), rng.gen_range(0.0f64..10.0)),
                        available: (0..universe).filter(|_| rng.gen_bool(0.5)).collect(),
                    },
                    4 => NetworkEvent::ChannelGained {
                        node: node(rng),
                        channel: ChannelId::new(rng.gen_range(0..universe)),
                    },
                    _ => NetworkEvent::ChannelLost {
                        node: node(rng),
                        channel: ChannelId::new(rng.gen_range(0..universe)),
                    },
                })
                .collect();
            net.apply_all(&batch).expect("valid events");
            Expected::assert_built(&net, "after apply_all");
            assert_ground_truth(&net, "after apply_all");
        }
    });
}
