//! Seeded scenario generators: churn, mobility, and primary-user activity.
//!
//! Each generator is a pure function of `(network, horizon, config, seed)`
//! returning a `Vec<TimedEvent>` — feed one (or several, via
//! [`DynamicsSchedule::merged`]) to an engine. Times are in the consumer's
//! unit: slots for the synchronous engine, nanoseconds for the
//! asynchronous one; pick `horizon` and the per-config time constants
//! accordingly.

use crate::schedule::TimedEvent;
use mmhew_spectrum::ChannelId;
use mmhew_topology::{Network, NetworkEvent, NodeId};
use mmhew_util::SeedTree;
use rand::Rng;

#[allow(unused_imports)]
use crate::schedule::DynamicsSchedule; // doc links

/// Parameters for [`poisson_churn`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Expected departures per time unit across the whole network.
    pub rate: f64,
    /// Expected absence duration (exponentially distributed).
    pub mean_downtime: f64,
}

/// Memoryless node churn: departures arrive as a Poisson process of the
/// given `rate`, each picking a uniformly random *present* node; the node
/// stays away for an exponential downtime, then rejoins at its original
/// position with its original availability.
///
/// An original edge is restored when its second endpoint returns, so at
/// every instant the live edge set is exactly the original edges whose
/// endpoints are both present — a departed node is never half-connected.
/// Rejoins that would land past `horizon` are dropped (the node simply
/// never comes back).
pub fn poisson_churn(
    network: &Network,
    horizon: u64,
    config: &ChurnConfig,
    seed: SeedTree,
) -> Vec<TimedEvent> {
    assert!(config.rate > 0.0, "departure rate must be positive");
    assert!(config.mean_downtime > 0.0, "mean downtime must be positive");
    let n = network.node_count();
    let topo = network.topology();
    // The original edges as `(to, from)`, sorted: each node's
    // in-neighbors form one ascending run, which with its out-list
    // restores its edges in the order `Topology::edges` yields them.
    let mut inbound: Vec<(NodeId, NodeId)> = topo.edges().map(|(from, to)| (to, from)).collect();
    inbound.sort_unstable();
    // Brings `node` back with its original position and availability,
    // then restores each original edge whose other endpoint is present.
    let rejoin = |events: &mut Vec<TimedEvent>, present: &[bool], at: u64, node: NodeId| {
        events.push(TimedEvent::new(
            at,
            NetworkEvent::NodeJoin {
                node,
                position: topo.position(node),
                available: network.available(node).to_owned(),
            },
        ));
        let ins = &inbound[inbound.partition_point(|&(to, _)| to < node)
            ..inbound.partition_point(|&(to, _)| to <= node)];
        let below = ins.partition_point(|&(_, w)| w < node);
        let edges = ins[..below]
            .iter()
            .map(|&(_, w)| (w, node))
            .chain(topo.out_neighbors(node).iter().map(|&v| (node, v)))
            .chain(ins[below..].iter().map(|&(_, w)| (w, node)));
        for (from, to) in edges {
            if present[from.as_usize()] && present[to.as_usize()] {
                events.push(TimedEvent::new(at, NetworkEvent::EdgeAdd { from, to }));
            }
        }
    };
    let mut rng = seed.branch("churn").rng();
    let mut present = vec![true; n];
    // The present nodes, ascending: a departure draws its index.
    let mut present_nodes: Vec<NodeId> = topo.nodes().collect();
    let mut events = Vec::new();
    // Pending rejoins, ordered by time (a BinaryHeap of Reverse works too;
    // a sorted Vec keeps ties deterministic and the code obvious).
    let mut rejoins: Vec<(u64, NodeId)> = Vec::new();

    let mut clock = 0.0_f64;
    loop {
        clock += exponential(&mut rng, 1.0 / config.rate);
        let departure_at = clock.ceil() as u64;
        if departure_at >= horizon {
            break;
        }
        // Fire every rejoin scheduled before this departure.
        while let Some(&(at, node)) = rejoins.first() {
            if at > departure_at {
                break;
            }
            rejoins.remove(0);
            present[node.as_usize()] = true;
            let slot = present_nodes.partition_point(|&u| u < node);
            present_nodes.insert(slot, node);
            rejoin(&mut events, &present, at, node);
        }
        if present_nodes.is_empty() {
            continue;
        }
        let node = present_nodes.remove(rng.gen_range(0..present_nodes.len()));
        present[node.as_usize()] = false;
        events.push(TimedEvent::new(
            departure_at,
            NetworkEvent::NodeLeave { node },
        ));
        let downtime = exponential(&mut rng, config.mean_downtime).ceil().max(1.0) as u64;
        let rejoin_at = departure_at.saturating_add(downtime);
        if rejoin_at < horizon {
            rejoins.push((rejoin_at, node));
            rejoins.sort_by_key(|&(at, u)| (at, u));
        }
    }
    // Flush rejoins that precede the horizon but follow the last departure.
    for (at, node) in rejoins {
        present[node.as_usize()] = true;
        rejoin(&mut events, &present, at, node);
    }
    events.sort_by_key(|e| e.at);
    events
}

/// Parameters for [`random_waypoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityConfig {
    /// Side length of the square deployment area.
    pub side: f64,
    /// Unit-disk connectivity radius: nodes within `radius` are linked.
    pub radius: f64,
    /// Distance travelled per time unit.
    pub speed: f64,
    /// Time units between position updates (edge recomputation).
    pub step: u64,
}

/// Random-waypoint mobility over a unit-disk graph: every node walks at
/// constant `speed` toward a uniformly random waypoint, picking a new one
/// on arrival. Every `step` time units positions advance and the
/// bidirectional unit-disk edge set is recomputed; the diff against the
/// previous edge set becomes `EdgeAdd`/`EdgeRemove` events.
///
/// Positions evolve inside the generator only — `Network::apply` does not
/// move nodes on edge events — so pair this with
/// [`Propagation::Uniform`](mmhew_topology::Propagation::Uniform), where
/// links carry all the geometry that matters.
pub fn random_waypoint(
    network: &Network,
    horizon: u64,
    config: &MobilityConfig,
    seed: SeedTree,
) -> Vec<TimedEvent> {
    assert!(config.side > 0.0, "area side must be positive");
    assert!(config.radius > 0.0, "disk radius must be positive");
    assert!(config.speed >= 0.0, "speed must be non-negative");
    assert!(config.step > 0, "step must be positive");
    let n = network.node_count();
    let mut rng = seed.branch("mobility").rng();
    let mut positions: Vec<(f64, f64)> = network.topology().positions().to_vec();
    let mut waypoints: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            (
                rng.gen::<f64>() * config.side,
                rng.gen::<f64>() * config.side,
            )
        })
        .collect();
    let mut current: std::collections::BTreeSet<(NodeId, NodeId)> =
        network.topology().edges().collect();
    let mut events = Vec::new();

    let mut t = config.step;
    while t < horizon {
        let travel = config.speed * config.step as f64;
        for i in 0..n {
            let (x, y) = positions[i];
            let (wx, wy) = waypoints[i];
            let (dx, dy) = (wx - x, wy - y);
            let dist = (dx * dx + dy * dy).sqrt();
            if dist <= travel {
                positions[i] = (wx, wy);
                waypoints[i] = (
                    rng.gen::<f64>() * config.side,
                    rng.gen::<f64>() * config.side,
                );
            } else {
                positions[i] = (x + dx / dist * travel, y + dy / dist * travel);
            }
        }
        let mut desired = std::collections::BTreeSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let (dx, dy) = (
                    positions[i].0 - positions[j].0,
                    positions[i].1 - positions[j].1,
                );
                if (dx * dx + dy * dy).sqrt() <= config.radius {
                    desired.insert((NodeId::new(i as u32), NodeId::new(j as u32)));
                    desired.insert((NodeId::new(j as u32), NodeId::new(i as u32)));
                }
            }
        }
        for &(from, to) in desired.difference(&current) {
            events.push(TimedEvent::new(t, NetworkEvent::EdgeAdd { from, to }));
        }
        for &(from, to) in current.difference(&desired) {
            events.push(TimedEvent::new(t, NetworkEvent::EdgeRemove { from, to }));
        }
        current = desired;
        t += config.step;
    }
    events
}

/// Parameters for [`markov_primary_users`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumChurnConfig {
    /// Per-step probability that a vacant channel becomes occupied.
    pub p_occupy: f64,
    /// Per-step probability that an occupied channel is vacated.
    pub p_vacate: f64,
    /// Time units between Markov transitions.
    pub step: u64,
}

/// Per-channel two-state Markov primary users: each universe channel
/// independently flips between vacant and occupied every `step` time
/// units. Occupation emits `ChannelLost` for every node whose *baseline*
/// availability contains the channel; vacating emits the matching
/// `ChannelGained`, restoring the baseline. All channels start vacant.
///
/// A burst of simultaneous occupations can empty a node's current
/// availability entirely; the network tolerates this (its links just
/// vanish until a channel returns).
pub fn markov_primary_users(
    network: &Network,
    horizon: u64,
    config: &SpectrumChurnConfig,
    seed: SeedTree,
) -> Vec<TimedEvent> {
    assert!(
        (0.0..=1.0).contains(&config.p_occupy) && (0.0..=1.0).contains(&config.p_vacate),
        "transition probabilities must be in [0, 1]"
    );
    assert!(config.step > 0, "step must be positive");
    let universe = network.universe_size();
    let n = network.node_count();
    let mut rng = seed.branch("spectrum").rng();
    let mut occupied = vec![false; universe as usize];
    let mut events = Vec::new();

    let mut t = config.step;
    while t < horizon {
        for c in 0..universe {
            let channel = ChannelId::new(c);
            let flip = if occupied[c as usize] {
                rng.gen::<f64>() < config.p_vacate
            } else {
                rng.gen::<f64>() < config.p_occupy
            };
            if !flip {
                continue;
            }
            occupied[c as usize] = !occupied[c as usize];
            for i in 0..n as u32 {
                let node = NodeId::new(i);
                if !network.available(node).contains(channel) {
                    continue;
                }
                let event = if occupied[c as usize] {
                    NetworkEvent::ChannelLost { node, channel }
                } else {
                    NetworkEvent::ChannelGained { node, channel }
                };
                events.push(TimedEvent::new(t, event));
            }
        }
        t += config.step;
    }
    events
}

/// Exponential sample with the given mean (inverse-CDF method).
fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::DynamicsSchedule;
    use mmhew_spectrum::AvailabilityModel;
    use mmhew_topology::NetworkBuilder;

    fn net(seed: &SeedTree) -> Network {
        NetworkBuilder::complete(6)
            .universe(4)
            .availability(AvailabilityModel::UniformSubset { size: 3 })
            .build(seed.branch("net"))
            .expect("build")
    }

    #[test]
    fn churn_is_deterministic_and_replayable() {
        let tree = SeedTree::new(11);
        let network = net(&tree);
        let cfg = ChurnConfig {
            rate: 0.01,
            mean_downtime: 50.0,
        };
        let a = poisson_churn(&network, 2_000, &cfg, tree.branch("churn"));
        let b = poisson_churn(&network, 2_000, &cfg, tree.branch("churn"));
        assert_eq!(a, b, "same seed, same stream");
        assert!(!a.is_empty(), "rate 0.01 over 2000 units should churn");
        // Replaying the whole stream against the network must stay valid
        // and, once every departure has rejoined, restore the original.
        let mut mutated = network.clone();
        for e in &a {
            mutated.apply(&e.event).expect("generated events are valid");
        }
        let leaves = a
            .iter()
            .filter(|e| matches!(e.event, NetworkEvent::NodeLeave { .. }))
            .count();
        let joins = a
            .iter()
            .filter(|e| matches!(e.event, NetworkEvent::NodeJoin { .. }))
            .count();
        assert!(leaves >= joins, "can't rejoin more than departed");
        if leaves == joins {
            assert_eq!(mutated.links(), network.links(), "fully healed");
        }
    }

    #[test]
    fn churn_never_half_connects_absent_nodes() {
        let tree = SeedTree::new(12);
        let network = net(&tree);
        let cfg = ChurnConfig {
            rate: 0.05,
            mean_downtime: 100.0,
        };
        let events = poisson_churn(&network, 3_000, &cfg, tree.branch("churn"));
        let n = network.node_count();
        let mut present = vec![true; n];
        for e in &events {
            match &e.event {
                NetworkEvent::NodeLeave { node } => present[node.as_usize()] = false,
                NetworkEvent::NodeJoin { node, .. } => present[node.as_usize()] = true,
                NetworkEvent::EdgeAdd { from, to } => {
                    assert!(
                        present[from.as_usize()] && present[to.as_usize()],
                        "edge restored to an absent endpoint at t={}",
                        e.at
                    );
                }
                other => panic!("unexpected churn event {other:?}"),
            }
        }
    }

    /// Reference model: every rejoin filters the whole edge list and
    /// every departure collects the present nodes afresh. `poisson_churn`
    /// must emit exactly its schedule.
    fn full_scan_churn(
        network: &Network,
        horizon: u64,
        config: &ChurnConfig,
        seed: SeedTree,
    ) -> Vec<TimedEvent> {
        let n = network.node_count();
        let topo = network.topology();
        let edges: Vec<(NodeId, NodeId)> = topo.edges().collect();
        let mut rng = seed.branch("churn").rng();
        let mut present = vec![true; n];
        let mut events = Vec::new();
        let mut rejoins: Vec<(u64, NodeId)> = Vec::new();
        let rejoin = |events: &mut Vec<TimedEvent>, present: &[bool], at: u64, node: NodeId| {
            events.push(TimedEvent::new(
                at,
                NetworkEvent::NodeJoin {
                    node,
                    position: topo.position(node),
                    available: network.available(node).to_owned(),
                },
            ));
            for &(from, to) in &edges {
                if (from == node || to == node)
                    && present[from.as_usize()]
                    && present[to.as_usize()]
                {
                    events.push(TimedEvent::new(at, NetworkEvent::EdgeAdd { from, to }));
                }
            }
        };
        let mut clock = 0.0_f64;
        loop {
            clock += exponential(&mut rng, 1.0 / config.rate);
            let departure_at = clock.ceil() as u64;
            if departure_at >= horizon {
                break;
            }
            while let Some(&(at, node)) = rejoins.first() {
                if at > departure_at {
                    break;
                }
                rejoins.remove(0);
                present[node.as_usize()] = true;
                rejoin(&mut events, &present, at, node);
            }
            let candidates: Vec<NodeId> = (0..n as u32)
                .map(NodeId::new)
                .filter(|u| present[u.as_usize()])
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let node = candidates[rng.gen_range(0..candidates.len())];
            present[node.as_usize()] = false;
            events.push(TimedEvent::new(
                departure_at,
                NetworkEvent::NodeLeave { node },
            ));
            let downtime = exponential(&mut rng, config.mean_downtime).ceil().max(1.0) as u64;
            let rejoin_at = departure_at.saturating_add(downtime);
            if rejoin_at < horizon {
                rejoins.push((rejoin_at, node));
                rejoins.sort_by_key(|&(at, u)| (at, u));
            }
        }
        for (at, node) in rejoins {
            present[node.as_usize()] = true;
            rejoin(&mut events, &present, at, node);
        }
        events.sort_by_key(|e| e.at);
        events
    }

    #[test]
    fn churn_matches_the_full_scan_reference() {
        let cfg = ChurnConfig {
            rate: 0.08,
            mean_downtime: 60.0,
        };
        let build = |builder: NetworkBuilder, seed: SeedTree| {
            builder
                .universe(4)
                .availability(AvailabilityModel::UniformSubset { size: 2 })
                .build(seed)
                .expect("build")
        };
        for s in 0..10u64 {
            let tree = SeedTree::new(0xC4A0 + s);
            let disk = build(NetworkBuilder::unit_disk(40, 8.0, 2.2), tree.branch("disk"));
            let mut asym = build(
                NetworkBuilder::asymmetric_disk(40, 8.0, 1.5, 3.0),
                tree.branch("asym"),
            );
            // Edges added and removed leave the neighbor lists out of id
            // order, which the restore order must not follow.
            let mut rng = tree.branch("rewire").rng();
            for _ in 0..80 {
                let from = NodeId::new(rng.gen_range(0..40u32));
                let to = NodeId::new(rng.gen_range(0..40u32));
                let event = if rng.gen_bool(0.5) {
                    NetworkEvent::EdgeAdd { from, to }
                } else {
                    NetworkEvent::EdgeRemove { from, to }
                };
                asym.apply(&event).expect("in-range event");
            }
            for network in [&disk, &asym] {
                let events = poisson_churn(network, 3_000, &cfg, tree.branch("churn"));
                assert!(
                    events
                        .iter()
                        .any(|e| matches!(e.event, NetworkEvent::EdgeAdd { .. })),
                    "seed {s}: rejoins must restore edges"
                );
                assert_eq!(
                    events,
                    full_scan_churn(network, 3_000, &cfg, tree.branch("churn")),
                    "seed {s}"
                );
            }
        }
    }

    #[test]
    fn mobility_diffs_are_consistent() {
        let tree = SeedTree::new(13);
        let network = NetworkBuilder::unit_disk(8, 10.0, 4.0)
            .universe(3)
            .availability(AvailabilityModel::Full)
            .build(tree.branch("net"))
            .expect("build");
        let cfg = MobilityConfig {
            side: 10.0,
            radius: 4.0,
            speed: 0.5,
            step: 50,
        };
        let events = random_waypoint(&network, 2_000, &cfg, tree.branch("move"));
        assert_eq!(
            events,
            random_waypoint(&network, 2_000, &cfg, tree.branch("move"))
        );
        assert!(!events.is_empty(), "nodes moving at 0.5/unit must rewire");
        // Every event must apply cleanly and keep the graph symmetric
        // (adds and removes always come in directed pairs).
        let mut mutated = network.clone();
        let mut schedule = DynamicsSchedule::new(events);
        while let Some(e) = schedule.next_due(u64::MAX) {
            let event = e.event.clone();
            mutated.apply(&event).expect("valid");
        }
        assert!(mutated.topology().is_symmetric());
    }

    #[test]
    fn primary_users_restore_baseline() {
        let tree = SeedTree::new(14);
        let network = net(&tree);
        let cfg = SpectrumChurnConfig {
            p_occupy: 0.3,
            p_vacate: 0.3,
            step: 100,
        };
        let events = markov_primary_users(&network, 5_000, &cfg, tree.branch("pu"));
        assert!(!events.is_empty());
        let mut mutated = network.clone();
        let mut occupied_now: std::collections::BTreeSet<u16> = Default::default();
        for e in &events {
            mutated.apply(&e.event).expect("valid");
            match &e.event {
                NetworkEvent::ChannelLost { channel, .. } => {
                    occupied_now.insert(channel.index());
                }
                NetworkEvent::ChannelGained { channel, .. } => {
                    occupied_now.remove(&channel.index());
                }
                other => panic!("unexpected spectrum event {other:?}"),
            }
        }
        // Wherever no primary user is left standing, availability is back
        // to baseline.
        for i in 0..network.node_count() as u32 {
            let node = NodeId::new(i);
            for c in network.available(node).iter() {
                if !occupied_now.contains(&c.index()) {
                    assert!(mutated.available(node).contains(c));
                }
            }
        }
    }
}
