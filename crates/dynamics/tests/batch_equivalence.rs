//! Batched ground-truth upkeep must be invisible: for every generator's
//! schedule, applying each boundary's events as one `Network::apply_all`
//! batch yields exactly the network that applying them one at a time
//! does, and both equal a from-scratch `Network::new` rebuild of the
//! mutated topology and availability.

use mmhew_dynamics::{
    markov_primary_users, poisson_churn, random_waypoint, ChurnConfig, MobilityConfig,
    SpectrumChurnConfig, TimedEvent,
};
use mmhew_spectrum::{AvailabilityModel, ChannelId, ChannelSet};
use mmhew_topology::{Network, NetworkBuilder, NetworkEvent, NodeId, Propagation};
use mmhew_util::SeedTree;
use rand::Rng;

fn rebuilt(net: &Network) -> Network {
    let avail: Vec<ChannelSet> = (0..net.node_count())
        .map(|i| net.available(NodeId::new(i as u32)).to_owned())
        .collect();
    Network::new(
        net.topology().clone(),
        net.universe_size(),
        avail,
        net.propagation().clone(),
    )
    .expect("mutated state stays valid")
}

/// Replays `events` boundary by boundary (events sharing an `at`) through
/// both paths and checks all three networks agree after every boundary.
/// Returns the number of boundaries that held more than one event.
fn assert_batches_match(network: &Network, events: &[TimedEvent]) -> usize {
    assert!(!events.is_empty(), "the schedule must exercise something");
    let mut sequential = network.clone();
    let mut batched = network.clone();
    let mut batch: Vec<NetworkEvent> = Vec::new();
    let mut multi = 0;
    for group in events.chunk_by(|a, b| a.at == b.at) {
        batch.clear();
        batch.extend(group.iter().map(|e| e.event.clone()));
        for event in &batch {
            sequential.apply(event).expect("generated events are valid");
        }
        batched
            .apply_all(&batch)
            .expect("generated events are valid");
        let at = group[0].at;
        assert_eq!(batched, sequential, "apply_all vs apply at t={at}");
        assert_eq!(batched, rebuilt(&batched), "apply_all vs rebuild at t={at}");
        if batch.len() > 1 {
            multi += 1;
        }
    }
    multi
}

fn subsets_net(builder: NetworkBuilder, seed: &SeedTree) -> Network {
    builder
        .universe(5)
        .availability(AvailabilityModel::UniformSubset { size: 3 })
        .build(seed.branch("net"))
        .expect("build")
}

#[test]
fn poisson_churn_batches_match_sequential_apply() {
    for s in 0..4 {
        let tree = SeedTree::new(0xBA7C + s);
        let network = subsets_net(NetworkBuilder::unit_disk(24, 6.0, 2.2), &tree);
        let cfg = ChurnConfig {
            rate: 0.05,
            mean_downtime: 40.0,
        };
        let events = poisson_churn(&network, 1_500, &cfg, tree.branch("churn"));
        let multi = assert_batches_match(&network, &events);
        assert!(multi > 0, "rejoins must batch with their edge restorations");
    }
}

#[test]
fn random_waypoint_batches_match_sequential_apply() {
    for s in 0..4 {
        let tree = SeedTree::new(0xBA7D + s);
        let network = subsets_net(NetworkBuilder::unit_disk(16, 8.0, 3.0), &tree);
        let cfg = MobilityConfig {
            side: 8.0,
            radius: 3.0,
            speed: 0.05,
            step: 20,
        };
        let events = random_waypoint(&network, 2_000, &cfg, tree.branch("move"));
        let multi = assert_batches_match(&network, &events);
        assert!(multi > 0, "each step rewires edges in pairs");
    }
}

#[test]
fn markov_primary_user_batches_match_sequential_apply() {
    for s in 0..4 {
        let tree = SeedTree::new(0xBA7E + s);
        let network = subsets_net(NetworkBuilder::grid(4, 4), &tree);
        let cfg = SpectrumChurnConfig {
            p_occupy: 0.3,
            p_vacate: 0.4,
            step: 10,
        };
        let events = markov_primary_users(&network, 1_000, &cfg, tree.branch("pu"));
        let multi = assert_batches_match(&network, &events);
        assert!(multi > 0, "a channel flip hits every node holding it");
    }
}

/// A uniform mix of every event kind on random nodes, one to five
/// events per boundary for 300 boundaries. A `NodeJoin` moves its node
/// somewhere in the `side × side` square.
fn random_event_mix(network: &Network, side: f64, tree: &SeedTree) -> Vec<TimedEvent> {
    let n = network.node_count() as u32;
    let universe = network.universe_size();
    let mut rng = tree.branch("mix").rng();
    let mut events = Vec::new();
    for at in 0..300u64 {
        for _ in 0..rng.gen_range(1..6u32) {
            let node = NodeId::new(rng.gen_range(0..n));
            let other = NodeId::new(rng.gen_range(0..n));
            let channel = ChannelId::new(rng.gen_range(0..universe));
            let event = match rng.gen_range(0..6u32) {
                0 => NetworkEvent::NodeJoin {
                    node,
                    position: (rng.gen::<f64>() * side, rng.gen::<f64>() * side),
                    available: network.available(other).to_owned(),
                },
                1 => NetworkEvent::NodeLeave { node },
                2 => NetworkEvent::EdgeAdd {
                    from: node,
                    to: other,
                },
                3 => NetworkEvent::EdgeRemove {
                    from: node,
                    to: other,
                },
                4 => NetworkEvent::ChannelGained { node, channel },
                _ => NetworkEvent::ChannelLost { node, channel },
            };
            events.push(TimedEvent::new(at, event));
        }
    }
    events
}

#[test]
fn random_event_mix_batches_match_sequential_apply() {
    // The generators keep some events in lockstep (a primary user hits
    // every holder of a channel at once); a uniform mix of every event
    // kind on random nodes breaks that symmetry, so a row missing from
    // one event's touched set cannot be masked by another event's.
    for s in 0..4 {
        let tree = SeedTree::new(0xBA80 + s);
        let network = subsets_net(NetworkBuilder::unit_disk(20, 6.0, 2.5), &tree);
        assert_batches_match(&network, &random_event_mix(&network, 6.0, &tree));
    }
}

#[test]
fn random_event_mix_batches_match_on_asymmetric_per_channel_range_networks() {
    // Directed edges make a node's row and its mirror cells differ, and
    // per-channel ranges make a `NodeJoin`'s move change a span channel
    // by channel: a mirror cell can lose a receiver on one channel while
    // the cell beside it keeps that receiver.
    for s in 0..4 {
        let tree = SeedTree::new(0xBA90 + s);
        let network = NetworkBuilder::asymmetric_disk(20, 6.0, 1.5, 3.5)
            .universe(5)
            .availability(AvailabilityModel::UniformSubset { size: 3 })
            .propagation(Propagation::PerChannelRange {
                ranges: vec![3.5, 3.0, 2.5, 2.0, 1.5],
            })
            .build(tree.branch("net"))
            .expect("build");
        assert!(!network.topology().is_symmetric(), "seed {s}");
        assert!(
            network.links().iter().any(|l| {
                network.span(l.from, l.to)
                    != network
                        .available(l.from)
                        .intersection(network.available(l.to))
            }),
            "seed {s}: some span must be cut short by range"
        );
        assert_batches_match(&network, &random_event_mix(&network, 6.0, &tree));
    }
}

#[test]
fn merged_schedule_batches_match_sequential_apply() {
    // Churn and spectrum events interleaved at shared boundaries.
    let tree = SeedTree::new(0xBA7F);
    let network = subsets_net(NetworkBuilder::unit_disk(20, 6.0, 2.5), &tree);
    let churn = poisson_churn(
        &network,
        1_000,
        &ChurnConfig {
            rate: 0.04,
            mean_downtime: 30.0,
        },
        tree.branch("churn"),
    );
    let spectrum = markov_primary_users(
        &network,
        1_000,
        &SpectrumChurnConfig {
            p_occupy: 0.2,
            p_vacate: 0.5,
            step: 5,
        },
        tree.branch("pu"),
    );
    let schedule = mmhew_dynamics::DynamicsSchedule::merged([churn, spectrum]);
    assert_batches_match(&network, schedule.events());
}
