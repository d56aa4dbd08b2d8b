//! End-to-end equivalence of the engine's hot loop with a straightforward
//! reference replay.
//!
//! The `SyncEngine` fast paths under test:
//!
//! * transmitter-centric medium resolution (`SlotResolver` instead of the
//!   reference `resolve_slot`),
//! * the per-node beacon cache (instead of cloning the sender's
//!   availability on every delivery),
//! * beacon-cache invalidation under dynamics events that change
//!   availability (`NodeJoin` / `ChannelGained` / `ChannelLost`),
//! * the dead-air-skipping event executor (`SyncEngine::run_event`),
//!   which must replay the same reference byte for byte — including the
//!   occasional all-listen slots it skips and the dynamics boundaries it
//!   must wake for.
//!
//! The reference replay below re-implements the engine's slot loop the
//! slow, obviously-correct way — reference resolver, a fresh
//! `Beacon::new(from, network.available(from).to_owned())` per delivery —
//! with the engine's exact seeding discipline, and every observable of the
//! two runs must agree: coverage stamps, tables (including the channel
//! sets recorded from beacons), delivery/collision/loss counts, and
//! per-node action counts.

use mmhew_engine::{
    ActionCounts, CoverageTracker, DynamicsSchedule, Engine, NeighborTable, SyncEngine,
    SyncProtocol, SyncRunConfig,
};
use mmhew_radio::{resolve_slot, Beacon, Impairments, SlotAction};
use mmhew_spectrum::{AvailabilityModel, ChannelId, ChannelSet};
use mmhew_topology::{Link, Network, NetworkBuilder, NetworkEvent, NodeId};
use mmhew_util::{SeedTree, Xoshiro256StarStar};
use rand::Rng;
use std::collections::BTreeMap;

/// RNG-hungry test protocol: every active slot draws a channel and a coin
/// from the node's own stream. Any divergence in medium-RNG consumption or
/// delivery order between engine and reference cascades into different
/// tables and coverage stamps within a few slots.
struct RandomChatter {
    universe: u16,
    table: NeighborTable,
}

impl RandomChatter {
    fn boxed(universe: u16) -> Box<dyn SyncProtocol> {
        Box::new(Self {
            universe,
            table: NeighborTable::new(),
        })
    }
}

impl SyncProtocol for RandomChatter {
    fn on_slot(&mut self, _slot: u64, rng: &mut Xoshiro256StarStar) -> SlotAction {
        let channel = ChannelId::new(rng.gen_range(0..self.universe));
        if rng.gen_bool(0.4) {
            SlotAction::Transmit { channel }
        } else {
            SlotAction::Listen { channel }
        }
    }

    // The stream ignores receptions and the node never terminates, which
    // opts the protocol into the event executor's fast path.
    fn next_transmission_bound(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    // Recording the beacon's channel set (not just the sender) is what
    // makes stale beacon caching visible: after a ChannelLost event the
    // cached and freshly-built beacons differ in content, not presence.
    fn on_beacon(&mut self, beacon: &Beacon, _channel: ChannelId) {
        self.table
            .record(beacon.sender(), beacon.available().to_owned());
    }

    fn table(&self) -> &NeighborTable {
        &self.table
    }
}

/// Everything observable about a run, in comparison-friendly form.
#[derive(Debug, PartialEq)]
struct Observables {
    deliveries: u64,
    collisions: u64,
    impairment_losses: u64,
    coverage: BTreeMap<Link, Option<u64>>,
    tables: Vec<Vec<(NodeId, ChannelSet)>>,
    action_counts: Vec<ActionCounts>,
}

/// Replays the engine's slot loop the slow way: reference resolver, fresh
/// beacon per delivery, same seeding (`seed/node/<i>` and `seed/medium`).
fn reference_run(
    base: &Network,
    schedule: Option<DynamicsSchedule>,
    start_slots: &[u64],
    seed: SeedTree,
    impairments: &Impairments,
    slots: u64,
) -> Observables {
    let mut network = base.clone();
    let n = network.node_count();
    let universe = network.universe_size();
    let mut protocols: Vec<Box<dyn SyncProtocol>> =
        (0..n).map(|_| RandomChatter::boxed(universe)).collect();
    let mut node_rngs: Vec<Xoshiro256StarStar> = (0..n)
        .map(|i| seed.branch("node").index(i as u64).rng())
        .collect();
    let mut medium_rng = seed.branch("medium").rng();
    let mut tracker: CoverageTracker<u64> = CoverageTracker::new(&network);
    let mut schedule = schedule;
    let (mut deliveries, mut collisions, mut losses) = (0u64, 0u64, 0u64);
    let mut action_counts = vec![ActionCounts::default(); n];
    for slot in 0..slots {
        if let Some(s) = schedule.as_mut() {
            let mut mutated = false;
            while let Some(timed) = s.next_due(slot) {
                network.apply(&timed.event).expect("valid dynamics event");
                mutated = true;
            }
            if mutated {
                tracker.resync(&network);
            }
        }
        let actions: Vec<SlotAction> = (0..n)
            .map(|i| {
                if slot < start_slots[i] {
                    SlotAction::Quiet
                } else {
                    protocols[i].on_slot(slot - start_slots[i], &mut node_rngs[i])
                }
            })
            .collect();
        for (i, action) in actions.iter().enumerate() {
            match action {
                SlotAction::Transmit { .. } => action_counts[i].transmit += 1,
                SlotAction::Listen { .. } => action_counts[i].listen += 1,
                SlotAction::Quiet => action_counts[i].quiet += 1,
            }
        }
        let outcome = resolve_slot(&network, &actions, impairments, &mut medium_rng);
        for d in &outcome.deliveries {
            let beacon = Beacon::new(d.from, network.available(d.from).to_owned());
            protocols[d.to.as_usize()].on_beacon(&beacon, d.channel);
            tracker.record(
                Link {
                    from: d.from,
                    to: d.to,
                },
                slot,
            );
        }
        deliveries += outcome.deliveries.len() as u64;
        collisions += outcome.collisions.len() as u64;
        losses += outcome.impairment_losses as u64;
    }
    Observables {
        deliveries,
        collisions,
        impairment_losses: losses,
        coverage: tracker.per_link().collect(),
        tables: protocols
            .iter()
            .map(|p| p.table().to_sorted_vec())
            .collect(),
        action_counts,
    }
}

/// Runs the real engine with identical inputs and extracts the same
/// observables. `executor` picks the slot-by-slot loop or the dead-air-
/// skipping event executor — both must replay the reference byte for byte.
fn engine_run(
    base: &Network,
    schedule: Option<DynamicsSchedule>,
    start_slots: &[u64],
    seed: SeedTree,
    impairments: &Impairments,
    slots: u64,
    executor: Engine,
) -> Observables {
    let n = base.node_count();
    let universe = base.universe_size();
    let mut engine = SyncEngine::new(
        base,
        (0..n).map(|_| RandomChatter::boxed(universe)).collect(),
        start_slots.to_vec(),
        seed,
    );
    if let Some(s) = schedule {
        engine = engine.with_dynamics(s);
    }
    let config = SyncRunConfig::fixed(slots).with_impairments(*impairments);
    let out = match executor {
        Engine::Slotted => engine.run(config),
        Engine::Event => engine.run_event(config),
    };
    Observables {
        deliveries: out.deliveries(),
        collisions: out.collisions(),
        impairment_losses: out.impairment_losses(),
        coverage: out.link_coverage().iter().copied().collect(),
        tables: out.tables().iter().map(|t| t.to_sorted_vec()).collect(),
        action_counts: out.action_counts().to_vec(),
    }
}

fn test_network() -> Network {
    NetworkBuilder::ring(6)
        .universe(3)
        .availability(AvailabilityModel::UniformSubset { size: 2 })
        .build(SeedTree::new(0x5EED).branch("net"))
        .expect("build network")
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

#[test]
fn static_run_matches_reference_replay() {
    let net = test_network();
    let starts = [0, 0, 3, 0, 5, 0];
    for (seed, q) in [(11u64, 1.0f64), (12, 0.85), (13, 0.4)] {
        let imp = if q >= 1.0 {
            Impairments::reliable()
        } else {
            Impairments::with_delivery_probability(q)
        };
        let seed = SeedTree::new(seed);
        let reference = reference_run(&net, None, &starts, seed, &imp, 400);
        for executor in [Engine::Slotted, Engine::Event] {
            let engine = engine_run(&net, None, &starts, seed, &imp, 400, executor);
            assert_eq!(engine, reference, "divergence at q={q} ({executor:?})");
        }
    }
}

/// The dynamics schedule exercises every event class, including the three
/// that must invalidate the beacon cache (`ChannelLost`, `ChannelGained`,
/// `NodeJoin`) and a leave/rejoin cycle.
fn churny_schedule() -> DynamicsSchedule {
    use mmhew_dynamics::TimedEvent;
    let full = ChannelSet::full(3);
    DynamicsSchedule::new(vec![
        TimedEvent::new(
            5,
            NetworkEvent::ChannelLost {
                node: n(1),
                channel: ChannelId::new(0),
            },
        ),
        TimedEvent::new(
            9,
            NetworkEvent::EdgeRemove {
                from: n(0),
                to: n(1),
            },
        ),
        TimedEvent::new(
            20,
            NetworkEvent::ChannelGained {
                node: n(1),
                channel: ChannelId::new(2),
            },
        ),
        TimedEvent::new(
            20,
            NetworkEvent::ChannelGained {
                node: n(3),
                channel: ChannelId::new(1),
            },
        ),
        TimedEvent::new(
            35,
            NetworkEvent::EdgeAdd {
                from: n(0),
                to: n(1),
            },
        ),
        TimedEvent::new(60, NetworkEvent::NodeLeave { node: n(4) }),
        TimedEvent::new(
            90,
            NetworkEvent::NodeJoin {
                node: n(4),
                position: (0.0, 0.0),
                available: full,
            },
        ),
        TimedEvent::new(
            90,
            NetworkEvent::EdgeAdd {
                from: n(3),
                to: n(4),
            },
        ),
        TimedEvent::new(
            90,
            NetworkEvent::EdgeAdd {
                from: n(4),
                to: n(3),
            },
        ),
        TimedEvent::new(
            90,
            NetworkEvent::EdgeAdd {
                from: n(4),
                to: n(5),
            },
        ),
        TimedEvent::new(
            90,
            NetworkEvent::EdgeAdd {
                from: n(5),
                to: n(4),
            },
        ),
        TimedEvent::new(
            120,
            NetworkEvent::ChannelLost {
                node: n(4),
                channel: ChannelId::new(1),
            },
        ),
    ])
}

#[test]
fn dynamic_run_matches_reference_replay() {
    let net = test_network();
    let starts = [0u64; 6];
    for (seed, q) in [(21u64, 1.0f64), (22, 0.7)] {
        let imp = if q >= 1.0 {
            Impairments::reliable()
        } else {
            Impairments::with_delivery_probability(q)
        };
        let seed = SeedTree::new(seed);
        let reference = reference_run(&net, Some(churny_schedule()), &starts, seed, &imp, 300);
        for executor in [Engine::Slotted, Engine::Event] {
            let engine = engine_run(
                &net,
                Some(churny_schedule()),
                &starts,
                seed,
                &imp,
                300,
                executor,
            );
            assert_eq!(
                engine, reference,
                "divergence under dynamics at q={q} ({executor:?})"
            );
        }
    }
}
