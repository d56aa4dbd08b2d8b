//! Trait-conformance suite run against every protocol registered in the
//! catalog — the paper's Algorithms 1–3, both birthday baselines, and
//! the rival families — plus Algorithm 4 for the async entry.
//!
//! Three contracts are checked on randomized networks:
//!
//! 1. **Channel discipline** — a protocol only ever transmits or listens
//!    on channels in its own available set.
//! 2. **Termination monotonicity** — once `is_terminated` reports true
//!    it never reverts (engines stop scheduling terminated nodes, so a
//!    flip-flop would deadlock discovery).
//! 3. **`next_transmission_bound` honesty** — the identical stack is
//!    replayed through the slot-by-slot oracle and the event-driven
//!    executor, which admits a run on the hook and then relies on its
//!    frozen termination vote, demanding byte-identical outcomes.

use mmhew_discovery::{Engine, Scenario};
use mmhew_engine::SyncRunConfig;
use mmhew_radio::{FrameAction, SlotAction};
use mmhew_rivals::{catalog, Family};
use mmhew_spectrum::AvailabilityModel;
use mmhew_topology::{Network, NodeId};
use mmhew_util::{prop, SeedTree, Xoshiro256StarStar};
use rand::{Rng, RngCore};

/// Slots each protocol instance is driven for in the direct checks.
const DRIVE_SLOTS: u64 = 400;
/// Slot budget of the lockstep replay (big enough for the paper's
/// algorithms to complete; rivals that miss it exhaust it identically on
/// both executors, which is still a valid equality check).
const REPLAY_BUDGET: u64 = 8_000;

fn build_network(n: usize, universe: u16, subset: u16, seed: u64) -> Network {
    let availability = if subset == 0 {
        AvailabilityModel::Full
    } else {
        AvailabilityModel::UniformSubset { size: subset }
    };
    mmhew_topology::NetworkBuilder::complete(n)
        .universe(universe)
        .availability(availability)
        .build(SeedTree::new(seed).branch("net"))
        .expect("complete networks build")
}

/// Cases per contract.
const CASES: u64 = 8;

/// (nodes, universe, subset size with 0 = full availability, seed).
fn net_params(rng: &mut Xoshiro256StarStar) -> (usize, u16, u16, u64) {
    let n = rng.gen_range(2usize..=6);
    let universe = rng.gen_range(2u16..=6);
    let subset = rng.gen_range(0u16..=universe);
    (n, universe, subset, rng.next_u64())
}

#[test]
fn actions_stay_on_available_channels_and_termination_is_monotone() {
    prop::check(
        "actions_stay_on_available_channels_and_termination_is_monotone",
        CASES,
        |rng| {
            let (n, universe, subset, seed) = net_params(rng);
            let net = build_network(n, universe, subset, seed);
            let delta_est = net.max_degree().max(1) as u64;
            for name in catalog::names(Family::Sync) {
                let kind = catalog::by_name(name).expect("listed name resolves");
                let stack = kind
                    .build_sync(&net, delta_est)
                    .expect("non-empty channel sets");
                assert_eq!(stack.len(), net.node_count());
                for (i, mut protocol) in stack.into_iter().enumerate() {
                    let available = net.available(NodeId::new(i as u32));
                    let mut rng = Xoshiro256StarStar::from_seed_u64(seed ^ i as u64);
                    let mut terminated = false;
                    for slot in 0..DRIVE_SLOTS {
                        match protocol.on_slot(slot, &mut rng) {
                            SlotAction::Transmit { channel } | SlotAction::Listen { channel } => {
                                assert!(
                                    available.contains(channel),
                                    "{name} node {i} used channel {channel:?} outside its set"
                                );
                            }
                            SlotAction::Quiet => {}
                        }
                        let t = protocol.is_terminated();
                        assert!(
                            t || !terminated,
                            "{name} node {i} un-terminated at slot {slot}"
                        );
                        terminated = t;
                    }
                }
            }
        },
    );
}

#[test]
fn lockstep_replay_matches_the_slotted_oracle() {
    prop::check("lockstep_replay_matches_the_slotted_oracle", CASES, |rng| {
        let (n, universe, subset, seed) = net_params(rng);
        let net = build_network(n, universe, subset, seed);
        let delta_est = net.max_degree().max(1) as u64;
        let run_seed = SeedTree::new(seed).branch("run");
        for name in catalog::names(Family::Sync) {
            let kind = catalog::by_name(name).expect("listed name resolves");
            let run = |engine: Engine| {
                let stack = kind
                    .build_sync(&net, delta_est)
                    .expect("non-empty channel sets");
                Scenario::sync_stack(&net, stack)
                    .engine(engine)
                    .config(SyncRunConfig::until_complete(REPLAY_BUDGET))
                    .run(run_seed)
                    .expect("scenario runs")
            };
            let slotted = run(Engine::Slotted);
            let event = run(Engine::Event);
            assert_eq!(slotted.completed(), event.completed(), "{}", name);
            assert_eq!(
                slotted.slots_to_complete(),
                event.slots_to_complete(),
                "{}",
                name
            );
            assert_eq!(slotted.slots_executed(), event.slots_executed(), "{}", name);
            assert_eq!(slotted.deliveries(), event.deliveries(), "{}", name);
            assert_eq!(slotted.collisions(), event.collisions(), "{}", name);
            assert_eq!(slotted.tables(), event.tables(), "{}", name);
        }
    });
}

#[test]
fn async_catalog_entry_honors_the_frame_contract() {
    prop::check(
        "async_catalog_entry_honors_the_frame_contract",
        CASES,
        |rng| {
            let (n, universe, subset, seed) = net_params(rng);
            // The one Async entry (Algorithm 4) has no sync builder; drive
            // the underlying frame protocol directly under the same channel
            // and monotonicity contracts.
            let net = build_network(n, universe, subset, seed);
            let delta_est = net.max_degree().max(1) as u64;
            let params = mmhew_discovery::AsyncParams::new(delta_est).expect("positive");
            for i in 0..net.node_count() {
                let available = net.available(NodeId::new(i as u32));
                let mut protocol =
                    mmhew_discovery::AsyncFrameDiscovery::new(available.to_owned(), params)
                        .expect("non-empty channel sets");
                let mut rng = Xoshiro256StarStar::from_seed_u64(seed ^ i as u64);
                let mut terminated = false;
                for frame in 0..200 {
                    use mmhew_engine::AsyncProtocol;
                    match protocol.on_frame(frame, &mut rng) {
                        FrameAction::Transmit { channel } | FrameAction::Listen { channel } => {
                            assert!(
                                available.contains(channel),
                                "frame-based node {i} used channel {channel:?} outside its set"
                            );
                        }
                    }
                    let t = protocol.is_terminated();
                    assert!(t || !terminated, "frame-based node {i} un-terminated");
                    terminated = t;
                }
            }
        },
    );
}

/// Non-random sanity: every registered sync protocol makes discovery
/// progress on an easy network (the conformance contracts above would be
/// vacuous for a protocol that never transmits at all).
#[test]
fn every_sync_protocol_discovers_on_a_complete_full_availability_network() {
    let net = build_network(4, 5, 0, 99);
    let delta_est = net.max_degree().max(1) as u64;
    for name in catalog::names(Family::Sync) {
        let kind = catalog::by_name(name).expect("listed name resolves");
        let stack = kind
            .build_sync(&net, delta_est)
            .expect("non-empty channel sets");
        let out = Scenario::sync_stack(&net, stack)
            .config(SyncRunConfig::until_complete(200_000))
            .run(SeedTree::new(7).branch("run"))
            .expect("scenario runs");
        assert!(
            out.deliveries() > 0,
            "{name} delivered no beacons at all in 200k slots"
        );
        assert!(
            out.completed(),
            "{name} did not complete on the easy network"
        );
    }
}
