//! Algorithm selection, per-node protocol construction and the
//! ground-truth checks a run is judged by.
//!
//! [`SyncAlgorithm`] and [`AsyncAlgorithm`] name what a
//! [`Scenario`](crate::Scenario) runs; the scenario builds one protocol
//! instance per node from them. [`tables_match_ground_truth`] and
//! [`tables_are_sound`] compare the neighbor tables a run produced with
//! the network's true neighborhoods.

use crate::alg1_staged::StagedDiscovery;
use crate::alg2_adaptive::{AdaptiveDiscovery, GrowthStrategy};
use crate::alg3_uniform::UniformDiscovery;
use crate::alg4_async::AsyncFrameDiscovery;
use crate::baseline::PerChannelBirthday;
use crate::params::{AsyncParams, ProtocolError, SyncParams};
use mmhew_engine::{AsyncProtocol, NeighborTable, SyncProtocol};
use mmhew_topology::{Network, NodeId};
use serde::Serialize;

/// Which synchronous algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum SyncAlgorithm {
    /// Algorithm 1 — staged probability sweep; identical starts, known
    /// `Δ_est`.
    Staged(SyncParams),
    /// Algorithm 2 — sequentially growing degree estimate; identical
    /// starts, no knowledge.
    Adaptive,
    /// Algorithm 3 — constant probability; tolerates variable starts,
    /// known `Δ_est`.
    Uniform(SyncParams),
    /// Ablation: Algorithm 2 with the geometric-doubling estimate growth
    /// the paper rejects, dwelling a fixed number of stages per estimate.
    AdaptiveDoubling {
        /// Stages per estimate before doubling.
        dwell: u64,
    },
    /// The §I strawman baseline: per-universal-channel birthday instances,
    /// time-multiplexed round-robin over the universe.
    PerChannelBirthday {
        /// Per-active-slot transmission probability.
        tx_probability: f64,
    },
}

/// Which asynchronous algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AsyncAlgorithm {
    /// Algorithm 4 — frame-based discovery under drifting clocks.
    FrameBased(AsyncParams),
}

/// Builds one `algorithm` instance per node of `network`, in node order,
/// each over the node's available channel set.
///
/// # Errors
///
/// Returns [`ProtocolError`] if any node's available channel set is empty
/// or a parameter is invalid.
pub fn build_sync_protocols(
    network: &Network,
    algorithm: SyncAlgorithm,
) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
    let n = network.node_count();
    let mut protocols: Vec<Box<dyn SyncProtocol>> = Vec::with_capacity(n);
    for i in 0..n {
        let available = network.available(NodeId::new(i as u32)).to_owned();
        let protocol: Box<dyn SyncProtocol> = match algorithm {
            SyncAlgorithm::Staged(params) => Box::new(StagedDiscovery::new(available, params)?),
            SyncAlgorithm::Adaptive => Box::new(AdaptiveDiscovery::new(available)?),
            SyncAlgorithm::AdaptiveDoubling { dwell } => Box::new(
                AdaptiveDiscovery::with_strategy(available, GrowthStrategy::Double { dwell })?,
            ),
            SyncAlgorithm::Uniform(params) => Box::new(UniformDiscovery::new(available, params)?),
            SyncAlgorithm::PerChannelBirthday { tx_probability } => Box::new(
                PerChannelBirthday::new(network.universe_size(), tx_probability, available)?,
            ),
        };
        protocols.push(protocol);
    }
    Ok(protocols)
}

pub(crate) fn build_async_protocols(
    network: &Network,
    algorithm: AsyncAlgorithm,
) -> Result<Vec<Box<dyn AsyncProtocol>>, ProtocolError> {
    let n = network.node_count();
    let mut protocols: Vec<Box<dyn AsyncProtocol>> = Vec::with_capacity(n);
    for i in 0..n {
        let available = network.available(NodeId::new(i as u32)).to_owned();
        let protocol: Box<dyn AsyncProtocol> = match algorithm {
            AsyncAlgorithm::FrameBased(params) => {
                Box::new(AsyncFrameDiscovery::new(available, params)?)
            }
        };
        protocols.push(protocol);
    }
    Ok(protocols)
}

/// True if every node's table equals the network's ground truth exactly
/// (all true neighbors present with the correct common channel sets, no
/// false entries).
pub fn tables_match_ground_truth(network: &Network, tables: &[NeighborTable]) -> bool {
    tables.len() == network.node_count()
        && tables.iter().enumerate().all(|(i, table)| {
            table.to_sorted_vec() == network.expected_discovery(NodeId::new(i as u32))
        })
}

/// True if no node's table contains a false discovery: every recorded
/// neighbor is a true neighbor and the recorded common set never exceeds
/// the true intersection. Holds for any partial run of a correct protocol.
///
/// A table and the ground truth both ascend by neighbor, so each node
/// costs one merge of the two.
pub fn tables_are_sound(network: &Network, tables: &[NeighborTable]) -> bool {
    tables.iter().enumerate().all(|(i, table)| {
        let expected = network.expected_discovery(NodeId::new(i as u32));
        let mut truths = expected.iter();
        table.iter().all(|(v, recorded)| {
            truths
                .find(|(ev, _)| *ev >= v)
                .is_some_and(|(ev, truth)| *ev == v && recorded.is_subset(truth))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{staleness, ContinuousConfig};
    use crate::robust::repetition_factor;
    use crate::scenario::Scenario;
    use mmhew_dynamics::{DynamicsSchedule, TimedEvent};
    use mmhew_engine::{
        AsyncRunConfig, AsyncStartSchedule, ClockConfig, StartSchedule, SyncOutcome, SyncRunConfig,
    };
    use mmhew_faults::{FaultPlan, LinkLossModel};
    use mmhew_spectrum::{AvailabilityModel, ChannelSet};
    use mmhew_time::{DriftBound, DriftModel, LocalDuration, RealDuration};
    use mmhew_topology::{NetworkBuilder, NetworkEvent, Propagation};
    use mmhew_util::SeedTree;

    fn small_net() -> Network {
        NetworkBuilder::complete(4)
            .universe(4)
            .build(SeedTree::new(0))
            .expect("build")
    }

    fn hetero_net() -> Network {
        NetworkBuilder::grid(3, 3)
            .universe(10)
            .availability(AvailabilityModel::UniformSubset { size: 5 })
            .build(SeedTree::new(11))
            .expect("build")
    }

    fn staged(delta: u64) -> SyncAlgorithm {
        SyncAlgorithm::Staged(SyncParams::new(delta).expect("valid"))
    }

    /// A plain synchronous run from identical starts.
    fn plain_run(
        net: &Network,
        algorithm: SyncAlgorithm,
        config: SyncRunConfig,
        seed: u64,
    ) -> SyncOutcome {
        Scenario::sync(net, algorithm)
            .config(config)
            .run(SeedTree::new(seed))
            .expect("run")
    }

    #[test]
    fn adaptive_completes_without_knowledge() {
        let net = small_net();
        let out = plain_run(
            &net,
            SyncAlgorithm::Adaptive,
            SyncRunConfig::until_complete(200_000),
            2,
        );
        assert!(out.completed());
        assert!(tables_match_ground_truth(&net, out.tables()));
    }

    #[test]
    fn uniform_completes_with_staggered_starts() {
        let net = hetero_net();
        let out = Scenario::sync(
            &net,
            SyncAlgorithm::Uniform(SyncParams::new(net.max_degree().max(1) as u64).expect("valid")),
        )
        .starts(StartSchedule::Staggered { window: 500 })
        .config(SyncRunConfig::until_complete(500_000))
        .run(SeedTree::new(3))
        .expect("run");
        assert!(out.completed());
        assert!(tables_match_ground_truth(&net, out.tables()));
        assert!(out.latest_start() > 0);
    }

    #[test]
    fn baseline_completes_on_identical_starts() {
        let net = small_net();
        let out = plain_run(
            &net,
            SyncAlgorithm::PerChannelBirthday {
                tx_probability: 0.5,
            },
            SyncRunConfig::until_complete(200_000),
            4,
        );
        assert!(out.completed());
        assert!(tables_match_ground_truth(&net, out.tables()));
    }

    #[test]
    fn async_completes_under_paper_drift() {
        let net = hetero_net();
        let config = AsyncRunConfig::until_complete(500_000)
            .with_frame_len(LocalDuration::from_nanos(3_000))
            .with_clocks(ClockConfig {
                drift: DriftModel::RandomPiecewise {
                    bound: DriftBound::PAPER,
                    segment: RealDuration::from_micros(50),
                },
                offset_window: LocalDuration::from_micros(30),
            })
            .with_starts(AsyncStartSchedule::Staggered {
                window: RealDuration::from_micros(20),
            });
        let out = Scenario::asynchronous(
            &net,
            AsyncAlgorithm::FrameBased(
                AsyncParams::new(net.max_degree().max(1) as u64).expect("valid"),
            ),
        )
        .config(config)
        .run(SeedTree::new(5))
        .expect("run");
        assert!(out.completed());
        assert!(tables_match_ground_truth(&net, out.tables()));
    }

    #[test]
    fn runs_are_deterministic() {
        let net = small_net();
        let run = |seed: u64| {
            plain_run(
                &net,
                staged(4),
                SyncRunConfig::until_complete(100_000),
                seed,
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.completion_slot(), b.completion_slot());
        assert_eq!(a.link_coverage(), b.link_coverage());
        let c = run(8);
        assert_ne!(a.completion_slot(), c.completion_slot());
    }

    #[test]
    fn empty_availability_is_an_error() {
        let net = NetworkBuilder::line(2)
            .universe(2)
            .availability(AvailabilityModel::Explicit(vec![
                ChannelSet::full(2),
                ChannelSet::new(),
            ]))
            .build(SeedTree::new(0))
            .expect("build");
        let err = Scenario::sync(&net, SyncAlgorithm::Adaptive)
            .config(SyncRunConfig::until_complete(10))
            .run(SeedTree::new(0))
            .expect_err("empty set");
        assert_eq!(err, ProtocolError::EmptyChannelSet);
    }

    #[test]
    fn soundness_holds_mid_run() {
        let net = hetero_net();
        // Far too short to complete reliably.
        let out = plain_run(&net, staged(8), SyncRunConfig::fixed(50), 9);
        assert!(tables_are_sound(&net, out.tables()));
    }

    #[test]
    fn adaptive_doubling_completes() {
        let net = small_net();
        let out = plain_run(
            &net,
            SyncAlgorithm::AdaptiveDoubling { dwell: 4 },
            SyncRunConfig::until_complete(500_000),
            21,
        );
        assert!(out.completed());
        assert!(tables_match_ground_truth(&net, out.tables()));
    }

    #[test]
    fn terminating_run_stops_locally_and_finds_everyone() {
        let net = small_net();
        let delta = net.max_degree().max(1) as u64;
        // A generous quiescence threshold: all links found, then everyone
        // shuts down on their own.
        let out = Scenario::sync(
            &net,
            SyncAlgorithm::Uniform(SyncParams::new(delta).expect("positive")),
        )
        .terminating(2_000)
        .config(SyncRunConfig::until_all_terminated(200_000))
        .run(SeedTree::new(22))
        .expect("run");
        assert!(out.all_terminated(), "nodes must decide to stop");
        assert!(out.terminated_slot().is_some());
        assert!(out.completed(), "generous threshold finds all links");
        assert!(tables_match_ground_truth(&net, out.tables()));
        // Termination necessarily happens after completion.
        assert!(
            out.terminated_slot().expect("terminated") >= out.completion_slot().expect("completed")
        );
    }

    #[test]
    fn tiny_quiescence_threshold_terminates_early_and_may_miss_links() {
        let net = NetworkBuilder::grid(3, 3)
            .universe(8)
            .availability(AvailabilityModel::UniformSubset { size: 4 })
            .build(SeedTree::new(30))
            .expect("build");
        let delta = net.max_degree().max(1) as u64;
        let out = Scenario::sync(
            &net,
            SyncAlgorithm::Uniform(SyncParams::new(delta).expect("positive")),
        )
        .terminating(2) // absurdly impatient
        .config(SyncRunConfig::until_all_terminated(200_000))
        .run(SeedTree::new(23))
        .expect("run");
        assert!(out.all_terminated());
        assert!(
            out.terminated_slot().expect("terminated") < 200,
            "impatient nodes stop almost immediately"
        );
        // Results stay sound even when incomplete.
        assert!(tables_are_sound(&net, out.tables()));
    }

    #[test]
    fn async_terminating_run_goes_silent_after_discovery() {
        let net = small_net();
        let delta = net.max_degree().max(1) as u64;
        let mut config = AsyncRunConfig::until_complete(100_000);
        config.stop_when_complete = false; // nodes decide on their own
        let out = Scenario::asynchronous(
            &net,
            AsyncAlgorithm::FrameBased(AsyncParams::new(delta).expect("positive")),
        )
        .terminating(2_000)
        .config(config)
        .run(SeedTree::new(31))
        .expect("run");
        assert!(out.completed(), "generous threshold finds all links");
        assert!(tables_match_ground_truth(&net, out.tables()));
        // The run ended because nodes stopped, not because the budget ran
        // out: every node executed far fewer frames than the budget.
        assert!(
            out.frames_executed().iter().all(|&f| f < 100_000),
            "nodes should have silenced themselves: {:?}",
            out.frames_executed()
        );
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        // Attaching a sink must not perturb the simulation: same seed,
        // same outcome, and the sink's view reconciles with the outcome.
        let net = small_net();
        let config = SyncRunConfig::until_complete(100_000);
        let plain = plain_run(&net, staged(4), config, 7);
        let mut sink = mmhew_obs::MetricsSink::new();
        let observed = Scenario::sync(&net, staged(4))
            .config(config)
            .with_sink(&mut sink)
            .run(SeedTree::new(7))
            .expect("run");
        assert_eq!(plain.completion_slot(), observed.completion_slot());
        assert_eq!(plain.link_coverage(), observed.link_coverage());
        assert_eq!(sink.deliveries(), observed.deliveries());
        assert_eq!(sink.slots(), observed.slots_executed());
    }

    #[test]
    fn dynamic_run_with_empty_schedule_matches_static() {
        let net = small_net();
        let config = SyncRunConfig::until_complete(100_000);
        let plain = plain_run(&net, staged(4), config, 7);
        let frozen = Scenario::sync(&net, staged(4))
            .with_dynamics(DynamicsSchedule::empty())
            .config(config)
            .run(SeedTree::new(7))
            .expect("run");
        assert_eq!(plain.completion_slot(), frozen.completion_slot());
        assert_eq!(plain.link_coverage(), frozen.link_coverage());
        assert_eq!(plain.deliveries(), frozen.deliveries());
    }

    #[test]
    fn continuous_discovery_evicts_a_departed_neighbor() {
        let net = NetworkBuilder::complete(3)
            .universe(2)
            .build(SeedTree::new(0))
            .expect("build");
        // Node 2 departs at slot 5000; with a 1000-slot stale timeout, its
        // ghost entries must be gone well before the 12000-slot budget.
        let dynamics = DynamicsSchedule::new(vec![TimedEvent::new(
            5_000,
            NetworkEvent::NodeLeave {
                node: NodeId::new(2),
            },
        )]);
        let out = Scenario::sync(
            &net,
            SyncAlgorithm::Uniform(SyncParams::new(2).expect("valid")),
        )
        .continuous(ContinuousConfig::new(16, 1_000).expect("valid"))
        .with_dynamics(dynamics)
        .config(SyncRunConfig::fixed(12_000))
        .run(SeedTree::new(13))
        .expect("run");
        let mut shrunk = net.clone();
        shrunk
            .apply(&NetworkEvent::NodeLeave {
                node: NodeId::new(2),
            })
            .expect("apply");
        let report = staleness(&shrunk, out.tables());
        assert_eq!(report.ghosts, 0, "departed neighbor still tabled");
        assert_eq!(report.missing, 0, "survivors should know each other");
    }

    #[test]
    fn faulted_run_with_empty_plan_matches_plain() {
        let net = small_net();
        let config = SyncRunConfig::until_complete(100_000);
        let plain = plain_run(&net, staged(4), config, 7);
        let faulted = Scenario::sync(&net, staged(4))
            .with_faults(FaultPlan::new())
            .config(config)
            .run(SeedTree::new(7))
            .expect("run");
        assert_eq!(plain.completion_slot(), faulted.completion_slot());
        assert_eq!(plain.link_coverage(), faulted.link_coverage());
        assert_eq!(plain.deliveries(), faulted.deliveries());
        assert_eq!(faulted.beacon_losses(), 0);
    }

    #[test]
    fn robust_with_unit_repetition_matches_plain() {
        // r = 1 makes the wrapper a pure pass-through: same actions, same
        // RNG stream, same outcome.
        let net = small_net();
        let config = SyncRunConfig::until_complete(100_000);
        let plain = plain_run(&net, staged(4), config, 7);
        let robust = Scenario::sync(&net, staged(4))
            .robust(1)
            .with_faults(FaultPlan::new())
            .config(config)
            .run(SeedTree::new(7))
            .expect("run");
        assert_eq!(plain.completion_slot(), robust.completion_slot());
        assert_eq!(plain.link_coverage(), robust.link_coverage());
    }

    #[test]
    fn robust_discovery_completes_under_heavy_loss() {
        let net = small_net();
        let p_loss = 0.6;
        let r = repetition_factor(net.node_count(), 0.1, p_loss);
        let plan = FaultPlan::new().with_default_loss(LinkLossModel::Bernoulli {
            delivery_probability: 1.0 - p_loss,
        });
        let out = Scenario::sync(&net, staged(4))
            .robust(r)
            .with_faults(plan)
            .config(SyncRunConfig::until_complete(r * 200_000))
            .run(SeedTree::new(41))
            .expect("run");
        assert!(out.completed(), "repetition should overcome 60% loss");
        assert!(tables_match_ground_truth(&net, out.tables()));
        assert!(out.beacon_losses() > 0, "the channel really was lossy");
    }

    /// `tables_are_sound` as it was: a linear search of the ground truth
    /// for every table entry.
    fn tables_are_sound_by_search(network: &Network, tables: &[NeighborTable]) -> bool {
        tables.iter().enumerate().all(|(i, table)| {
            let expected = network.expected_discovery(NodeId::new(i as u32));
            table.iter().all(|(v, recorded)| {
                expected
                    .iter()
                    .find(|(ev, _)| *ev == v)
                    .is_some_and(|(_, truth)| recorded.is_subset(truth))
            })
        })
    }

    #[test]
    fn sound_tables_merge_agrees_with_the_search() {
        use rand::Rng;
        mmhew_util::prop::check("sound_tables_merge_agrees_with_the_search", 128, |rng| {
            let n = rng.gen_range(2usize..14);
            let builder = match rng.gen_range(0..3u32) {
                0 => NetworkBuilder::erdos_renyi(n, rng.gen_range(0.0f64..1.0)),
                1 => NetworkBuilder::unit_disk(n, 6.0, rng.gen_range(0.5f64..4.0)),
                _ => NetworkBuilder::asymmetric_disk(n, 6.0, 0.5, 4.0),
            };
            let propagation = if rng.gen_bool(0.5) {
                Propagation::Uniform
            } else {
                Propagation::PerChannelRange {
                    ranges: (0..6).map(|_| rng.gen_range(0.0f64..6.0)).collect(),
                }
            };
            let mut net = builder
                .universe(6)
                .availability(AvailabilityModel::UniformSubset { size: 3 })
                .propagation(propagation)
                .build(SeedTree::new(rng.gen_range(0u64..u64::MAX)))
                .expect("build");
            if rng.gen_bool(0.3) {
                let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                net.apply_all(&[
                    NetworkEvent::EdgeAdd {
                        from: NodeId::new(a),
                        to: NodeId::new(b),
                    },
                    NetworkEvent::NodeLeave {
                        node: NodeId::new(b),
                    },
                ])
                .expect("valid events");
            }
            // Entries for true neighbors and for non-adjacent nodes, each
            // with a subset, the truth or a superset of the true common set.
            let tables: Vec<NeighborTable> = (0..n)
                .map(|u| {
                    let mut table = NeighborTable::new();
                    for v in 0..n as u32 {
                        if rng.gen_bool(0.4) {
                            let set: ChannelSet = (0..6u16).filter(|_| rng.gen_bool(0.4)).collect();
                            let truth = net
                                .available(NodeId::new(v))
                                .intersection(net.available(NodeId::new(u as u32)));
                            let recorded = if rng.gen_bool(0.7) {
                                truth.intersection(&set)
                            } else {
                                set
                            };
                            table.record(NodeId::new(v), recorded);
                        }
                    }
                    table
                })
                .collect();
            assert_eq!(
                tables_are_sound(&net, &tables),
                tables_are_sound_by_search(&net, &tables)
            );
            // One table at a time, so each node's verdict counts.
            for (u, table) in tables.iter().enumerate() {
                let mut alone = vec![NeighborTable::new(); n];
                alone[u] = table.clone();
                assert_eq!(
                    tables_are_sound(&net, &alone),
                    tables_are_sound_by_search(&net, &alone),
                    "table of n{u}: {table:?}"
                );
            }
        });
    }

    #[test]
    fn ground_truth_mismatch_detected() {
        let net = small_net();
        let mut tables: Vec<NeighborTable> = (0..4).map(|_| NeighborTable::new()).collect();
        assert!(!tables_match_ground_truth(&net, &tables));
        // A false discovery is unsound.
        tables[0].record(NodeId::new(1), ChannelSet::full(16));
        assert!(!tables_are_sound(&net, &tables));
    }
}
