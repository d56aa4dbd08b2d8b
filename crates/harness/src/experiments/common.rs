//! Shared measurement helpers for the experiment suite.

use crate::sweep::parallel_reps;
use mmhew_discovery::{AsyncAlgorithm, Scenario, SyncScenario};
use mmhew_engine::{AsyncRunConfig, EnergyModel, FaultPlan, SyncRunConfig};
use mmhew_rivals::ProtocolKind;
use mmhew_topology::Network;
use mmhew_util::{SeedTree, Summary};

/// Aggregated completion statistics of repeated synchronous runs.
#[derive(Debug, Clone)]
pub struct SyncMeasurement {
    /// Slots from `T_s` to completion, one entry per *completed* rep.
    pub slots: Vec<f64>,
    /// Repetitions that did not complete within the budget.
    pub failures: u64,
    /// Total repetitions.
    pub reps: u64,
}

impl SyncMeasurement {
    /// Summary over the completed repetitions.
    pub fn summary(&self) -> Summary {
        Summary::from_samples(&self.slots)
    }

    /// Fraction of repetitions that failed to complete.
    pub fn failure_rate(&self) -> f64 {
        if self.reps == 0 {
            0.0
        } else {
            self.failures as f64 / self.reps as f64
        }
    }
}

/// Runs `reps` seeded repetitions of the synchronous scenario that
/// `scenario` builds — with whatever start schedule, fault plan or
/// wrapper it configures — and collects completion times (slots after
/// the latest start).
pub fn measure_sync<'n>(
    reps: u64,
    seed: SeedTree,
    scenario: impl Fn() -> SyncScenario<'n> + Sync,
) -> SyncMeasurement {
    let outcomes = parallel_reps(reps, seed, |_rep, rep_seed| {
        scenario()
            .run(rep_seed)
            .expect("protocol construction failed")
            .slots_to_complete()
    });
    let slots: Vec<f64> = outcomes.iter().flatten().map(|&s| s as f64).collect();
    let failures = outcomes.iter().filter(|o| o.is_none()).count() as u64;
    SyncMeasurement {
        slots,
        failures,
        reps,
    }
}

/// One catalog protocol's repeated head-to-head measurement: completion
/// slots plus energy spent, with budget-exhausted repetitions counted as
/// failures (their energy still accrues over the whole budget, which is
/// exactly the "matched energy budget" comparison the rivals experiments
/// make).
#[derive(Debug, Clone)]
pub struct ProtocolMeasurement {
    /// Slots from `T_s` to completion, one entry per *completed* rep.
    pub slots: Vec<f64>,
    /// Mean per-node-per-slot energy of every repetition (completed or
    /// not), under the model passed to [`measure_protocol`].
    pub energy_per_node_slot: Vec<f64>,
    /// Repetitions that did not complete within the budget.
    pub failures: u64,
    /// Total repetitions.
    pub reps: u64,
}

impl ProtocolMeasurement {
    /// Summary over the completed repetitions' slot counts.
    pub fn summary(&self) -> Summary {
        Summary::from_samples(&self.slots)
    }

    /// Mean energy per node per executed slot across all repetitions.
    pub fn mean_energy_rate(&self) -> f64 {
        Summary::from_samples(&self.energy_per_node_slot).mean
    }
}

/// Runs `reps` seeded repetitions of a catalog protocol (rebuilding the
/// per-node stack from its builder each repetition, with the network's
/// true maximum degree as the degree estimate) and collects completion
/// times and energy rates. `faults` applies to every repetition when
/// given.
pub fn measure_protocol(
    network: &Network,
    kind: &'static ProtocolKind,
    faults: Option<&FaultPlan>,
    config: SyncRunConfig,
    model: &EnergyModel,
    reps: u64,
    seed: SeedTree,
) -> ProtocolMeasurement {
    let delta_est = network.max_degree().max(1) as u64;
    let outcomes = parallel_reps(reps, seed, |_rep, rep_seed| {
        let stack = kind
            .build_sync(network, delta_est)
            .expect("catalog stack builds on non-empty channel sets");
        let mut scenario = Scenario::sync_stack(network, stack).config(config);
        if let Some(plan) = faults {
            scenario = scenario.with_faults(plan.clone());
        }
        let out = scenario.run(rep_seed).expect("scenario runs");
        let denom = (network.node_count() as u64 * out.slots_executed()).max(1) as f64;
        (out.slots_to_complete(), out.total_energy(model) / denom)
    });
    let slots: Vec<f64> = outcomes
        .iter()
        .filter_map(|(s, _)| s.map(|v| v as f64))
        .collect();
    let energy_per_node_slot: Vec<f64> = outcomes.iter().map(|(_, e)| *e).collect();
    let failures = outcomes.iter().filter(|(s, _)| s.is_none()).count() as u64;
    ProtocolMeasurement {
        slots,
        energy_per_node_slot,
        failures,
        reps,
    }
}

/// Aggregated completion statistics of repeated asynchronous runs.
#[derive(Debug, Clone)]
pub struct AsyncMeasurement {
    /// `min_full_frames_at_completion` per completed rep.
    pub frames: Vec<f64>,
    /// Real nanoseconds from `T_s` to completion per completed rep.
    pub realtime_ns: Vec<f64>,
    /// Repetitions that did not complete within the budget.
    pub failures: u64,
    /// Total repetitions.
    pub reps: u64,
}

impl AsyncMeasurement {
    /// Summary of the frame counts.
    pub fn frames_summary(&self) -> Summary {
        Summary::from_samples(&self.frames)
    }

    /// Summary of the real-time durations.
    pub fn realtime_summary(&self) -> Summary {
        Summary::from_samples(&self.realtime_ns)
    }

    /// Fraction of repetitions that failed to complete.
    pub fn failure_rate(&self) -> f64 {
        if self.reps == 0 {
            0.0
        } else {
            self.failures as f64 / self.reps as f64
        }
    }
}

/// Runs `reps` seeded repetitions of an asynchronous discovery.
pub fn measure_async(
    network: &Network,
    algorithm: AsyncAlgorithm,
    config: &AsyncRunConfig,
    reps: u64,
    seed: SeedTree,
) -> AsyncMeasurement {
    let outcomes = parallel_reps(reps, seed, |_rep, rep_seed| {
        let out = Scenario::asynchronous(network, algorithm)
            .config(config.clone())
            .run(rep_seed)
            .expect("protocol construction failed");
        out.min_full_frames_at_completion().map(|frames| {
            let wall = out
                .completion_time()
                .expect("complete")
                .saturating_duration_since(out.latest_start());
            (frames as f64, wall.as_nanos() as f64)
        })
    });
    let mut frames = Vec::new();
    let mut realtime_ns = Vec::new();
    let mut failures = 0;
    for o in outcomes {
        match o {
            Some((f, w)) => {
                frames.push(f);
                realtime_ns.push(w);
            }
            None => failures += 1,
        }
    }
    AsyncMeasurement {
        frames,
        realtime_ns,
        failures,
        reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_discovery::{SyncAlgorithm, SyncParams};
    use mmhew_topology::NetworkBuilder;

    #[test]
    fn measure_sync_completes_small_network() {
        let net = NetworkBuilder::complete(3)
            .universe(2)
            .build(SeedTree::new(0))
            .expect("build");
        let alg = SyncAlgorithm::Staged(SyncParams::new(2).expect("valid"));
        let m = measure_sync(6, SeedTree::new(1), || {
            Scenario::sync(&net, alg).config(SyncRunConfig::until_complete(100_000))
        });
        assert_eq!(m.reps, 6);
        assert_eq!(m.failures, 0);
        assert_eq!(m.slots.len(), 6);
        assert!(m.summary().mean > 0.0);
        assert_eq!(m.failure_rate(), 0.0);
    }

    #[test]
    fn measure_sync_counts_failures_under_tiny_budget() {
        let net = NetworkBuilder::complete(4)
            .universe(4)
            .build(SeedTree::new(0))
            .expect("build");
        let alg = SyncAlgorithm::Staged(SyncParams::new(4).expect("valid"));
        let m = measure_sync(5, SeedTree::new(2), || {
            Scenario::sync(&net, alg).config(SyncRunConfig::until_complete(2)) // absurdly small
        });
        assert!(m.failures > 0);
        assert!(m.failure_rate() > 0.0);
    }

    #[test]
    fn measure_protocol_runs_catalog_entries() {
        let net = NetworkBuilder::complete(4)
            .universe(5)
            .build(SeedTree::new(0))
            .expect("build");
        let kind = mmhew_rivals::catalog::by_name("mc-dis").expect("registered");
        let m = measure_protocol(
            &net,
            kind,
            None,
            SyncRunConfig::until_complete(200_000),
            &EnergyModel::default(),
            3,
            SeedTree::new(4),
        );
        assert_eq!(m.reps, 3);
        assert_eq!(
            m.failures, 0,
            "full availability on a prime universe completes deterministically"
        );
        assert_eq!(m.energy_per_node_slot.len(), 3);
        let rate = m.mean_energy_rate();
        assert!(
            rate > 0.0 && rate < 0.3,
            "mc-dis duty cycle keeps energy rate low, got {rate}"
        );
    }

    #[test]
    fn measure_async_small_network() {
        let net = NetworkBuilder::line(3)
            .universe(2)
            .build(SeedTree::new(0))
            .expect("build");
        let m = measure_async(
            &net,
            AsyncAlgorithm::FrameBased(mmhew_discovery::AsyncParams::new(2).expect("valid")),
            &AsyncRunConfig::until_complete(100_000),
            4,
            SeedTree::new(3),
        );
        assert_eq!(m.failures, 0);
        assert_eq!(m.frames.len(), 4);
        assert!(m.frames_summary().mean > 0.0);
        assert!(m.realtime_summary().mean > 0.0);
    }
}
