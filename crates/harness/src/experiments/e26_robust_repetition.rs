//! E26 — repetition-factor inflation restores the success guarantee.
//!
//! The paper's conclusion claims the `1 − ε` guarantees survive unreliable
//! channels at a multiplicative budget cost. This experiment makes the
//! claim falsifiable: calibrate a slot budget the algorithm comfortably
//! meets on a clean channel, impose heavy Bernoulli loss, and show
//!
//! 1. the *unwrapped* algorithm now blows that budget in most runs, while
//! 2. [`mmhew_discovery::RobustDiscovery`] with
//!    `r = ⌈ln(N²/ε)/ln(1/p)⌉` repetitions, given `r×` the budget,
//!    completes with failure rate ≤ ε again.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{repetition_factor, Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::{FaultPlan, SyncRunConfig};
use mmhew_faults::LinkLossModel;
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const N: usize = 4;
const UNIVERSE: u16 = 4;
const P_LOSS: f64 = 0.75;
const EPSILON: f64 = 0.1;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e26");
    let reps = effort.pick(10, 40);

    let net = NetworkBuilder::complete(N)
        .universe(UNIVERSE)
        .build(seed.branch("net"))
        .expect("complete networks are always valid");
    let delta = net.max_degree().max(1) as u64;
    let alg = SyncAlgorithm::Uniform(SyncParams::new(delta).expect("positive"));
    let plan = FaultPlan::new().with_default_loss(LinkLossModel::Bernoulli {
        delivery_probability: 1.0 - P_LOSS,
    });

    // Calibrate: a budget the clean channel meets with slack.
    let clean = measure_sync(reps, seed.branch("calibrate"), || {
        Scenario::sync(&net, alg).config(SyncRunConfig::until_complete(2_000_000))
    });
    let budget = (2.0 * clean.summary().mean).ceil().max(1.0) as u64;
    let r = repetition_factor(net.node_count(), EPSILON, P_LOSS);

    let mut table = Table::new(
        [
            "variant",
            "slot budget",
            "mean slots",
            "failures",
            "failure rate",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut push = |name: &str, b: u64, m: &crate::experiments::common::SyncMeasurement| {
        table.push_row(vec![
            name.to_string(),
            b.to_string(),
            fmt_f64(m.summary().mean),
            m.failures.to_string(),
            fmt_f64(m.failure_rate()),
        ]);
    };
    push("clean channel (calibration)", 2_000_000, &clean);

    let unwrapped = measure_sync(reps, seed.branch("unwrapped"), || {
        Scenario::sync(&net, alg)
            .with_faults(plan.clone())
            .config(SyncRunConfig::until_complete(budget))
    });
    push("unwrapped, p_loss=0.75", budget, &unwrapped);

    let robust = measure_sync(reps, seed.branch("robust"), || {
        Scenario::sync(&net, alg)
            .robust(r)
            .with_faults(plan.clone())
            .config(SyncRunConfig::until_complete(r * budget))
    });
    push(&format!("robust r={r}, p_loss=0.75"), r * budget, &robust);

    let mut report = ExperimentReport::new(
        "E26",
        "robust repetition vs heavy loss under a calibrated slot budget",
        "Conclusion (b): an r = ⌈ln(N²/ε)/ln(1/p)⌉ repetition factor restores ≥1−ε success on \
         a channel where the unwrapped algorithm blows its budget, at an r× budget cost",
        table,
    );
    report.note(format!(
        "calibrated budget = 2x clean mean = {budget} slots; r = {r} \
         (N={N}, ε={EPSILON}, p_loss={P_LOSS})"
    ));
    report.note(format!(
        "unwrapped failure rate {} vs robust {} (target ≤ {EPSILON})",
        fmt_f64(unwrapped.failure_rate()),
        fmt_f64(robust.failure_rate())
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_restores_success_where_unwrapped_fails() {
        let r = run(Effort::Quick, 26);
        assert_eq!(r.table.len(), 3);
        let rows = r.table.rows();
        let clean_failures: u64 = rows[0][3].parse().expect("failures");
        let unwrapped_rate: f64 = rows[1][4].parse().expect("rate");
        let robust_rate: f64 = rows[2][4].parse().expect("rate");
        assert_eq!(clean_failures, 0, "calibration budget must be comfortable");
        assert!(
            unwrapped_rate > 0.5,
            "75% loss should blow the clean budget most of the time, got {unwrapped_rate}"
        );
        // ε = 0.1; allow 2/10 at quick effort for sampling noise.
        assert!(
            robust_rate <= 0.2,
            "repetition should restore ≈1-ε success, got failure rate {robust_rate}"
        );
    }
}
