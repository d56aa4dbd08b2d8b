//! E5 — Theorem 3 vs Theorem 1: constant-probability Algorithm 3 against
//! staged Algorithm 1 as the degree estimate loosens.
//!
//! Theorem 1's bound grows like `log Δ_est`; Theorem 3's grows *linearly*
//! in `Δ_est` once `Δ_est > 2S` (the price paid for tolerating variable
//! start times). Sweeping `Δ_est` on a fixed network should show Algorithm
//! 3 competitive (or better — no stage overhead) at tight estimates and
//! increasingly worse at loose ones, with a crossover — exactly the
//! trade-off the paper describes ("although the algorithm works even if
//! the upper bound is loose, the running time … depends linearly on the
//! value of the upper bound").

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Bounds, Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::SyncRunConfig;
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const EPSILON: f64 = 0.01;
const N: usize = 16;
const UNIVERSE: u16 = 4;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e5");
    let reps = effort.pick(10, 40);
    let estimates: &[u64] = effort.pick(&[2, 8, 32, 128], &[2, 8, 32, 128, 512]);

    let net = NetworkBuilder::ring(N)
        .universe(UNIVERSE)
        .build(seed.branch("net"))
        .expect("ring networks are always valid");

    let mut table = Table::new(
        [
            "Δ_est",
            "Alg1 slots",
            "Alg3 slots",
            "Alg3/Alg1",
            "Thm1 bound",
            "Thm3 bound",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut ratios = Vec::new();
    for &dest in estimates {
        let params = SyncParams::new(dest).expect("positive");
        let bounds = Bounds::from_network(&net, dest, EPSILON);
        let budget =
            ((bounds.theorem1_slots() + bounds.theorem3_slots()).ceil() as u64 * 4).max(10_000);
        let staged = measure_sync(reps, seed.branch("alg1").index(dest), || {
            Scenario::sync(&net, SyncAlgorithm::Staged(params))
                .config(SyncRunConfig::until_complete(budget))
        });
        let uniform = measure_sync(reps, seed.branch("alg3").index(dest), || {
            Scenario::sync(&net, SyncAlgorithm::Uniform(params))
                .config(SyncRunConfig::until_complete(budget))
        });
        let a1 = staged.summary().mean;
        let a3 = uniform.summary().mean;
        ratios.push(a3 / a1.max(1e-9));
        table.push_row(vec![
            dest.to_string(),
            fmt_f64(a1),
            fmt_f64(a3),
            fmt_f64(a3 / a1.max(1e-9)),
            fmt_f64(bounds.theorem1_slots()),
            fmt_f64(bounds.theorem3_slots()),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E5",
        "staged (Alg 1) vs constant-probability (Alg 3) as Δ_est loosens",
        "Theorem 1 (log Δ_est) vs Theorem 3 (linear Δ_est)",
        table,
    );
    report.note(format!(
        "Alg3/Alg1 ratio goes from {:.2} at the tightest estimate to {:.2} at the loosest — \
         the predicted log-vs-linear divergence",
        ratios.first().copied().unwrap_or(0.0),
        ratios.last().copied().unwrap_or(0.0),
    ));
    report.note(format!(
        "ring N={N}, S={UNIVERSE}, ε={EPSILON}, reps={reps}"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let r = run(Effort::Quick, 4);
        assert_eq!(r.table.len(), 4);
    }

    #[test]
    fn uniform_degrades_faster_with_loose_estimates() {
        let r = run(Effort::Quick, 21);
        let first_ratio: f64 = r.table.rows()[0][3].parse().expect("ratio");
        let last_ratio: f64 = r.table.rows()[3][3].parse().expect("ratio");
        assert!(
            last_ratio > first_ratio * 2.0,
            "expected the Alg3/Alg1 ratio to grow markedly: {first_ratio} -> {last_ratio}"
        );
    }
}
