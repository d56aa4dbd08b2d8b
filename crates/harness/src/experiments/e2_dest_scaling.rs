//! E2 — Theorem 1's `log Δ_est` dependence.
//!
//! On a fixed network, Algorithm 1 is run with increasingly loose degree
//! estimates. Theorem 1 predicts slots grow like `⌈log₂ Δ_est⌉` (each
//! stage gets longer but stage count stays put): the measured/-stage-length
//! column should stay roughly flat, demonstrating that even very loose
//! estimates only cost a logarithmic factor — the property the paper
//! highlights ("the bound … may be quite loose").

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
    let seed = SeedTree::new(master_seed).branch("e2");
    let reps = effort.pick(10, 40);
    let estimates: &[u64] = effort.pick(&[2, 8, 32, 128], &[2, 8, 32, 128, 512, 2048]);

    let net = NetworkBuilder::ring(N)
        .universe(UNIVERSE)
        .build(seed.branch("net"))
        .expect("ring networks are always valid");

    let mut table = Table::new(
        [
            "Δ_est",
            "stage len",
            "mean slots",
            "ci95",
            "bound (Thm 1)",
            "mean/stage len",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut normalized = Vec::new();
    for &dest in estimates {
        let params = SyncParams::new(dest).expect("positive");
        let bounds = Bounds::from_network(&net, dest, EPSILON);
        let m = measure_sync(reps, seed.branch("run").index(dest), || {
            Scenario::sync(&net, SyncAlgorithm::Staged(params)).config(
                SyncRunConfig::until_complete(bounds.theorem1_slots().ceil() as u64 * 4),
            )
        });
        let s = m.summary();
        let norm = s.mean / params.stage_len() as f64;
        normalized.push(norm);
        table.push_row(vec![
            dest.to_string(),
            params.stage_len().to_string(),
            fmt_f64(s.mean),
            fmt_f64(s.ci95_halfwidth()),
            fmt_f64(bounds.theorem1_slots()),
            fmt_f64(norm),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E2",
        "Algorithm 1 slots vs looseness of the degree estimate",
        "Theorem 1: the Δ_est dependence is only logarithmic",
        table,
    );
    let spread = normalized.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / normalized
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
    report.note(format!(
        "mean/stage-length max/min = {spread:.2}; flat ⇒ cost of a loose bound is exactly the stage-length factor"
    ));
    report.note(format!("ring N={N}, true Δ=2, ε={EPSILON}, reps={reps}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let r = run(Effort::Quick, 5);
        assert_eq!(r.table.len(), 4);
        for row in r.table.rows() {
            let mean: f64 = row[2].parse().expect("mean");
            assert!(mean > 0.0);
        }
    }

    #[test]
    fn slots_grow_with_estimate_but_sublinearly() {
        let r = run(Effort::Quick, 31);
        let first: f64 = r.table.rows()[0][2].parse().expect("mean");
        let last: f64 = r.table.rows()[3][2].parse().expect("mean");
        assert!(last > first, "looser estimate should cost something");
        // Δ_est grew 64x; slots must grow far less than that.
        assert!(
            last < first * 16.0,
            "grew {first} -> {last}: not logarithmic"
        );
    }
}
