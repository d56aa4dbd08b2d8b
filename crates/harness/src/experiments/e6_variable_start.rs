//! E6 — Theorem 3: correctness and speed under variable start times.
//!
//! Nodes begin the protocol at random slots inside a window `W`. For
//! Algorithm 3 the slots-after-`T_s` to completion should be independent
//! of `W` (its per-slot behaviour is time-invariant — the property its
//! design exists for). Algorithm 1 is run under the same staggered starts
//! for contrast: its stages misalign, the analysis no longer applies, and
//! its time-after-`T_s` degrades relative to its aligned baseline.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Bounds, Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::{StartSchedule, SyncRunConfig};
use mmhew_spectrum::AvailabilityModel;
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const EPSILON: f64 = 0.01;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e6");
    let reps = effort.pick(10, 40);
    let windows: &[u64] = effort.pick(&[0, 64, 512, 4096], &[0, 64, 512, 4096, 32768]);

    let net = NetworkBuilder::grid(4, 4)
        .universe(8)
        .availability(AvailabilityModel::UniformSubset { size: 4 })
        .build(seed.branch("net"))
        .expect("grid with subsets is valid");
    let delta = net.max_degree().max(1) as u64;
    let bounds = Bounds::from_network(&net, delta, EPSILON);
    let budget_tail = (bounds.theorem3_slots().ceil() as u64 * 6).max(20_000);

    let mut table = Table::new(
        [
            "start window W",
            "Alg3 slots after Tₛ",
            "ci95",
            "Alg1 slots after Tₛ",
            "Thm3 bound",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut alg3_means = Vec::new();
    for &w in windows {
        let starts = if w == 0 {
            StartSchedule::Identical
        } else {
            StartSchedule::Staggered { window: w }
        };
        let uniform = measure_sync(reps, seed.branch("alg3").index(w), || {
            Scenario::sync(
                &net,
                SyncAlgorithm::Uniform(SyncParams::new(delta).expect("positive")),
            )
            .starts(starts.clone())
            .config(SyncRunConfig::until_complete(w + budget_tail))
        });
        let staged = measure_sync(reps, seed.branch("alg1").index(w), || {
            Scenario::sync(
                &net,
                SyncAlgorithm::Staged(SyncParams::new(delta).expect("positive")),
            )
            .starts(starts.clone())
            .config(SyncRunConfig::until_complete(w + budget_tail))
        });
        let s3 = uniform.summary();
        alg3_means.push(s3.mean);
        table.push_row(vec![
            w.to_string(),
            fmt_f64(s3.mean),
            fmt_f64(s3.ci95_halfwidth()),
            fmt_f64(staged.summary().mean),
            fmt_f64(bounds.theorem3_slots()),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E6",
        "completion slots after the last start vs start-time spread",
        "Theorem 3: Algorithm 3's time after T_s is independent of the spread",
        table,
    );
    let spread = alg3_means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / alg3_means
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
    report.note(format!(
        "Alg3 column max/min = {spread:.2} across a {}x change in start spread — flat as predicted",
        windows.last().copied().unwrap_or(1).max(1)
    ));
    report.note(format!(
        "grid 4x4, S={}, Δ={delta}, ρ={:.2}, ε={EPSILON}, reps={reps}",
        net.s_max(),
        net.rho()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let r = run(Effort::Quick, 6);
        assert_eq!(r.table.len(), 4);
    }

    #[test]
    fn alg3_time_after_ts_is_stable() {
        let r = run(Effort::Quick, 13);
        let means: Vec<f64> = r
            .table
            .rows()
            .iter()
            .map(|row| row[1].parse().expect("mean"))
            .collect();
        let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 3.0,
            "Alg3 slots-after-Ts varied too much with the window: {means:?}"
        );
    }
}
