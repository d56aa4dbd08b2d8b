//! E3 — Theorem 1's `max(S, Δ)/ρ` factor.
//!
//! Two sweeps on Algorithm 1:
//!
//! * growing `S` at fixed `Δ` (rings with ever larger homogeneous channel
//!   sets) — slots should grow ≈ linearly in `S`;
//! * growing `Δ` at fixed `S` (complete graphs of growing size) — slots
//!   should grow ≈ linearly in `Δ` once `Δ > S` (with a mild extra
//!   `log N` term since `N` grows alongside).

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Bounds, Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::SyncRunConfig;
use mmhew_topology::{Network, NetworkBuilder};
use mmhew_util::SeedTree;

const EPSILON: f64 = 0.01;

fn measure(net: &Network, delta_est: u64, reps: u64, seed: SeedTree) -> (f64, f64, f64) {
    let bounds = Bounds::from_network(net, delta_est, EPSILON);
    let m = measure_sync(reps, seed, || {
        Scenario::sync(
            net,
            SyncAlgorithm::Staged(SyncParams::new(delta_est).expect("positive")),
        )
        .config(SyncRunConfig::until_complete(
            bounds.theorem1_slots().ceil() as u64 * 4,
        ))
    });
    let s = m.summary();
    (s.mean, s.ci95_halfwidth(), bounds.theorem1_slots())
}

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e3");
    let reps = effort.pick(10, 40);
    let s_values: &[u16] = effort.pick(&[2, 4, 8, 16], &[2, 4, 8, 16, 32, 64]);
    let delta_values: &[usize] = effort.pick(&[3, 5, 9, 17], &[3, 5, 9, 17, 33]);

    let mut table = Table::new(
        [
            "sweep",
            "S",
            "Δ",
            "mean slots",
            "ci95",
            "bound",
            "mean/max(S,Δ)",
        ]
        .map(String::from)
        .to_vec(),
    );

    // Sweep 1: S grows, Δ = 2 fixed (ring of 16).
    for &s in s_values {
        let net = NetworkBuilder::ring(16)
            .universe(s)
            .build(seed.branch("s-net").index(s as u64))
            .expect("ring networks are always valid");
        let (mean, ci, bound) = measure(&net, 4, reps, seed.branch("s-run").index(s as u64));
        table.push_row(vec![
            "S↑".into(),
            s.to_string(),
            net.max_degree().to_string(),
            fmt_f64(mean),
            fmt_f64(ci),
            fmt_f64(bound),
            fmt_f64(mean / s.max(2) as f64),
        ]);
    }

    // Sweep 2: Δ grows, S = 4 fixed (complete graphs).
    for &n in delta_values {
        let net = NetworkBuilder::complete(n)
            .universe(4)
            .build(seed.branch("d-net").index(n as u64))
            .expect("complete networks are always valid");
        let delta = net.max_degree(); // n - 1
        let (mean, ci, bound) = measure(
            &net,
            delta as u64,
            reps,
            seed.branch("d-run").index(n as u64),
        );
        table.push_row(vec![
            "Δ↑".into(),
            "4".into(),
            delta.to_string(),
            fmt_f64(mean),
            fmt_f64(ci),
            fmt_f64(bound),
            fmt_f64(mean / delta.max(4) as f64),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E3",
        "completion slots vs channel-set size S and per-channel degree Δ",
        "Theorem 1: slots ∝ max(S, Δ)",
        table,
    );
    report.note(
        "the mean/max(S,Δ) column should be roughly flat within each sweep \
         (a mild upward drift in the Δ-sweep reflects the growing log N term)",
    );
    report.note(format!("ε={EPSILON}, reps={reps}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let r = run(Effort::Quick, 3);
        assert_eq!(r.table.len(), 8);
    }

    #[test]
    fn s_sweep_grows_roughly_linearly() {
        let r = run(Effort::Quick, 17);
        let rows: Vec<&Vec<String>> = r.table.rows().iter().filter(|row| row[0] == "S↑").collect();
        let first: f64 = rows[0][3].parse().expect("mean");
        let last: f64 = rows[3][3].parse().expect("mean");
        // S grew 8x: expect meaningful growth (at least 3x) but not wildly
        // superlinear (at most 20x).
        assert!(last > first * 3.0, "S-sweep too flat: {first} -> {last}");
        assert!(
            last < first * 20.0,
            "S-sweep superlinear: {first} -> {last}"
        );
    }
}
