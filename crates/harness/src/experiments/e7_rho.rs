//! E7 — the `1/ρ` heterogeneity penalty.
//!
//! The `PairwiseOverlap` availability model controls the span-ratio
//! exactly: every node gets `shared` common channels plus `private`
//! exclusive ones, so `ρ = shared/(shared+private)` while `|A(u)| = 4`
//! stays fixed. Every theorem predicts running time ∝ `1/ρ`; the
//! measured×ρ column should stay roughly flat.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Bounds, Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::SyncRunConfig;
use mmhew_spectrum::AvailabilityModel;
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const EPSILON: f64 = 0.01;
const NODES: usize = 6;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e7");
    let reps = effort.pick(10, 40);
    // (shared, private) with shared+private = 4 → ρ = shared/4.
    let points: &[(u16, u16)] = &[(4, 0), (3, 1), (2, 2), (1, 3)];

    let mut table = Table::new(
        [
            "ρ",
            "S",
            "Δ",
            "mean slots",
            "ci95",
            "mean × ρ",
            "Thm1 bound",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut normalized = Vec::new();
    for &(shared, private) in points {
        let universe = shared + NODES as u16 * private;
        let net = NetworkBuilder::complete(NODES)
            .universe(universe)
            .availability(AvailabilityModel::PairwiseOverlap { shared, private })
            .build(seed.branch("net").index(shared as u64))
            .expect("overlap model fits the universe");
        let delta = net.max_degree().max(1) as u64;
        let bounds = Bounds::from_network(&net, delta, EPSILON);
        let m = measure_sync(reps, seed.branch("run").index(shared as u64), || {
            Scenario::sync(
                &net,
                SyncAlgorithm::Staged(SyncParams::new(delta).expect("positive")),
            )
            .config(SyncRunConfig::until_complete(
                bounds.theorem1_slots().ceil() as u64 * 4,
            ))
        });
        let s = m.summary();
        normalized.push(s.mean * net.rho());
        table.push_row(vec![
            fmt_f64(net.rho()),
            net.s_max().to_string(),
            delta.to_string(),
            fmt_f64(s.mean),
            fmt_f64(s.ci95_halfwidth()),
            fmt_f64(s.mean * net.rho()),
            fmt_f64(bounds.theorem1_slots()),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E7",
        "completion slots vs heterogeneity (exact span-ratio sweep)",
        "All theorems: running time ∝ 1/ρ",
        table,
    );
    let spread = normalized.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / normalized
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
    report.note(format!(
        "mean×ρ max/min = {spread:.2}; flat confirms the inverse dependence \
         (the paper: 'the more heterogeneous the network is, the larger is the running time')"
    ));
    report.note(format!(
        "complete graph of {NODES}, |A(u)|=4 fixed, ε={EPSILON}, reps={reps}"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let r = run(Effort::Quick, 7);
        assert_eq!(r.table.len(), 4);
    }

    #[test]
    fn slots_increase_as_rho_decreases() {
        let r = run(Effort::Quick, 29);
        let rho1: f64 = r.table.rows()[0][3].parse().expect("mean");
        let rho_quarter: f64 = r.table.rows()[3][3].parse().expect("mean");
        assert!(
            rho_quarter > rho1 * 2.0,
            "ρ=1/4 should be much slower than ρ=1: {rho1} vs {rho_quarter}"
        );
    }
}
