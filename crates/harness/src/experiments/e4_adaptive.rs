//! E4 — Theorem 2: the cost of not knowing the degree.
//!
//! The same networks are solved by Algorithm 1 with the *exact* degree as
//! its estimate and by Algorithm 2 with no knowledge at all. Theorem 2
//! predicts the adaptive algorithm pays an `O(M log M)`-vs-`O(M log Δ)`
//! overhead: it must climb its estimate from 2 up past `Δ`, and its late
//! stages are long. The overhead ratio should stay moderate on
//! small-degree networks and grow with `Δ`.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Bounds, Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::SyncRunConfig;
use mmhew_topology::{Network, NetworkBuilder};
use mmhew_util::SeedTree;

const EPSILON: f64 = 0.01;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e4");
    let reps = effort.pick(8, 30);

    let nets: Vec<(&str, Network)> = vec![
        (
            "ring16",
            NetworkBuilder::ring(16)
                .universe(4)
                .build(seed.branch("ring"))
                .expect("valid"),
        ),
        (
            "grid4x4",
            NetworkBuilder::grid(4, 4)
                .universe(4)
                .build(seed.branch("grid"))
                .expect("valid"),
        ),
        (
            "complete8",
            NetworkBuilder::complete(8)
                .universe(4)
                .build(seed.branch("complete"))
                .expect("valid"),
        ),
        (
            "star12",
            NetworkBuilder::star(12)
                .universe(4)
                .build(seed.branch("star"))
                .expect("valid"),
        ),
    ];

    let mut table = Table::new(
        [
            "network",
            "Δ",
            "Alg1 slots (exact Δ)",
            "Alg2 slots (no knowledge)",
            "overhead",
            "Thm2 bound",
        ]
        .map(String::from)
        .to_vec(),
    );

    for (name, net) in &nets {
        let delta = net.max_degree().max(1) as u64;
        let bounds = Bounds::from_network(net, delta, EPSILON);
        let budget = (bounds.theorem2_slots().ceil() as u64 * 4).max(10_000);
        let informed = measure_sync(reps, seed.branch("alg1").branch(name), || {
            Scenario::sync(
                net,
                SyncAlgorithm::Staged(SyncParams::new(delta).expect("positive")),
            )
            .config(SyncRunConfig::until_complete(budget))
        });
        let adaptive = measure_sync(reps, seed.branch("alg2").branch(name), || {
            Scenario::sync(net, SyncAlgorithm::Adaptive)
                .config(SyncRunConfig::until_complete(budget))
        });
        let a1 = informed.summary().mean;
        let a2 = adaptive.summary().mean;
        table.push_row(vec![
            (*name).into(),
            delta.to_string(),
            fmt_f64(a1),
            fmt_f64(a2),
            fmt_f64(a2 / a1.max(1e-9)),
            fmt_f64(bounds.theorem2_slots()),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E4",
        "Algorithm 2 (no degree knowledge) vs Algorithm 1 (exact degree)",
        "Theorem 2: O(M log M) without knowledge vs O(M log Δ_est) with",
        table,
    );
    report.note("the overhead column is the multiplicative price of estimating the degree online");
    report.note(format!("ε={EPSILON}, reps={reps}, identical start times"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let r = run(Effort::Quick, 2);
        assert_eq!(r.table.len(), 4);
        for row in r.table.rows() {
            let a1: f64 = row[2].parse().expect("alg1");
            let a2: f64 = row[3].parse().expect("alg2");
            assert!(a1 > 0.0 && a2 > 0.0);
        }
    }
}
