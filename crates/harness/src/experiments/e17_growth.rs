//! E17 — estimate-growth ablation for Algorithm 2.
//!
//! The paper adopts the Nakano–Olariu sequential (+1) estimate schedule
//! and rejects geometric doubling on the grounds that the dwell time per
//! estimate cannot be computed without knowing `N`, `S` and `ρ`. This
//! ablation runs the rejected scheme with several fixed dwells across
//! networks of very different degree, showing the trade-off: doubling
//! races through low estimates (good on high-degree networks) but its
//! late stages overshoot (transmission probabilities collapse as `2^-i`),
//! and no fixed dwell is right for every network — which is the paper's
//! point.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Scenario, SyncAlgorithm};
use mmhew_engine::SyncRunConfig;
use mmhew_topology::{Network, NetworkBuilder};
use mmhew_util::SeedTree;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e17");
    let reps = effort.pick(8, 30);

    let nets: Vec<(&str, Network)> = vec![
        (
            "ring16 (Δ=2)",
            NetworkBuilder::ring(16)
                .universe(4)
                .build(seed.branch("ring"))
                .expect("valid"),
        ),
        (
            "complete12 (Δ=11)",
            NetworkBuilder::complete(12)
                .universe(4)
                .build(seed.branch("complete"))
                .expect("valid"),
        ),
        (
            "star24 (Δ=23)",
            NetworkBuilder::star(24)
                .universe(4)
                .build(seed.branch("star"))
                .expect("valid"),
        ),
    ];
    let strategies: Vec<(&str, SyncAlgorithm)> = vec![
        ("+1 (paper)", SyncAlgorithm::Adaptive),
        (
            "double, dwell 1",
            SyncAlgorithm::AdaptiveDoubling { dwell: 1 },
        ),
        (
            "double, dwell 4",
            SyncAlgorithm::AdaptiveDoubling { dwell: 4 },
        ),
        (
            "double, dwell 16",
            SyncAlgorithm::AdaptiveDoubling { dwell: 16 },
        ),
    ];

    let mut table = Table::new(
        ["network", "strategy", "mean slots", "ci95", "vs paper"]
            .map(String::from)
            .to_vec(),
    );
    for (ni, (net_name, net)) in nets.iter().enumerate() {
        let mut paper_mean = None;
        for (si, (strat_name, alg)) in strategies.iter().enumerate() {
            let m = measure_sync(
                reps,
                seed.branch("run").index(ni as u64).index(si as u64),
                || Scenario::sync(net, *alg).config(SyncRunConfig::until_complete(3_000_000)),
            );
            let mean = m.summary().mean;
            let baseline = *paper_mean.get_or_insert(mean);
            table.push_row(vec![
                (*net_name).into(),
                (*strat_name).into(),
                fmt_f64(mean),
                fmt_f64(m.summary().ci95_halfwidth()),
                format!("{:.2}x", mean / baseline.max(1e-9)),
            ]);
        }
    }

    let mut report = ExperimentReport::new(
        "E17",
        "Algorithm 2 estimate growth: sequential +1 vs rejected geometric doubling",
        "§III-A2: why the paper adopts the Nakano–Olariu sequential schedule",
        table,
    );
    report.note(
        "doubling with a small dwell overshoots past Δ and wastes long low-probability \
         stages; larger dwells fix high-degree networks but slow low-degree ones — \
         no knowledge-free dwell wins everywhere",
    );
    report.note(format!("identical start times, reps={reps}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_report_shape() {
        let r = run(Effort::Quick, 17);
        assert_eq!(r.table.len(), 12);
        for row in r.table.rows() {
            let mean: f64 = row[2].parse().expect("mean");
            assert!(mean > 0.0);
        }
    }
}
