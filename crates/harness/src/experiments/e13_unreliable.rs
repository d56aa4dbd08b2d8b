//! E13 — extension (b): unreliable channels.
//!
//! Each would-be-clear reception is delivered independently with
//! probability `q`. Coverage of a link per slot scales by `q`, so expected
//! completion time should scale ≈ `1/q`; the measured×q column should stay
//! roughly flat.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::SyncRunConfig;
use mmhew_radio::Impairments;
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const N: usize = 10;
const UNIVERSE: u16 = 4;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e13");
    let reps = effort.pick(10, 40);
    let qs: &[f64] = &[1.0, 0.5, 0.25, 0.1];

    let net = NetworkBuilder::ring(N)
        .universe(UNIVERSE)
        .build(seed.branch("net"))
        .expect("ring networks are always valid");
    let delta = net.max_degree().max(1) as u64;

    let mut table = Table::new(
        [
            "delivery prob q",
            "mean slots",
            "ci95",
            "mean × q",
            "failures",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut normalized = Vec::new();
    for (i, &q) in qs.iter().enumerate() {
        let m = measure_sync(reps, seed.branch("run").index(i as u64), || {
            Scenario::sync(
                &net,
                SyncAlgorithm::Uniform(SyncParams::new(delta).expect("positive")),
            )
            .config(
                SyncRunConfig::until_complete(2_000_000)
                    .with_impairments(Impairments::with_delivery_probability(q)),
            )
        });
        let s = m.summary();
        normalized.push(s.mean * q);
        table.push_row(vec![
            q.to_string(),
            fmt_f64(s.mean),
            fmt_f64(s.ci95_halfwidth()),
            fmt_f64(s.mean * q),
            m.failures.to_string(),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E13",
        "completion slots vs channel delivery probability",
        "Conclusion (b): the algorithms tolerate unreliable channels, paying a 1/q factor",
        table,
    );
    let spread = normalized.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / normalized
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
    report.note(format!(
        "mean×q max/min = {spread:.2}; flat confirms the expected 1/q slowdown"
    ));
    report.note(format!("ring N={N}, Algorithm 3, reps={reps}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_discovery::Scenario;

    #[test]
    fn unreliable_runs_are_seed_stable() {
        // Regression for the Impairments -> mmhew_faults delegation: the
        // per-reception draw sequence, and hence every seeded outcome,
        // must remain a pure function of the seed.
        let net = NetworkBuilder::ring(4)
            .universe(2)
            .build(SeedTree::new(0))
            .expect("ring networks are always valid");
        let run_once = || {
            Scenario::sync(
                &net,
                SyncAlgorithm::Uniform(SyncParams::new(2).expect("positive")),
            )
            .config(
                SyncRunConfig::until_complete(500_000)
                    .with_impairments(Impairments::with_delivery_probability(0.5)),
            )
            .run(SeedTree::new(77))
            .expect("run")
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.completion_slot(), b.completion_slot());
        assert_eq!(a.link_coverage(), b.link_coverage());
        assert_eq!(a.deliveries(), b.deliveries());
        let sorted = |o: &mmhew_engine::SyncOutcome| {
            o.tables()
                .iter()
                .map(|t| t.to_sorted_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(sorted(&a), sorted(&b));
    }

    #[test]
    fn lossier_channels_cost_proportionally_more() {
        let r = run(Effort::Quick, 13);
        assert_eq!(r.table.len(), 4);
        let reliable: f64 = r.table.rows()[0][1].parse().expect("mean");
        let lossy: f64 = r.table.rows()[3][1].parse().expect("mean");
        // q went 1.0 -> 0.1: expect roughly 10x growth; accept 4x..30x.
        let ratio = lossy / reliable;
        assert!(
            (4.0..30.0).contains(&ratio),
            "q=0.1 should cost ≈10x, got {ratio:.1}x"
        );
        // All runs completed.
        for row in r.table.rows() {
            assert_eq!(row[4], "0", "failures at q={}", row[0]);
        }
    }
}
