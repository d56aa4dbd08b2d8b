//! E24 — bursty loss vs Bernoulli loss at equal average loss rate.
//!
//! A Gilbert–Elliott channel with stationary loss `L` drops the same
//! long-run fraction of beacons as a Bernoulli channel with delivery
//! `1 − L`, but concentrates the losses into bursts. Discovery cares about
//! the *tail* link — a link blacked out for a whole burst makes no
//! progress at all — so at equal average loss, burstier channels should
//! cost strictly more slots, and increasingly so as the mean burst length
//! grows.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::{FaultPlan, SyncRunConfig};
use mmhew_faults::{GilbertElliott, LinkLossModel};
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const N: usize = 10;
const UNIVERSE: u16 = 4;
const LOSS: f64 = 0.3;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e24");
    let reps = effort.pick(10, 40);
    let burst_lens: &[f64] = &[2.0, 8.0, 32.0];

    let net = NetworkBuilder::ring(N)
        .universe(UNIVERSE)
        .build(seed.branch("net"))
        .expect("ring networks are always valid");
    let delta = net.max_degree().max(1) as u64;
    let alg = SyncAlgorithm::Uniform(SyncParams::new(delta).expect("positive"));
    let config = SyncRunConfig::until_complete(2_000_000);

    let mut table = Table::new(
        [
            "loss model",
            "mean slots",
            "ci95",
            "vs bernoulli",
            "failures",
        ]
        .map(String::from)
        .to_vec(),
    );

    let bernoulli = measure_sync(reps, seed.branch("bernoulli"), || {
        Scenario::sync(&net, alg)
            .with_faults(
                FaultPlan::new().with_default_loss(LinkLossModel::Bernoulli {
                    delivery_probability: 1.0 - LOSS,
                }),
            )
            .config(config)
    });
    let base = bernoulli.summary();
    table.push_row(vec![
        format!("bernoulli L={LOSS}"),
        fmt_f64(base.mean),
        fmt_f64(base.ci95_halfwidth()),
        "1.00".to_string(),
        bernoulli.failures.to_string(),
    ]);

    for (i, &burst) in burst_lens.iter().enumerate() {
        let m = measure_sync(reps, seed.branch("ge").index(i as u64), || {
            Scenario::sync(&net, alg)
                .with_faults(
                    FaultPlan::new().with_default_loss(LinkLossModel::GilbertElliott(
                        GilbertElliott::bursty(LOSS, burst),
                    )),
                )
                .config(config)
        });
        let s = m.summary();
        table.push_row(vec![
            format!("gilbert-elliott L={LOSS} burst={burst}"),
            fmt_f64(s.mean),
            fmt_f64(s.ci95_halfwidth()),
            fmt_f64(s.mean / base.mean.max(1e-9)),
            m.failures.to_string(),
        ]);
    }

    // Sanity anchor: a fault-free run, for calibrating the 1/(1-L) cost of
    // the Bernoulli row itself.
    let clean = measure_sync(reps, seed.branch("clean"), || {
        Scenario::sync(&net, alg).config(config)
    });

    let mut report = ExperimentReport::new(
        "E24",
        "completion slots: bursty vs independent loss at equal average rate",
        "At equal average loss, burst-correlated losses delay discovery more than independent \
         losses — the repetition analysis's independence assumption is the optimistic case",
        table,
    );
    report.note(format!(
        "fault-free mean {} slots; bernoulli pays ≈1/(1-L)",
        fmt_f64(clean.summary().mean)
    ));
    report.note(format!(
        "ring N={N}, Algorithm 3, reps={reps}, loss L={LOSS}"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burstier_loss_costs_more_at_equal_rate() {
        let r = run(Effort::Quick, 24);
        assert_eq!(r.table.len(), 4);
        let bernoulli: f64 = r.table.rows()[0][1].parse().expect("mean");
        let longest_burst: f64 = r.table.rows()[3][1].parse().expect("mean");
        assert!(
            longest_burst > bernoulli,
            "burst=32 ({longest_burst:.0}) should exceed bernoulli ({bernoulli:.0}) at equal loss"
        );
        for row in r.table.rows() {
            assert_eq!(row[4], "0", "failures for {}", row[0]);
        }
    }
}
