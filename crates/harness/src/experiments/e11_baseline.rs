//! E11 — the §I strawman comparison.
//!
//! The paper's introduction argues against extending single-channel
//! discovery by running one instance per *universal* channel: its running
//! time is linear in `|U|` even when every node's available set is tiny.
//! Here every node has the same 4 channels (`{0..4}`) while the universe
//! grows; the paper's algorithms don't care about `|U|` at all, while the
//! baseline slows down linearly.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::SyncRunConfig;
use mmhew_spectrum::{AvailabilityModel, ChannelSet};
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const NODES: usize = 6;
const SET_SIZE: u16 = 4;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e11");
    let reps = effort.pick(10, 40);
    let universes: &[u16] = effort.pick(&[8, 16, 32, 64], &[8, 16, 32, 64, 128]);

    let mut table = Table::new(
        [
            "|U|",
            "Alg3 slots",
            "baseline slots",
            "baseline/Alg3",
            "baseline/|U|",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut ratios = Vec::new();
    for &u in universes {
        let shared: ChannelSet = (0..SET_SIZE).collect();
        let net = NetworkBuilder::complete(NODES)
            .universe(u)
            .availability(AvailabilityModel::Explicit(vec![shared; NODES]))
            .build(seed.branch("net").index(u as u64))
            .expect("explicit sets fit the universe");
        let delta = net.max_degree().max(1) as u64;
        let ours = measure_sync(reps, seed.branch("ours").index(u as u64), || {
            Scenario::sync(
                &net,
                SyncAlgorithm::Uniform(SyncParams::new(delta).expect("positive")),
            )
            .config(SyncRunConfig::until_complete(500_000))
        });
        let baseline = measure_sync(reps, seed.branch("baseline").index(u as u64), || {
            Scenario::sync(
                &net,
                SyncAlgorithm::PerChannelBirthday {
                    tx_probability: 0.5,
                },
            )
            .config(SyncRunConfig::until_complete(500_000))
        });
        let ours_mean = ours.summary().mean;
        let base_mean = baseline.summary().mean;
        ratios.push(base_mean / ours_mean.max(1e-9));
        table.push_row(vec![
            u.to_string(),
            fmt_f64(ours_mean),
            fmt_f64(base_mean),
            fmt_f64(base_mean / ours_mean.max(1e-9)),
            fmt_f64(base_mean / u as f64),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E11",
        "paper's algorithm vs per-universal-channel birthday strawman as |U| grows",
        "§I: the strawman's time is linear in |U|; ours depends only on the available sets",
        table,
    );
    report.note(format!(
        "baseline/Alg3 advantage grows from {:.1}x to {:.1}x as the universe widens — \
         who wins and the linear-in-|U| shape match the paper's argument",
        ratios.first().copied().unwrap_or(0.0),
        ratios.last().copied().unwrap_or(0.0),
    ));
    report.note(format!(
        "complete graph of {NODES}, every node owns the same {SET_SIZE} channels, reps={reps}"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_is_flat_while_baseline_grows() {
        let r = run(Effort::Quick, 11);
        assert_eq!(r.table.len(), 4);
        let ours_first: f64 = r.table.rows()[0][1].parse().expect("ours");
        let ours_last: f64 = r.table.rows()[3][1].parse().expect("ours");
        let base_first: f64 = r.table.rows()[0][2].parse().expect("base");
        let base_last: f64 = r.table.rows()[3][2].parse().expect("base");
        // |U| grew 8x: ours stays put, baseline grows several-fold.
        assert!(
            ours_last < ours_first * 2.0,
            "our algorithm should not depend on |U|: {ours_first} -> {ours_last}"
        );
        assert!(
            base_last > base_first * 3.0,
            "baseline should scale with |U|: {base_first} -> {base_last}"
        );
    }
}
