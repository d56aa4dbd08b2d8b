//! E25 — completion time vs fraction of channels jammed.
//!
//! A jammer that permanently blankets `k` of the `U` universal channels
//! turns every reception attempt there into noise. Because a link is
//! covered as soon as it meets on *any* commonly-available channel,
//! discovery still completes while `k < U` — the meeting probability per
//! slot just shrinks with the number of clear channels, so completion
//! time should grow as the jammed fraction rises, without failures.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::{FaultPlan, SyncRunConfig};
use mmhew_faults::JamSchedule;
use mmhew_spectrum::ChannelSet;
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const N: usize = 8;
const UNIVERSE: u16 = 6;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e25");
    let reps = effort.pick(10, 40);
    let jammed_counts: &[u16] = &[0, 1, 2, 3, 4];

    let net = NetworkBuilder::complete(N)
        .universe(UNIVERSE)
        .build(seed.branch("net"))
        .expect("complete networks are always valid");
    let delta = net.max_degree().max(1) as u64;
    let alg = SyncAlgorithm::Uniform(SyncParams::new(delta).expect("positive"));
    let config = SyncRunConfig::until_complete(2_000_000);

    let mut table = Table::new(
        [
            "jammed channels",
            "jammed fraction",
            "mean slots",
            "ci95",
            "failures",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut means = Vec::new();
    for (i, &k) in jammed_counts.iter().enumerate() {
        let jammed: ChannelSet = (0..k).collect();
        let plan = if k == 0 {
            FaultPlan::new()
        } else {
            FaultPlan::new().with_jamming(JamSchedule::fixed(jammed))
        };
        let m = measure_sync(reps, seed.branch("run").index(i as u64), || {
            Scenario::sync(&net, alg)
                .with_faults(plan.clone())
                .config(config)
        });
        let s = m.summary();
        means.push(s.mean);
        table.push_row(vec![
            k.to_string(),
            fmt_f64(f64::from(k) / f64::from(UNIVERSE)),
            fmt_f64(s.mean),
            fmt_f64(s.ci95_halfwidth()),
            m.failures.to_string(),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E25",
        "completion slots vs fraction of universal channels jammed",
        "Multichannel hopping degrades gracefully under jamming: completion slows as channels \
         are blanketed but succeeds while any common channel stays clear",
        table,
    );
    report.note(format!(
        "slowdown at {}/{UNIVERSE} jammed = {:.2}x over clear spectrum",
        jammed_counts[jammed_counts.len() - 1],
        means[means.len() - 1] / means[0].max(1e-9)
    ));
    report.note(format!(
        "complete N={N}, U={UNIVERSE}, Algorithm 3, reps={reps}"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jamming_slows_but_does_not_stop_discovery() {
        let r = run(Effort::Quick, 25);
        assert_eq!(r.table.len(), 5);
        let clear: f64 = r.table.rows()[0][2].parse().expect("mean");
        let heavy: f64 = r.table.rows()[4][2].parse().expect("mean");
        assert!(
            heavy > clear,
            "4/6 jammed ({heavy:.0}) should exceed clear spectrum ({clear:.0})"
        );
        // Graceful degradation: every rep still completes.
        for row in r.table.rows() {
            assert_eq!(row[4], "0", "failures at k={}", row[0]);
        }
    }
}
