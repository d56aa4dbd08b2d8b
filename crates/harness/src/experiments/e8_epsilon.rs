//! E8 — success-probability calibration.
//!
//! Theorem 1 promises: run for the bound's slot count and fail with
//! probability at most `ε`. We run Algorithm 1 with a budget of *exactly*
//! the theorem's slot count for several `ε` and measure the empirical
//! failure rate, which must come in at or below `ε` (typically far below —
//! the constants are conservative). The mean completion time should grow
//! ∝ `ln(1/ε)`-ish through the `ln(N²/ε)` factor.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Bounds, Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::SyncRunConfig;
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const N: usize = 12;
const UNIVERSE: u16 = 4;
const DELTA_EST: u64 = 4;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e8");
    let reps = effort.pick(20, 200);
    let epsilons: &[f64] = &[0.5, 0.1, 0.01];

    let net = NetworkBuilder::ring(N)
        .universe(UNIVERSE)
        .build(seed.branch("net"))
        .expect("ring networks are always valid");

    let mut table = Table::new(
        [
            "ε",
            "budget = Thm1 bound",
            "empirical failure rate",
            "mean slots (completed)",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut ok = true;
    for (k, &eps) in epsilons.iter().enumerate() {
        let bounds = Bounds::from_network(&net, DELTA_EST, eps);
        let budget = bounds.theorem1_slots().ceil() as u64;
        let m = measure_sync(reps, seed.branch("run").index(k as u64), || {
            Scenario::sync(
                &net,
                SyncAlgorithm::Staged(SyncParams::new(DELTA_EST).expect("positive")),
            )
            .config(SyncRunConfig::until_complete(budget))
        });
        if m.failure_rate() > eps {
            ok = false;
        }
        table.push_row(vec![
            eps.to_string(),
            budget.to_string(),
            fmt_f64(m.failure_rate()),
            fmt_f64(m.summary().mean),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E8",
        "empirical failure probability at the theorem's slot budget",
        "Theorem 1: Pr[not done within the bound] ≤ ε",
        table,
    );
    report.note(if ok {
        "all empirical failure rates are at or below their ε — the bound holds \
         (with room to spare; the constant 16 is conservative)"
            .to_string()
    } else {
        "WARNING: an empirical failure rate exceeded ε".to_string()
    });
    report.note(format!(
        "ring N={N}, S={UNIVERSE}, Δ_est={DELTA_EST}, reps={reps}"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_rates_respect_epsilon() {
        let r = run(Effort::Quick, 8);
        assert_eq!(r.table.len(), 3);
        for row in r.table.rows() {
            let eps: f64 = row[0].parse().expect("eps");
            let rate: f64 = row[2].parse().expect("rate");
            assert!(
                rate <= eps,
                "failure rate {rate} exceeded ε={eps} at the theorem budget"
            );
        }
    }
}
