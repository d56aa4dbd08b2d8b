//! E1 — Theorem 1's `log(N/ε)` dependence.
//!
//! Rings keep `Δ = 2` and `ρ = 1` constant while `N` grows, so Theorem 1
//! predicts completion slots grow only logarithmically in `N`. We sweep
//! `N` over powers of two and report the measured mean alongside the
//! theorem's bound; the measured/`ln(N²/ε)` column should stay roughly
//! flat.

use crate::experiment::{Effort, ExperimentReport};
use crate::experiments::common::measure_sync;
use crate::plot::AsciiPlot;
use crate::table::{fmt_f64, Table};
use mmhew_discovery::{Bounds, Scenario, SyncAlgorithm, SyncParams};
use mmhew_engine::SyncRunConfig;
use mmhew_topology::NetworkBuilder;
use mmhew_util::SeedTree;

const EPSILON: f64 = 0.01;
const UNIVERSE: u16 = 4;
const DELTA_EST: u64 = 4;

/// Runs the experiment.
pub fn run(effort: Effort, master_seed: u64) -> ExperimentReport {
    let seed = SeedTree::new(master_seed).branch("e1");
    let reps = effort.pick(10, 40);
    let sizes: &[usize] = effort.pick(&[8, 16, 32, 64], &[8, 16, 32, 64, 128, 256]);

    let mut table = Table::new(
        [
            "N",
            "mean slots",
            "ci95",
            "p95",
            "bound (Thm 1)",
            "mean/ln(N²/ε)",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut normalized = Vec::new();
    let mut measured_curve = Vec::new();
    let mut bound_curve = Vec::new();
    for &n in sizes {
        let net = NetworkBuilder::ring(n)
            .universe(UNIVERSE)
            .build(seed.branch("net").index(n as u64))
            .expect("ring networks are always valid");
        let bounds = Bounds::from_network(&net, DELTA_EST, EPSILON);
        let m = measure_sync(reps, seed.branch("run").index(n as u64), || {
            Scenario::sync(
                &net,
                SyncAlgorithm::Staged(SyncParams::new(DELTA_EST).expect("positive")),
            )
            .config(SyncRunConfig::until_complete(
                bounds.theorem1_slots().ceil() as u64 * 4,
            ))
        });
        let s = m.summary();
        let norm = s.mean / bounds.ln_n2_over_eps();
        normalized.push(norm);
        measured_curve.push((n as f64, s.mean));
        bound_curve.push((n as f64, bounds.theorem1_slots()));
        table.push_row(vec![
            n.to_string(),
            fmt_f64(s.mean),
            fmt_f64(s.ci95_halfwidth()),
            fmt_f64(s.p95),
            fmt_f64(bounds.theorem1_slots()),
            fmt_f64(norm),
        ]);
    }

    let mut report = ExperimentReport::new(
        "E1",
        "completion slots vs network size N (ring, Δ=2, ρ=1)",
        "Theorem 1: O((max(S,Δ)/ρ)·log Δ_est·log(N/ε))",
        table,
    );
    let spread = normalized.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / normalized
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
    report.note(format!(
        "normalized column max/min = {:.2}; ≲2 indicates the predicted logarithmic shape",
        spread
    ));
    report.note(format!(
        "ε={EPSILON}, Δ_est={DELTA_EST}, universe={UNIVERSE}, reps={reps}"
    ));
    let mut plot = AsciiPlot::new(56, 12).log_x().log_y();
    plot.add_series("measured mean", measured_curve);
    plot.add_series("Theorem 1 bound", bound_curve);
    report.figure("completion slots vs N (log-log)", plot.render());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_shapely_report() {
        let r = run(Effort::Quick, 12345);
        assert_eq!(r.id, "E1");
        assert_eq!(r.table.len(), 4);
        assert!(!r.notes.is_empty());
        // Mean slots must be positive and below the theorem bound.
        for row in r.table.rows() {
            let mean: f64 = row[1].parse().expect("numeric mean");
            let bound: f64 = row[4].parse().expect("numeric bound");
            assert!(mean > 0.0);
            assert!(mean < bound, "mean {mean} should sit below bound {bound}");
        }
    }

    #[test]
    fn growth_is_sublinear_in_n() {
        let r = run(Effort::Quick, 777);
        let first: f64 = r.table.rows()[0][1].parse().expect("mean");
        let last: f64 = r.table.rows()[3][1].parse().expect("mean");
        // N grows 8x; a logarithmic quantity grows far less than 4x.
        assert!(
            last < first * 4.0,
            "mean grew {first} -> {last}, too fast for log(N)"
        );
    }
}
