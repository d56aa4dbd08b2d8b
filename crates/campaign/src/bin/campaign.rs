//! Campaign harness: executes a sweep spec and writes the aggregated
//! artifact, resumably, in one process.
//!
//! ```text
//! campaign --spec sweep.json [--out DIR] [--resume] [--jobs N]
//! campaign --smoke                        # built-in 4-point CI spec
//! campaign --spec sweep.json --point 3    # one point, line to stdout
//! ```
//!
//! Flags: `--spec <file.json>` (the sweep, see `mmhew_campaign::spec`),
//! `--out <dir>` (default `campaign-out`), `--resume` (skip points
//! already in the manifest), `--smoke` (ignore `--spec`, run the
//! built-in smoke grid), `--point <id>` (run one point in isolation and
//! print the line the manifest holds for it instead of running the
//! campaign), `--max-points <n>` (stop after n new points — for testing
//! interruption), and `--jobs <n>` (1 to 256 worker threads; never
//! changes results).
//!
//! A flag it does not read, or a value it cannot take (a `--point`
//! outside the grid included), exits with status 2; a spec, manifest or
//! run failure exits with status 1.

use mmhew_campaign::{run_campaign, run_point, CampaignOptions, SweepSpec};
use mmhew_harness::cli::Args;
use mmhew_harness::set_jobs;

fn usage() -> ! {
    eprintln!(
        "usage: campaign (--spec FILE.json | --smoke) [--out DIR] [--resume] \
         [--point ID] [--max-points N] [--jobs N]"
    );
    std::process::exit(2);
}

/// Loads the spec named by `--spec` / `--smoke`.
fn spec_from_args(args: &Args) -> SweepSpec {
    if args.flag("smoke") {
        return SweepSpec::smoke();
    }
    let Some(path) = args.raw("spec") else {
        eprintln!("campaign: --spec FILE.json (or --smoke) is required");
        usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("campaign: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match SweepSpec::from_json(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("campaign: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = match Args::parse().and_then(|a| {
        a.expect_only(
            &["spec", "out", "point", "max-points", "jobs"],
            &["resume", "smoke"],
        )?;
        Ok(a)
    }) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign: {e}");
            usage();
        }
    };
    match args.jobs() {
        Ok(Some(jobs)) => set_jobs(jobs),
        Ok(None) => {}
        Err(e) => {
            eprintln!("campaign: {e}");
            usage();
        }
    }

    let spec = spec_from_args(&args);

    if let Some(raw) = args.raw("point") {
        let points = spec.expand().len() as u64;
        let id = match raw.parse::<u64>() {
            Ok(id) if id < points => id,
            _ => {
                eprintln!(
                    "campaign: --point {raw}: not a point id of this grid (0 to {})",
                    points - 1
                );
                usage();
            }
        };
        match run_point(&spec, id) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("campaign: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut opts = CampaignOptions::new(args.raw("out").unwrap_or("campaign-out"));
    opts.resume = args.flag("resume");
    opts.max_points = match args.get_or("max-points", 0usize) {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(e) => {
            eprintln!("campaign: {e}");
            usage();
        }
    };

    match run_campaign(&spec, &opts) {
        Ok(outcome) => {
            println!(
                "campaign {:?}: {} points ({} run, {} resumed)",
                spec.name, outcome.total, outcome.completed, outcome.skipped
            );
            match &outcome.artifact {
                Some(path) => println!("artifact: {}", path.display()),
                None => println!(
                    "interrupted after {} of {} points; re-run with --resume to finish",
                    outcome.completed + outcome.skipped,
                    outcome.total
                ),
            }
        }
        Err(e) => {
            eprintln!("campaign: {e}");
            std::process::exit(1);
        }
    }
}
