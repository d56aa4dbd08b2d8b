//! Campaign harness: executes a sweep spec and writes the aggregated
//! artifact, resumably, in one process.
//!
//! ```text
//! campaign --spec sweep.json [--out DIR] [--resume] [--jobs N]
//! campaign --smoke                        # built-in 4-point CI spec
//! campaign --spec sweep.json --point 3    # one point, line to stdout
//! campaign explore --manifest out/name.manifest.jsonl --out report.html
//! ```
//!
//! Flags: `--spec <file.json>` (the sweep, see `mmhew_campaign::spec`),
//! `--out <dir>` (default `campaign-out`), `--resume` (skip points
//! already in the manifest), `--smoke` (ignore `--spec`, run the
//! built-in smoke grid), `--point <id>` (run one point in isolation and
//! print its record instead of running the campaign), `--max-points <n>`
//! (stop after n new points — for testing interruption), and the
//! standard `--jobs <n>`.
//!
//! The `explore` subcommand renders a manifest into a single
//! self-contained HTML page (inline SVG quantile charts per swept axis,
//! point table with replay commands): `--manifest <file.jsonl>`
//! (required), `--out <file.html>` (default next to the manifest), and
//! `--spec <file.json>` or `--smoke` to label the replay commands.

use mmhew_campaign::{
    render_explorer, run_campaign, run_point, CampaignOptions, ExplorerOptions, SweepSpec,
};
use mmhew_harness::cli::Args;
use mmhew_harness::set_jobs;
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: campaign (--spec FILE.json | --smoke) [--out DIR] [--resume] \
         [--point ID] [--max-points N] [--jobs N]\n\
         \x20      campaign explore --manifest FILE.jsonl [--out FILE.html] \
         (--spec FILE.json | --smoke)"
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

/// `campaign explore`: manifest JSONL → static HTML report.
fn explore(rest: Vec<String>) {
    let args = match Args::parse_from(rest).and_then(|a| {
        a.expect_only(&["manifest", "out", "spec"], &["smoke"])?;
        Ok(a)
    }) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign explore: {e}");
            usage();
        }
    };
    let Some(source) = args.raw("manifest") else {
        eprintln!("campaign explore: --manifest FILE.jsonl is required");
        usage();
    };
    let manifest = match std::fs::read_to_string(source) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("campaign explore: cannot read {source}: {e}");
            std::process::exit(1);
        }
    };
    // "out/name.manifest.jsonl" → title "name".
    let stem = Path::new(source)
        .file_name()
        .and_then(|s| s.to_str())
        .map(|s| s.trim_end_matches(".jsonl").trim_end_matches(".manifest"))
        .unwrap_or("campaign");
    let out = args.raw("out").map(String::from).unwrap_or_else(|| {
        Path::new(source)
            .with_file_name(format!("{stem}.explorer.html"))
            .display()
            .to_string()
    });
    let replay = if args.flag("smoke") {
        "campaign --smoke".to_string()
    } else if let Some(spec) = args.raw("spec") {
        format!("campaign --spec {spec}")
    } else {
        "campaign --spec <spec.json>".to_string()
    };
    match render_explorer(&manifest, &ExplorerOptions::new(stem, replay)) {
        Ok(html) => {
            if let Err(e) = std::fs::write(&out, &html) {
                eprintln!("campaign explore: cannot write {out}: {e}");
                std::process::exit(1);
            }
            println!("wrote {out} ({} bytes)", html.len());
        }
        Err(e) => {
            eprintln!("campaign explore: {source}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("explore") {
        explore(argv.split_off(2));
        return;
    }
    let args = match Args::parse().and_then(|a| {
        a.expect_only(
            &["spec", "out", "point", "max-points"],
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

    if let Some(id) = args.raw("point") {
        let Ok(id) = id.parse::<u64>() else {
            eprintln!("campaign: --point {id}: not a point id");
            usage();
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
