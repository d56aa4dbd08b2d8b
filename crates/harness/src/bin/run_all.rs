//! Runs the experiment suite in order, printing every report.
//! Flags: `--only <id>[,<id>…]` (run just these experiments, by registry
//! id, case-insensitive: `--only E7`, `--only e21,f-cdf`), --full (bigger
//! sweeps), `--seed <n>`, --markdown (emit markdown sections instead of
//! text, for pasting into EXPERIMENTS.md), `--csv-dir <dir>`
//! (additionally write every table as `<dir>/<id>.csv`), `--jobs <n>`
//! (worker threads for repetitions; results are
//! thread-count-independent).
use mmhew_harness::cli::Args;
use mmhew_harness::registry;
use mmhew_harness::{reps_completed, set_jobs};

fn main() {
    let (args, jobs, seed) = match Args::parse().and_then(|a| {
        a.expect_only(
            &["seed", "csv-dir", "only", "jobs"],
            &["markdown", "quick", "full"],
        )?;
        let jobs = a.jobs()?;
        let seed = a.get_or("seed", 20_260_706u64)?;
        Ok((a, jobs, seed))
    }) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("run_all: {e}");
            eprintln!(
                "usage: [--quick|--full] [--jobs N] [--seed N] [--only ID[,ID…]] [--markdown] \
                 [--csv-dir DIR]"
            );
            std::process::exit(2);
        }
    };
    let experiments = match args.raw("only") {
        None => registry::all(),
        Some(only) => {
            let selected: Result<Vec<_>, _> = only
                .split(',')
                .map(|id| registry::by_id(id).map(|f| (id, f)).ok_or(id))
                .collect();
            selected.unwrap_or_else(|id| {
                let known: Vec<&str> = registry::all().iter().map(|(id, _)| *id).collect();
                eprintln!(
                    "run_all: --only: unknown experiment id {id:?} (known: {})",
                    known.join(", ")
                );
                std::process::exit(2);
            })
        }
    };
    let effort = args.effort();
    if let Some(jobs) = jobs {
        set_jobs(jobs);
    }
    let markdown = args.flag("markdown");
    let csv_dir = args.raw("csv-dir").map(std::path::PathBuf::from);
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("run_all: --csv-dir: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let start = std::time::Instant::now();
    let total = experiments.len();
    for (k, (id, f)) in experiments.into_iter().enumerate() {
        let t0 = std::time::Instant::now();
        let reps0 = reps_completed();
        let report = f(effort, seed);
        if markdown {
            print!("{}", report.render_markdown());
        } else {
            report.print();
        }
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{}.csv", id.to_lowercase().replace('-', "_")));
            if let Err(e) = report.write_csv(&path) {
                eprintln!("run_all: --csv-dir: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let reps = reps_completed() - reps0;
        eprintln!(
            "[{}/{total} {id} done in {wall:.1}s: {reps} reps, {:.1} reps/s]",
            k + 1,
            if wall > 0.0 { reps as f64 / wall } else { 0.0 }
        );
        println!();
    }
    eprintln!(
        "suite finished in {:.1}s ({} reps total)",
        start.elapsed().as_secs_f64(),
        reps_completed()
    );
}
