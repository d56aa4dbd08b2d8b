//! General-purpose simulation driver: build a network from flags, run a
//! discovery algorithm, print parameters, theorem bounds and results.
//!
//! ```text
//! cargo run --release -p mmhew-harness --bin simulate -- \
//!     --topology grid --width 4 --height 4 \
//!     --universe 12 --availability subset --set-size 6 \
//!     --algorithm alg1 --reps 5 --seed 7
//!
//! cargo run --release -p mmhew-harness --bin simulate -- \
//!     --topology disk --nodes 30 --side 12 --radius 4 \
//!     --algorithm alg4 --drift-den 7 --reps 3
//! ```
//!
//! Flags (defaults in parentheses):
//! `--topology line|ring|grid|star|complete|disk|er (grid)`,
//! `--nodes (16)`, `--width/--height (4)`, `--side (10)`, `--radius (3)`,
//! `--edge-prob (0.3)`, `--universe (8)`,
//! `--availability full|subset|overlap|spatial (subset)`, `--set-size (4)`,
//! `--shared (2)`, `--private (2)`, `--primaries (5)`, `--pu-radius (4)`,
//! `--pu-channels (3)`,
//! `--algorithm alg1|alg2|alg3|alg4|baseline (alg1)`,
//! `--protocol <catalog name>` (mutually exclusive with `--algorithm`;
//! runs any sync entry from `mmhew_rivals::catalog`, e.g. `mc-dis`,
//! `s-nihao`, `a-nihao`), `--delta-est (Δ)`,
//! `--epsilon (0.01)`, `--start-window (0)`, `--frame-len (3000; a
//! multiple of 3)`, `--drift-den (0 = ideal; 7 means δ=1/7; never 1)`,
//! `--reps (5)`, `--seed (1)`,
//! `--budget (4000000)`, `--jobs (the machine's parallelism; 1 to 256
//! worker threads for harness parallelism — never changes results)`.
//!
//! Observability flags:
//! `--trace <path>` writes repetition 0 as a JSONL event trace
//! (deterministic for a fixed seed), `--perfetto <path>` writes
//! repetition 0 as a Perfetto `.pftrace` (open it at ui.perfetto.dev),
//! `--metrics` prints per-node and per-channel counters aggregated over
//! all repetitions, and `--timeline` draws the first
//! `--timeline-slots (120)` slots of repetition 0 as an ASCII slot×node
//! grid (slotted algorithms only). Attaching sinks does not change the
//! simulation: same seed, same outcome. Both output files are created
//! before the first repetition, so an unusable path fails at once.
//!
//! Errors print as one `simulate: …` line; a flag it cannot accept exits
//! with status 2, a failed run with status 1. Every flag value is checked
//! before the network is built, so a value a builder or engine would
//! panic on, or a network or primary-user count over the storage cap
//! (see `mmhew_topology::check_storage_cap`), fails by name instead.

use mmhew_discovery::{
    tables_match_ground_truth, AsyncAlgorithm, AsyncParams, Bounds, Scenario, SyncAlgorithm,
    SyncParams,
};
use mmhew_engine::{AsyncRunConfig, AsyncStartSchedule, ClockConfig, StartSchedule, SyncRunConfig};
use mmhew_harness::cli::{Args, CliError};
use mmhew_obs::{EventSink, FanoutSink, JsonlTraceSink, MetricsSink, TimelineSink};
use mmhew_perfetto::PerfettoSink;
use mmhew_spectrum::{AvailabilityModel, PrimaryUser};
use mmhew_time::{DriftBound, DriftModel, LocalDuration, RealDuration};
use mmhew_topology::{Network, NetworkBuilder};
use mmhew_util::{SeedTree, Summary};
use std::fs::File;

/// A flag value `simulate` cannot accept, beyond what [`CliError`] names.
#[derive(Debug)]
struct FlagError(String);

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FlagError {}

fn build_network(args: &Args, seed: SeedTree) -> Result<Network, Box<dyn std::error::Error>> {
    let universe: u16 = args.get_checked("universe", 8, "positive", |&u| u > 0)?;
    let topology = args.one_of(
        "topology",
        &["grid", "line", "ring", "star", "complete", "disk", "er"],
    )?;
    let (min_nodes, expected) = match topology {
        "ring" => (3, "at least 3 for a ring"),
        "star" => (2, "at least 2 for a star"),
        _ => (0, "any count"),
    };
    let nodes: usize = args.get_checked("nodes", 16, expected, |&n| n >= min_nodes)?;
    let width: usize = args.get_checked("width", 4, "positive", |&w| w > 0)?;
    let height: usize = args.get_checked("height", 4, "positive", |&h| h > 0)?;
    // Reject node counts whose fixed CSR + arena storage would blow the
    // memory cap *before* any allocation happens, with an error that
    // names the estimate instead of OOMing mid-build. A grid has
    // width × height nodes, whatever `--nodes` says.
    let (count, flags) = match topology {
        "grid" => (width.saturating_mul(height), "--width × --height"),
        _ => (nodes, "--nodes"),
    };
    mmhew_topology::check_storage_cap(count as u64, universe)
        .map_err(|e| FlagError(format!("{flags}: {e}")))?;
    let builder = match topology {
        "line" => NetworkBuilder::line(nodes),
        "ring" => NetworkBuilder::ring(nodes),
        "grid" => NetworkBuilder::grid(width, height),
        "star" => NetworkBuilder::star(nodes),
        "complete" => NetworkBuilder::complete(nodes),
        "disk" => NetworkBuilder::unit_disk(
            nodes,
            args.get_checked("side", 10.0, "positive and finite", |s: &f64| {
                *s > 0.0 && s.is_finite()
            })?,
            args.get_checked("radius", 3.0, "non-negative and finite", |r: &f64| {
                *r >= 0.0 && r.is_finite()
            })?,
        ),
        "er" => NetworkBuilder::erdos_renyi(
            nodes,
            args.get_checked("edge-prob", 0.3, "in [0, 1]", |p| (0.0..=1.0).contains(p))?,
        ),
        _ => unreachable!("one_of validated"),
    };
    let availability =
        match args.one_of("availability", &["subset", "full", "overlap", "spatial"])? {
            "full" => AvailabilityModel::Full,
            "subset" => AvailabilityModel::UniformSubset {
                size: args.get_checked("set-size", 4, "in 1..=--universe", |&s| {
                    s >= 1 && s <= universe
                })?,
            },
            "overlap" => {
                let shared: u16 = args.get_or("shared", 2)?;
                let private: u16 = args.get_or("private", 2)?;
                // Every node gets the shared channels plus its own
                // disjoint private ones, and needs at least one channel.
                let needed = (private as u64)
                    .saturating_mul(count as u64)
                    .saturating_add(shared as u64);
                if (shared == 0 && private == 0) || needed > universe as u64 {
                    return Err(FlagError(format!(
                        "--shared/--private: {shared} shared + {count} × {private} private \
                         channels must be at least one per node and fit the {universe}-channel \
                         universe"
                    ))
                    .into());
                }
                AvailabilityModel::PairwiseOverlap { shared, private }
            }
            "spatial" => {
                let primaries: usize = args.get_or("primaries", 5)?;
                // The primary users are held in one vector, under the
                // same cap as the network's own storage.
                let bytes =
                    (primaries as u64).saturating_mul(std::mem::size_of::<PrimaryUser>() as u64);
                let cap = mmhew_topology::storage_cap_bytes();
                if bytes > cap {
                    return Err(FlagError(format!(
                        "--primaries: {primaries} primary users need {} MiB, over the {} MiB \
                         cap (set MMHEW_MEM_CAP_BYTES to raise it)",
                        bytes >> 20,
                        cap >> 20
                    ))
                    .into());
                }
                AvailabilityModel::SpatialPrimaryUsers {
                    primaries,
                    radius: args.get_checked(
                        "pu-radius",
                        4.0,
                        "non-negative and finite",
                        |r: &f64| *r >= 0.0 && r.is_finite(),
                    )?,
                    channels_per_primary: args.get_checked(
                        "pu-channels",
                        3,
                        "at most --universe",
                        |&c| c <= universe,
                    )?,
                }
            }
            _ => unreachable!("one_of validated"),
        };
    Ok(builder
        .universe(universe)
        .availability(availability)
        .build(seed)?)
}

/// Repetition `rep`'s sinks in one fanout, or `None` when it feeds none:
/// `--metrics` aggregates every repetition, and `--trace`, `--perfetto`
/// and `--timeline` record repetition 0 only.
fn rep_sinks<'s>(
    rep: u64,
    metrics: &'s mut Option<MetricsSink>,
    trace: &'s mut Option<JsonlTraceSink<File>>,
    perfetto: &'s mut Option<PerfettoSink>,
    timeline: &'s mut Option<TimelineSink>,
) -> Option<FanoutSink<'s>> {
    let mut sinks: Vec<&mut dyn EventSink> = Vec::new();
    if let Some(m) = metrics {
        sinks.push(m);
    }
    if rep == 0 {
        if let Some(t) = trace {
            sinks.push(t);
        }
        if let Some(p) = perfetto {
            sinks.push(p);
        }
        if let Some(t) = timeline {
            sinks.push(t);
        }
    }
    (!sinks.is_empty()).then(|| FanoutSink::new(sinks))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("simulate: {e}");
        let flag = e.is::<CliError>() || e.is::<FlagError>();
        std::process::exit(if flag { 2 } else { 1 });
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse()?;
    args.expect_only(
        &[
            "nodes",
            "topology",
            "width",
            "height",
            "side",
            "radius",
            "edge-prob",
            "universe",
            "availability",
            "set-size",
            "shared",
            "private",
            "primaries",
            "pu-radius",
            "pu-channels",
            "algorithm",
            "protocol",
            "delta-est",
            "epsilon",
            "start-window",
            "frame-len",
            "drift-den",
            "reps",
            "seed",
            "budget",
            "trace",
            "perfetto",
            "timeline-slots",
            "jobs",
        ],
        &["metrics", "timeline"],
    )?;
    if let Some(jobs) = args.jobs()? {
        mmhew_harness::set_jobs(jobs);
    }
    // Every flag is read and checked before the network is built: the
    // run's flags here, the network's in `build_network`.
    let seed = SeedTree::new(args.get_or("seed", 1)?);
    // Δ̂ defaults to the network's true maximum degree, known once built.
    let delta_est: Option<u64> = args
        .raw("delta-est")
        .map(|_| args.get_checked("delta-est", 1, "at least 1", |&d| d >= 1))
        .transpose()?;
    let epsilon: f64 = args.get_checked("epsilon", 0.01, "in (0, 1)", |e| *e > 0.0 && *e < 1.0)?;
    let reps: u64 = args.get_or("reps", 5)?;
    let budget: u64 = args.get_or("budget", 4_000_000)?;
    let drift_den: u64 =
        args.get_checked("drift-den", 0, "0 (ideal) or at least 2", |&d| d != 1)?;
    let frame_len: u64 =
        args.get_checked("frame-len", 3_000, "a positive multiple of 3", |&l| {
            l > 0 && l % 3 == 0
        })?;
    let start_window: u64 = args.get_or("start-window", 0)?;
    let timeline_slots: usize = args.get_checked("timeline-slots", 120, "positive", |&t| t > 0)?;

    if args.raw("protocol").is_some() && args.raw("algorithm").is_some() {
        return Err(FlagError(
            "--protocol and --algorithm are mutually exclusive (the catalog entry \
             already picks the algorithm)"
                .into(),
        )
        .into());
    }
    let rival = match args.raw("protocol") {
        Some(name) => {
            let kind = mmhew_rivals::catalog::by_name(name).ok_or_else(|| {
                FlagError(format!(
                    "--protocol {name:?} is not in the catalog (known names: {})",
                    mmhew_rivals::catalog::names(mmhew_rivals::Family::Sync).join(", ")
                ))
            })?;
            if kind.family == mmhew_rivals::Family::Async {
                return Err(FlagError(format!(
                    "--protocol {name} is the asynchronous frame-based algorithm — \
                     run it as --algorithm alg4 instead"
                ))
                .into());
            }
            Some(kind)
        }
        None => None,
    };
    let algorithm = args.one_of("algorithm", &["alg1", "alg2", "alg3", "alg4", "baseline"])?;
    // Algorithm 4's run: clock offsets of up to 10 frames and drift
    // segments of 5 frames. A product that saturates makes the horizon
    // overflow, which the check below names.
    let frames = |k: u64| frame_len.saturating_mul(k);
    let drift = if drift_den == 0 {
        DriftModel::Ideal
    } else {
        DriftModel::RandomPiecewise {
            bound: DriftBound::new(1, drift_den),
            segment: RealDuration::from_nanos(frames(5)),
        }
    };
    let async_config = AsyncRunConfig::until_complete(budget)
        .with_frame_len(LocalDuration::from_nanos(frame_len))
        .with_clocks(ClockConfig {
            drift,
            offset_window: LocalDuration::from_nanos(frames(10)),
        })
        .with_starts(AsyncStartSchedule::Staggered {
            window: RealDuration::from_nanos(start_window),
        });
    if algorithm == "alg4" && async_config.horizon().is_none() {
        return Err(FlagError(format!(
            "--frame-len: {budget} frames (--budget) of {frame_len} ns, after clock offsets \
             of up to 10 frames and starts of up to {start_window} ns (--start-window), \
             overflow the 64-bit nanosecond clock"
        ))
        .into());
    }

    let net = build_network(&args, seed.branch("net"))?;
    let delta_est = delta_est.unwrap_or(net.max_degree().max(1) as u64);
    let bounds = Bounds::from_network(&net, delta_est, epsilon);

    println!(
        "network: N={} |U|={} links={}  S={} Δ={} ρ={:.3}  connected={}",
        net.node_count(),
        net.universe_size(),
        net.links().len(),
        net.s_max(),
        net.max_degree(),
        net.rho(),
        if net.topology().is_connected() {
            "yes"
        } else {
            "no"
        },
    );

    let mut completions: Vec<f64> = Vec::new();
    let mut ok = true;

    let metrics_on = args.flag("metrics");
    let timeline_on = args.flag("timeline");
    let trace_path = args.raw("trace").map(str::to_string);
    let mut metrics = metrics_on.then(MetricsSink::new);
    let mut timeline =
        (timeline_on && algorithm != "alg4").then(|| TimelineSink::new(timeline_slots));
    let unusable = |flag: &str, p: &str, e| FlagError(format!("--{flag}: cannot create {p}: {e}"));
    let mut trace = match &trace_path {
        Some(p) => Some(JsonlTraceSink::create(p).map_err(|e| unusable("trace", p, e))?),
        None => None,
    };
    let perfetto_path = args.raw("perfetto").map(str::to_string);
    let mut perfetto = match &perfetto_path {
        Some(p) => Some(PerfettoSink::create(p).map_err(|e| unusable("perfetto", p, e))?),
        None => None,
    };

    if rival.is_none() && algorithm == "alg4" {
        println!(
            "algorithm: Algorithm 4 (async), Δ_est={delta_est}; Thm9 bound = {:.0} frames",
            bounds.theorem9_frames()
        );
        for rep in 0..reps {
            let alg = AsyncAlgorithm::FrameBased(AsyncParams::new(delta_est)?);
            let rep_seed = seed.branch("run").index(rep);
            let mut fan = rep_sinks(rep, &mut metrics, &mut trace, &mut perfetto, &mut timeline);
            let mut scenario = Scenario::asynchronous(&net, alg).config(async_config.clone());
            if let Some(fan) = fan.as_mut() {
                scenario = scenario.with_sink(fan);
            }
            let out = scenario.run(rep_seed)?;
            match out.min_full_frames_at_completion() {
                Some(frames) => {
                    println!("  rep {rep}: completed in {frames} frames after T_s");
                    completions.push(frames as f64);
                    ok &= tables_match_ground_truth(&net, out.tables());
                }
                None => {
                    println!("  rep {rep}: DID NOT COMPLETE within {budget} frames");
                    ok = false;
                }
            }
        }
    } else {
        let alg = match algorithm {
            "alg1" => SyncAlgorithm::Staged(SyncParams::new(delta_est)?),
            "alg2" => SyncAlgorithm::Adaptive,
            "alg3" => SyncAlgorithm::Uniform(SyncParams::new(delta_est)?),
            "baseline" => SyncAlgorithm::PerChannelBirthday {
                tx_probability: 0.5,
            },
            _ => unreachable!("one_of validated"),
        };
        match rival {
            Some(kind) => println!(
                "protocol: {} (catalog) — {}; Δ_est={delta_est}; paper bounds do not apply",
                kind.name, kind.summary
            ),
            None => println!(
                "algorithm: {algorithm}, Δ_est={delta_est}; Thm1 bound = {:.0} slots, Thm3 bound = {:.0} slots",
                bounds.theorem1_slots(),
                bounds.theorem3_slots()
            ),
        }
        let starts = match start_window {
            0 => StartSchedule::Identical,
            window => StartSchedule::Staggered { window },
        };
        for rep in 0..reps {
            let rep_seed = seed.branch("run").index(rep);
            let mut fan = rep_sinks(rep, &mut metrics, &mut trace, &mut perfetto, &mut timeline);
            // Catalog stacks are rebuilt every repetition (they are
            // per-node state machines); named algorithms are stateless
            // descriptors the scenario instantiates itself.
            let mut scenario = match rival {
                Some(kind) => Scenario::sync_stack(&net, kind.build_sync(&net, delta_est)?),
                None => Scenario::sync(&net, alg),
            }
            .starts(starts.clone())
            .config(SyncRunConfig::until_complete(budget));
            if let Some(fan) = fan.as_mut() {
                scenario = scenario.with_sink(fan);
            }
            let out = scenario.run(rep_seed)?;
            match out.slots_to_complete() {
                Some(slots) => {
                    println!("  rep {rep}: completed in {slots} slots after T_s");
                    completions.push(slots as f64);
                    ok &= tables_match_ground_truth(&net, out.tables());
                }
                None => {
                    println!("  rep {rep}: DID NOT COMPLETE within {budget} slots");
                    ok = false;
                }
            }
        }
    }

    if !completions.is_empty() {
        println!("summary: {}", Summary::from_samples(&completions));
    }
    println!(
        "ground truth: {}",
        if ok {
            "all completed runs exact ✓"
        } else {
            "MISMATCH OR INCOMPLETE ✗"
        }
    );
    if let Some(m) = &metrics {
        print!("{}", m.render_summary());
    }
    if timeline_on && algorithm == "alg4" {
        println!("(timeline: slotted algorithms only — nothing drawn for alg4)");
    }
    if let Some(t) = &timeline {
        println!("timeline of rep 0 (first {timeline_slots} slots):");
        print!("{}", t.render());
    }
    if let (Some(t), Some(path)) = (trace, trace_path) {
        let events = t.events();
        t.finish()
            .map_err(|e| format!("--trace: cannot write {path}: {e}"))?;
        println!("trace: {events} events written to {path}");
    }
    if let (Some(p), Some(path)) = (perfetto, perfetto_path) {
        let events = p.events();
        let bytes = p
            .finish()
            .map_err(|e| format!("--perfetto: cannot write {path}: {e}"))?;
        println!("perfetto: {events} events → {bytes} bytes at {path} (open at ui.perfetto.dev)");
    }
    Ok(())
}
