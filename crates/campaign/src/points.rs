//! Point execution and manifest I/O — the core under the campaign
//! driver ([`crate::run_campaign`]) and the point replay ([`run_point`]).
//!
//! Everything here is a pure function of `(spec, point id)` plus the
//! bytes already on disk:
//!
//! * `run_point_line` compiles one grid point into a
//!   [`mmhew_discovery::Scenario`], runs its repetitions shard by shard
//!   (merging aggregates in shard order, so floating-point sums never
//!   depend on scheduling), and renders the manifest line — the same
//!   bytes whether it runs inside a full campaign, alone, or twice after
//!   a crash.
//! * The manifest helpers ([`manifest_header`], `write_manifest`,
//!   `resume_manifest`, `append_manifest`, `write_artifact_file`)
//!   implement the checkpoint format: a *spec-echo header* line
//!   (`{"schema_version":…,"spec":…}`) followed by one JSON line per
//!   completed point. Appends are whole lines, so a crash leaves at most
//!   one torn final line; `resume_manifest` — the one manifest reader —
//!   drops that line and refuses every other defect by name.
//!
//! The driver is a thin shell over this module, which is what makes a
//! resumed campaign's manifest byte-identical to an uninterrupted run of
//! the same spec and seed.

use crate::run::CampaignError;
use crate::spec::{EngineKind, Point, SweepSpec};
use mmhew_discovery::{AsyncAlgorithm, AsyncParams, Engine, ProtocolError, Scenario};
use mmhew_dynamics::{poisson_churn, ChurnConfig, DynamicsSchedule};
use mmhew_engine::{AsyncRunConfig, StartSchedule, SyncRunConfig};
use mmhew_faults::{FaultPlan, JamSchedule, LinkLossModel};
use mmhew_obs::value::{parse, Value};
use mmhew_spectrum::{AvailabilityModel, ChannelSet};
use mmhew_topology::{Network, NetworkBuilder};
use mmhew_util::{quantile, SeedTree, Welford};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Repetitions per shard: small enough that work stealing balances
/// heterogeneous points, large enough to amortize scheduling.
pub(crate) const REPS_PER_SHARD: u64 = 4;

/// Schema version stamped on every manifest line (and therefore on each
/// entry of the artifact's `points` array) and on the spec-echo header.
/// The manifest reader accepts this version only.
///
/// Version history:
///
/// * **1** — `schema_version`, `point`, `params`, `reps`, `completed`,
///   `failures`, `mean`, `stddev`, `min`, `max`, `p50`, `p90`, `p99`,
///   with quantiles interpolated inside a `[0, budget)` histogram of
///   `hist-bins` bins (so a quantile could lie outside `[min, max]`), and
///   `mean` and `stddev` written as `0` for a point with no completed
///   repetition.
/// * **2** — the same fields. `p50`, `p90` and `p99` are
///   [`mmhew_util::quantile`] of the completion times, and `mean` and
///   `stddev` are `null` when no repetition completed. The spec echo has
///   no `hist-bins` key.
pub const MANIFEST_SCHEMA_VERSION: u32 = 2;

/// The seed subtree owning all randomness of one point: derived from the
/// master seed, the campaign name, and the point's *numeric grid id* —
/// nothing else. `branch("net")` seeds the network, `branch("dynamics")`
/// the generated schedules, and `branch("run").index(rep)` each
/// repetition.
///
/// When the categorical `protocol` axis is swept, the point id is reduced
/// modulo [`SweepSpec::numeric_grid_len`] first: every protocol at the
/// same numeric point then draws the identical network, fault, churn, and
/// per-repetition seeds, so head-to-head comparisons are matched — the
/// protocols differ, nothing else does. Without the axis the reduction is
/// the identity and the derivation is unchanged from earlier manifests.
pub fn point_seed(spec: &SweepSpec, point_id: u64) -> SeedTree {
    let grid_id = if spec.protocols.is_empty() {
        point_id
    } else {
        point_id % spec.numeric_grid_len()
    };
    SeedTree::new(spec.seed)
        .branch("campaign")
        .branch(&spec.name)
        .index(grid_id)
}

/// Everything needed to run one point's repetitions, built once.
pub(crate) struct PointContext {
    root: SeedTree,
    network: Network,
    algorithm: Algorithm,
    /// Slotted oracle or the byte-identical event executor (sync only).
    executor: Engine,
    starts: StartSchedule,
    robust: u64,
    faults: Option<FaultPlan>,
    dynamics: Option<DynamicsSchedule>,
    budget: u64,
    /// Degree estimate handed to catalog builders.
    delta_est: u64,
}

#[derive(Clone, Copy)]
enum Algorithm {
    /// A catalog entry: the per-node stack is rebuilt from the entry's
    /// builder every repetition.
    SyncCatalog(&'static mmhew_rivals::ProtocolKind),
    Async(AsyncAlgorithm),
}

pub(crate) fn compile_point(
    spec: &SweepSpec,
    point: &Point,
) -> Result<PointContext, CampaignError> {
    let root = point_seed(spec, point.id);
    let nodes = point.axis("nodes") as usize;
    let universe = point.axis("universe") as u16;
    let avail = point.axis("avail") as u16;
    let builder = match spec.topology.as_str() {
        "complete" => NetworkBuilder::complete(nodes),
        "line" => NetworkBuilder::line(nodes),
        "ring" => NetworkBuilder::ring(nodes),
        "star" => NetworkBuilder::star(nodes),
        "er" => NetworkBuilder::erdos_renyi(nodes, spec.edge_prob),
        other => unreachable!("validated topology {other:?}"),
    };
    let availability = if avail == 0 {
        AvailabilityModel::Full
    } else {
        AvailabilityModel::UniformSubset { size: avail }
    };
    let network = builder
        .universe(universe)
        .availability(availability)
        .build(root.branch("net"))?;

    let delta_est = match point.axis("delta-est") as u64 {
        0 => network.max_degree().max(1) as u64,
        explicit => explicit,
    };
    // Categorical `protocol` axis: the catalog entry overrides the
    // spec-level algorithm for this point.
    let name = point.protocol.as_deref().unwrap_or(&spec.algorithm);
    let algorithm = match spec.engine {
        EngineKind::Sync | EngineKind::SyncEvent => Algorithm::SyncCatalog(
            mmhew_rivals::catalog::by_name(name)
                .unwrap_or_else(|| unreachable!("validated protocol {name:?}")),
        ),
        EngineKind::Async => Algorithm::Async(match name {
            "frame-based" => AsyncAlgorithm::FrameBased(AsyncParams::new(delta_est)?),
            other => unreachable!("validated protocol {other:?}"),
        }),
    };

    let window = point.axis("start-window") as u64;
    let starts = if window == 0 {
        StartSchedule::Identical
    } else {
        StartSchedule::Staggered { window }
    };

    let loss = point.axis("loss");
    let jam = point.axis("jam") as u16;
    let faults = (loss > 0.0 || jam > 0).then(|| {
        let mut plan = FaultPlan::new();
        if loss > 0.0 {
            plan = plan.with_default_loss(LinkLossModel::Bernoulli {
                delivery_probability: 1.0 - loss,
            });
        }
        if jam > 0 {
            plan = plan.with_jamming(JamSchedule::fixed(ChannelSet::full(jam)));
        }
        plan
    });

    let churn_rate = point.axis("churn-rate");
    let dynamics = (churn_rate > 0.0).then(|| {
        DynamicsSchedule::new(poisson_churn(
            &network,
            spec.budget,
            &ChurnConfig {
                rate: churn_rate,
                mean_downtime: spec.churn_downtime,
            },
            root.branch("dynamics"),
        ))
    });

    Ok(PointContext {
        root,
        network,
        algorithm,
        executor: match spec.engine {
            EngineKind::SyncEvent => Engine::Event,
            EngineKind::Sync | EngineKind::Async => Engine::Slotted,
        },
        starts,
        robust: point.axis("robust") as u64,
        faults,
        dynamics,
        budget: spec.budget,
        delta_est,
    })
}

/// One repetition's completion time (`None` = budget exhausted). A sync
/// point's wiring (starts, executor, budget, robustness, faults,
/// dynamics) is the same whether its name came from the spec or the
/// `protocol` axis, so a protocol-axis `"staged"` line is byte-identical
/// to the `"algorithm": "staged"` line.
fn run_rep(ctx: &PointContext, rep: u64) -> Result<Option<f64>, ProtocolError> {
    let rep_seed = ctx.root.branch("run").index(rep);
    match ctx.algorithm {
        Algorithm::SyncCatalog(kind) => {
            let stack = kind.build_sync(&ctx.network, ctx.delta_est)?;
            let mut scenario = Scenario::sync_stack(&ctx.network, stack)
                .starts(ctx.starts.clone())
                .engine(ctx.executor)
                .config(SyncRunConfig::until_complete(ctx.budget));
            if ctx.robust > 0 {
                scenario = scenario.robust(ctx.robust);
            }
            if let Some(faults) = &ctx.faults {
                scenario = scenario.with_faults(faults.clone());
            }
            if let Some(dynamics) = &ctx.dynamics {
                scenario = scenario.with_dynamics(dynamics.clone());
            }
            let outcome = scenario.run(rep_seed)?;
            Ok(outcome.slots_to_complete().map(|s| s as f64))
        }
        Algorithm::Async(algorithm) => {
            let mut scenario = Scenario::asynchronous(&ctx.network, algorithm)
                .config(AsyncRunConfig::until_complete(ctx.budget));
            if let Some(faults) = &ctx.faults {
                scenario = scenario.with_faults(faults.clone());
            }
            let outcome = scenario.run(rep_seed)?;
            Ok(outcome.min_full_frames_at_completion().map(|f| f as f64))
        }
    }
}

/// Aggregate of one shard (and, after merging, one point).
pub(crate) struct Agg {
    welford: Welford,
    /// Completion times, in repetition order.
    times: Vec<f64>,
    failures: u64,
}

impl Agg {
    pub(crate) fn new() -> Self {
        Self {
            welford: Welford::new(),
            times: Vec::new(),
            failures: 0,
        }
    }

    pub(crate) fn merge(&mut self, other: Agg) {
        self.welford.merge(&other.welford);
        self.times.extend(other.times);
        self.failures += other.failures;
    }
}

pub(crate) fn run_shard(ctx: &PointContext, start: u64, len: u64) -> Result<Agg, ProtocolError> {
    let mut agg = Agg::new();
    for rep in start..start + len {
        match run_rep(ctx, rep)? {
            Some(x) => {
                agg.welford.push(x);
                agg.times.push(x);
            }
            None => agg.failures += 1,
        }
    }
    Ok(agg)
}

/// The shard decomposition of one point's `reps` repetitions.
pub(crate) fn shards(reps: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..reps.div_ceil(REPS_PER_SHARD)).map(move |s| {
        (
            s * REPS_PER_SHARD,
            REPS_PER_SHARD.min(reps - s * REPS_PER_SHARD),
        )
    })
}

/// One completed point as recorded in the manifest and artifact.
/// Failed (budget-exhausted) repetitions are counted but excluded from
/// the statistics, which are `null` when no repetition completed.
#[derive(Serialize)]
struct PointRecord<'a> {
    schema_version: u32,
    point: u64,
    /// Catalog name when the `protocol` axis is swept; absent otherwise,
    /// keeping protocol-free manifests byte-identical to earlier runs.
    #[serde(skip_serializing_if = "Option::is_none")]
    protocol: Option<&'a str>,
    params: &'a [(String, f64)],
    reps: u64,
    completed: u64,
    failures: u64,
    mean: Option<f64>,
    stddev: Option<f64>,
    min: Option<f64>,
    max: Option<f64>,
    p50: Option<f64>,
    p90: Option<f64>,
    p99: Option<f64>,
}

pub(crate) fn render_record(
    spec: &SweepSpec,
    point: &Point,
    agg: &Agg,
) -> Result<String, CampaignError> {
    let w = &agg.welford;
    let done = w.count() > 0;
    let record = PointRecord {
        schema_version: MANIFEST_SCHEMA_VERSION,
        point: point.id,
        protocol: point.protocol.as_deref(),
        params: &point.values,
        reps: spec.reps,
        completed: w.count(),
        failures: agg.failures,
        mean: done.then(|| w.mean()),
        stddev: done.then(|| w.stddev()),
        min: done.then(|| w.min()),
        max: done.then(|| w.max()),
        p50: done.then(|| quantile(&agg.times, 0.5)),
        p90: done.then(|| quantile(&agg.times, 0.9)),
        p99: done.then(|| quantile(&agg.times, 0.99)),
    };
    mmhew_obs::json::to_string(&record).map_err(|e| CampaignError::Render(e.to_string()))
}

/// Runs every repetition of one already-expanded point and renders its
/// manifest line — byte-identical to what a full campaign records for
/// that point.
///
/// # Errors
///
/// Returns any compile/run/serialize failure.
pub(crate) fn run_point_line(spec: &SweepSpec, point: &Point) -> Result<String, CampaignError> {
    let ctx = compile_point(spec, point)?;
    let mut agg = Agg::new();
    for (start, len) in shards(spec.reps) {
        agg.merge(run_shard(&ctx, start, len)?);
    }
    render_record(spec, point, &agg)
}

/// Re-runs a single point in isolation (validating the spec and looking
/// the point up by id) and returns its manifest line.
///
/// # Errors
///
/// Returns [`CampaignError::UnknownPoint`] if `point_id` is outside the
/// grid, or any compile/run failure.
pub fn run_point(spec: &SweepSpec, point_id: u64) -> Result<String, CampaignError> {
    spec.validate()?;
    let points = spec.expand();
    let point = points
        .iter()
        .find(|p| p.id == point_id)
        .ok_or(CampaignError::UnknownPoint(point_id))?;
    run_point_line(spec, point)
}

/// The spec-echo header: the first line of every manifest, recording
/// which spec (in canonical [`SweepSpec::to_json`] form) the data lines
/// belong to. Resume compares it byte for byte to refuse continuing one
/// campaign's manifest under a different spec.
pub fn manifest_header(spec: &SweepSpec) -> String {
    format!(
        "{{\"schema_version\":{MANIFEST_SCHEMA_VERSION},\"spec\":{}}}",
        spec.to_json()
    )
}

/// Writes the header and the `done` lines in point order through a temp
/// file and a rename, replacing any file at `path`; a crash here leaves
/// the previous file intact.
pub(crate) fn write_manifest(
    path: &Path,
    spec: &SweepSpec,
    done: &BTreeMap<u64, String>,
) -> Result<(), CampaignError> {
    let mut out = manifest_header(spec);
    out.push('\n');
    for line in done.values() {
        out.push_str(line);
        out.push('\n');
    }
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, out).map_err(CampaignError::io(&tmp))?;
    std::fs::rename(&tmp, path).map_err(CampaignError::io(path))
}

/// Reads the manifest at `path` once to resume `spec`, whose grid has
/// `points` points, and returns the recorded lines by point id.
///
/// A line counts once its newline is written: a final line without one
/// was torn by a crash and is dropped, so its point runs again. When a
/// line was dropped, or the file is missing or empty, the manifest is
/// rewritten as the header plus the kept lines, so the next append starts
/// on a fresh line. Every other defect is a [`CampaignError::Manifest`]
/// naming the file and line:
///
/// * a line that is not JSON;
/// * a `schema_version` other than [`MANIFEST_SCHEMA_VERSION`], checked
///   first, so an older manifest is refused by its version;
/// * a first line that is not the spec-echo header of `spec`;
/// * a data line without a point id, with an id outside the grid, or
///   with an id recorded before.
pub(crate) fn resume_manifest(
    path: &Path,
    spec: &SweepSpec,
    points: u64,
) -> Result<BTreeMap<u64, String>, CampaignError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(CampaignError::io(path)(e)),
    };
    let intact = text.rfind('\n').map_or("", |end| &text[..=end]);
    let fail = |line: usize, problem: String| CampaignError::Manifest {
        path: path.to_path_buf(),
        line: line + 1,
        problem,
    };
    let header = manifest_header(spec);
    let mut done = BTreeMap::new();
    for (i, line) in intact.split_terminator('\n').enumerate() {
        let record = parse(line).map_err(|e| fail(i, format!("not JSON: {e}")))?;
        let version = record.get("schema_version");
        if version.and_then(Value::as_u64) != Some(u64::from(MANIFEST_SCHEMA_VERSION)) {
            let found = version.map_or("none".to_string(), Value::to_json);
            return Err(fail(
                i,
                format!("schema_version {found}, but this build reads version {MANIFEST_SCHEMA_VERSION} only"),
            ));
        }
        let id = record.get("point");
        if i == 0 {
            if line != header {
                let problem = match record.get("spec") {
                    Some(echo) if id.is_none() => format!(
                        "echoes a different spec (named {}); refusing to mix campaigns",
                        echo.get("name").map_or("none".to_string(), Value::to_json)
                    ),
                    _ => "not a spec-echo header".to_string(),
                };
                return Err(fail(i, problem));
            }
            continue;
        }
        let id = id
            .and_then(Value::as_u64)
            .ok_or_else(|| fail(i, "no point id".to_string()))?;
        if id >= points {
            return Err(fail(
                i,
                format!("point {id} is outside the grid of {points} points"),
            ));
        }
        if done.insert(id, line.to_string()).is_some() {
            return Err(fail(i, format!("point {id} is recorded twice")));
        }
    }
    if intact.len() < text.len() || intact.is_empty() {
        write_manifest(path, spec, &done)?;
    }
    Ok(done)
}

/// Appends manifest lines, one `write` per line so interruption leaves at
/// most one torn final line.
pub(crate) fn append_manifest(path: &Path, lines: &[String]) -> Result<(), CampaignError> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(CampaignError::io(path))?;
    for line in lines {
        // One write per record keeps lines whole under interruption.
        file.write_all(format!("{line}\n").as_bytes())
            .map_err(CampaignError::io(path))?;
    }
    file.flush().map_err(CampaignError::io(path))?;
    Ok(())
}

/// Renders the final artifact from the manifest lines, sorted by point
/// id, and moves it into place atomically (temp file + rename). Reusing
/// the recorded lines verbatim is what makes a resumed campaign's
/// artifact byte-identical to an uninterrupted one.
pub(crate) fn write_artifact_file(
    spec: &SweepSpec,
    path: &Path,
    done: &BTreeMap<u64, String>,
) -> Result<PathBuf, CampaignError> {
    let mut out = format!("{{\"spec\":{},\"points\":[\n", spec.to_json());
    for (i, line) in done.values().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(line);
    }
    out.push_str("\n]}\n");
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, out).map_err(CampaignError::io(&tmp))?;
    std::fs::rename(&tmp, path).map_err(CampaignError::io(path))?;
    Ok(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_util::{prop, Xoshiro256StarStar};
    use rand::Rng;

    #[test]
    fn shard_decomposition_covers_reps_exactly() {
        for reps in 1..=13 {
            let parts: Vec<(u64, u64)> = shards(reps).collect();
            let mut covered = Vec::new();
            for (start, len) in parts {
                assert!((1..=REPS_PER_SHARD).contains(&len));
                covered.extend(start..start + len);
            }
            assert_eq!(covered, (0..reps).collect::<Vec<_>>());
        }
    }

    #[test]
    fn point_seed_depends_on_spec_identity_only() {
        let mut a = SweepSpec::smoke();
        let s1 = point_seed(&a, 2);
        assert_eq!(s1, point_seed(&a, 2));
        assert_ne!(s1, point_seed(&a, 3));
        a.name = "other".to_string();
        assert_ne!(s1, point_seed(&a, 2));
        a = SweepSpec::smoke();
        a.seed ^= 1;
        assert_ne!(s1, point_seed(&a, 2));
        // Execution-shape knobs must NOT enter the derivation.
        a = SweepSpec::smoke();
        a.reps += 10;
        a.budget += 1;
        assert_eq!(s1, point_seed(&a, 2));
    }

    #[test]
    fn records_are_parseable_and_complete() {
        let spec = SweepSpec::smoke();
        let line = run_point(&spec, 0).expect("runs");
        let v = parse(&line).expect("valid JSON");
        assert_eq!(
            v.get("schema_version").and_then(Value::as_u64),
            Some(MANIFEST_SCHEMA_VERSION as u64)
        );
        assert_eq!(v.get("point").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("reps").and_then(Value::as_u64), Some(spec.reps));
        assert_eq!(v.get("failures").and_then(Value::as_u64), Some(0));
        let mean = v.get("mean").and_then(Value::as_f64).expect("mean");
        assert!(mean > 0.0);
        let p50 = v.get("p50").and_then(Value::as_f64).expect("p50");
        assert!(p50 >= 0.0 && p50 <= spec.budget as f64);
    }

    #[test]
    fn run_point_line_matches_run_point() {
        let spec = SweepSpec::smoke();
        for point in spec.expand() {
            assert_eq!(
                run_point_line(&spec, &point).expect("line"),
                run_point(&spec, point.id).expect("point")
            );
        }
    }

    #[test]
    fn sync_event_points_match_slotted_lines() {
        // The event executor is byte-identical to the slotted oracle, so
        // a sync-event campaign's manifest lines must equal the sync
        // campaign's (the engine field is not part of the seed derivation).
        let slotted = SweepSpec::smoke();
        let mut event = SweepSpec::smoke();
        event.engine = EngineKind::SyncEvent;
        for point in slotted.expand() {
            assert_eq!(
                run_point_line(&slotted, &point).expect("slotted line"),
                run_point_line(&event, &point).expect("event line")
            );
        }
    }

    #[test]
    fn the_largest_exact_seed_runs_and_is_echoed_exactly() {
        let spec = SweepSpec::from_json(
            r#"{"name":"big-seed","topology":"complete","reps":1,
                "seed":9007199254740991,"axes":{"nodes":[3],"universe":[2]}}"#,
        )
        .expect("2^53 - 1 is below the limit");
        assert!(
            manifest_header(&spec).contains(r#""seed":9007199254740991,"#),
            "{}",
            manifest_header(&spec)
        );
        run_point(&spec, 0).expect("the point runs");
    }

    /// A small protocol-axis head-to-head used by the tests below.
    fn rivals_spec() -> SweepSpec {
        SweepSpec::from_json(
            r#"{"name":"rivals-test","engine":"sync","topology":"complete",
                "reps":2,"seed":7,"budget":200000,
                "axes":{"protocol":["staged","mc-dis"],"nodes":[4],"universe":[5]}}"#,
        )
        .expect("valid spec")
    }

    #[test]
    fn protocol_axis_points_share_the_numeric_grid_seed() {
        let spec = rivals_spec();
        let stride = spec.numeric_grid_len();
        assert_eq!(stride, 1);
        // Point 0 is "staged", point 1 is "mc-dis": matched head-to-head
        // means both draw the same seed subtree.
        assert_eq!(point_seed(&spec, 0), point_seed(&spec, stride));
        // And that subtree is the one a protocol-free spec would draw, so
        // the numeric grid's randomness is unchanged by adding the axis.
        let mut plain = spec.clone();
        plain.protocols.clear();
        assert_eq!(point_seed(&spec, 0), point_seed(&plain, 0));
    }

    #[test]
    fn protocol_axis_lines_are_matched_and_distinct() {
        let spec = rivals_spec();
        let points = spec.expand();
        assert_eq!(points.len(), 2);
        let staged = run_point_line(&spec, &points[0]).expect("staged line");
        let rival = run_point_line(&spec, &points[1]).expect("mc-dis line");
        let vs = parse(&staged).expect("staged JSON");
        let vr = parse(&rival).expect("mc-dis JSON");
        assert_eq!(vs.get("protocol").and_then(Value::as_str), Some("staged"));
        assert_eq!(vr.get("protocol").and_then(Value::as_str), Some("mc-dis"));
        // Same matched network and seeds, different protocol — the
        // outcomes must differ (deterministic hopping vs staged rounds).
        assert_ne!(
            vs.get("mean").and_then(Value::as_f64),
            vr.get("mean").and_then(Value::as_f64)
        );

        // The catalog's "staged" builder constructs exactly what the
        // named-algorithm path does, so every statistic matches the
        // protocol-free campaign's line for the same numeric point.
        let mut plain = spec.clone();
        plain.protocols.clear();
        let plain_line = run_point_line(&plain, &plain.expand()[0]).expect("plain line");
        let vp = parse(&plain_line).expect("plain JSON");
        assert_eq!(vp.get("protocol").map(Value::to_json), None);
        for key in [
            "completed",
            "failures",
            "mean",
            "stddev",
            "p50",
            "p90",
            "p99",
        ] {
            assert_eq!(
                vs.get(key).map(Value::to_json),
                vp.get(key).map(Value::to_json),
                "field {key:?} must match the named-algorithm line"
            );
        }
    }

    #[test]
    fn unknown_point_is_an_error() {
        let spec = SweepSpec::smoke();
        assert!(matches!(
            run_point(&spec, 99),
            Err(CampaignError::UnknownPoint(99))
        ));
    }

    /// A fresh directory for one test's manifests.
    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmhew-campaign-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// The smoke campaign's manifest, complete: header plus four lines.
    fn smoke_manifest_lines() -> Vec<String> {
        let spec = SweepSpec::smoke();
        let mut lines = vec![manifest_header(&spec)];
        for point in spec.expand() {
            lines.push(run_point_line(&spec, &point).expect("line"));
        }
        lines
    }

    #[test]
    fn manifest_loader_drops_torn_lines_and_header() {
        let dir = fresh_dir("torn");
        let path = dir.join("m.jsonl");
        let spec = SweepSpec::smoke();
        let lines = smoke_manifest_lines();
        let torn = &lines[2][..lines[2].len() / 2];
        std::fs::write(&path, format!("{}\n{}\n{torn}", lines[0], lines[1])).expect("write");
        let done = resume_manifest(&path, &spec, 4).expect("load");
        assert_eq!(done.keys().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(done[&0], lines[1]);
        // The torn line is gone from the file too, so the next append
        // starts on a fresh line.
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            format!("{}\n{}\n", lines[0], lines[1])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_loader_versioning() {
        let dir = fresh_dir("schema");
        let spec = SweepSpec::smoke();
        let lines = smoke_manifest_lines();
        let current = format!("\"schema_version\":{MANIFEST_SCHEMA_VERSION}");

        // Only the current version loads; an older one (whose spec echo
        // also differs) is refused by its version, as are a newer one and
        // an unversioned line.
        let ok = dir.join("ok.jsonl");
        std::fs::write(&ok, format!("{}\n{}\n", lines[0], lines[1])).expect("write");
        assert_eq!(resume_manifest(&ok, &spec, 4).expect("load").len(), 1);
        for (stamp, found) in [
            ("\"schema_version\":1", "1"),
            ("\"schema_version\":999", "999"),
            ("\"schema_version\":\"2\"", "\"2\""),
        ] {
            for line in [1, 2] {
                let path = dir.join(format!("v{found}-{line}.jsonl"));
                let mut text = lines[..2].to_vec();
                text[line - 1] = text[line - 1].replace(&current, stamp);
                if line == 1 {
                    text[0] = text[0].replace("\"budget\"", "\"hist-bins\":20,\"budget\"");
                }
                std::fs::write(&path, text.join("\n") + "\n").expect("write");
                let err = resume_manifest(&path, &spec, 4).expect_err("must refuse");
                let msg = err.to_string();
                assert!(
                    matches!(err, CampaignError::Manifest { line: l, .. } if l == line),
                    "{msg}"
                );
                assert!(msg.contains(&format!("schema_version {found}")), "{msg}");
                assert!(!msg.contains("different spec"), "{msg}");
            }
        }
        let bare = dir.join("bare.jsonl");
        let unversioned = lines[1].replace(&format!("{current},"), "");
        std::fs::write(&bare, format!("{}\n{unversioned}\n", lines[0])).expect("write");
        let msg = resume_manifest(&bare, &spec, 4)
            .expect_err("refused")
            .to_string();
        assert!(msg.contains("line 2: schema_version none"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_rewrite_tolerates_torn_and_legacy_manifests() {
        let dir = fresh_dir("header");
        let spec = SweepSpec::smoke();
        let header = manifest_header(&spec);

        // Missing file: header gets created.
        let fresh = dir.join("fresh.jsonl");
        assert!(resume_manifest(&fresh, &spec, 4)
            .expect("create")
            .is_empty());
        assert_eq!(
            std::fs::read_to_string(&fresh).expect("read"),
            format!("{header}\n")
        );

        // Torn header (crash mid-initial-write): rewritten, not an abort.
        let torn = dir.join("torn.jsonl");
        std::fs::write(&torn, &header[..header.len() / 2]).expect("write");
        assert!(resume_manifest(&torn, &spec, 4)
            .expect("rewrite")
            .is_empty());
        assert_eq!(
            std::fs::read_to_string(&torn).expect("read"),
            format!("{header}\n")
        );

        // A legacy manifest (unversioned data lines, no header) is refused
        // by its version on its first line, and left as it was.
        let legacy = dir.join("legacy.jsonl");
        let old = "{\"point\":0,\"mean\":1}\n{\"point\":1,\"me";
        std::fs::write(&legacy, old).expect("write");
        let msg = resume_manifest(&legacy, &spec, 4)
            .expect_err("refused")
            .to_string();
        assert!(msg.contains("line 1: schema_version none"), "{msg}");
        assert_eq!(std::fs::read_to_string(&legacy).expect("read"), old);

        // Intact matching manifest: file left byte-identical.
        let lines = smoke_manifest_lines();
        let intact = dir.join("intact.jsonl");
        std::fs::write(&intact, lines.join("\n") + "\n").expect("write");
        let before = std::fs::read(&intact).expect("read");
        assert_eq!(resume_manifest(&intact, &spec, 4).expect("noop").len(), 4);
        assert_eq!(std::fs::read(&intact).expect("read"), before);

        // Intact header for a different spec: hard error.
        let mut other = SweepSpec::smoke();
        other.seed ^= 1;
        let err = resume_manifest(&intact, &other, 4).expect_err("must refuse");
        assert!(err.to_string().contains("different spec"), "{err}");

        // A data line where the header belongs is no header.
        let headless = dir.join("headless.jsonl");
        std::fs::write(&headless, lines[1..].join("\n") + "\n").expect("write");
        let msg = resume_manifest(&headless, &spec, 4)
            .expect_err("refused")
            .to_string();
        assert!(msg.contains("line 1: not a spec-echo header"), "{msg}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_grid_and_repeated_point_ids_are_named() {
        let dir = fresh_dir("ids");
        let spec = SweepSpec::smoke();
        let lines = smoke_manifest_lines();
        let renumber =
            |line: &str, id: &str| line.replacen("\"point\":0", &format!("\"point\":{id}"), 1);
        for (extra, problem) in [
            (
                renumber(&lines[1], "999"),
                "point 999 is outside the grid of 4 points",
            ),
            (
                renumber(&lines[1], "4"),
                "point 4 is outside the grid of 4 points",
            ),
            (renumber(&lines[1], "-1"), "no point id"),
            (renumber(&lines[1], "1e400"), "no point id"),
            (renumber(&lines[1], "1.5"), "no point id"),
            (lines[1].clone(), "point 0 is recorded twice"),
        ] {
            let path = dir.join("m.jsonl");
            std::fs::write(
                &path,
                format!("{}\n{}\n{}\n{extra}\n", lines[0], lines[1], lines[2]),
            )
            .expect("write");
            let msg = resume_manifest(&path, &spec, 4)
                .expect_err(problem)
                .to_string();
            assert!(msg.contains(&format!("line 4: {problem}")), "{msg}");
            assert!(msg.contains(&path.display().to_string()), "{msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One hostile stand-in for a manifest line, built from a real one.
    fn hostile_line(rng: &mut Xoshiro256StarStar, lines: &[String]) -> String {
        let base = &lines[rng.gen_range(0..lines.len())];
        let current = format!("\"schema_version\":{MANIFEST_SCHEMA_VERSION}");
        let pick = |rng: &mut Xoshiro256StarStar, items: &[&str]| {
            items[rng.gen_range(0..items.len())].to_string()
        };
        match rng.gen_range(0..9u32) {
            0 => {
                let bytes = b"{}[]\",:0123456789.e-abc \\";
                (0..rng.gen_range(0..48usize))
                    .map(|_| char::from(bytes[rng.gen_range(0..bytes.len())]))
                    .collect()
            }
            1 => {
                let version = pick(rng, &["0", "1", "3", "-1", "2.5", "1e400", "\"2\"", "null"]);
                base.replacen(&current, &format!("\"schema_version\":{version}"), 1)
            }
            2 => base.replacen(&format!("{current},"), "", 1),
            3 => {
                let at = base
                    .find("\"point\":")
                    .map_or(0, |i| i + "\"point\":".len());
                let digits = base[at..].find(|c: char| !c.is_ascii_digit()).unwrap_or(0);
                let id = pick(
                    rng,
                    &[
                        "3",
                        "4",
                        "999",
                        "-1",
                        "1.5",
                        "1e400",
                        "18446744073709551616",
                        "\"1\"",
                        "null",
                    ],
                );
                format!("{}{id}{}", &base[..at], &base[at + digits..])
            }
            4 => {
                let mut other = SweepSpec::smoke();
                other.name = "other".to_string();
                manifest_header(&other)
            }
            5 => format!("{}{base}", " ".repeat(rng.gen_range(0..1usize << 17))),
            6 => format!(
                "{}{}",
                "[".repeat(rng.gen_range(100..300usize)),
                "]".repeat(3)
            ),
            7 => "9".repeat(rng.gen_range(300..1usize << 16)),
            _ => {
                let mut cut = rng.gen_range(0..base.len());
                while !base.is_char_boundary(cut) {
                    cut -= 1;
                }
                base[..cut].to_string()
            }
        }
    }

    /// Torn, hostile, huge and repeated lines, other schema versions and
    /// out-of-grid ids: every manifest either loads, keeping only intact
    /// current-version lines of grid points, or fails naming its file and
    /// line. Nothing panics, and a resume from what loads completes the
    /// artifact with every grid point exactly once.
    #[test]
    fn hostile_manifests_load_or_fail_by_name() {
        let dir = fresh_dir("hostile");
        let spec = SweepSpec::smoke();
        let points = spec.expand().len() as u64;
        let lines = smoke_manifest_lines();
        let path = dir.join("smoke.manifest.jsonl");
        let artifact = dir.join("smoke.campaign.json");
        prop::check("hostile_manifests_load_or_fail_by_name", 384, |rng| {
            let mut doc = lines[..rng.gen_range(1..=lines.len())].to_vec();
            for _ in 0..rng.gen_range(0..3u32) {
                let at = rng.gen_range(0..=doc.len());
                match rng.gen_range(0..4u32) {
                    0 if at < doc.len() => doc[at] = hostile_line(rng, &lines),
                    1 if at < doc.len() => {
                        doc.remove(at);
                    }
                    2 if at > 1 => {
                        let copy = doc[rng.gen_range(1..at)].clone();
                        doc.insert(at, copy);
                    }
                    _ => doc.insert(at, hostile_line(rng, &lines)),
                }
            }
            let mut text = doc.join("\n");
            if rng.gen_bool(0.8) {
                text.push('\n');
            }
            if rng.gen_bool(0.2) && !text.is_empty() {
                let mut cut = rng.gen_range(0..text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.truncate(cut);
            }
            std::fs::write(&path, &text).expect("write");
            let done = match resume_manifest(&path, &spec, points) {
                Ok(done) => done,
                Err(e) => {
                    let msg = e.to_string();
                    assert!(matches!(e, CampaignError::Manifest { .. }), "{msg}");
                    assert!(msg.contains(&path.display().to_string()), "{msg}");
                    return;
                }
            };
            for (id, line) in &done {
                assert!(*id < points, "{text}");
                assert!(text.split('\n').any(|l| l == line), "{text}");
            }
            assert_eq!(
                resume_manifest(&path, &spec, points).expect("a loaded manifest reloads"),
                done
            );
            let mut opts = crate::CampaignOptions::new(&dir);
            opts.resume = true;
            let outcome = crate::run_campaign(&spec, &opts).expect("resume completes");
            assert_eq!(outcome.skipped, done.len());
            let written = std::fs::read_to_string(&artifact).expect("artifact");
            let ids: Vec<u64> = parse(&written)
                .expect("artifact is JSON")
                .get("points")
                .and_then(Value::as_arr)
                .expect("points")
                .iter()
                .map(|p| p.get("point").and_then(Value::as_u64).expect("id"))
                .collect();
            assert_eq!(ids, (0..points).collect::<Vec<_>>(), "{text}");
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantiles_are_exact_order_statistics_of_the_reps() {
        let spec = SweepSpec::from_json(
            r#"{"name":"quantiles","topology":"complete","reps":9,"seed":5,
                "budget":200000,"axes":{"nodes":[5],"universe":[4]}}"#,
        )
        .expect("valid spec");
        let point = &spec.expand()[0];
        let ctx = compile_point(&spec, point).expect("compiles");
        let times: Vec<f64> = (0..spec.reps)
            .filter_map(|rep| run_rep(&ctx, rep).expect("runs"))
            .collect();
        assert_eq!(times.len() as u64, spec.reps, "every rep completes");
        let line = run_point_line(&spec, point).expect("line");
        let v = parse(&line).expect("JSON");
        let field = |key: &str| v.get(key).and_then(Value::as_f64).expect(key);
        for (key, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            assert_eq!(field(key), quantile(&times, q), "{key} of {line}");
            assert!(
                (field("min")..=field("max")).contains(&field(key)),
                "{line}"
            );
        }
    }

    #[test]
    fn points_with_no_completion_write_null_statistics() {
        let mut spec = SweepSpec::smoke();
        spec.budget = 1;
        let line = run_point(&spec, 3).expect("runs");
        let v = parse(&line).expect("JSON");
        assert_eq!(v.get("completed").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("failures").and_then(Value::as_u64), Some(spec.reps));
        for key in ["mean", "stddev", "min", "max", "p50", "p90", "p99"] {
            assert_eq!(v.get(key), Some(&Value::Null), "{key} of {line}");
        }
    }
}
