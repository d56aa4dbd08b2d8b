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
//! * The manifest helpers ([`manifest_header`], `ensure_manifest_header`,
//!   `load_manifest`, `append_manifest`, `write_artifact_file`)
//!   implement the checkpoint format: a *spec-echo header* line
//!   (`{"schema_version":…,"spec":…}`) followed by one JSON line per
//!   completed point. Appends are whole lines, so a crash leaves at most
//!   one torn final line; loading drops torn data lines, and a torn or
//!   missing header is rewritten rather than aborting a resume.
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
use mmhew_util::{Histogram, SeedTree, Welford};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Repetitions per shard: small enough that work stealing balances
/// heterogeneous points, large enough to amortize scheduling.
pub(crate) const REPS_PER_SHARD: u64 = 4;

/// Schema version stamped on every manifest line (and therefore on each
/// entry of the artifact's `points` array) and on the spec-echo header.
///
/// Version history:
///
/// * **1** — first stamped shape: `schema_version`, `point`, `params`,
///   `reps`, `completed`, `failures`, `mean`, `stddev`, `min`, `max`,
///   `p50`, `p90`, `p99`. Lines *without* the field (written before
///   versioning existed) are the same shape minus the stamp and are
///   accepted by every reader; lines stamped with a *newer* version are
///   rejected rather than misread. The spec-echo header
///   (`{"schema_version":1,"spec":{…}}`) joined the format later;
///   readers ignore it when absent.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

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

/// Streaming aggregate of one shard (and, after merging, one point).
pub(crate) struct Agg {
    pub(crate) welford: Welford,
    pub(crate) hist: Histogram,
    pub(crate) failures: u64,
}

impl Agg {
    pub(crate) fn new(spec: &SweepSpec) -> Self {
        Self {
            welford: Welford::new(),
            hist: Histogram::new(0.0, spec.budget as f64, spec.hist_bins),
            failures: 0,
        }
    }

    pub(crate) fn merge(&mut self, other: &Agg) {
        self.welford.merge(&other.welford);
        self.hist.merge(&other.hist);
        self.failures += other.failures;
    }
}

pub(crate) fn run_shard(
    spec: &SweepSpec,
    ctx: &PointContext,
    start: u64,
    len: u64,
) -> Result<Agg, ProtocolError> {
    let mut agg = Agg::new(spec);
    for rep in start..start + len {
        match run_rep(ctx, rep)? {
            Some(x) => {
                agg.welford.push(x);
                agg.hist.record(x);
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
/// the statistics.
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
    mean: f64,
    stddev: f64,
    min: f64,
    max: f64,
    p50: f64,
    p90: f64,
    p99: f64,
}

pub(crate) fn render_record(
    spec: &SweepSpec,
    point: &Point,
    agg: &Agg,
) -> Result<String, CampaignError> {
    let record = PointRecord {
        schema_version: MANIFEST_SCHEMA_VERSION,
        point: point.id,
        protocol: point.protocol.as_deref(),
        params: &point.values,
        reps: spec.reps,
        completed: agg.welford.count(),
        failures: agg.failures,
        mean: agg.welford.mean(),
        stddev: agg.welford.stddev(),
        min: agg.welford.min(),
        max: agg.welford.max(),
        p50: agg.hist.quantile(0.5),
        p90: agg.hist.quantile(0.9),
        p99: agg.hist.quantile(0.99),
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
    let mut agg = Agg::new(spec);
    for (start, len) in shards(spec.reps) {
        agg.merge(&run_shard(spec, &ctx, start, len)?);
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
/// belong to. Readers that predate it skip it (no `point` field); resume
/// uses it to refuse continuing one campaign's manifest under a
/// different spec.
pub fn manifest_header(spec: &SweepSpec) -> String {
    format!(
        "{{\"schema_version\":{MANIFEST_SCHEMA_VERSION},\"spec\":{}}}",
        spec.to_json()
    )
}

/// True if this parsed manifest line is a spec-echo header.
fn is_header(v: &Value) -> bool {
    v.get("spec").is_some() && v.get("point").is_none()
}

/// Makes sure the manifest at `path` is an intact checkpoint to append
/// to: a spec-echo header for `spec`, then whole data lines, ending in a
/// newline. The file is created when missing and *rewritten* — keeping
/// surviving data lines verbatim, in file order — when the header is
/// absent, torn mid-write, or predates headers, or when the final data
/// line was torn by a crash (a torn, newline-less tail would otherwise
/// corrupt the next append). A manifest whose intact header echoes a
/// *different* spec is an error: resuming it would silently mix two
/// campaigns in one file.
///
/// # Errors
///
/// Returns [`CampaignError::Manifest`] on a spec mismatch, or any I/O
/// failure.
pub(crate) fn ensure_manifest_header(path: &Path, spec: &SweepSpec) -> Result<(), CampaignError> {
    let header = manifest_header(spec);
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(CampaignError::io(path)(e)),
    };
    let header_intact = match text.lines().next().map(parse) {
        Some(Ok(v)) if is_header(&v) => {
            // An intact header: either ours or some other campaign's
            // (refuse rather than mixing manifests).
            if v.get("spec").map(Value::to_json).unwrap_or_default() != spec.to_json() {
                return Err(CampaignError::Manifest(format!(
                    "{} already holds a manifest for a different spec \
                     (echoed name {:?}); refusing to mix campaigns",
                    path.display(),
                    v.get("spec")
                        .and_then(|s| s.get("name"))
                        .and_then(Value::as_str)
                        .unwrap_or("<unknown>")
                )));
            }
            true
        }
        _ => false,
    };
    let clean = header_intact
        && text.ends_with('\n')
        && text.lines().skip(1).all(|line| {
            parse(line).is_ok_and(|v| v.get("point").and_then(Value::as_u64).is_some())
        });
    if clean {
        return Ok(());
    }
    // Missing file, empty file, torn header, pre-header manifest, or a
    // torn trailing data line: rewrite as header + surviving data lines
    // (temp file + rename, so a crash here leaves the original intact).
    let mut out = header;
    out.push('\n');
    for line in text.lines() {
        if let Ok(v) = parse(line) {
            if v.get("point").and_then(Value::as_u64).is_some() {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    let tmp = path.with_extension("jsonl.tmp");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(CampaignError::io(parent))?;
    }
    std::fs::write(&tmp, out).map_err(CampaignError::io(&tmp))?;
    std::fs::rename(&tmp, path).map_err(CampaignError::io(path))?;
    Ok(())
}

/// Reads the completed-point map from an existing manifest, dropping the
/// spec-echo header, a torn trailing line (crash mid-append) and anything
/// unparseable. Unversioned lines (pre-[`MANIFEST_SCHEMA_VERSION`]
/// manifests) load fine; a line stamped with a newer schema is an error —
/// resuming on top of it would mix shapes in one file.
pub(crate) fn load_manifest(path: &Path) -> Result<BTreeMap<u64, String>, CampaignError> {
    let mut done = BTreeMap::new();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(done),
        Err(e) => return Err(CampaignError::io(path)(e)),
    };
    for line in text.lines() {
        if let Ok(v) = parse(line) {
            let version = v.get("schema_version").and_then(Value::as_u64).unwrap_or(0);
            if version > MANIFEST_SCHEMA_VERSION as u64 {
                return Err(CampaignError::Manifest(format!(
                    "{} has schema_version {version}, newer than the supported {}",
                    path.display(),
                    MANIFEST_SCHEMA_VERSION
                )));
            }
            if let Some(id) = v.get("point").and_then(Value::as_u64) {
                done.insert(id, line.to_string());
            }
        }
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
    let spec_json =
        mmhew_obs::json::to_string(spec).map_err(|e| CampaignError::Render(e.to_string()))?;
    let mut out = format!("{{\"spec\":{spec_json},\"points\":[\n");
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
        a.hist_bins += 1;
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

    #[test]
    fn manifest_loader_drops_torn_lines_and_header() {
        let dir = std::env::temp_dir().join("mmhew-campaign-torn");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("m.jsonl");
        let header = manifest_header(&SweepSpec::smoke());
        std::fs::write(
            &path,
            format!("{header}\n{{\"point\":0,\"mean\":1}}\n{{\"point\":1,\"me"),
        )
        .expect("write");
        let done = load_manifest(&path).expect("load");
        assert_eq!(done.len(), 1);
        assert!(done.contains_key(&0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_loader_versioning() {
        let dir = std::env::temp_dir().join("mmhew-campaign-schema");
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Unversioned (pre-stamp) and current-version lines both load.
        let ok = dir.join("ok.jsonl");
        std::fs::write(
            &ok,
            "{\"point\":0,\"mean\":1}\n{\"schema_version\":1,\"point\":1,\"mean\":2}\n",
        )
        .expect("write");
        let done = load_manifest(&ok).expect("load");
        assert_eq!(done.len(), 2);

        // A newer stamp is an error, not a silent misread.
        let newer = dir.join("newer.jsonl");
        std::fs::write(&newer, "{\"schema_version\":999,\"point\":0,\"mean\":1}\n").expect("write");
        let err = load_manifest(&newer).expect_err("must refuse");
        assert!(err.to_string().contains("newer than the supported"));

        std::fs::remove_file(&ok).ok();
        std::fs::remove_file(&newer).ok();
    }

    #[test]
    fn header_rewrite_tolerates_torn_and_legacy_manifests() {
        let dir = std::env::temp_dir().join("mmhew-campaign-header");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = SweepSpec::smoke();
        let header = manifest_header(&spec);

        // Missing file: header gets created.
        let fresh = dir.join("fresh.jsonl");
        ensure_manifest_header(&fresh, &spec).expect("create");
        assert_eq!(
            std::fs::read_to_string(&fresh).expect("read"),
            format!("{header}\n")
        );

        // Torn header (crash mid-initial-write): rewritten, not an abort.
        let torn = dir.join("torn.jsonl");
        std::fs::write(&torn, &header[..header.len() / 2]).expect("write");
        ensure_manifest_header(&torn, &spec).expect("rewrite");
        assert_eq!(
            std::fs::read_to_string(&torn).expect("read"),
            format!("{header}\n")
        );

        // Legacy manifest (data lines, no header): header prepended, data
        // lines preserved verbatim; a torn final data line is dropped.
        let legacy = dir.join("legacy.jsonl");
        std::fs::write(
            &legacy,
            "{\"point\":0,\"mean\":1}\n{\"point\":1,\"mean\":2}\n{\"point\":2,\"me",
        )
        .expect("write");
        ensure_manifest_header(&legacy, &spec).expect("rewrite");
        assert_eq!(
            std::fs::read_to_string(&legacy).expect("read"),
            format!("{header}\n{{\"point\":0,\"mean\":1}}\n{{\"point\":1,\"mean\":2}}\n")
        );

        // Intact matching header: file left byte-identical.
        let before = std::fs::read(&legacy).expect("read");
        ensure_manifest_header(&legacy, &spec).expect("noop");
        assert_eq!(std::fs::read(&legacy).expect("read"), before);

        // Intact header for a different spec: hard error.
        let mut other = SweepSpec::smoke();
        other.seed ^= 1;
        let err = ensure_manifest_header(&legacy, &other).expect_err("must refuse");
        assert!(err.to_string().contains("different spec"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
