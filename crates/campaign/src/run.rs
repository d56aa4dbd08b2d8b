//! Campaign execution: sharded point runs, streaming aggregation, and
//! resumable checkpoints.
//!
//! # Execution model
//!
//! [`run_campaign`] expands the spec into points, drops the ones already
//! recorded in the checkpoint manifest (when resuming), and processes the
//! rest in chunks. Each chunk's repetitions are cut into fixed-size
//! *shards* and the flattened shard list of the whole chunk is handed to
//! [`mmhew_harness::parallel_reps`] — one work-stealing pool across
//! points, so a chunk never idles behind its slowest point.
//!
//! # Determinism
//!
//! Every repetition's seed is derived from
//! `(spec.seed, spec.name, point.id, rep)` via [`crate::points::point_seed`]
//! — never from shard boundaries, chunk boundaries, worker threads, or
//! resume state. Per-point statistics are assembled by merging shard
//! aggregates in shard order, so even the floating-point sums are
//! independent of scheduling; [`crate::points::run_point`] reproduces any
//! point's manifest line byte-for-byte in isolation.
//!
//! # Checkpoints
//!
//! The manifest `<out>/<name>.manifest.jsonl` opens with a spec-echo
//! header line, then gains one JSON line per completed point after each
//! chunk (a whole line per `write`, so a crash leaves at most one torn
//! final line, which resume discards; any other defect fails the resume
//! by name). The final artifact `<out>/<name>.campaign.json` echoes the
//! spec in its canonical form and the manifest lines sorted by point id,
//! written via temp-file rename, so an interrupted-then-resumed campaign
//! produces a byte-identical artifact to an uninterrupted one. The
//! mechanics live in [`crate::points`].

use crate::points::{self, Agg};
use crate::spec::{Point, SweepSpec};
use mmhew_discovery::ProtocolError;
use mmhew_harness::parallel_reps;
use mmhew_topology::BuildError;
use mmhew_util::SeedTree;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Points checkpointed together. A chunk is the failure-atomicity unit:
/// its manifest lines land only after every point in it finished.
const POINTS_PER_CHUNK: usize = 8;

/// How [`run_campaign`] should execute.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Directory for the manifest and artifact (created if missing).
    pub out_dir: PathBuf,
    /// Skip points already present in the manifest instead of starting
    /// over.
    pub resume: bool,
    /// Stop after completing this many *new* points (used by the
    /// interruption tests; `None` = run to completion).
    pub max_points: Option<usize>,
}

impl CampaignOptions {
    /// Fresh (non-resuming) options writing under `out_dir`.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        Self {
            out_dir: out_dir.into(),
            resume: false,
            max_points: None,
        }
    }
}

/// What a campaign run accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Points newly executed by this invocation.
    pub completed: usize,
    /// Points skipped because the manifest already had them.
    pub skipped: usize,
    /// Total points in the spec.
    pub total: usize,
    /// The final artifact, present only when every point is done.
    pub artifact: Option<PathBuf>,
}

/// Campaign failures.
#[derive(Debug)]
pub enum CampaignError {
    /// The spec failed validation.
    Spec(crate::spec::SpecError),
    /// A point's network could not be built.
    Build(BuildError),
    /// A point's protocol stack could not be built.
    Protocol(ProtocolError),
    /// Manifest / artifact I/O on `path` failed.
    Io {
        /// The file or directory the failed operation named.
        path: PathBuf,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// An existing manifest cannot be resumed: line `line` (from 1) of
    /// `path` is unusable, for the reason `problem` gives (another schema
    /// version, another spec, a point outside the grid, …).
    Manifest {
        /// The manifest file.
        path: PathBuf,
        /// The offending line, counted from 1.
        line: usize,
        /// What is wrong with it.
        problem: String,
    },
    /// A record failed to serialize (should not happen).
    Render(String),
    /// [`crate::points::run_point`] was asked for an id outside the grid.
    UnknownPoint(u64),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "{e}"),
            CampaignError::Build(e) => write!(f, "network build failed: {e}"),
            CampaignError::Protocol(e) => write!(f, "protocol build failed: {e}"),
            CampaignError::Io { path, source } => {
                write!(f, "campaign I/O failed on {}: {source}", path.display())
            }
            CampaignError::Manifest {
                path,
                line,
                problem,
            } => write!(f, "manifest {} line {line}: {problem}", path.display()),
            CampaignError::Render(e) => write!(f, "record serialization failed: {e}"),
            CampaignError::UnknownPoint(id) => write!(f, "point {id} is outside the grid"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl CampaignError {
    /// Wraps an I/O failure on `path`; there is deliberately no blanket
    /// `From<io::Error>`, so every call site names the path it touched.
    pub(crate) fn io(path: &Path) -> impl FnOnce(std::io::Error) -> CampaignError + '_ {
        move |source| CampaignError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl From<crate::spec::SpecError> for CampaignError {
    fn from(e: crate::spec::SpecError) -> Self {
        CampaignError::Spec(e)
    }
}

impl From<BuildError> for CampaignError {
    fn from(e: BuildError) -> Self {
        CampaignError::Build(e)
    }
}

impl From<ProtocolError> for CampaignError {
    fn from(e: ProtocolError) -> Self {
        CampaignError::Protocol(e)
    }
}

/// Runs one chunk of points: every shard of every point through a single
/// work-stealing pool, then per-point merges in shard order.
fn run_chunk(spec: &SweepSpec, chunk: &[&Point]) -> Result<Vec<String>, CampaignError> {
    let contexts = chunk
        .iter()
        .map(|p| points::compile_point(spec, p))
        .collect::<Result<Vec<_>, _>>()?;
    let tasks: Vec<(usize, u64, u64)> = contexts
        .iter()
        .enumerate()
        .flat_map(|(i, _)| points::shards(spec.reps).map(move |(start, len)| (i, start, len)))
        .collect();
    // parallel_reps hands each task a derived seed we deliberately ignore:
    // repetition seeds come from point_seed, so shard/task layout can
    // never influence results.
    let shard_results = parallel_reps(tasks.len() as u64, SeedTree::new(0), |t, _seed| {
        let (i, start, len) = tasks[t as usize];
        points::run_shard(&contexts[i], start, len)
    });
    let mut aggs: Vec<Agg> = contexts.iter().map(|_| Agg::new()).collect();
    for ((i, _, _), result) in tasks.iter().zip(shard_results) {
        aggs[*i].merge(result?);
    }
    chunk
        .iter()
        .zip(&aggs)
        .map(|(point, agg)| points::render_record(spec, point, agg))
        .collect()
}

fn manifest_path(spec: &SweepSpec, opts: &CampaignOptions) -> PathBuf {
    opts.out_dir.join(format!("{}.manifest.jsonl", spec.name))
}

fn artifact_path(spec: &SweepSpec, opts: &CampaignOptions) -> PathBuf {
    opts.out_dir.join(format!("{}.campaign.json", spec.name))
}

/// Executes (or resumes) a campaign. See the [module docs](self) for the
/// execution, determinism, and checkpoint model.
///
/// # Errors
///
/// Returns the first spec/build/protocol/I/O failure. The manifest keeps
/// every chunk completed before the failure; re-running with
/// `opts.resume` picks up from there.
pub fn run_campaign(
    spec: &SweepSpec,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, CampaignError> {
    spec.validate()?;
    std::fs::create_dir_all(&opts.out_dir).map_err(CampaignError::io(&opts.out_dir))?;
    let manifest = manifest_path(spec, opts);
    let all = spec.expand();
    let mut done = if opts.resume {
        points::resume_manifest(&manifest, spec, all.len() as u64)?
    } else {
        let done = BTreeMap::new();
        points::write_manifest(&manifest, spec, &done)?;
        done
    };

    let pending: Vec<&Point> = all.iter().filter(|p| !done.contains_key(&p.id)).collect();
    let skipped = all.len() - pending.len();
    let allowance = opts.max_points.unwrap_or(pending.len()).min(pending.len());

    let mut completed = 0;
    for chunk in pending[..allowance].chunks(POINTS_PER_CHUNK) {
        let lines = run_chunk(spec, chunk)?;
        points::append_manifest(&manifest, &lines)?;
        for (point, line) in chunk.iter().zip(lines) {
            done.insert(point.id, line);
        }
        completed += chunk.len();
    }

    let artifact = if done.len() == all.len() {
        Some(points::write_artifact_file(
            spec,
            &artifact_path(spec, opts),
            &done,
        )?)
    } else {
        None
    };
    Ok(CampaignOutcome {
        completed,
        skipped,
        total: all.len(),
        artifact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::run_point;

    #[test]
    fn run_point_matches_chunked_execution() {
        // The isolation API must produce the exact bytes the campaign
        // records: same seeds and same shard-ordered float merges.
        let spec = SweepSpec::smoke();
        let points = spec.expand();
        let chunk: Vec<&Point> = points.iter().collect();
        let lines = run_chunk(&spec, &chunk).expect("chunk runs");
        for point in &points {
            let line = run_point(&spec, point.id).expect("point runs");
            assert_eq!(line, lines[point.id as usize]);
        }
    }
}
