//! `mmhew-campaign` — declarative, sharded, resumable parameter sweeps.
//!
//! A *campaign* is a named parameter grid ([`SweepSpec`]) over the
//! quantities the ICDCS 2011 reproduction studies — network size,
//! channel universe, availability, loss, jamming, churn, robustness,
//! start staggering — executed point by point through the unified
//! [`mmhew_discovery::Scenario`] builder and aggregated into a single
//! deterministic JSON artifact.
//!
//! Three properties define the subsystem (each asserted by tests):
//!
//! 1. **Deterministic point addressing** — every repetition's randomness
//!    derives from `(seed, name, point id, rep)` via [`point_seed`], so
//!    any point can be re-run in isolation ([`run_point`]) and produce
//!    the byte-identical manifest line the full campaign would record.
//! 2. **Sharded work stealing** — repetitions are cut into fixed-size
//!    shards and pooled across points through
//!    [`mmhew_harness::parallel_reps`]; shard/thread/chunk layout never
//!    influences results, including floating-point aggregation order.
//! 3. **Resumable checkpoints** — completed points stream into a JSONL
//!    manifest; a re-launch with `resume` skips them, and the final
//!    artifact is byte-identical to an uninterrupted run's.
//!
//! The `campaign` binary (in this crate) drives it from the command
//! line: `campaign --spec sweep.json [--resume] [--jobs N]`, or
//! `campaign --smoke` for the built-in 4-point CI spec. The manifest
//! lines, the `<name>.campaign.json` artifact and `campaign … --point N`
//! are the way to read and replay a sweep.
//!
//! The point-execution and manifest machinery lives in [`points`]; the
//! single-process driver in [`run`] is a thin shell over it.

pub mod points;
pub mod run;
pub mod spec;

pub use points::{manifest_header, point_seed, run_point, MANIFEST_SCHEMA_VERSION};
pub use run::{run_campaign, CampaignError, CampaignOptions, CampaignOutcome};
pub use spec::{AxisSpec, EngineKind, GridMode, Point, SpecError, SweepSpec, AXES};
