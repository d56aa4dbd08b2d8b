//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names a parameter grid over the quantities the
//! reproduction sweeps in its experiments — network size, universe size,
//! availability, loss, jamming, churn, robustness, start staggering —
//! plus the fixed scaffolding (engine, algorithm, topology, repetitions,
//! master seed, slot budget). [`SweepSpec::expand`] turns the grid into a
//! flat list of numbered [`Point`]s; the campaign engine
//! ([`crate::run_campaign`]) compiles each point into a
//! [`mmhew_discovery::Scenario`] and measures it.
//!
//! Specs are written as JSON (parsed by [`SweepSpec::from_json`] through
//! the dependency-free [`mmhew_obs::value`] parser):
//!
//! ```json
//! {
//!   "name": "loss-vs-n",
//!   "engine": "sync",
//!   "algorithm": "staged",
//!   "topology": "ring",
//!   "mode": "cartesian",
//!   "reps": 20,
//!   "seed": 7,
//!   "budget": 400000,
//!   "axes": { "nodes": [8, 16, 32], "loss": [0, 0.1, 0.3] }
//! }
//! ```
//!
//! Every point is independently addressable: its seed derives from
//! `(spec.seed, spec.name, point.id)` alone (see
//! [`crate::points::point_seed`]), never from which shard or process ran
//! it.

use mmhew_obs::value::{parse, ParseError, Value};
use mmhew_rivals::Family;
use std::fmt;

/// The engines a spec may name, by [`Family::label`]: `sync` runs
/// [`mmhew_discovery::Scenario::sync`], `async`
/// [`mmhew_discovery::Scenario::asynchronous`].
const ENGINES: [Family; 2] = [Family::Sync, Family::Async];

/// How multiple axes combine into points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridMode {
    /// Cartesian product of all axes (last axis varies fastest).
    Cartesian,
    /// Position-wise zip; all axes must have equal length.
    Zip,
}

/// One swept parameter: a known axis name and its value list.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// Axis name (one of [`AXES`]).
    pub name: String,
    /// Values, in sweep order.
    pub values: Vec<f64>,
}

/// The closed axis vocabulary and each axis's default when not swept.
///
/// * `nodes` — network size (default 16)
/// * `universe` — channel universe size `|U|` (default 8)
/// * `avail` — channels per node; 0 means the full universe (default 0)
/// * `delta-est` — degree estimate Δ̂; 0 means the true max degree
/// * `loss` — Bernoulli loss probability on every link, in `[0, 1)`
/// * `jam` — number of channels jammed (the first `k` of the universe)
/// * `churn-rate` — expected node departures per slot (Poisson)
/// * `robust` — repetition factor `r` of the robust wrapper; 0 disables
/// * `start-window` — staggered-start window in slots; 0 = identical
pub const AXES: &[(&str, f64)] = &[
    ("nodes", 16.0),
    ("universe", 8.0),
    ("avail", 0.0),
    ("delta-est", 0.0),
    ("loss", 0.0),
    ("jam", 0.0),
    ("churn-rate", 0.0),
    ("robust", 0.0),
    ("start-window", 0.0),
];

/// Axes that only exist on the slot-synchronous engine.
pub const SYNC_ONLY_AXES: &[&str] = &["jam", "churn-rate", "robust", "start-window"];

/// The integral axes, each with the integer type a point casts it to and
/// that type's exclusive upper bound as an `f64`.
const INTEGRAL_AXES: &[(&str, &str, f64)] = &[
    ("nodes", "u64", U64_END),
    ("universe", "u16", U16_END),
    ("avail", "u16", U16_END),
    ("delta-est", "u64", U64_END),
    ("jam", "u16", U16_END),
    ("robust", "u64", U64_END),
    ("start-window", "u64", U64_END),
];
const U16_END: f64 = 65_536.0;
/// 2⁶⁴, exactly representable.
const U64_END: f64 = 18_446_744_073_709_551_616.0;

/// Most points one spec may expand to (numeric grid × protocols). The
/// largest shipped spec has 20.
const MAX_POINTS: u64 = 1 << 20;

/// Most repetitions per point; a point keeps one work item per four
/// repetitions in memory.
const MAX_REPS: u64 = 1 << 20;

/// The top-level keys of a spec document, in canonical order.
const SPEC_KEYS: &[&str] = &[
    "name",
    "engine",
    "algorithm",
    "topology",
    "edge-prob",
    "mode",
    "reps",
    "seed",
    "budget",
    "churn-downtime",
    "axes",
];

/// A complete sweep description. See the [module docs](self) for the JSON
/// shape; construct programmatically for built-ins like [`SweepSpec::smoke`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Campaign name: file-name-safe (`[A-Za-z0-9._-]+`), keyed into the
    /// seed derivation so renaming a campaign re-randomizes it.
    pub name: String,
    /// Engine selection, written as its [`Family::label`].
    pub engine: Family,
    /// Algorithm: `staged` | `adaptive` | `uniform` | `baseline` (sync),
    /// `frame-based` (async).
    pub algorithm: String,
    /// Topology family: `complete` | `line` | `ring` | `star` | `er`.
    pub topology: String,
    /// Edge probability when `topology == "er"`.
    pub edge_prob: f64,
    /// Axis combination mode.
    pub mode: GridMode,
    /// Repetitions per point.
    pub reps: u64,
    /// Master seed; every point's randomness derives from it.
    pub seed: u64,
    /// Slot (sync) / frame (async) budget per repetition.
    pub budget: u64,
    /// Mean downtime (slots) of churned nodes when `churn-rate` is swept.
    pub churn_downtime: f64,
    /// The categorical `protocol` axis: catalog names
    /// ([`mmhew_rivals::catalog`]) swept head-to-head. Empty when the
    /// axis is absent; when present it overrides `algorithm` per point
    /// and multiplies the numeric grid (even in zip mode), varying
    /// slowest. Kept out of `axes` because its values are strings, not
    /// numbers.
    pub protocols: Vec<String>,
    /// The swept numeric axes, in declaration order.
    pub axes: Vec<AxisSpec>,
}

/// One grid point: an id, the protocol (when the categorical `protocol`
/// axis is swept), and the swept numeric axes' values.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Position in the expansion order; stable for a given spec.
    pub id: u64,
    /// Catalog protocol name when the `protocol` axis is swept.
    pub protocol: Option<String>,
    /// `(axis name, value)` pairs in the spec's axis order.
    pub values: Vec<(String, f64)>,
}

impl Point {
    /// The value of `axis` at this point: the swept value if the axis is
    /// swept, otherwise its default from [`AXES`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown axis name (validation guarantees specs only
    /// carry known axes).
    pub fn axis(&self, axis: &str) -> f64 {
        if let Some((_, v)) = self.values.iter().find(|(n, _)| n == axis) {
            return *v;
        }
        AXES.iter()
            .find(|(n, _)| *n == axis)
            .map(|(_, d)| *d)
            .unwrap_or_else(|| panic!("unknown axis {axis:?}"))
    }
}

/// Spec construction / validation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The JSON text did not parse.
    Json(ParseError),
    /// A required field is missing or has the wrong type.
    Field(&'static str),
    /// A top-level key the spec format does not have (a typo, or a key
    /// an older format had).
    UnknownKey(String),
    /// A field has a structurally valid but unacceptable value.
    Invalid(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "spec is not valid JSON: {e}"),
            SpecError::Field(name) => write!(f, "spec field {name:?} missing or wrong type"),
            SpecError::UnknownKey(key) => write!(
                f,
                "unknown spec key {key:?} (accepted: {})",
                SPEC_KEYS.join(", ")
            ),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The string at `key` of `doc`: `default` when the key is absent, and
/// [`SpecError::Field`] naming `key` when it holds anything but a string.
fn str_field<'a>(
    doc: &'a Value,
    key: &'static str,
    default: &'a str,
) -> Result<&'a str, SpecError> {
    doc.get(key)
        .map_or(Ok(default), |v| v.as_str().ok_or(SpecError::Field(key)))
}

impl SweepSpec {
    /// Parses and validates a JSON spec document.
    ///
    /// Only `name` and `axes` are required; everything else defaults
    /// (`sync` / `staged` / `complete` / `cartesian`, 5 reps, seed 1,
    /// budget 1 000 000). An axis may be given as a single number as
    /// shorthand for a one-element list (pinning it without sweeping).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on malformed JSON, unknown top-level keys,
    /// missing fields, unknown axes / algorithms / topologies,
    /// inconsistent grids, or numbers outside the bounds
    /// [`SweepSpec::validate`] enforces.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let doc = parse(text).map_err(SpecError::Json)?;
        if let Value::Obj(fields) = &doc {
            if let Some((key, _)) = fields
                .iter()
                .find(|(k, _)| !SPEC_KEYS.contains(&k.as_str()))
            {
                return Err(SpecError::UnknownKey(key.clone()));
            }
        }
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or(SpecError::Field("name"))?
            .to_string();
        let label = str_field(&doc, "engine", "sync")?;
        let engine = ENGINES
            .into_iter()
            .find(|family| family.label() == label)
            .ok_or_else(|| {
                SpecError::Invalid(format!("engine {label:?} (expected \"sync\" or \"async\")"))
            })?;
        let mode = match str_field(&doc, "mode", "cartesian")? {
            "cartesian" => GridMode::Cartesian,
            "zip" => GridMode::Zip,
            other => {
                return Err(SpecError::Invalid(format!(
                    "mode {other:?} (expected \"cartesian\" or \"zip\")"
                )))
            }
        };
        let field_u64 = |key: &'static str, default: u64| -> Result<u64, SpecError> {
            match doc.get(key) {
                None => Ok(default),
                // `as_u64` refuses a non-negative integer only from 2⁵³
                // on, where a JSON number, read as a double, may already
                // have been rounded to another integer.
                Some(v) => v.as_u64().ok_or_else(|| match v.as_f64() {
                    Some(x) if x >= 0.0 && x.fract() == 0.0 => SpecError::Invalid(format!(
                        "{key:?} must be below 2^53 = 9007199254740992, past which \
                         JSON numbers lose integer precision"
                    )),
                    _ => SpecError::Field(key),
                }),
            }
        };
        let field_f64 = |key: &'static str, default: f64| -> Result<f64, SpecError> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v.as_f64().ok_or(SpecError::Field(key)),
            }
        };
        let axes_doc = match doc.get("axes") {
            Some(Value::Obj(fields)) => fields,
            _ => return Err(SpecError::Field("axes")),
        };
        let mut axes = Vec::new();
        let mut protocols = Vec::new();
        for (axis, values) in axes_doc {
            // The `protocol` axis is categorical: its values are catalog
            // names, not numbers. Every other axis is numeric.
            if axis == "protocol" {
                let string_value = |v: &Value| -> Result<String, SpecError> {
                    v.as_str().map(str::to_string).ok_or_else(|| {
                        SpecError::Invalid(
                            "axis \"protocol\" takes catalog names (strings)".to_string(),
                        )
                    })
                };
                protocols = match values {
                    Value::Str(_) => vec![string_value(values)?],
                    Value::Arr(items) => {
                        items.iter().map(string_value).collect::<Result<_, _>>()?
                    }
                    _ => {
                        return Err(SpecError::Invalid(
                            "axis \"protocol\" takes catalog names (strings)".to_string(),
                        ))
                    }
                };
                continue;
            }
            let numeric_value = |v: &Value| -> Result<f64, SpecError> {
                v.as_f64().ok_or_else(|| {
                    SpecError::Invalid(format!(
                        "axis {axis:?} takes numbers (only \"protocol\" takes strings)"
                    ))
                })
            };
            let values = match values {
                Value::Num(n) => vec![*n],
                Value::Arr(items) => items.iter().map(numeric_value).collect::<Result<_, _>>()?,
                _ => {
                    return Err(SpecError::Invalid(format!(
                        "axis {axis:?} takes a number or an array of numbers"
                    )))
                }
            };
            axes.push(AxisSpec {
                name: axis.clone(),
                values,
            });
        }
        let spec = SweepSpec {
            name,
            engine,
            algorithm: str_field(
                &doc,
                "algorithm",
                match engine {
                    Family::Sync => "staged",
                    Family::Async => "frame-based",
                },
            )?
            .to_string(),
            topology: str_field(&doc, "topology", "complete")?.to_string(),
            edge_prob: field_f64("edge-prob", 0.3)?,
            mode,
            reps: field_u64("reps", 5)?,
            seed: field_u64("seed", 1)?,
            budget: field_u64("budget", 1_000_000)?,
            churn_downtime: field_f64("churn-downtime", 2_000.0)?,
            protocols,
            axes,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the spec back to the canonical JSON document shape
    /// [`SweepSpec::from_json`] reads (kebab-case field names, axes as an
    /// ordered object) — `from_json(spec.to_json())` reconstructs the
    /// spec exactly. The manifest's spec-echo header records this form,
    /// and resume compares it to refuse mixing two campaigns in one
    /// manifest.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"name\":");
        mmhew_obs::value::write_json_string(&mut out, &self.name);
        let _ = write!(out, ",\"engine\":\"{}\"", self.engine.label());
        out.push_str(",\"algorithm\":");
        mmhew_obs::value::write_json_string(&mut out, &self.algorithm);
        out.push_str(",\"topology\":");
        mmhew_obs::value::write_json_string(&mut out, &self.topology);
        let _ = write!(
            out,
            ",\"edge-prob\":{},\"mode\":\"{}\",\"reps\":{},\"seed\":{},\"budget\":{},\
             \"churn-downtime\":{},\"axes\":{{",
            self.edge_prob,
            match self.mode {
                GridMode::Cartesian => "cartesian",
                GridMode::Zip => "zip",
            },
            self.reps,
            self.seed,
            self.budget,
            self.churn_downtime
        );
        // Canonical position: the categorical protocol axis always leads
        // the axes object, so reserialization is idempotent regardless of
        // where the author wrote it.
        if !self.protocols.is_empty() {
            out.push_str("\"protocol\":[");
            for (j, name) in self.protocols.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                mmhew_obs::value::write_json_string(&mut out, name);
            }
            out.push(']');
        }
        for (i, axis) in self.axes.iter().enumerate() {
            if i > 0 || !self.protocols.is_empty() {
                out.push(',');
            }
            mmhew_obs::value::write_json_string(&mut out, &axis.name);
            out.push_str(":[");
            for (j, v) in axis.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }

    /// The built-in 4-point smoke spec CI runs: 2×2 over `nodes` ×
    /// `universe` on small complete graphs, 2 reps each.
    pub fn smoke() -> Self {
        let spec = SweepSpec {
            name: "smoke".to_string(),
            engine: Family::Sync,
            algorithm: "staged".to_string(),
            topology: "complete".to_string(),
            edge_prob: 0.3,
            mode: GridMode::Cartesian,
            reps: 2,
            seed: 7,
            budget: 200_000,
            churn_downtime: 2_000.0,
            protocols: vec![],
            axes: vec![
                AxisSpec {
                    name: "nodes".to_string(),
                    values: vec![4.0, 6.0],
                },
                AxisSpec {
                    name: "universe".to_string(),
                    values: vec![4.0, 6.0],
                },
            ],
        };
        spec.validate().expect("built-in smoke spec is valid");
        spec
    }

    /// Checks every invariant the campaign engine relies on, including a
    /// bound on every number the spec carries: at most 2²⁰ points and
    /// 2²⁰ repetitions; `edge-prob` in `[0, 1]`; a
    /// positive finite `churn-downtime`; and integral axes (`nodes`,
    /// `universe`, `avail`, `delta-est`, `jam`, `robust`,
    /// `start-window`) holding integers that fit the type each point
    /// casts them to.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] describing the first violation.
    pub fn validate(&self) -> Result<(), SpecError> {
        let err = |msg: String| Err(SpecError::Invalid(msg));
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return err(format!(
                "name {:?} must be non-empty and file-name-safe ([A-Za-z0-9._-])",
                self.name
            ));
        }
        let algorithms: &[&str] = match self.engine {
            Family::Sync => &["staged", "adaptive", "uniform", "baseline"],
            Family::Async => &["frame-based"],
        };
        if !algorithms.contains(&self.algorithm.as_str()) {
            return err(format!(
                "algorithm {:?} (this engine allows {algorithms:?})",
                self.algorithm
            ));
        }
        const TOPOLOGIES: &[&str] = &["complete", "line", "ring", "star", "er"];
        if !TOPOLOGIES.contains(&self.topology.as_str()) {
            return err(format!(
                "topology {:?} (expected one of {TOPOLOGIES:?})",
                self.topology
            ));
        }
        if !(1..=MAX_REPS).contains(&self.reps) {
            return err(format!("reps must be in 1..={MAX_REPS}"));
        }
        if self.budget == 0 {
            return err("budget must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.edge_prob) {
            return err(format!("edge-prob {} must be in [0, 1]", self.edge_prob));
        }
        if !(self.churn_downtime.is_finite() && self.churn_downtime > 0.0) {
            return err(format!(
                "churn-downtime {} must be positive and finite",
                self.churn_downtime
            ));
        }
        if self.axes.is_empty() && self.protocols.is_empty() {
            return err("at least one axis must be swept".to_string());
        }
        for (i, name) in self.protocols.iter().enumerate() {
            let accepted = mmhew_rivals::catalog::names(self.engine);
            match mmhew_rivals::catalog::by_name(name) {
                None => {
                    return err(format!(
                        "axis \"protocol\": unknown protocol {name:?} (this engine accepts {accepted:?})"
                    ))
                }
                Some(kind) if kind.family != self.engine => {
                    return err(format!(
                        "axis \"protocol\": {name:?} runs on the {} engine only (this engine accepts {accepted:?})",
                        kind.family.label()
                    ))
                }
                Some(_) => {}
            }
            if self.protocols[..i].iter().any(|p| p == name) {
                return err(format!("axis \"protocol\": {name:?} listed twice"));
            }
        }
        for (i, axis) in self.axes.iter().enumerate() {
            if !AXES.iter().any(|(n, _)| *n == axis.name) {
                let known: Vec<&str> = AXES.iter().map(|(n, _)| *n).collect();
                return err(format!("unknown axis {:?} (known: {known:?})", axis.name));
            }
            if self.axes[..i].iter().any(|a| a.name == axis.name) {
                return err(format!("axis {:?} listed twice", axis.name));
            }
            if axis.values.is_empty() {
                return err(format!("axis {:?} has no values", axis.name));
            }
            if axis.values.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return err(format!(
                    "axis {:?} values must be finite and ≥ 0",
                    axis.name
                ));
            }
            if axis.name == "loss" && axis.values.iter().any(|v| *v >= 1.0) {
                return err("axis \"loss\": Bernoulli loss probabilities must be < 1".to_string());
            }
            if let Some((_, ty, end)) = INTEGRAL_AXES.iter().find(|(n, _, _)| *n == axis.name) {
                if let Some(v) = axis.values.iter().find(|v| v.fract() != 0.0 || **v >= *end) {
                    return err(format!(
                        "axis {:?} takes integers that fit {ty}, not {v}",
                        axis.name
                    ));
                }
            }
            if self.engine == Family::Async && SYNC_ONLY_AXES.contains(&axis.name.as_str()) {
                return err(format!(
                    "axis {:?} is slot-synchronous only (async engine has no {})",
                    axis.name,
                    match axis.name.as_str() {
                        "jam" | "churn-rate" => "slot-indexed fault/dynamics schedules here",
                        "robust" => "robust wrapper",
                        _ => "start schedule",
                    }
                ));
            }
        }
        if self.mode == GridMode::Zip {
            if let Some(first) = self.axes.first() {
                let len = first.values.len();
                if let Some(odd) = self.axes.iter().find(|a| a.values.len() != len) {
                    return err(format!(
                        "zip mode requires equal-length axes: axis {:?} has {} values but axis {:?} has {len}",
                        odd.name,
                        odd.values.len(),
                        first.name
                    ));
                }
            }
        }
        // Before the storage cap, which visits every nodes × universe pair.
        match self.grid_len(self.protocols.len().max(1) as u64) {
            Some(points) if points <= MAX_POINTS => {}
            Some(points) => {
                return err(format!(
                    "{points} grid points, over the cap of {MAX_POINTS}"
                ))
            }
            None => {
                return err(format!(
                    "grid point count overflows u64, over the cap of {MAX_POINTS}"
                ))
            }
        }
        self.validate_storage_cap()?;
        Ok(())
    }

    /// Rejects any grid point whose network storage would exceed the
    /// memory cap, naming the estimate up front instead of letting a
    /// worker OOM mid-campaign. The estimate counts the `nodes × universe`
    /// offsets and availability words and the directed links the
    /// topology implies (`N·(N−1)` for `complete`, the expected
    /// `p·N·(N−1)` for `er`). Covers exactly the pairs the grid can
    /// produce: zipped index pairs when both axes are swept in zip mode,
    /// the full cross product otherwise.
    fn validate_storage_cap(&self) -> Result<(), SpecError> {
        let axis_values = |name: &str| -> Vec<f64> {
            self.axes
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.values.clone())
                .unwrap_or_else(|| {
                    vec![AXES
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, d)| *d)
                        .unwrap_or(0.0)]
                })
        };
        let nodes = axis_values("nodes");
        let universe = axis_values("universe");
        let both_swept = self.axes.iter().any(|a| a.name == "nodes")
            && self.axes.iter().any(|a| a.name == "universe");
        let pairs: Vec<(f64, f64)> = if self.mode == GridMode::Zip && both_swept {
            nodes
                .iter()
                .copied()
                .zip(universe.iter().copied())
                .collect()
        } else {
            nodes
                .iter()
                .flat_map(|&n| universe.iter().map(move |&u| (n, u)))
                .collect()
        };
        let links = |n: u64| match self.topology.as_str() {
            "complete" => n.saturating_mul(n.saturating_sub(1)),
            // A float-to-integer cast saturates, so a huge product cannot wrap.
            "er" => (self.edge_prob * n as f64 * n.saturating_sub(1) as f64).ceil() as u64,
            "ring" => n.saturating_mul(2),
            // `line` and `star`: N − 1 edges, each in both directions.
            _ => n.saturating_sub(1).saturating_mul(2),
        };
        for (n, u) in pairs {
            let n = n as u64;
            mmhew_topology::check_storage_cap(n, u as u16, links(n)).map_err(|e| {
                SpecError::Invalid(format!(
                    "axes \"nodes\" × \"universe\" on topology {:?}: {e}",
                    self.topology
                ))
            })?;
        }
        Ok(())
    }

    /// The number of points in the numeric grid alone, ignoring the
    /// categorical `protocol` axis. Point ids relate to it by
    /// `id = protocol_index * numeric_grid_len + numeric_id`, and the
    /// per-point seed derivation reduces ids modulo it so every protocol
    /// sees identical per-point randomness (matched head-to-head runs).
    /// Saturates at `u64::MAX`; a valid spec has at most 2²⁰ points.
    pub fn numeric_grid_len(&self) -> u64 {
        self.grid_len(1).unwrap_or(u64::MAX)
    }

    /// The numeric grid's point count times `copies`, or `None` when it
    /// overflows `u64`.
    fn grid_len(&self, copies: u64) -> Option<u64> {
        let numeric = match self.mode {
            GridMode::Zip => self.axes.first().map_or(1, |a| a.values.len() as u64),
            GridMode::Cartesian => self
                .axes
                .iter()
                .try_fold(1u64, |n, a| n.checked_mul(a.values.len() as u64))?,
        };
        numeric.checked_mul(copies)
    }

    /// Expands the grid into numbered points, cartesian (last axis
    /// fastest) or zipped. The categorical `protocol` axis multiplies the
    /// numeric grid in both modes (zip pairs numeric axes only) and
    /// varies slowest. The order — hence every point id — is a pure
    /// function of the spec. Expand only a validated spec: validation is
    /// what bounds the number of points allocated here.
    pub fn expand(&self) -> Vec<Point> {
        let numeric: Vec<Point> = if self.axes.is_empty() {
            vec![Point {
                id: 0,
                protocol: None,
                values: Vec::new(),
            }]
        } else {
            match self.mode {
                GridMode::Zip => (0..self.axes[0].values.len())
                    .map(|i| Point {
                        id: i as u64,
                        protocol: None,
                        values: self
                            .axes
                            .iter()
                            .map(|a| (a.name.clone(), a.values[i]))
                            .collect(),
                    })
                    .collect(),
                GridMode::Cartesian => (0..self.numeric_grid_len())
                    .map(|id| {
                        let mut flat = id as usize;
                        let mut values = vec![(String::new(), 0.0); self.axes.len()];
                        for (slot, axis) in values.iter_mut().zip(&self.axes).rev() {
                            let k = axis.values.len();
                            *slot = (axis.name.clone(), axis.values[flat % k]);
                            flat /= k;
                        }
                        Point {
                            id,
                            protocol: None,
                            values,
                        }
                    })
                    .collect(),
            }
        };
        if self.protocols.is_empty() {
            return numeric;
        }
        let stride = numeric.len() as u64;
        self.protocols
            .iter()
            .enumerate()
            .flat_map(|(pi, name)| {
                numeric.iter().map(move |p| Point {
                    id: pi as u64 * stride + p.id,
                    protocol: Some(name.clone()),
                    values: p.values.clone(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_util::{prop, Xoshiro256StarStar};
    use rand::Rng;

    #[test]
    fn cartesian_expansion_orders_last_axis_fastest() {
        let mut spec = SweepSpec::smoke();
        spec.axes[0].values = vec![4.0, 8.0];
        spec.axes[1].values = vec![2.0, 3.0, 5.0];
        let points = spec.expand();
        assert_eq!(points.len(), 6);
        assert_eq!(
            points[0].values,
            vec![("nodes".into(), 4.0), ("universe".into(), 2.0)]
        );
        assert_eq!(points[1].axis("universe"), 3.0);
        assert_eq!(
            points[3].values,
            vec![("nodes".into(), 8.0), ("universe".into(), 2.0)]
        );
        assert!(points.iter().enumerate().all(|(i, p)| p.id == i as u64));
    }

    #[test]
    fn zip_mode_pairs_positionally() {
        let mut spec = SweepSpec::smoke();
        spec.mode = GridMode::Zip;
        let points = spec.expand();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].axis("nodes"), 6.0);
        assert_eq!(points[1].axis("universe"), 6.0);

        spec.axes[1].values.push(9.0);
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn unswept_axes_fall_back_to_defaults() {
        let p = SweepSpec::smoke().expand().remove(0);
        assert_eq!(p.axis("loss"), 0.0);
        assert_eq!(p.axis("delta-est"), 0.0);
        assert_eq!(p.axis("start-window"), 0.0);
    }

    #[test]
    fn json_parsing_with_defaults_and_shorthand() {
        let spec = SweepSpec::from_json(
            r#"{"name": "t", "seed": 9,
                "axes": {"nodes": [8, 16], "loss": 0.2}}"#,
        )
        .expect("valid");
        assert_eq!(spec.engine, Family::Sync);
        assert_eq!(spec.algorithm, "staged");
        assert_eq!(spec.reps, 5);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.axes[1].values, vec![0.2]);
        assert_eq!(spec.expand().len(), 2);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let bad = |text: &str| SweepSpec::from_json(text).expect_err("must fail");
        assert!(matches!(bad("{"), SpecError::Json(_)));
        assert!(matches!(
            bad(r#"{"axes": {"nodes": [4]}}"#),
            SpecError::Field("name")
        ));
        assert!(matches!(bad(r#"{"name": "t"}"#), SpecError::Field("axes")));
        let e = bad(r#"{"name": "t", "axes": {"speed": [1]}}"#);
        assert!(e.to_string().contains("unknown axis"));
        let e = bad(r#"{"name": "t", "axes": {"loss": [1.5]}}"#);
        assert!(e.to_string().contains("loss"));
        let e = bad(r#"{"name": "bad/name", "axes": {"nodes": [4]}}"#);
        assert!(e.to_string().contains("file-name-safe"));
        let e = bad(r#"{"name": "t", "engine": "async", "axes": {"jam": [1]}}"#);
        assert!(e.to_string().contains("slot-synchronous only"));
        let e = bad(r#"{"name": "t", "algorithm": "alg9", "axes": {"nodes": [4]}}"#);
        assert!(e.to_string().contains("algorithm"));
        let e = bad(r#"{"name": "t", "engine": "sync-event", "axes": {"nodes": [4]}}"#);
        assert_eq!(
            e.to_string(),
            r#"invalid spec: engine "sync-event" (expected "sync" or "async")"#
        );
    }

    #[test]
    fn integers_from_two_to_the_53_are_refused_with_the_field_and_limit() {
        // 2⁵³ + 1 parses as 2⁵³, so both would run as the same seed.
        for (key, value) in [
            ("seed", "9007199254740993"),
            ("seed", "9007199254740992"),
            ("budget", "1e300"),
        ] {
            let text = format!(r#"{{"name": "t", "{key}": {value}, "axes": {{"nodes": [4]}}}}"#);
            let msg = SweepSpec::from_json(&text)
                .expect_err("must fail")
                .to_string();
            assert!(msg.contains(&format!("{key:?}")), "{msg}");
            assert!(msg.contains("2^53 = 9007199254740992"), "{msg}");
        }
        let spec = SweepSpec::from_json(
            r#"{"name": "t", "seed": 9007199254740991, "axes": {"nodes": [4]}}"#,
        )
        .expect("2^53 - 1 is exact");
        assert_eq!(spec.seed, 9_007_199_254_740_991);
        // A fraction or a negative number is still a wrong type.
        assert_eq!(
            SweepSpec::from_json(r#"{"name": "t", "reps": 2.5, "axes": {"nodes": [4]}}"#),
            Err(SpecError::Field("reps"))
        );
    }

    #[test]
    fn unknown_top_level_keys_are_named_with_the_accepted_list() {
        for key in ["budjet", "hist-bins", "axis"] {
            let text = format!(r#"{{"name": "t", "{key}": 5, "axes": {{"nodes": [4]}}}}"#);
            let e = SweepSpec::from_json(&text).expect_err("must fail");
            assert_eq!(e, SpecError::UnknownKey(key.to_string()));
            let msg = e.to_string();
            assert!(msg.contains(&format!("{key:?}")), "{msg}");
            assert!(msg.contains("budget") && msg.contains("axes"), "{msg}");
        }
    }

    #[test]
    fn canonical_json_writes_every_accepted_key_in_order() {
        let Value::Obj(fields) = parse(&SweepSpec::smoke().to_json()).expect("parses") else {
            panic!("a spec is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, SPEC_KEYS);
    }

    #[test]
    fn storage_cap_rejects_oversized_grid_points_with_the_estimate() {
        let bad = |text: &str| SweepSpec::from_json(text).expect_err("must fail");
        // 10¹² nodes × 64 channels is far beyond any sane cap; the error
        // names the estimated footprint and the override knob rather
        // than letting a worker OOM.
        let e = bad(r#"{"name": "t", "axes": {"nodes": [4, 1000000000000], "universe": [64]}}"#);
        let msg = e.to_string();
        assert!(msg.contains("nodes"), "msg: {msg}");
        assert!(msg.contains("MiB"), "names the estimate: {msg}");
        assert!(msg.contains("MMHEW_MEM_CAP_BYTES"), "names the knob: {msg}");
        // Zip mode only pairs index-matched values: (4, 64) and (8, 2)
        // are both tiny even though (8, 64) at the cross product of a
        // cartesian read would also be fine — and a huge zipped pair
        // still trips the check.
        assert!(SweepSpec::from_json(
            r#"{"name": "t", "mode": "zip",
                "axes": {"nodes": [4, 8], "universe": [64, 2]}}"#,
        )
        .is_ok());
        let e = bad(r#"{"name": "t", "mode": "zip",
                "axes": {"nodes": [4, 1000000000000], "universe": [2, 64]}}"#);
        assert!(e.to_string().contains("MiB"));
    }

    #[test]
    fn storage_cap_counts_the_links_a_dense_topology_implies() {
        // The default topology is `complete`: 30 000 nodes imply about
        // 9·10⁸ directed links, over 20 GB, though the node terms alone
        // are a few MB.
        let e = SweepSpec::from_json(r#"{"name":"t","axes":{"nodes":[30000]}}"#)
            .expect_err("a complete graph on 30 000 nodes is over the cap");
        let msg = e.to_string();
        assert!(matches!(e, SpecError::Invalid(_)), "{msg}");
        assert!(msg.contains("\"complete\""), "names the topology: {msg}");
        assert!(msg.contains("899970000 directed links"), "{msg}");
        assert!(msg.contains("MiB"), "names the estimate: {msg}");
        // Erdős–Rényi counts the expected p·N·(N−1) links.
        let er = |p: f64| {
            SweepSpec::from_json(&format!(
                r#"{{"name":"t","topology":"er","edge-prob":{p},"axes":{{"nodes":[30000]}}}}"#
            ))
        };
        assert!(er(0.5).is_err());
        assert!(er(0.001).is_ok());
        // Sparse shapes at the same size stay well under the cap.
        for topology in ["ring", "line", "star"] {
            assert!(SweepSpec::from_json(&format!(
                r#"{{"name":"t","topology":"{topology}","axes":{{"nodes":[30000]}}}}"#
            ))
            .is_ok());
        }
    }

    #[test]
    fn string_fields_of_the_wrong_type_fail_by_name() {
        for key in ["engine", "mode", "algorithm", "topology"] {
            for value in ["5", "[\"sync\"]", "[]", "null"] {
                let text = format!(r#"{{"name":"t","{key}":{value},"axes":{{"nodes":[4]}}}}"#);
                assert_eq!(
                    SweepSpec::from_json(&text),
                    Err(SpecError::Field(key)),
                    "{text}"
                );
            }
        }
        // An absent key keeps its default.
        let spec = SweepSpec::from_json(r#"{"name":"t","axes":{"nodes":[4]}}"#).expect("valid");
        assert_eq!(spec.engine, Family::Sync);
        assert_eq!(spec.mode, GridMode::Cartesian);
        assert_eq!(spec.algorithm, "staged");
        assert_eq!(spec.topology, "complete");
    }

    #[test]
    fn smoke_spec_is_four_points() {
        assert_eq!(SweepSpec::smoke().expand().len(), 4);
    }

    #[test]
    fn protocol_axis_multiplies_the_numeric_grid_varying_slowest() {
        let spec = SweepSpec::from_json(
            r#"{"name": "t",
                "axes": {"protocol": ["staged", "mc-dis"], "nodes": [4, 6]}}"#,
        )
        .expect("valid");
        assert_eq!(spec.protocols, vec!["staged", "mc-dis"]);
        assert_eq!(spec.numeric_grid_len(), 2);
        let points = spec.expand();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].protocol.as_deref(), Some("staged"));
        assert_eq!(points[0].axis("nodes"), 4.0);
        assert_eq!(points[1].protocol.as_deref(), Some("staged"));
        assert_eq!(points[1].axis("nodes"), 6.0);
        assert_eq!(points[2].protocol.as_deref(), Some("mc-dis"));
        assert_eq!(points[2].axis("nodes"), 4.0);
        assert!(points.iter().enumerate().all(|(i, p)| p.id == i as u64));
    }

    #[test]
    fn protocol_only_sweep_is_a_one_point_numeric_grid() {
        let spec = SweepSpec::from_json(
            r#"{"name": "t", "axes": {"protocol": ["staged", "s-nihao", "a-nihao"]}}"#,
        )
        .expect("valid");
        assert_eq!(spec.numeric_grid_len(), 1);
        let points = spec.expand();
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.values.is_empty()));
    }

    #[test]
    fn protocol_axis_round_trips_canonically_from_any_position() {
        // The author wrote protocol *after* a numeric axis; canonical form
        // moves it first, and reserialization is idempotent.
        let spec = SweepSpec::from_json(
            r#"{"name": "t", "axes": {"nodes": [4, 8], "protocol": ["uniform", "mc-dis"]}}"#,
        )
        .expect("valid");
        let canonical = spec.to_json();
        assert!(
            canonical.contains("\"axes\":{\"protocol\":[\"uniform\",\"mc-dis\"],\"nodes\":[4,8]}")
        );
        let reparsed = SweepSpec::from_json(&canonical).expect("parses");
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.to_json(), canonical);
    }

    #[test]
    fn protocol_axis_validation_names_the_axis_and_accepted_values() {
        let bad = |text: &str| SweepSpec::from_json(text).expect_err("must fail");
        let e = bad(r#"{"name": "t", "axes": {"protocol": ["warp-drive"]}}"#);
        let msg = e.to_string();
        assert!(msg.contains("axis \"protocol\""), "{msg}");
        assert!(msg.contains("warp-drive"), "{msg}");
        assert!(msg.contains("mc-dis"), "names accepted values: {msg}");

        let e = bad(r#"{"name": "t", "engine": "async", "axes": {"protocol": ["mc-dis"]}}"#);
        let msg = e.to_string();
        assert!(msg.contains("sync engine only"), "{msg}");
        assert!(msg.contains("frame-based"), "{msg}");

        let e = bad(r#"{"name": "t", "axes": {"protocol": [4]}}"#);
        assert!(e.to_string().contains("catalog names"), "{e}");

        let e = bad(r#"{"name": "t", "axes": {"nodes": ["four"]}}"#);
        let msg = e.to_string();
        assert!(msg.contains("axis \"nodes\""), "{msg}");

        let e = bad(r#"{"name": "t", "axes": {"protocol": ["staged", "staged"]}}"#);
        assert!(e.to_string().contains("listed twice"), "{e}");

        let e = bad(r#"{"name": "t", "mode": "zip",
                "axes": {"nodes": [4, 8], "loss": [0, 0.1, 0.2]}}"#);
        let msg = e.to_string();
        assert!(
            msg.contains("\"loss\"") && msg.contains("\"nodes\""),
            "{msg}"
        );
        assert!(
            msg.contains('3') && msg.contains('2'),
            "lengths named: {msg}"
        );
    }

    #[test]
    fn canonical_json_round_trips_exactly() {
        // to_json must be the precise inverse of from_json: the manifest's
        // spec-echo header records specs as this text, and resume must
        // recognise the identical spec in it.
        let mut spec = SweepSpec::smoke();
        assert_eq!(SweepSpec::from_json(&spec.to_json()).expect("parses"), spec);

        spec.topology = "er".to_string();
        spec.edge_prob = 0.35;
        spec.mode = GridMode::Zip;
        spec.algorithm = "uniform".to_string();
        spec.churn_downtime = 1_234.5;
        spec.axes.push(AxisSpec {
            name: "loss".to_string(),
            values: vec![0.0, 0.25],
        });
        assert_eq!(SweepSpec::from_json(&spec.to_json()).expect("parses"), spec);

        // Canonicalization is idempotent: reparse and reserialize agree.
        let canonical = spec.to_json();
        let reparsed = SweepSpec::from_json(&canonical).expect("parses");
        assert_eq!(reparsed.to_json(), canonical);
    }

    #[test]
    fn numbers_outside_their_bounds_are_rejected_by_name() {
        let bad = |text: &str| {
            SweepSpec::from_json(text)
                .expect_err("must fail")
                .to_string()
        };
        let msg = bad(r#"{"name": "t", "reps": 1e18, "axes": {"nodes": [4]}}"#);
        assert!(msg.contains("reps"), "{msg}");
        let msg = bad(r#"{"name": "t", "axes": {"nodes": [2.5]}}"#);
        assert!(msg.contains("\"nodes\"") && msg.contains("2.5"), "{msg}");
        let msg = bad(r#"{"name": "t", "axes": {"universe": [1e15]}}"#);
        assert!(msg.contains("\"universe\"") && msg.contains("u16"), "{msg}");
        // 2¹¹ values on each of 2 axes make 2²² points; 2⁴ axes of 2¹⁶
        // values each overflow u64 outright.
        let axis = |n: usize| {
            let values: Vec<String> = (0..n).map(|v| (v % 2).to_string()).collect();
            format!("[{}]", values.join(","))
        };
        let msg = bad(&format!(
            r#"{{"name": "t", "axes": {{"jam": {}, "avail": {}}}}}"#,
            axis(1 << 11),
            axis(1 << 11)
        ));
        assert!(msg.contains("grid points"), "{msg}");
        let big = axis(1 << 16);
        let msg = bad(&format!(
            r#"{{"name": "t", "axes": {{"delta-est": {big}, "avail": {big}, "jam": {big}, "robust": {big}, "start-window": {big}}}}}"#
        ));
        assert!(msg.contains("overflows"), "{msg}");
    }

    /// Hostile number literals: huge, negative, fractional, past `u64`
    /// and past `f64`.
    const HOSTILE: &[&str] = &[
        "1e18",
        "1e15",
        "4294967296",
        "1048577",
        "65536",
        "-1",
        "-0.5",
        "2.5",
        "0.5",
        "1e400",
        "-1e400",
        "2e19",
    ];
    /// Top-level spec fields a mutation may write, and `hist-bins`, a key
    /// an older format had.
    const TOP_KEYS: &[&str] = &[
        "hist-bins",
        "reps",
        "budget",
        "seed",
        "edge-prob",
        "churn-downtime",
        "name",
        "axes",
    ];

    fn pick<'a, T>(rng: &mut Xoshiro256StarStar, items: &'a [T]) -> &'a T {
        &items[rng.gen_range(0..items.len())]
    }

    /// One structural mutation of a spec document, on the top level or
    /// in `axes`: drop a member, write a hostile number over a member or
    /// in front of all of them under a (possibly duplicate) key, or bury
    /// a member's value 200 arrays deep. A hostile number is written as
    /// the string `"#<literal>#"`, whose quotes and marks the caller strips
    /// after serializing, since `Value` cannot hold `1e400` or `2e19`
    /// as written.
    fn mutate(rng: &mut Xoshiro256StarStar, doc: &mut Value) {
        let Value::Obj(top) = doc else { return };
        let axes = top.iter().position(|(k, _)| k == "axes");
        let (fields, keys): (&mut Vec<(String, Value)>, Vec<&str>) = match axes {
            Some(i) if rng.gen_bool(0.5) => match &mut top[i].1 {
                Value::Obj(fields) => (
                    fields,
                    AXES.iter().map(|(n, _)| *n).chain(["protocol"]).collect(),
                ),
                _ => return,
            },
            _ => (top, TOP_KEYS.to_vec()),
        };
        let number = Value::Str(format!("#{}#", pick(rng, HOSTILE)));
        let hostile = if rng.gen_bool(0.5) {
            number
        } else {
            Value::Arr(vec![number])
        };
        let op = rng.gen_range(0..4u32);
        if fields.is_empty() || op == 0 {
            fields.insert(0, (pick(rng, &keys).to_string(), hostile));
            return;
        }
        let i = rng.gen_range(0..fields.len());
        match op {
            1 => fields[i].1 = hostile,
            2 => {
                fields.remove(i);
            }
            _ => {
                let mut v = std::mem::replace(&mut fields[i].1, Value::Null);
                for _ in 0..200 {
                    v = Value::Arr(vec![v]);
                }
                fields[i].1 = v;
            }
        }
    }

    /// Every bound `validate` promises, checked on an accepted spec.
    fn assert_bounded(spec: &SweepSpec, text: &str) {
        assert!((1..=MAX_REPS).contains(&spec.reps), "reps of {text}");
        assert!((0.0..=1.0).contains(&spec.edge_prob), "edge-prob of {text}");
        assert!(
            spec.churn_downtime.is_finite() && spec.churn_downtime > 0.0,
            "churn-downtime of {text}"
        );
        let points = spec
            .numeric_grid_len()
            .checked_mul(spec.protocols.len().max(1) as u64);
        assert!(
            points.is_some_and(|n| n <= MAX_POINTS),
            "point count of {text}"
        );
        for axis in &spec.axes {
            if let Some((_, _, end)) = INTEGRAL_AXES.iter().find(|(n, _, _)| *n == axis.name) {
                assert!(
                    axis.values.iter().all(|v| v.fract() == 0.0 && *v < *end),
                    "axis {:?} of {text}",
                    axis.name
                );
            }
        }
    }

    /// Mutated shipped specs either fail with a [`SpecError`] or parse
    /// into a spec inside every bound; nothing panics, and no unbounded
    /// spec is ever expanded or run.
    #[test]
    fn hostile_specs_fail_by_name_or_stay_bounded() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut bases: Vec<String> = std::fs::read_dir(dir)
            .expect("specs/ exists")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "json"))
            .map(|path| std::fs::read_to_string(path).expect("readable spec"))
            .collect();
        // Directory order varies by platform; sorting pins every case.
        bases.sort();
        bases.push(SweepSpec::smoke().to_json());
        prop::check("hostile_specs_fail_by_name_or_stay_bounded", 2048, |rng| {
            let base: &String = pick(rng, &bases);
            let mut doc = parse(base).expect("shipped specs parse");
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(rng, &mut doc);
            }
            let mut text = doc.to_json().replace("\"#", "").replace("#\"", "");
            if rng.gen_bool(0.2) {
                let mut cut = rng.gen_range(0..text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.truncate(cut);
            }
            if let Ok(spec) = SweepSpec::from_json(&text) {
                assert_bounded(&spec, &text);
            }
        });
    }

    #[test]
    fn checked_in_smoke_spec_file_matches_the_builtin() {
        // CI and the docs run specs/smoke.json as well as `--smoke`; keep
        // it in lockstep with SweepSpec::smoke() so the two produce
        // identical campaigns.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/smoke.json");
        let text = std::fs::read_to_string(path).expect("specs/smoke.json exists");
        assert_eq!(
            SweepSpec::from_json(&text).expect("parses"),
            SweepSpec::smoke()
        );
    }
}
