//! The `Scenario` builder: the one entry point for running discovery.
//!
//! Every engine feature — event sinks, dynamics schedules, fault plans,
//! robust time-dilation, continuous re-announcement, quiescent
//! termination — is one builder call, and any combination composes:
//!
//! ```text
//! Scenario::sync(&net, algorithm)
//!     .starts(..)            // start-slot schedule (default Identical)
//!     .config(..)            // run budget / stop conditions
//!     .with_dynamics(..)     // churn / mobility / spectrum events
//!     .with_faults(..)       // loss, jamming, capture, crashes
//!     .with_sink(..)         // event observation
//!     .with_perfetto(..)     // tee a Perfetto .pftrace of the run
//!     .robust(r)             // time-dilation wrapper
//!     .continuous(cfg)       // re-announce / stale-evict wrapper
//!     .terminating(q)        // local quiescence detection
//!     .run(seed)?            // -> SyncOutcome
//! ```
//!
//! # Neutrality guarantees
//!
//! A `Scenario` with no extras attached performs the plain wiring
//! (`build protocols → starts.materialize(n, seed.branch("starts")) →
//! Engine::new(…, seed.branch("engine")) → run(config)`) and touches the
//! engine's optional hooks only when explicitly configured. An empty
//! dynamics schedule, an empty fault plan or an attached sink is
//! therefore RNG- and trace-neutral: outcomes and JSONL traces are
//! byte-identical at the same seed, which the root `observability` and
//! `golden` suites pin.
//!
//! # Wrapper composition order
//!
//! Protocol wrappers nest base → robust → continuous → terminating: the
//! robust wrapper dilates the innermost clock, continuous re-announcement
//! rides on the dilated protocol, and the quiescence detector watches the
//! outermost table.

use crate::continuous::{ContinuousConfig, ContinuousDiscovery};
use crate::params::ProtocolError;
use crate::robust::RobustDiscovery;
use crate::runner::{build_async_protocols, build_sync_protocols, AsyncAlgorithm, SyncAlgorithm};
use crate::termination::{QuiescentAsyncTermination, QuiescentTermination};
use mmhew_dynamics::DynamicsSchedule;
use mmhew_engine::{
    AsyncEngine, AsyncOutcome, AsyncProtocol, AsyncRunConfig, Engine, StartSchedule, SyncEngine,
    SyncOutcome, SyncProtocol, SyncRunConfig,
};
use mmhew_faults::FaultPlan;
use mmhew_obs::{EventSink, FanoutSink};
use mmhew_perfetto::PerfettoSink;
use mmhew_topology::{Network, NodeId};
use mmhew_util::SeedTree;
use std::path::{Path, PathBuf};

/// Default slot/frame budget when no [`SyncRunConfig`]/[`AsyncRunConfig`]
/// is supplied: run until complete within one million slots (frames).
pub const DEFAULT_BUDGET: u64 = 1_000_000;

/// Entry point for building simulation scenarios.
///
/// `Scenario` is a pure namespace: [`Scenario::sync`] opens a
/// [`SyncScenario`] on the slot-synchronous engine, and
/// [`Scenario::asynchronous`] an [`AsyncScenario`] on the
/// unsynchronized-clock engine.
///
/// # Examples
///
/// ```
/// use mmhew_discovery::{Scenario, SyncAlgorithm, SyncParams};
/// use mmhew_topology::NetworkBuilder;
/// use mmhew_util::SeedTree;
///
/// let net = NetworkBuilder::complete(4).universe(4).build(SeedTree::new(0))?;
/// let outcome = Scenario::sync(&net, SyncAlgorithm::Staged(SyncParams::new(4)?))
///     .run(SeedTree::new(1))?;
/// assert!(outcome.completed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Scenario;

impl Scenario {
    /// Opens a slot-synchronous scenario on `network` running `algorithm`.
    pub fn sync(network: &Network, algorithm: SyncAlgorithm) -> SyncScenario<'_> {
        Self::sync_source(network, SyncSource::Named(algorithm))
    }

    /// Opens a slot-synchronous scenario on `network` running an
    /// externally built per-node protocol stack (e.g. from the
    /// `mmhew-rivals` catalog). `protocols[i]` drives node `i`; the stack
    /// length must equal `network.node_count()`. All builder knobs —
    /// wrappers, engines, faults, sinks — compose exactly as with
    /// [`Scenario::sync`].
    ///
    /// # Panics
    ///
    /// [`run`](SyncScenario::run) panics if the stack length does not
    /// match the node count.
    pub fn sync_stack(
        network: &Network,
        protocols: Vec<Box<dyn SyncProtocol>>,
    ) -> SyncScenario<'_> {
        Self::sync_source(network, SyncSource::Stack(protocols))
    }

    fn sync_source(network: &Network, source: SyncSource) -> SyncScenario<'_> {
        SyncScenario {
            network,
            source,
            starts: StartSchedule::Identical,
            config: SyncRunConfig::until_complete(DEFAULT_BUDGET),
            engine: Engine::Slotted,
            robust: None,
            continuous: None,
            terminating: None,
            dynamics: None,
            faults: None,
            sink: None,
            perfetto: None,
        }
    }

    /// Opens an asynchronous (unsynchronized clocks) scenario on
    /// `network` running `algorithm`.
    pub fn asynchronous(network: &Network, algorithm: AsyncAlgorithm) -> AsyncScenario<'_> {
        AsyncScenario {
            network,
            algorithm,
            config: AsyncRunConfig::until_complete(DEFAULT_BUDGET),
            terminating: None,
            dynamics: None,
            faults: None,
            sink: None,
            perfetto: None,
        }
    }
}

/// Composes the user sink (if any) with the Perfetto tee (if any) and
/// runs `run` with the result. Keeping the composition in one helper
/// guarantees both scenario flavours wire it identically: the tee rides
/// the exact event stream the user sink sees, and attaching it cannot
/// perturb the simulation (sinks only observe). The tee file is created
/// before `run`, so an unusable path fails before the first slot.
fn run_with_tee<T>(
    user: Option<&mut dyn EventSink>,
    perfetto: Option<PathBuf>,
    run: impl FnOnce(Option<&mut dyn EventSink>) -> T,
) -> Result<T, ProtocolError> {
    let write_failed = |e: std::io::Error| {
        let path = perfetto.as_deref().unwrap_or(Path::new(""));
        ProtocolError::TraceWrite(format!("{}: {e}", path.display()))
    };
    let mut tee = perfetto
        .as_ref()
        .map(PerfettoSink::create)
        .transpose()
        .map_err(write_failed)?;
    let outcome = match (user, tee.as_mut()) {
        (Some(user), Some(t)) => {
            let mut fanout = FanoutSink::new(vec![user, t as &mut dyn EventSink]);
            run(Some(&mut fanout))
        }
        (Some(user), None) => run(Some(user)),
        (None, Some(t)) => run(Some(t as &mut dyn EventSink)),
        (None, None) => run(None),
    };
    if let Some(tee) = tee {
        tee.finish().map_err(write_failed)?;
    }
    Ok(outcome)
}

/// A configured slot-synchronous run, built by [`Scenario::sync`].
///
/// See the [module docs](self) for the builder grammar and the
/// neutrality / composition-order guarantees.
/// Where a [`SyncScenario`]'s per-node protocols come from: a named
/// algorithm built on demand, or a ready-made stack handed in by the
/// caller.
enum SyncSource {
    Named(SyncAlgorithm),
    Stack(Vec<Box<dyn SyncProtocol>>),
}

pub struct SyncScenario<'a> {
    network: &'a Network,
    source: SyncSource,
    starts: StartSchedule,
    config: SyncRunConfig,
    engine: Engine,
    robust: Option<u64>,
    continuous: Option<ContinuousConfig>,
    terminating: Option<u64>,
    dynamics: Option<DynamicsSchedule>,
    faults: Option<FaultPlan>,
    sink: Option<&'a mut dyn EventSink>,
    perfetto: Option<PathBuf>,
}

impl<'a> SyncScenario<'a> {
    /// Sets the start-slot schedule (default [`StartSchedule::Identical`]).
    #[must_use]
    pub fn starts(mut self, starts: StartSchedule) -> Self {
        self.starts = starts;
        self
    }

    /// Sets the run configuration (budget, stop conditions, impairments).
    /// Defaults to [`SyncRunConfig::until_complete`] with
    /// [`DEFAULT_BUDGET`] slots.
    #[must_use]
    pub fn config(mut self, config: SyncRunConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the executor driving the run (default
    /// [`Engine::Slotted`], the slot-by-slot oracle). Kept only for the
    /// benchmark's executor comparison: [`Engine::Event`] is held
    /// byte-identical to the oracle (the `scenario_equivalence` suite) and
    /// measured no faster, because the paper's protocols draw in every
    /// slot and leave no dead air to skip.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a [`DynamicsSchedule`] (churn, mobility, spectrum events;
    /// `at` interpreted as slot indices).
    #[must_use]
    pub fn with_dynamics(mut self, dynamics: DynamicsSchedule) -> Self {
        self.dynamics = Some(dynamics);
        self
    }

    /// Attaches a [`FaultPlan`] (per-link loss, jammers, capture, crash
    /// outages).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches an [`EventSink`] observing every simulation event.
    #[must_use]
    pub fn with_sink(mut self, sink: &'a mut dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Tees the run's event stream through the Perfetto converter and
    /// writes a `.pftrace` file at `path` when the run finishes (open it
    /// at <https://ui.perfetto.dev>). Composes with [`with_sink`]: the
    /// user sink observes the identical stream. Attaching the tee is
    /// RNG- and outcome-neutral — sinks only observe.
    ///
    /// [`with_sink`]: Self::with_sink
    #[must_use]
    pub fn with_perfetto<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.perfetto = Some(path.into());
        self
    }

    /// Wraps every node in [`crate::RobustDiscovery`] with the given
    /// repetition factor (see [`crate::repetition_factor`]). Remember to
    /// inflate the slot budget by the same factor.
    ///
    /// # Panics
    ///
    /// [`run`](Self::run) panics if `repetition` is zero.
    #[must_use]
    pub fn robust(mut self, repetition: u64) -> Self {
        self.robust = Some(repetition);
        self
    }

    /// Wraps every node in [`crate::ContinuousDiscovery`] (periodic
    /// re-announcement + stale eviction). Continuous runs never complete;
    /// pair with [`SyncRunConfig::fixed`].
    #[must_use]
    pub fn continuous(mut self, config: ContinuousConfig) -> Self {
        self.continuous = Some(config);
        self
    }

    /// Wraps every node in a [`crate::QuiescentTermination`] detector
    /// with the given threshold, so nodes decide *locally* when to stop.
    /// Pair with [`SyncRunConfig::until_all_terminated`].
    #[must_use]
    pub fn terminating(mut self, quiet_slots: u64) -> Self {
        self.terminating = Some(quiet_slots);
        self
    }

    /// Builds the per-node protocol stack and runs the engine.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] if any node's available channel set is
    /// empty, or a wrapper threshold/parameter is zero.
    pub fn run(self, seed: SeedTree) -> Result<SyncOutcome, ProtocolError> {
        let mut protocols = match self.source {
            SyncSource::Named(algorithm) => build_sync_protocols(self.network, algorithm)?,
            SyncSource::Stack(stack) => {
                assert_eq!(
                    stack.len(),
                    self.network.node_count(),
                    "protocol stack length must equal the node count"
                );
                stack
            }
        };
        if let Some(repetition) = self.robust {
            protocols = protocols
                .into_iter()
                .map(|inner| {
                    Box::new(RobustDiscovery::new(inner, repetition)) as Box<dyn SyncProtocol>
                })
                .collect();
        }
        if let Some(config) = self.continuous {
            protocols = protocols
                .into_iter()
                .enumerate()
                .map(|(i, inner)| {
                    let available = self.network.available(NodeId::new(i as u32)).to_owned();
                    ContinuousDiscovery::new(inner, available, config)
                        .map(|p| Box::new(p) as Box<dyn SyncProtocol>)
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(quiet_slots) = self.terminating {
            protocols = protocols
                .into_iter()
                .map(|inner| {
                    QuiescentTermination::new(inner, quiet_slots)
                        .map(|p| Box::new(p) as Box<dyn SyncProtocol>)
                })
                .collect::<Result<_, _>>()?;
        }
        let start_slots = self
            .starts
            .materialize(self.network.node_count(), seed.branch("starts"));
        let network = self.network;
        let dynamics = self.dynamics;
        let faults = self.faults;
        let config = self.config;
        let executor = self.engine;
        let engine_seed = seed.branch("engine");
        run_with_tee(self.sink, self.perfetto, move |sink| {
            let mut engine = SyncEngine::new(network, protocols, start_slots, engine_seed);
            if let Some(dynamics) = dynamics {
                engine = engine.with_dynamics(dynamics);
            }
            if let Some(faults) = faults {
                engine = engine.with_faults(faults);
            }
            if let Some(sink) = sink {
                engine = engine.with_sink(sink);
            }
            match executor {
                Engine::Slotted => engine.run(config),
                Engine::Event => engine.run_event(config),
            }
        })
    }
}

/// A configured asynchronous run, built by [`Scenario::asynchronous`].
///
/// The asynchronous engine has no start-slot schedule (starts live in
/// [`AsyncRunConfig`]) and no robust/continuous wrappers (both are
/// slot-synchronous constructions).
///
/// # Examples
///
/// ```
/// use mmhew_discovery::{AsyncAlgorithm, AsyncParams, Scenario};
/// use mmhew_engine::AsyncRunConfig;
/// use mmhew_topology::NetworkBuilder;
/// use mmhew_util::SeedTree;
///
/// let net = NetworkBuilder::complete(4).universe(4).build(SeedTree::new(0))?;
/// let outcome = Scenario::asynchronous(&net, AsyncAlgorithm::FrameBased(AsyncParams::new(3)?))
///     .config(AsyncRunConfig::until_complete(100_000))
///     .run(SeedTree::new(1))?;
/// assert!(outcome.completed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct AsyncScenario<'a> {
    network: &'a Network,
    algorithm: AsyncAlgorithm,
    config: AsyncRunConfig,
    terminating: Option<u64>,
    dynamics: Option<DynamicsSchedule>,
    faults: Option<FaultPlan>,
    sink: Option<&'a mut dyn EventSink>,
    perfetto: Option<PathBuf>,
}

impl<'a> AsyncScenario<'a> {
    /// Sets the run configuration (frame budget, clocks, starts, stop
    /// conditions). Defaults to [`AsyncRunConfig::until_complete`] with
    /// [`DEFAULT_BUDGET`] frames.
    #[must_use]
    pub fn config(mut self, config: AsyncRunConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a [`DynamicsSchedule`] (`at` interpreted as real
    /// nanoseconds, applied at frame-start boundaries).
    #[must_use]
    pub fn with_dynamics(mut self, dynamics: DynamicsSchedule) -> Self {
        self.dynamics = Some(dynamics);
        self
    }

    /// Attaches a [`FaultPlan`] (`at` interpreted as real nanoseconds;
    /// the capture effect is not modelled asynchronously).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches an [`EventSink`] observing every simulation event.
    #[must_use]
    pub fn with_sink(mut self, sink: &'a mut dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Tees the run's event stream through the Perfetto converter and
    /// writes a `.pftrace` file at `path` when the run finishes; see
    /// [`SyncScenario::with_perfetto`].
    #[must_use]
    pub fn with_perfetto<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.perfetto = Some(path.into());
        self
    }

    /// Wraps every node in a [`crate::QuiescentAsyncTermination`]
    /// detector: nodes go silent for good after `quiet_frames` frames
    /// without a new neighbor.
    #[must_use]
    pub fn terminating(mut self, quiet_frames: u64) -> Self {
        self.terminating = Some(quiet_frames);
        self
    }

    /// Builds the per-node protocol stack and runs the engine.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] if any node's available channel set is
    /// empty, the termination threshold is zero, or the configuration's
    /// [`AsyncRunConfig::horizon`] overflows the nanosecond clock.
    pub fn run(self, seed: SeedTree) -> Result<AsyncOutcome, ProtocolError> {
        if self.config.horizon().is_none() {
            return Err(ProtocolError::ClockHorizon {
                max_frames: self.config.max_frames,
                frame_len: self.config.frame_len.as_nanos(),
            });
        }
        let mut protocols = build_async_protocols(self.network, self.algorithm)?;
        if let Some(quiet_frames) = self.terminating {
            protocols = protocols
                .into_iter()
                .map(|inner| {
                    QuiescentAsyncTermination::new(inner, quiet_frames)
                        .map(|p| Box::new(p) as Box<dyn AsyncProtocol>)
                })
                .collect::<Result<_, _>>()?;
        }
        let network = self.network;
        let dynamics = self.dynamics;
        let faults = self.faults;
        let config = self.config;
        let engine_seed = seed.branch("engine");
        run_with_tee(self.sink, self.perfetto, move |sink| {
            let mut engine = AsyncEngine::new(network, protocols, config, engine_seed);
            if let Some(dynamics) = dynamics {
                engine = engine.with_dynamics(dynamics);
            }
            if let Some(faults) = faults {
                engine = engine.with_faults(faults);
            }
            if let Some(sink) = sink {
                engine = engine.with_sink(sink);
            }
            engine.run()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SyncParams;
    use crate::runner::tables_match_ground_truth;
    use mmhew_topology::NetworkBuilder;

    fn small_net() -> Network {
        NetworkBuilder::complete(4)
            .universe(4)
            .build(SeedTree::new(0))
            .expect("build")
    }

    #[test]
    fn unusable_perfetto_path_fails_before_the_first_slot() {
        let net = small_net();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x.pftrace");
        let mut sink = mmhew_obs::CollectSink::new();
        let err = Scenario::sync(
            &net,
            SyncAlgorithm::Staged(SyncParams::new(4).expect("valid")),
        )
        .with_sink(&mut sink)
        .with_perfetto(path)
        .run(SeedTree::new(1))
        .expect_err("a file is no directory");
        assert!(err.to_string().contains(path), "names the path: {err}");
        assert!(sink.events.is_empty(), "the run never started");
    }

    #[test]
    fn plain_scenario_completes() {
        let net = small_net();
        let out = Scenario::sync(
            &net,
            SyncAlgorithm::Staged(SyncParams::new(4).expect("valid")),
        )
        .config(SyncRunConfig::until_complete(200_000))
        .run(SeedTree::new(1))
        .expect("run");
        assert!(out.completed());
        assert!(tables_match_ground_truth(&net, out.tables()));
    }

    #[test]
    fn wrappers_compose_robust_then_terminating() {
        // Two wrappers at once: time-dilated protocols under local
        // quiescence detection.
        let net = small_net();
        let out = Scenario::sync(
            &net,
            SyncAlgorithm::Uniform(SyncParams::new(3).expect("valid")),
        )
        .robust(2)
        .terminating(4_000)
        .config(SyncRunConfig::until_all_terminated(400_000))
        .run(SeedTree::new(5))
        .expect("run");
        assert!(out.all_terminated(), "nodes decide to stop");
        assert!(out.completed(), "generous threshold finds all links");
        assert!(tables_match_ground_truth(&net, out.tables()));
    }

    #[test]
    fn sync_stack_matches_the_named_algorithm_byte_for_byte() {
        // A caller-built stack constructed like build_sync_protocols must
        // be indistinguishable from the named path: same seeds, same
        // draws, same outcome.
        let net = small_net();
        let params = SyncParams::new(4).expect("valid");
        let named = Scenario::sync(&net, SyncAlgorithm::Staged(params))
            .config(SyncRunConfig::until_complete(200_000))
            .run(SeedTree::new(1))
            .expect("run");
        let stack: Vec<Box<dyn SyncProtocol>> = (0..net.node_count())
            .map(|i| {
                let available = net.available(NodeId::new(i as u32)).to_owned();
                Box::new(crate::StagedDiscovery::new(available, params).expect("valid"))
                    as Box<dyn SyncProtocol>
            })
            .collect();
        let stacked = Scenario::sync_stack(&net, stack)
            .config(SyncRunConfig::until_complete(200_000))
            .run(SeedTree::new(1))
            .expect("run");
        assert_eq!(named.slots_to_complete(), stacked.slots_to_complete());
        assert_eq!(named.deliveries(), stacked.deliveries());
        assert_eq!(named.collisions(), stacked.collisions());
        assert_eq!(named.tables(), stacked.tables());
    }

    #[test]
    #[should_panic(expected = "stack length")]
    fn mismatched_stack_length_panics() {
        let net = small_net();
        let _ = Scenario::sync_stack(&net, Vec::new()).run(SeedTree::new(1));
    }

    #[test]
    fn zero_terminating_threshold_is_an_error() {
        let net = small_net();
        let err = Scenario::sync(
            &net,
            SyncAlgorithm::Uniform(SyncParams::new(3).expect("valid")),
        )
        .terminating(0)
        .run(SeedTree::new(5))
        .expect_err("zero threshold");
        assert_eq!(err, ProtocolError::ZeroDegreeEstimate);
    }

    fn frame_based() -> AsyncAlgorithm {
        AsyncAlgorithm::FrameBased(crate::params::AsyncParams::new(3).expect("valid"))
    }

    #[test]
    fn clock_horizon_past_the_u64_clock_is_a_named_error() {
        // The frame length `simulate --frame-len 18446744073709551615`
        // once panicked with `time overflow` on.
        let frame_len = u64::MAX / 3 * 3;
        let config = AsyncRunConfig::until_complete(100)
            .with_frame_len(mmhew_time::LocalDuration::from_nanos(frame_len));
        let err = Scenario::asynchronous(&small_net(), frame_based())
            .config(config)
            .run(SeedTree::new(1))
            .expect_err("past the clock");
        assert_eq!(
            err,
            ProtocolError::ClockHorizon {
                max_frames: 100,
                frame_len
            }
        );
        assert!(err.to_string().contains("64-bit nanosecond clock"), "{err}");
    }

    /// Frames, offsets and starts drawn as fractions of the clock, under
    /// every drift model: a run either refuses its horizon by name or runs
    /// its whole budget, and no time arithmetic overflows on the way
    /// (test builds check every operation).
    #[test]
    fn horizons_inside_the_clock_run_and_the_rest_are_refused() {
        use mmhew_time::{DriftBound, DriftModel, LocalDuration, Rate, RealDuration};
        use mmhew_util::prop;
        use rand::Rng;
        let net = small_net();
        let third = u64::MAX / 3;
        prop::check("horizons_inside_the_clock_run", 96, |rng| {
            let max_frames = rng.gen_range(1..4u64);
            let frame_len = rng.gen_range(third / 8..third) / max_frames / 3 * 3;
            let drift = match rng.gen_range(0..3u32) {
                0 => DriftModel::Ideal,
                1 => DriftModel::Constant(Rate::new(rng.gen_range(1..=3u64), 2)),
                _ => DriftModel::RandomPiecewise {
                    bound: DriftBound::new(1, rng.gen_range(2..=8u64)),
                    segment: RealDuration::from_nanos(
                        frame_len.saturating_mul(rng.gen_range(1..=5u64)),
                    ),
                },
            };
            let config = AsyncRunConfig::until_complete(max_frames)
                .with_frame_len(LocalDuration::from_nanos(frame_len))
                .with_clocks(mmhew_engine::ClockConfig {
                    drift,
                    offset_window: LocalDuration::from_nanos(rng.gen_range(0..=2 * third)),
                })
                .with_starts(mmhew_engine::AsyncStartSchedule::Staggered {
                    window: RealDuration::from_nanos(rng.gen_range(0..=third)),
                });
            let fits = config.horizon().is_some();
            let run = Scenario::asynchronous(&net, frame_based())
                .config(config)
                .run(SeedTree::new(rng.gen_range(0..1_000u64)));
            match run {
                Ok(outcome) => {
                    assert!(fits);
                    assert!(outcome.frames_executed().iter().all(|&f| f <= max_frames));
                }
                Err(ProtocolError::ClockHorizon { .. }) => assert!(!fits),
                Err(e) => panic!("{e}"),
            }
        });
    }
}
