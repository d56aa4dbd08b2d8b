//! # mmhew — neighbor discovery in multi-hop multi-channel heterogeneous wireless networks
//!
//! Umbrella crate re-exporting the full `mmhew` workspace: a reproduction of
//! *"Randomized Distributed Algorithms for Neighbor Discovery in Multi-Hop
//! Multi-Channel Heterogeneous Wireless Networks"* (Mittal, Zeng, Venkatesan,
//! Chandrasekaran — ICDCS 2011).
//!
//! The paper's contribution — four randomized neighbor-discovery algorithms
//! for M²HeW (e.g. cognitive-radio) networks — lives in [`discovery`].
//! Everything the algorithms need to run is built here as well: drifting
//! clocks ([`time`]), spectrum/availability models ([`spectrum`]),
//! communication graphs ([`topology`]), the radio collision model
//! ([`radio`]), slotted and continuous-time simulation engines ([`engine`]),
//! and an experiment harness ([`harness`]).
//!
//! # Quickstart
//!
//! ```
//! use mmhew::prelude::*;
//!
//! // A 3x3 grid of nodes, 12-channel universe, each node perceives a
//! // random subset of 6 channels available (heterogeneous network).
//! let seed = SeedTree::new(42);
//! let network = NetworkBuilder::grid(3, 3)
//!     .universe(12)
//!     .availability(AvailabilityModel::UniformSubset { size: 6 })
//!     .build(seed.branch("net"))?;
//!
//! // Run Algorithm 1 (synchronous, identical starts, known degree bound).
//! let delta_est = network.max_degree().max(1) as u64;
//! let outcome = Scenario::sync(&network, SyncAlgorithm::Staged(SyncParams::new(delta_est)?))
//!     .config(SyncRunConfig::until_complete(1_000_000))
//!     .run(seed.branch("run"))?;
//! assert!(outcome.completed());
//! assert!(tables_match_ground_truth(&network, outcome.tables()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use mmhew_campaign as campaign;
pub use mmhew_discovery as discovery;
pub use mmhew_dynamics as dynamics;
pub use mmhew_engine as engine;
pub use mmhew_faults as faults;
pub use mmhew_harness as harness;
pub use mmhew_obs as obs;
pub use mmhew_perfetto as perfetto;
pub use mmhew_radio as radio;
pub use mmhew_rivals as rivals;
pub use mmhew_spectrum as spectrum;
pub use mmhew_time as time;
pub use mmhew_topology as topology;
pub use mmhew_util as util;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use mmhew_discovery::{
        repetition_factor, staleness, tables_are_sound, tables_match_ground_truth,
        AdaptiveDiscovery, AsyncAlgorithm, AsyncFrameDiscovery, AsyncParams, AsyncScenario, Bounds,
        ContinuousConfig, ContinuousDiscovery, ProtocolError, RobustDiscovery, Scenario,
        StagedDiscovery, StalenessReport, SyncAlgorithm, SyncParams, SyncScenario,
        UniformDiscovery,
    };
    pub use mmhew_dynamics::{
        markov_primary_users, poisson_churn, random_waypoint, ChurnConfig, DynamicsSchedule,
        MobilityConfig, SpectrumChurnConfig, TimedEvent,
    };
    pub use mmhew_engine::{
        AsyncOutcome, AsyncRunConfig, AsyncStartSchedule, ClockConfig, EnergyModel, NeighborTable,
        StartSchedule, SyncOutcome, SyncRunConfig,
    };
    pub use mmhew_faults::{CrashSchedule, FaultPlan, GilbertElliott, JamSchedule, LinkLossModel};
    pub use mmhew_obs::{
        EventSink, FanoutSink, JsonlTraceSink, MetricsSink, NullSink, SimEvent, TimelineSink,
    };
    pub use mmhew_perfetto::{PerfettoConverter, PerfettoSink};
    pub use mmhew_radio::Impairments;
    pub use mmhew_rivals::{DutyClass, McDisDiscovery, NihaoDiscovery};
    pub use mmhew_spectrum::{AvailabilityModel, ChannelId, ChannelSet};
    pub use mmhew_time::{
        DriftBound, DriftModel, DriftedClock, LocalDuration, LocalTime, Rate, RealDuration,
        RealTime,
    };
    pub use mmhew_topology::{
        Link, Network, NetworkBuilder, NetworkEvent, NodeId, Propagation, Topology,
    };
    pub use mmhew_util::{SeedTree, Summary};
}
