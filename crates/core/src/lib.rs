//! The paper's contribution: randomized neighbor-discovery algorithms for
//! multi-hop multi-channel heterogeneous wireless (M²HeW) networks.
//!
//! Reproduces *"Randomized Distributed Algorithms for Neighbor Discovery in
//! Multi-Hop Multi-Channel Heterogeneous Wireless Networks"* (Mittal, Zeng,
//! Venkatesan, Chandrasekaran — ICDCS 2011):
//!
//! | Paper | Here | Setting |
//! |-------|------|---------|
//! | Algorithm 1 | [`StagedDiscovery`] | synchronous, identical starts, known `Δ_est` |
//! | Algorithm 2 | [`AdaptiveDiscovery`] | synchronous, identical starts, no degree knowledge |
//! | Algorithm 3 | [`UniformDiscovery`] | synchronous, variable starts, known `Δ_est` |
//! | Algorithm 4 | [`AsyncFrameDiscovery`] | asynchronous, drifting clocks (`δ ≤ 1/7`), known `Δ_est` |
//! | §I strawman | [`baseline::PerChannelBirthday`] | per-universal-channel birthday instances |
//!
//! [`Bounds`] provides the closed-form running-time bounds of Theorems 1–3
//! and 9–10 so experiments can print prediction next to measurement, and
//! the [`Scenario`] builder wires everything to the simulation engines in
//! one composable call chain.
//!
//! # Examples
//!
//! ```
//! use mmhew_discovery::{Bounds, Scenario, SyncAlgorithm, SyncParams};
//! use mmhew_engine::SyncRunConfig;
//! use mmhew_spectrum::AvailabilityModel;
//! use mmhew_topology::NetworkBuilder;
//! use mmhew_util::SeedTree;
//!
//! let net = NetworkBuilder::grid(3, 3)
//!     .universe(12)
//!     .availability(AvailabilityModel::UniformSubset { size: 6 })
//!     .build(SeedTree::new(42))?;
//! let delta_est = net.max_degree().max(1) as u64;
//! let outcome = Scenario::sync(&net, SyncAlgorithm::Staged(SyncParams::new(delta_est)?))
//!     .config(SyncRunConfig::until_complete(1_000_000))
//!     .run(SeedTree::new(7))?;
//! assert!(outcome.completed());
//! let bound = Bounds::from_network(&net, delta_est, 0.01).theorem1_slots();
//! assert!((outcome.slots_to_complete().unwrap() as f64) < bound);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod alg1_staged;
pub mod alg2_adaptive;
pub mod alg3_uniform;
pub mod alg4_async;
pub mod baseline;
pub mod bounds;
pub mod continuous;
pub mod params;
pub mod robust;
pub mod runner;
pub mod scenario;
pub mod termination;

pub use alg1_staged::StagedDiscovery;
pub use alg2_adaptive::{AdaptiveDiscovery, GrowthStrategy};
pub use alg3_uniform::UniformDiscovery;
pub use alg4_async::AsyncFrameDiscovery;
pub use bounds::{alg3_link_coverage_probability, Bounds};
pub use continuous::{
    build_continuous_protocols, staleness, ContinuousConfig, ContinuousDiscovery, StalenessReport,
};
pub use mmhew_engine::Engine;
pub use params::{AsyncParams, ProtocolError, SyncParams};
pub use robust::{repetition_factor, RobustDiscovery};
pub use runner::{
    build_sync_protocols, tables_are_sound, tables_match_ground_truth, AsyncAlgorithm,
    SyncAlgorithm,
};
pub use scenario::{AsyncScenario, Scenario, SyncScenario, DEFAULT_BUDGET};
pub use termination::{QuiescentAsyncTermination, QuiescentTermination};
