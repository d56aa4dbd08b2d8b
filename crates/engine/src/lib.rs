//! Simulation engines for M²HeW neighbor discovery.
//!
//! Two engines execute [`SyncProtocol`]/[`AsyncProtocol`] state machines
//! over a [`mmhew_topology::Network`]:
//!
//! * [`SyncEngine`] — globally synchronized slots with the paper's
//!   collision model; supports per-node start slots (Algorithm 3's
//!   variable start times). The dead-air-skipping event executor
//!   ([`SyncEngine::run_event`], module [`event`]) is held byte-identical
//!   to the slot-by-slot oracle and measured no faster; it is kept only
//!   for the benchmark's executor comparison;
//! * [`AsyncEngine`] — event-driven continuous time; per-node drifting
//!   clocks, local frames split into three slots, interval-based reception
//!   (Algorithm 4).
//!
//! The two engines differ in their clock and their medium. Everything else
//! runs on one shared core: the copy-on-write network and its dynamics
//! schedule, the fault runtime, the per-link [`CoverageTracker`], one
//! cached beacon per node, the node and medium RNG streams, and the event
//! sink — with one copy each of how a dynamics boundary is applied, how
//! crash transitions surface, and what a delivery does and emits. Both
//! return rich outcomes ([`SyncOutcome`], [`AsyncOutcome`]) the experiment
//! harness consumes.
//!
//! The engines enforce the distributed-computing boundary: a protocol only
//! ever sees its own slot/frame counter, its own RNG stream, and the
//! beacons it hears.
//!
//! Both engines accept a pluggable [`mmhew_obs::EventSink`] (via
//! `with_sink`) and emit the shared [`mmhew_obs::SimEvent`] vocabulary —
//! slot/frame boundaries, per-node actions, per-channel medium
//! resolutions, deliveries, link coverage, and protocol phase
//! transitions. Without a sink the instrumentation costs one branch per
//! slot.
//!
//! Both engines also accept a [`mmhew_faults::FaultPlan`] (via
//! `with_faults`): per-link loss models, jammer schedules, the capture
//! effect (slotted engine only), and crash/recover outages. An empty plan
//! is provably neutral — outcomes, RNG streams, and traces are
//! bit-identical to a run without faults.

pub mod async_engine;
pub mod config;
pub mod energy;
pub mod event;
pub mod observer;
pub mod protocol;
pub mod sync;
pub mod table;
mod world;

pub use async_engine::{AsyncEngine, AsyncOutcome};
pub use config::{
    AsyncRunConfig, AsyncStartSchedule, BurstPlan, ClockConfig, StartSchedule, SyncRunConfig,
};
pub use energy::{ActionCounts, EnergyModel};
pub use event::{Engine, EventCursor};
pub use mmhew_dynamics::DynamicsSchedule;
pub use mmhew_faults::FaultPlan;
pub use observer::CoverageTracker;
pub use protocol::{AsyncProtocol, SyncProtocol};
pub use sync::{SyncEngine, SyncOutcome};
pub use table::NeighborTable;
