//! Composable, seeded fault injection for M²HeW neighbor discovery.
//!
//! The paper's conclusion claims Algorithms 1–4 extend to unreliable
//! channels; the authors' follow-up robustness paper works that claim out
//! by repeating transmissions against per-beacon loss. This crate provides
//! the fault *vocabulary* both simulation engines consume through a single
//! [`FaultPlan`]:
//!
//! * per-directed-link loss models ([`LinkLossModel`]): i.i.d. Bernoulli
//!   (the trivial case `mmhew-radio::Impairments` delegates to) and
//!   two-state bursty [`GilbertElliott`] channels; per-direction overrides
//!   express asymmetric links;
//! * per-channel jammer schedules ([`JamSchedule`]): fixed-set, sweeping,
//!   and seeded random jammers as a time-stepped function, following the
//!   `DynamicsSchedule` cursor idiom (unit-agnostic `u64` times — slot
//!   indices under the synchronous engine, nanoseconds under the
//!   asynchronous one);
//! * the capture effect: a collision of `k` transmitters still delivers
//!   the strongest frame with probability `p_cap`;
//! * a crash/recover node process ([`CrashSchedule`]): the node stays in
//!   the topology (its links still count toward discovery ground truth)
//!   but its radio goes silent — distinct from `NodeLeave` churn, which
//!   removes the node from the ground truth entirely.
//!
//! [`ActiveFaults`] is the runtime the engines drive: it holds the
//! channel state of each link that needs one (overrides, and
//! Gilbert–Elliott links once heard), the crash bitmap, schedule cursors,
//! and reusable per-slot tally buffers, so its memory grows with the
//! links heard rather than with node pairs, and the steady-state hot loop
//! performs no heap allocation.
//!
//! # Neutrality
//!
//! An **empty plan is free**: `FaultPlan::default().is_empty()` is `true`,
//! the engines then skip fault machinery entirely, and outcomes *and*
//! JSONL traces are byte-identical to a run without faults. Configured
//! faults draw RNG only where a model is attached — links without a loss
//! model draw nothing, and jam/crash schedules are resolved purely from
//! their (seeded-at-construction) event lists.
//!
//! # Examples
//!
//! ```
//! use mmhew_faults::{FaultPlan, GilbertElliott, JamSchedule, LinkLossModel};
//! use mmhew_spectrum::ChannelId;
//!
//! let ge = GilbertElliott::bursty(0.3, 8.0);
//! assert!((ge.stationary_loss() - 0.3).abs() < 1e-12);
//! let plan = FaultPlan::new()
//!     .with_default_loss(LinkLossModel::GilbertElliott(ge))
//!     .with_jamming(JamSchedule::fixed([ChannelId::new(0)].into_iter().collect()))
//!     .with_capture(0.5);
//! assert!(!plan.is_empty());
//! assert!(FaultPlan::new().is_empty());
//! ```

pub mod active;
pub mod crash;
pub mod jam;
pub mod loss;
pub mod plan;

pub use active::{ActiveFaults, CaptureRecord, CrashTransition};
pub use crash::{CrashEvent, CrashSchedule};
pub use jam::{JamSchedule, JamStep};
pub use loss::{bernoulli_delivers, GilbertElliott, LinkLossModel};
pub use plan::FaultPlan;
