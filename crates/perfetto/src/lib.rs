//! # mmhew-perfetto — Perfetto trace export for mmhew simulations
//!
//! Converts the typed [`SimEvent`] stream of a live run into a
//! Perfetto-compatible protobuf `Trace` that <https://ui.perfetto.dev>
//! renders as per-node timelines with counter plots — the visual
//! debugging layer for the paper's algorithms (why does Alg 2's estimate
//! phase stall under a jam schedule? where does staleness spike under
//! churn?).
//!
//! Two entry points:
//!
//! - [`PerfettoConverter`] — the streaming core: push events, receive
//!   serialized `Trace` bytes.
//! - [`PerfettoSink`] — an [`EventSink`] tee for live runs (used by
//!   `Scenario::with_perfetto` and `simulate --perfetto`).
//!
//! There is no offline path from a JSONL trace: a run depends only on its
//! seed, so the Perfetto view of any run comes from re-running it with
//! the tee attached.
//!
//! The protobuf wire format is hand-rolled in [`proto`] (varint +
//! length-delimited is all Perfetto's trace schema needs), in the same
//! no-third-party-deps spirit as `mmhew_obs::json`. Same event stream ⇒
//! byte-identical output: the golden-file tests and the CI
//! `trace-tooling` job both rely on the converter being a pure function.
//!
//! [`SimEvent`]: mmhew_obs::SimEvent
//! [`EventSink`]: mmhew_obs::EventSink

pub mod convert;
pub mod proto;
pub mod sink;

pub use convert::{PerfettoConverter, NS_PER_SLOT, TRUSTED_SEQUENCE_ID};
pub use sink::PerfettoSink;
