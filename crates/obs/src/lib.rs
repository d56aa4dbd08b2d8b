//! # mmhew-obs — observability for the mmhew simulation engines
//!
//! The engines in `mmhew-engine` are instrumented with a typed event
//! stream: every slot, action, per-channel medium resolution, delivery,
//! link coverage, and protocol phase transition is described by a
//! [`SimEvent`] and pushed into a pluggable [`EventSink`]. Both engines
//! emit the same vocabulary, so one sink implementation observes
//! synchronous (Algorithms 1–3) and asynchronous (Algorithm 4) runs alike.
//!
//! Four sinks ship with the crate:
//!
//! - [`NullSink`] — the zero-cost default; reports itself disabled so the
//!   engine skips event assembly entirely.
//! - [`MetricsSink`] — in-memory per-node/per-channel counters, contention
//!   histograms, busy-fraction and collision-rate summaries.
//! - [`JsonlTraceSink`] — buffered JSON-lines writer; same seed ⇒ byte
//!   identical trace.
//! - [`TimelineSink`] — an ASCII slot×node timeline for small runs.
//!
//! [`FanoutSink`] combines several sinks in one run, and [`CollectSink`]
//! buffers raw events for tests. The [`json`] module holds the
//! dependency-free JSON serializer behind the trace writer; [`value`] is
//! its read-side complement (a minimal JSON parser) for campaign specs
//! and manifests.
//!
//! Traces are written, never read back: a run depends only on its seed,
//! so its Perfetto view comes from re-running it with a Perfetto tee
//! (`mmhew-perfetto`'s `PerfettoSink`), not from converting its JSONL.

pub mod event;
pub mod json;
pub mod metrics;
pub mod timeline;
pub mod trace;
pub mod value;

pub use event::{
    CollectSink, EventSink, FanoutSink, MediumResolution, NullSink, ProtocolPhase, SimEvent, Stamp,
};
pub use metrics::{ChannelActivity, MetricsSink, NodeActivity};
pub use timeline::TimelineSink;
pub use trace::{JsonlTraceSink, TRACE_SCHEMA_VERSION};
