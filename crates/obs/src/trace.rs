//! Buffered JSONL (one JSON object per line) trace writer.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{EventSink, SimEvent};
use crate::json;

/// Schema version written as the first line of every trace file, for
/// tools outside this workspace that read traces (nothing here does).
///
/// Version history:
/// - *(unversioned)* — the first traces: event lines only, no header.
/// - **1** — identical event vocabulary, plus this `{"schema_version":1}`
///   header line.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// An [`EventSink`] that appends each event as one JSON line to a buffered
/// writer.
///
/// The first line of the output is a `{"schema_version":N}` header (see
/// [`TRACE_SCHEMA_VERSION`]); every subsequent line is one event. I/O
/// errors are captured rather than panicking the simulation: the sink
/// stops writing after the first failure and reports it from
/// [`JsonlTraceSink::finish`]. With a fixed master seed the byte output is
/// deterministic — two same-seed runs produce identical files.
pub struct JsonlTraceSink<W: Write> {
    out: BufWriter<W>,
    line: String,
    events: u64,
    error: Option<io::Error>,
}

impl JsonlTraceSink<File> {
    /// Creates (truncating) a trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(File::create(path)?))
    }
}

impl<W: Write> JsonlTraceSink<W> {
    /// Wraps any writer (e.g. `Vec<u8>` in tests) and writes the schema
    /// header line.
    pub fn new(writer: W) -> Self {
        let mut sink = Self {
            out: BufWriter::new(writer),
            line: String::new(),
            events: 0,
            error: None,
        };
        let header = format!("{{\"schema_version\":{TRACE_SCHEMA_VERSION}}}\n");
        if let Err(e) = sink.out.write_all(header.as_bytes()) {
            sink.error = Some(e);
        }
        sink
    }

    /// Events written so far (the schema header line is not an event).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes and returns the underlying writer, or the first I/O error
    /// encountered while tracing.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        self.out.into_inner().map_err(|e| e.into_error())
    }
}

impl<W: Write> EventSink for JsonlTraceSink<W> {
    fn on_event(&mut self, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        if let Err(e) = json::write_json(event, &mut self.line) {
            self.error = Some(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            return;
        }
        self.line.push('\n');
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        } else {
            self.events += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use mmhew_radio::SlotAction;
    use mmhew_spectrum::ChannelId;
    use mmhew_time::{LocalTime, RealTime};
    use mmhew_topology::NodeId;

    use super::*;
    use crate::event::{MediumResolution, ProtocolPhase, Stamp};

    /// One event of every variant, exercising every stamp/enum shape.
    fn all_variants() -> Vec<SimEvent> {
        let slot = Stamp::Slot(7);
        let real = Stamp::Real(RealTime::from_nanos(5_000));
        let n = NodeId::new;
        let c = ChannelId::new;
        vec![
            SimEvent::SlotStart { slot: 3 },
            SimEvent::FrameStart {
                node: n(1),
                frame: 2,
                real: RealTime::from_nanos(9_000),
                local: LocalTime::from_nanos(8_900),
            },
            SimEvent::FrameEnd {
                node: n(1),
                frame: 2,
                real: RealTime::from_nanos(10_000),
                local: LocalTime::from_nanos(9_900),
            },
            SimEvent::Action {
                at: slot,
                node: n(0),
                action: SlotAction::Transmit { channel: c(2) },
            },
            SimEvent::Action {
                at: real,
                node: n(1),
                action: SlotAction::Listen { channel: c(0) },
            },
            SimEvent::Action {
                at: slot,
                node: n(2),
                action: SlotAction::Quiet,
            },
            SimEvent::Channel {
                at: slot,
                channel: c(2),
                resolution: MediumResolution::Clear {
                    tx: n(0),
                    rx_count: 2,
                },
            },
            SimEvent::Channel {
                at: slot,
                channel: c(1),
                resolution: MediumResolution::Collision { contenders: 3 },
            },
            SimEvent::Channel {
                at: slot,
                channel: c(0),
                resolution: MediumResolution::Silence { listeners: 1 },
            },
            SimEvent::Delivery {
                at: slot,
                from: n(0),
                to: n(1),
                channel: c(2),
            },
            SimEvent::ImpairmentLoss { at: slot, count: 4 },
            SimEvent::LinkCovered {
                at: slot,
                from: n(0),
                to: n(1),
                covered: 3,
                expected: 22,
            },
            SimEvent::Phase {
                at: slot,
                node: n(0),
                phase: ProtocolPhase::Stage(2),
            },
            SimEvent::Phase {
                at: real,
                node: n(1),
                phase: ProtocolPhase::Estimate(8),
            },
            SimEvent::Phase {
                at: slot,
                node: n(2),
                phase: ProtocolPhase::Terminated,
            },
            SimEvent::NodeJoined {
                at: slot,
                node: n(3),
            },
            SimEvent::NodeLeft {
                at: slot,
                node: n(3),
            },
            SimEvent::EdgeChanged {
                at: slot,
                from: n(0),
                to: n(3),
                added: true,
            },
            SimEvent::ChannelChanged {
                at: slot,
                node: n(1),
                channel: c(3),
                gained: false,
            },
            SimEvent::GroundTruthChanged {
                at: slot,
                covered: 1,
                expected: 20,
            },
            SimEvent::BeaconLost {
                at: slot,
                from: n(0),
                to: n(1),
            },
            SimEvent::SlotJammed {
                at: slot,
                channel: c(2),
                losses: 3,
            },
            SimEvent::CaptureDelivery {
                at: slot,
                to: n(1),
                from: n(0),
                contenders: 3,
            },
            SimEvent::NodeCrashed {
                at: slot,
                node: n(2),
            },
            SimEvent::NodeRecovered {
                at: real,
                node: n(2),
            },
        ]
    }

    #[test]
    fn writes_every_variant_as_its_pinned_line() {
        let mut sink = JsonlTraceSink::new(Vec::new());
        for e in &all_variants() {
            sink.on_event(e);
        }
        assert_eq!(sink.events(), all_variants().len() as u64);
        let bytes = sink.finish().expect("no io error");
        let text = String::from_utf8(bytes).expect("utf8");
        let expected = [
            r#"{"schema_version":1}"#,
            r#"{"slot_start":{"slot":3}}"#,
            r#"{"frame_start":{"node":1,"frame":2,"real":9000,"local":8900}}"#,
            r#"{"frame_end":{"node":1,"frame":2,"real":10000,"local":9900}}"#,
            r#"{"action":{"at":{"slot":7},"node":0,"action":{"Transmit":{"channel":2}}}}"#,
            r#"{"action":{"at":{"real":5000},"node":1,"action":{"Listen":{"channel":0}}}}"#,
            r#"{"action":{"at":{"slot":7},"node":2,"action":"Quiet"}}"#,
            r#"{"channel":{"at":{"slot":7},"channel":2,"resolution":{"clear":{"tx":0,"rx_count":2}}}}"#,
            r#"{"channel":{"at":{"slot":7},"channel":1,"resolution":{"collision":{"contenders":3}}}}"#,
            r#"{"channel":{"at":{"slot":7},"channel":0,"resolution":{"silence":{"listeners":1}}}}"#,
            r#"{"delivery":{"at":{"slot":7},"from":0,"to":1,"channel":2}}"#,
            r#"{"impairment_loss":{"at":{"slot":7},"count":4}}"#,
            r#"{"link_covered":{"at":{"slot":7},"from":0,"to":1,"covered":3,"expected":22}}"#,
            r#"{"phase":{"at":{"slot":7},"node":0,"phase":{"stage":2}}}"#,
            r#"{"phase":{"at":{"real":5000},"node":1,"phase":{"estimate":8}}}"#,
            r#"{"phase":{"at":{"slot":7},"node":2,"phase":"terminated"}}"#,
            r#"{"node_joined":{"at":{"slot":7},"node":3}}"#,
            r#"{"node_left":{"at":{"slot":7},"node":3}}"#,
            r#"{"edge_changed":{"at":{"slot":7},"from":0,"to":3,"added":true}}"#,
            r#"{"channel_changed":{"at":{"slot":7},"node":1,"channel":3,"gained":false}}"#,
            r#"{"ground_truth_changed":{"at":{"slot":7},"covered":1,"expected":20}}"#,
            r#"{"beacon_lost":{"at":{"slot":7},"from":0,"to":1}}"#,
            r#"{"slot_jammed":{"at":{"slot":7},"channel":2,"losses":3}}"#,
            r#"{"capture_delivery":{"at":{"slot":7},"to":1,"from":0,"contenders":3}}"#,
            r#"{"node_crashed":{"at":{"slot":7},"node":2}}"#,
            r#"{"node_recovered":{"at":{"real":5000},"node":2}}"#,
        ];
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, expected);
    }

    #[test]
    fn writes_header_then_one_json_object_per_line() {
        let mut sink = JsonlTraceSink::new(Vec::new());
        sink.on_event(&SimEvent::SlotStart { slot: 3 });
        sink.on_event(&SimEvent::Phase {
            at: Stamp::Slot(3),
            node: NodeId::new(1),
            phase: ProtocolPhase::Estimate(4),
        });
        assert_eq!(sink.events(), 2, "header must not count as an event");
        let bytes = sink.finish().expect("no io error");
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"schema_version\":1}");
        assert_eq!(lines[1], "{\"slot_start\":{\"slot\":3}}");
        assert_eq!(
            lines[2],
            "{\"phase\":{\"at\":{\"slot\":3},\"node\":1,\"phase\":{\"estimate\":4}}}"
        );
    }

    #[test]
    fn identical_event_streams_are_byte_identical() {
        let render = |events: &[SimEvent]| {
            let mut sink = JsonlTraceSink::new(Vec::new());
            for e in events {
                sink.on_event(e);
            }
            sink.finish().expect("no io error")
        };
        let events = vec![
            SimEvent::SlotStart { slot: 0 },
            SimEvent::SlotStart { slot: 1 },
        ];
        assert_eq!(render(&events), render(&events));
    }
}
