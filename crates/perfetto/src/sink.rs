//! Live tee: an [`EventSink`] that feeds the converter during a run.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use mmhew_obs::{EventSink, SimEvent};

use crate::convert::PerfettoConverter;

/// An [`EventSink`] that converts events to a Perfetto trace as they are
/// emitted and writes the `.pftrace` file on [`PerfettoSink::finish`].
///
/// The file is created (truncated) up front, so an unusable path fails
/// before a run starts; the trace bytes are written only at `finish` (the
/// protobuf `Trace` is assembled in memory — sub-messages are
/// length-prefixed, so it cannot be streamed incrementally anyway). The
/// sink only observes, so attaching it can never perturb a simulation,
/// exactly like [`mmhew_obs::JsonlTraceSink`].
pub struct PerfettoSink {
    converter: PerfettoConverter,
    file: File,
}

impl PerfettoSink {
    /// Creates (truncating) the `.pftrace` file at `path`; the trace is
    /// written to it when finished.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when `path` cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self {
            converter: PerfettoConverter::new(),
            file: File::create(path)?,
        })
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.converter.events_pushed()
    }

    /// Serializes the trace and writes the `.pftrace` file; returns the
    /// number of bytes written.
    pub fn finish(mut self) -> io::Result<u64> {
        let bytes = self.converter.finish();
        self.file.write_all(&bytes)?;
        self.file.flush()?;
        Ok(bytes.len() as u64)
    }
}

impl EventSink for PerfettoSink {
    fn on_event(&mut self, event: &SimEvent) {
        self.converter.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_obs::Stamp;
    use mmhew_topology::NodeId;

    #[test]
    fn writes_a_file_on_finish() {
        let dir = std::env::temp_dir().join("mmhew-perfetto-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.pftrace");
        let mut sink = PerfettoSink::create(&path).unwrap();
        sink.on_event(&SimEvent::SlotStart { slot: 0 });
        sink.on_event(&SimEvent::Phase {
            at: Stamp::Slot(0),
            node: NodeId::new(0),
            phase: mmhew_obs::ProtocolPhase::Stage(1),
        });
        assert_eq!(sink.events(), 2);
        let bytes = sink.finish().unwrap();
        assert!(bytes > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        std::fs::remove_file(&path).ok();
    }
}
