//! Flight-recorder glue: opening per-stream sinks for the run modes and
//! finishing them with errors folded into [`LbaError`].

use lba_compress::CODEC_VERSION;
use lba_record::SegmentWriter;
use lba_transport::{FrameSink, SinkError, StreamSink};

use crate::config::RecordConfig;
use crate::error::LbaError;

/// Opens the segmented stream sink for stream `stream` of a recording —
/// stream 0 for the single-channel modes, the shard index for the sharded
/// ones. The codec version of the running build is stamped into every
/// segment header so replay can refuse a mismatched stream. A recording
/// that cannot open is the stream layer's [`LbaError::Stream`], naming
/// the path.
pub(crate) fn open_sink(
    record: &RecordConfig,
    stream: u32,
) -> Result<Box<dyn FrameSink + Send>, LbaError> {
    let writer = SegmentWriter::create(&record.dir, stream, CODEC_VERSION, record.stream)?;
    Ok(Box::new(StreamSink::new(writer)))
}

/// Finishes a tee taken back from a channel: closes the stream (writing
/// its End record) and surfaces any mirror error the channel latched.
pub(crate) fn finish_tee(
    tee: Result<Option<Box<dyn FrameSink + Send>>, SinkError>,
) -> Result<(), LbaError> {
    match tee {
        Ok(Some(mut sink)) => sink.finish_sink().map_err(LbaError::from_sink),
        Ok(None) => Ok(()),
        Err(e) => Err(LbaError::from_sink(e)),
    }
}
