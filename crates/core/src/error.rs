//! One error type for every way a monitored run or a replay can fail.
//!
//! Every entry point (the [`Run`](crate::Run) builder, each `run_*`
//! function, [`LogConfig::validate_framing`](crate::LogConfig::validate_framing)
//! and the experiment layer) returns [`LbaError`]. The machine reports
//! [`RunError`], the stream layer [`StreamError`], and the socket
//! transport [`SocketError`]; [`LbaError`] wraps each with a `From`
//! conversion, beside what only a run can hit: a log configuration that
//! cannot ship, a stalled channel, a panicking thread, an undecodable
//! frame (live, remote or replayed alike), a recording with no streams or
//! another codec. So anything driving several modes, like the bench
//! harness, propagates every failure with `?`.

use std::convert::Infallible;
use std::fmt;

use lba_compress::FrameDecodeError;
use lba_cpu::RunError;
use lba_record::StreamError;
use lba_transport::live::RecvError;
use lba_transport::{SinkError, SocketError};

use crate::runner::RunMode;

/// Any failure of a monitored run, replay, or remote deployment.
///
/// A variant wrapping a layer's error `Display`s its descriptive message
/// unchanged — the unification adds no indirection to what went wrong,
/// only one type to match on.
#[derive(Debug)]
pub enum LbaError {
    /// The machine faulted (bad PC, bad jump target, deadlock, call
    /// depth, instruction limit).
    Run(RunError),
    /// The configured log buffer is smaller than a single transport frame,
    /// so not even one record could ever be shipped to the lifeguard.
    LogBufferTooSmall {
        /// The configured buffer size in bytes.
        buffer_bytes: u64,
        /// The minimum frame size in bytes (one cache line).
        frame_bytes: u64,
    },
    /// `records_per_frame` was configured to zero: no frame could ever
    /// seal, so no record would reach the lifeguard.
    ZeroRecordsPerFrame,
    /// `records_per_frame` was configured above what a frame's record
    /// count can express, so no frame of that size could ever seal.
    RecordsPerFrameTooLarge {
        /// The configured `records_per_frame`.
        records_per_frame: usize,
        /// The most records one frame can carry.
        max: usize,
    },
    /// A live consumer stopped draining for longer than the configured
    /// stall timeout (`LogConfig::channel_stall_timeout`): the producer
    /// latched the stall and abandoned the run instead of waiting on the
    /// full queue or the spent credit window forever.
    ChannelStalled,
    /// The durable stream layer failed: writing a flight recording, or
    /// reading a damaged, truncated or aged-out one back.
    Stream(StreamError),
    /// A replay's recording directory holds no streams at all.
    NoStreams {
        /// The directory inspected.
        dir: String,
    },
    /// A recording was sealed under a codec version this build does not
    /// decode, so replay refuses it before reading any frame.
    CodecMismatch {
        /// The stream with the mismatched codec.
        stream: u32,
        /// Codec version stamped in the recording.
        recorded: u32,
        /// Codec version of the running build.
        running: u32,
    },
    /// A frame arrived whole but does not decode (the reader's codec
    /// settings differ from the sender's, or a codec bug).
    Decode {
        /// The stream (shard) the frame belongs to.
        stream: u32,
        /// Zero-based index of the frame within its stream.
        frame: u64,
        /// The decoder's error.
        source: FrameDecodeError,
    },
    /// The socket transport failed (torn wire, protocol violation).
    Socket(SocketError),
    /// A frame sink or source failed with an error of neither the stream
    /// nor the socket layer, carried as its message.
    Sink {
        /// What the sink or source reported.
        detail: String,
    },
    /// A thread of a live run or a replay panicked (a lifeguard bug on a
    /// consumer, or a bug on the producer); the other threads still ended.
    Panicked {
        /// The producer thread, or a shard's consumer and its lifeguard.
        thread: String,
        /// The panic message.
        message: String,
    },
    /// The requested mode/monitor combination is outside the registry's
    /// declared capabilities (e.g. sharding TaintCheck, whose register
    /// state is a sequential dependence chain).
    Unsupported {
        /// The run mode requested.
        mode: &'static str,
        /// The monitor requested.
        monitor: String,
    },
    /// The run request itself is incomplete or contradictory (e.g. a
    /// replay mode with no recording directory).
    InvalidRequest {
        /// What the request is missing or contradicting.
        detail: String,
    },
}

impl fmt::Display for LbaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LbaError::Run(e) => write!(f, "{e}"),
            LbaError::LogBufferTooSmall {
                buffer_bytes,
                frame_bytes,
            } => write!(
                f,
                "log buffer of {buffer_bytes} B cannot hold a single {frame_bytes} B log frame"
            ),
            LbaError::ZeroRecordsPerFrame => {
                write!(f, "log records_per_frame must be non-zero")
            }
            LbaError::RecordsPerFrameTooLarge {
                records_per_frame,
                max,
            } => write!(
                f,
                "log records_per_frame of {records_per_frame} exceeds the {max} records one frame can carry"
            ),
            LbaError::ChannelStalled => write!(
                f,
                "log channel stalled: the consumer stopped draining past the configured timeout"
            ),
            LbaError::Stream(e) => write!(f, "{e}"),
            LbaError::NoStreams { dir } => write!(f, "no recorded streams in {dir}"),
            LbaError::CodecMismatch {
                stream,
                recorded,
                running,
            } => write!(
                f,
                "stream {stream} was recorded under codec version {recorded}, \
                 but this build decodes version {running}"
            ),
            LbaError::Decode {
                stream,
                frame,
                source,
            } => write!(
                f,
                "frame {frame} of stream {stream} failed to decode \
                 (were the recording's compression settings used?): {source}"
            ),
            LbaError::Socket(e) => write!(f, "{e}"),
            LbaError::Sink { detail } => write!(f, "frame sink failed: {detail}"),
            LbaError::Panicked { thread, message } => write!(f, "{thread} panicked: {message}"),
            LbaError::Unsupported { mode, monitor } => write!(
                f,
                "run mode `{mode}` does not support monitor `{monitor}` \
                 (see the capability flags in `pipeline::MONITORS`)"
            ),
            LbaError::InvalidRequest { detail } => {
                write!(f, "invalid run request: {detail}")
            }
        }
    }
}

impl std::error::Error for LbaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LbaError::Run(e) => Some(e),
            LbaError::Stream(e) => Some(e),
            LbaError::Decode { source, .. } => Some(source),
            LbaError::Socket(e) => Some(e),
            LbaError::LogBufferTooSmall { .. }
            | LbaError::ZeroRecordsPerFrame
            | LbaError::RecordsPerFrameTooLarge { .. }
            | LbaError::ChannelStalled
            | LbaError::NoStreams { .. }
            | LbaError::CodecMismatch { .. }
            | LbaError::Sink { .. }
            | LbaError::Panicked { .. }
            | LbaError::Unsupported { .. }
            | LbaError::InvalidRequest { .. } => None,
        }
    }
}

impl From<RunError> for LbaError {
    fn from(e: RunError) -> Self {
        LbaError::Run(e)
    }
}

impl From<StreamError> for LbaError {
    fn from(e: StreamError) -> Self {
        LbaError::Stream(e)
    }
}

impl From<SocketError> for LbaError {
    fn from(e: SocketError) -> Self {
        LbaError::Socket(e)
    }
}

/// A receiver's failure: a wire error keeps its own layer, and an
/// undecodable frame names its stream and frame.
impl From<RecvError> for LbaError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Wire(e) => LbaError::from_sink(e),
            RecvError::Decode {
                stream,
                frame,
                source,
            } => LbaError::Decode {
                stream,
                frame,
                source,
            },
        }
    }
}

/// The in-process queue cannot fail; this lets code generic over the
/// live wires propagate their errors with `?`.
impl From<Infallible> for LbaError {
    fn from(e: Infallible) -> Self {
        match e {}
    }
}

impl LbaError {
    /// Folds a type-erased [`SinkError`] from the `FrameSink` /
    /// `FrameSource` seam into the hierarchy: socket and stream errors
    /// keep their own variants (and their descriptive messages); anything
    /// else lands as [`LbaError::Sink`], carrying its message.
    #[must_use]
    pub(crate) fn from_sink(e: SinkError) -> Self {
        let e = match e.downcast::<SocketError>() {
            Ok(sock) => return LbaError::Socket(*sock),
            Err(e) => e,
        };
        match e.downcast::<StreamError>() {
            Ok(stream) => LbaError::Stream(*stream),
            Err(other) => LbaError::Sink {
                detail: other.to_string(),
            },
        }
    }

    /// Refuses a sharded `mode` asked to run zero shards wide.
    pub(crate) fn check_shards(mode: RunMode, shards: usize) -> Result<(), Self> {
        if shards > 0 {
            return Ok(());
        }
        Err(LbaError::InvalidRequest {
            detail: format!("mode `{mode}` needs at least one shard"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_converts_and_displays_unchanged() {
        let run: LbaError = RunError::Deadlock.into();
        assert_eq!(run.to_string(), RunError::Deadlock.to_string());

        let stream_err = StreamError::NoSuchStream {
            dir: "/tmp/none".into(),
            stream: 3,
        };
        let expect = stream_err.to_string();
        let stream: LbaError = stream_err.into();
        assert_eq!(stream.to_string(), expect);

        let replay: LbaError = LbaError::NoStreams {
            dir: "/tmp/none".to_string(),
        };
        assert!(replay.to_string().contains("no recorded streams"));

        let socket: LbaError = SocketError::Torn {
            endpoint: "uds:worker-2".to_string(),
            frames: 5,
        }
        .into();
        assert!(socket.to_string().contains("tore mid-stream"));
        assert!(matches!(socket, LbaError::Socket(_)));
    }

    #[test]
    fn sink_errors_recover_their_concrete_layer() {
        let sink: SinkError = Box::new(SocketError::Torn {
            endpoint: "uds:worker-0".to_string(),
            frames: 3,
        });
        let err = LbaError::from_sink(sink);
        assert!(matches!(
            err,
            LbaError::Socket(SocketError::Torn { frames: 3, .. })
        ));

        let sink: SinkError = Box::new(std::io::Error::other("disk gone"));
        let err = LbaError::from_sink(sink);
        assert!(matches!(err, LbaError::Sink { .. }));
        assert!(err.to_string().contains("disk gone"));
    }
}
