//! One error surface for every way a monitored run can fail.
//!
//! The execution modes grew up with mode-shaped errors: the machine and
//! live channels report [`RunError`], replay reports [`ReplayError`]
//! (wrapping the stream layer's [`StreamError`]), and the socket
//! transport reports [`SocketError`]. [`LbaError`] folds them into one
//! hierarchy with `From` conversions in every direction that occurs, so
//! the unified [`Run`](crate::Run) entry point — and anything driving
//! several modes, like the bench harness — propagates failures with `?`
//! and reports them uniformly, whichever layer they started in.

use std::convert::Infallible;
use std::fmt;

use lba_cpu::RunError;
use lba_record::StreamError;
use lba_transport::live::RecvError;
use lba_transport::{SinkError, SocketError};

use crate::replay::ReplayError;

/// Any failure of a monitored run, replay, or remote deployment.
///
/// Every variant `Display`s the underlying layer's descriptive message
/// unchanged — the unification adds no indirection to what went wrong,
/// only one type to match on.
#[derive(Debug)]
pub enum LbaError {
    /// The machine, its configuration, or an in-process live channel
    /// failed (bad PC, deadlock, stalled consumer, recording I/O, ...).
    Run(RunError),
    /// An offline replay failed (damaged recording, codec mismatch,
    /// undecodable frame).
    Replay(ReplayError),
    /// The durable stream layer failed outside a replay (creating or
    /// finishing a flight-recorder stream).
    Stream(StreamError),
    /// The socket transport failed (torn wire, protocol violation).
    Socket(SocketError),
    /// A thread of a live run panicked (a lifeguard bug on a consumer, or
    /// a bug on the producer); the run's other threads still ended.
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
            LbaError::Replay(e) => write!(f, "{e}"),
            LbaError::Stream(e) => write!(f, "{e}"),
            LbaError::Socket(e) => write!(f, "{e}"),
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
            LbaError::Replay(e) => Some(e),
            LbaError::Stream(e) => Some(e),
            LbaError::Socket(e) => Some(e),
            LbaError::Panicked { .. }
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

impl From<ReplayError> for LbaError {
    fn from(e: ReplayError) -> Self {
        LbaError::Replay(e)
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

/// A live receiver's failure: a wire error keeps its own layer, and an
/// undecodable frame names its stream and frame as a replayed one does.
impl From<RecvError> for LbaError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Wire(e) => LbaError::from_sink(e),
            RecvError::Decode {
                stream,
                frame,
                source,
            } => LbaError::Replay(ReplayError::Decode {
                stream,
                frame,
                source,
            }),
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
    /// else lands as a recording-layer [`RunError`].
    #[must_use]
    pub fn from_sink(e: SinkError) -> Self {
        let e = match e.downcast::<SocketError>() {
            Ok(sock) => return LbaError::Socket(*sock),
            Err(e) => e,
        };
        match e.downcast::<StreamError>() {
            Ok(stream) => LbaError::Stream(*stream),
            Err(other) => LbaError::Run(RunError::Recording {
                detail: other.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_converts_and_displays_unchanged() {
        let run: LbaError = RunError::ChannelStalled.into();
        assert_eq!(run.to_string(), RunError::ChannelStalled.to_string());

        let stream_err = StreamError::NoSuchStream {
            dir: "/tmp/none".into(),
            stream: 3,
        };
        let expect = stream_err.to_string();
        let stream: LbaError = stream_err.into();
        assert_eq!(stream.to_string(), expect);

        let replay: LbaError = ReplayError::NoStreams {
            dir: "/tmp/none".to_string(),
        }
        .into();
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
        assert!(matches!(err, LbaError::Run(RunError::Recording { .. })));
        assert!(err.to_string().contains("disk gone"));
    }
}
