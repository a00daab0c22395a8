//! Log transport between the application core and the lifeguard core.
//!
//! The paper transports the *compressed* log through the cache hierarchy;
//! the two cores are deliberately not synchronised and coordinate only
//! through the log buffer. Since the wire unit is a cache line, transport
//! here moves **frames** — cache-line-multiple byte buffers produced by
//! `lba_compress::FrameEncoder` — not individual records, and consumers
//! take them a frame at a time:
//!
//! * [`ModeledFrameChannel`] — the deterministic timing model the
//!   co-simulation gives each lifeguard core: a real encoder feeding one
//!   bounded byte-budget queue of sealed frames, each carrying its records
//!   and its production timestamp, giving exact back-pressure (producer
//!   stalls on full) and lag (consumer waits on empty) behaviour.
//!   [`ModeledFrameChannel::pop_frame`] lends a whole frame out as one
//!   slice with a single `ready_at` stamp.
//! * [`live`] — the transport of the "live monitoring" modes, where
//!   application and lifeguard genuinely run on different OS threads: one
//!   [`live::FrameSender`] and one [`live::FrameReceiver`] over either of
//!   two wires. [`live::frame_channel`] builds the in-process
//!   single-producer/single-consumer queue (one queue operation per frame,
//!   amortised over `records_per_frame` records);
//!   [`socket::socket_pair`] builds the [`socket`] wire, the same sealed
//!   frames over a Unix-domain socket with a credit window carrying the
//!   back-pressure across it. [`live::FrameReceiver::recv_batch`] hands
//!   out the same [`PoppedFrame`] shape on both.
//!
//! Either way the dispatch engine delivers each frame as a batch. Every
//! channel end counts what passes it in one [`ChannelStats`] (records,
//! frames, wire bits and the frames carrying the degraded-capture mark):
//! the modeled channel and a sender count what they ship, a receiver what
//! it reads off a live wire or a recording, so a replay's counts check
//! against the run that recorded it. The [`sink`] seam mirrors sealed
//! frames into flight recordings, and [`fault`] injects a slow consumer on
//! demand.
//!
//! # Examples
//!
//! ```
//! use lba_compress::FrameConfig;
//! use lba_record::EventRecord;
//! use lba_transport::{ModeledFrameChannel, PushOutcome};
//!
//! let mut ch = ModeledFrameChannel::new(4096, FrameConfig::default(), false);
//! let rec = EventRecord::alu(0x1000, 0, None, None, Some(1));
//! assert_eq!(ch.push_record(&rec, 100), PushOutcome::Buffered);
//! assert!(matches!(ch.flush(120), PushOutcome::Sealed { .. }));
//! let frame = ch.pop_frame().expect("one frame queued");
//! assert_eq!(frame.records, [rec]);
//! assert_eq!(frame.ready_at, 120); // visible when the frame shipped
//! ```

mod channel;
pub mod fault;
pub mod live;
mod model;
pub mod sink;
pub mod socket;

pub use channel::{shard_of, ChannelStats, LoadSample, PoppedFrame, PushOutcome};
pub use fault::FaultProfile;
pub use model::ModeledFrameChannel;
pub use sink::{
    ChannelTee, FrameSink, FrameSource, SealedFrame, SinkError, StreamSink, StreamSource,
};
pub use socket::{socket_pair, SocketError, SocketSender, SocketSink, SocketSource};
