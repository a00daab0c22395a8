//! The sink/source seam: where sealed frames *go* and where frames *come
//! from*, as first-class traits.
//!
//! [`FrameSink`] is where a recording goes: the channels mirror every
//! frame into one at the moment it seals, through their tee
//! ([`ModeledFrameChannel::tee_into`](crate::ModeledFrameChannel::tee_into),
//! [`FrameSender::tee_into`](crate::live::FrameSender::tee_into)), which
//! costs one `memcpy`-free borrow per sealed frame plus whatever the sink
//! does. [`FrameSource`] is where a consumer's frames come from: the live
//! in-process queue, a socket, or a recording — a
//! [`FrameReceiver`](crate::live::FrameReceiver) decodes any of them.
//! [`StreamSink`] / [`StreamSource`] adapt `lba_record`'s segmented
//! `lbas/1` stream writer/reader to the seam, making any run durable. A
//! replay is a `FrameReceiver` over a [`StreamSource`]: the receiver counts
//! the frames (degraded ones included) as it does on a live wire, and the
//! source keeps where a damaged recording tore.
//!
//! Sink failures (disk full, permissions) must not take down the
//! monitored application: the channels latch the *first* sink error, stop
//! mirroring, and surface the error when the tee is taken back — the
//! run's own transport is never disturbed.

use lba_record::{SegmentReader, SegmentWriter, StreamError, StreamSummary};

/// A sealed compressed frame, borrowed at the moment of sealing.
#[derive(Debug, Clone, Copy)]
pub struct SealedFrame<'a> {
    /// The frame's complete wire image (header, payload, line padding).
    pub bytes: &'a [u8],
    /// Records the frame carries.
    pub records: u32,
    /// Producer-core cycle at which the frame sealed; 0 on transports
    /// with no modeled clock (the live channel).
    pub sealed_at: u64,
}

impl SealedFrame<'_> {
    /// Wire bits the frame occupies on the transport.
    #[must_use]
    pub fn wire_bits(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }
}

/// Errors a sink or source can report. Boxed so backends with different
/// failure domains (filesystem, sockets) share the seam.
pub type SinkError = Box<dyn std::error::Error + Send + Sync>;

/// Where sealed frames go.
pub trait FrameSink {
    /// Accepts one sealed frame.
    ///
    /// # Errors
    ///
    /// Backend-specific; a failing sink is broken and will not be offered
    /// further frames by the channels' tee machinery.
    fn put_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SinkError>;

    /// Flushes and closes the sink cleanly. Called through the trait
    /// object so owners of a `Box<dyn FrameSink>` can finish without
    /// knowing the concrete type.
    ///
    /// # Errors
    ///
    /// Backend-specific.
    fn finish_sink(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
}

/// Where sealed frames come from.
pub trait FrameSource {
    /// The next sealed frame's wire image, or `Ok(None)` at the clean end
    /// of the source.
    ///
    /// # Errors
    ///
    /// Backend-specific (e.g. a truncated or corrupt recording).
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError>;

    /// Takes back a frame buffer its consumer is done with, for reuse.
    /// Sources that cannot reuse buffers drop it (the default).
    fn recycle(&mut self, spent: Vec<u8>) {
        drop(spent);
    }
}

/// The tee slot a channel embeds: an optional mirror sink plus a
/// first-error latch. Sink failures must never disturb the channel's own
/// transport, so [`mirror`](ChannelTee::mirror) swallows the error, stops
/// mirroring, and hands the error back when the tee is
/// [taken](ChannelTee::take).
#[derive(Default)]
pub struct ChannelTee {
    sink: Option<Box<dyn FrameSink + Send>>,
    error: Option<SinkError>,
}

impl std::fmt::Debug for ChannelTee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTee")
            .field("active", &self.sink.is_some())
            .field("errored", &self.error.is_some())
            .finish()
    }
}

impl ChannelTee {
    /// Installs (or replaces) the mirror sink and clears any latched error.
    pub fn install(&mut self, sink: Box<dyn FrameSink + Send>) {
        self.sink = Some(sink);
        self.error = None;
    }

    /// Offers one sealed frame to the mirror sink, latching the first
    /// error and dropping the sink on failure.
    pub fn mirror(&mut self, frame: &SealedFrame<'_>) {
        if let Some(sink) = self.sink.as_mut() {
            if let Err(e) = sink.put_frame(frame) {
                self.error = Some(e);
                self.sink = None;
            }
        }
    }

    /// Takes the sink back (to finish it), or reports the first mirror
    /// error if one was latched.
    ///
    /// # Errors
    ///
    /// The first error a [`mirror`](ChannelTee::mirror) call swallowed.
    pub fn take(&mut self) -> Result<Option<Box<dyn FrameSink + Send>>, SinkError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(self.sink.take())
    }
}

/// [`FrameSink`] over a segmented `lbas/1` stream: every sealed frame
/// becomes a durable stream record; [`finish_sink`](FrameSink::finish_sink)
/// closes the stream with its End record and captures the
/// [`StreamSummary`].
#[derive(Debug)]
pub struct StreamSink {
    writer: Option<SegmentWriter>,
    summary: Option<StreamSummary>,
}

impl StreamSink {
    /// Wraps a segment writer as a frame sink.
    #[must_use]
    pub fn new(writer: SegmentWriter) -> Self {
        StreamSink {
            writer: Some(writer),
            summary: None,
        }
    }

    /// The stream summary, available after a successful
    /// [`finish_sink`](FrameSink::finish_sink).
    #[must_use]
    pub fn summary(&self) -> Option<StreamSummary> {
        self.summary
    }
}

impl FrameSink for StreamSink {
    fn put_frame(&mut self, frame: &SealedFrame<'_>) -> Result<(), SinkError> {
        let writer = self.writer.as_mut().ok_or("stream sink already finished")?;
        writer
            .append(frame.sealed_at, frame.records, frame.bytes)
            .map_err(SinkError::from)
    }

    fn finish_sink(&mut self) -> Result<(), SinkError> {
        if let Some(writer) = self.writer.take() {
            self.summary = Some(writer.finish()?);
        }
        Ok(())
    }
}

/// [`FrameSource`] over a recorded `lbas/1` stream, yielding the sealed
/// frame images in their original seal order.
#[derive(Debug)]
pub struct StreamSource {
    reader: SegmentReader,
    salvage: bool,
    tear: Option<StreamError>,
}

impl StreamSource {
    /// Wraps a segment reader as a frame source.
    #[must_use]
    pub fn new(reader: SegmentReader) -> Self {
        StreamSource {
            reader,
            salvage: false,
            tear: None,
        }
    }

    /// The salvage switch. On, damage met after the stream opened (a torn
    /// tail, a checksum mismatch) ends the source cleanly after the last
    /// intact frame and is kept as its [`tear`](Self::tear); off (the
    /// default), it is the source's error.
    pub fn set_salvage(&mut self, on: bool) {
        self.salvage = on;
    }

    /// Where a salvaging source tore: the damage it ended at, if any.
    #[must_use]
    pub fn tear(&self) -> Option<&StreamError> {
        self.tear.as_ref()
    }

    /// The codec version the recorded frames were sealed under.
    #[must_use]
    pub fn codec_version(&self) -> u32 {
        self.reader.codec_version()
    }
}

impl FrameSource for StreamSource {
    fn next_frame_bytes(&mut self) -> Result<Option<Vec<u8>>, SinkError> {
        if self.tear.is_some() {
            return Ok(None);
        }
        match self.reader.next_frame() {
            Ok(Some(frame)) => Ok(Some(frame.bytes)),
            Ok(None) => Ok(None),
            Err(e) if self.salvage => {
                self.tear = Some(e);
                Ok(None)
            }
            Err(e) => Err(SinkError::from(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::FrameReceiver;
    use lba_compress::FrameConfig;
    use lba_record::StreamConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lba-sink-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn image(records: u32) -> Vec<u8> {
        let mut bytes = vec![0u8; 64];
        bytes[0..4].copy_from_slice(&records.to_le_bytes());
        bytes
    }

    #[test]
    fn stream_sink_round_trips_through_stream_source() {
        let dir = temp_dir("roundtrip");
        let writer = SegmentWriter::create(&dir, 0, 7, StreamConfig::default()).unwrap();
        let mut sink = StreamSink::new(writer);
        let images: Vec<Vec<u8>> = (1..=4u32).map(image).collect();
        for (i, img) in images.iter().enumerate() {
            sink.put_frame(&SealedFrame {
                bytes: img,
                records: i as u32 + 1,
                sealed_at: i as u64 * 10,
            })
            .unwrap();
        }
        sink.finish_sink().unwrap();
        assert_eq!(sink.summary().unwrap().frames, 4);
        // Finishing twice is fine; appending after a finish is an error.
        sink.finish_sink().unwrap();
        assert!(sink
            .put_frame(&SealedFrame {
                bytes: &images[0],
                records: 1,
                sealed_at: 0
            })
            .is_err());

        let reader = SegmentReader::open(&dir, 0).unwrap();
        let mut source = StreamSource::new(reader);
        assert_eq!(source.codec_version(), 7);
        for img in &images {
            assert_eq!(source.next_frame_bytes().unwrap().as_ref(), Some(img));
        }
        assert!(source.next_frame_bytes().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_salvaging_source_ends_at_the_tear_and_counts_degraded_frames() {
        let dir = temp_dir("salvage");
        let writer = SegmentWriter::create(&dir, 0, 7, StreamConfig::default()).unwrap();
        let mut sink = StreamSink::new(writer);
        // Frames 1 and 3 carry the degraded mark (bit 30 of the count word).
        for records in [1u32, 2 | 1 << 30, 3, 4 | 1 << 30] {
            let img = image(records);
            sink.put_frame(&SealedFrame {
                bytes: &img,
                records: records & 0xff,
                sealed_at: 0,
            })
            .unwrap();
        }
        sink.finish_sink().unwrap();
        // Tear the End record off: the four frames stay intact.
        let segment = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
        let bytes = std::fs::read(segment.path()).unwrap();
        std::fs::write(segment.path(), &bytes[..bytes.len() - 9]).unwrap();

        for salvage in [false, true] {
            let mut source = StreamSource::new(SegmentReader::open(&dir, 0).unwrap());
            source.set_salvage(salvage);
            // The receiver counts the degraded frames as it reads them;
            // its raw drain skips the decode these images would fail.
            let mut rx = FrameReceiver::new(source, 0, FrameConfig::default());
            for _ in 0..4 {
                assert!(rx.next_frame_bytes().unwrap().is_some());
            }
            assert_eq!(rx.stats().degraded_frames, 2);
            let end = rx.next_frame_bytes();
            if salvage {
                assert!(end.unwrap().is_none(), "a salvaging source ends cleanly");
                assert!(matches!(
                    rx.source().tear(),
                    Some(StreamError::MissingEnd { .. })
                ));
                assert!(rx.next_frame_bytes().unwrap().is_none());
            } else {
                assert!(end.unwrap_err().to_string().contains("End"));
                assert!(rx.source().tear().is_none());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
