//! Remote lifeguard workers: sealed frames over real sockets, one
//! lifeguard worker per shard — the production topology for heavy
//! traffic.
//!
//! [`run_remote`] is [`run_live_parallel`] with each shard's in-process
//! queue replaced by a Unix-domain socket speaking the `lbas/1` wire
//! protocol ([`lba_transport::socket`]) — the shape where capture and
//! lifeguards run in different *processes*. Everything else is the live
//! runner's: routing, capture, frame boundaries, threads, the findings
//! merge and the report (a [`RunReport`] naming [`RunMode::Remote`], one
//! `ChannelStats` per worker), so each shard's wire stream is
//! byte-identical to [`run_live_parallel`]'s and the merged findings are
//! equal (`tests/remote.rs` pins both). A worker refuses a hello that
//! announces another codec than its own
//! ([`SocketError::CodecMismatch`](lba_transport::SocketError::CodecMismatch)). Back-pressure crosses the wire as an
//! explicit credit window sized like the in-process queue
//! ([`LogConfig::live_channel_frames`](crate::LogConfig::live_channel_frames)),
//! so `buffer_bytes`, adaptive degradation and the stall timeout all
//! survive the socket hop. The credit window's load sample is then the
//! capture controller's one signal; a one-frame window and a dragged
//! worker engage it (`tests/degradation.rs`).
//!
//! [`run_live_parallel`]: crate::run_live_parallel

use lba_isa::Program;
use lba_lifeguard::Lifeguard;
use lba_transport::live::FrameReceiver;
use lba_transport::socket::{socket_pair, SocketSender};

use crate::config::SystemConfig;
use crate::error::LbaError;
use crate::report::RunReport;
use crate::runner::RunMode;

/// Runs `program` on one thread with the lifeguard sharded `workers` ways
/// by address, each shard's sealed frames crossing a Unix-domain socket
/// (credit-windowed, `lbas/1`-framed) to its own worker thread with its
/// own decoder, dispatch engine, and lifeguard instance.
///
/// The workers here are threads for test determinism, but they speak the
/// real socket protocol end to end — handing a listener-accepted
/// [`UnixStream`](std::os::unix::net::UnixStream) from another process to
/// the same receiver is deployment, not new code.
///
/// Configuration is [`run_live_parallel`](crate::run_live_parallel)'s;
/// `channel_stall_timeout` bounds how long the producer waits on an
/// exhausted credit window.
///
/// # Errors
///
/// As [`run_live_parallel`](crate::run_live_parallel) (a zero `workers`
/// is [`LbaError::InvalidRequest`], a spent credit window that outlasts
/// the stall timeout [`LbaError::ChannelStalled`]), plus
/// [`LbaError::Socket`] when a wire tears or carries inconsistent bytes
/// and [`LbaError::Decode`] when a frame that crossed the wire intact
/// fails to decode. A worker's own error wins over the tear its death
/// leaves on the producer's side of the wire.
pub fn run_remote(
    program: &Program,
    make_lifeguard: impl Fn() -> Box<dyn Lifeguard> + Sync,
    workers: usize,
    config: &SystemConfig,
) -> Result<RunReport, LbaError> {
    let mode = RunMode::Remote;
    LbaError::check_shards(mode, workers)?;
    config.log.validate_framing()?;
    let window = u32::try_from(config.log.live_channel_frames()).expect("window fits u32");
    let frames = config.log.frame_config();
    let mut wires = (Vec::with_capacity(workers), Vec::with_capacity(workers));
    for shard in 0..workers {
        let stream = u32::try_from(shard).expect("worker count fits u32");
        let (sink, source) = socket_pair(stream, window)?;
        wires.0.push(SocketSender::new(sink, frames));
        wires.1.push(FrameReceiver::new(source, stream, frames));
    }
    crate::live_parallel::run_sharded_from(program, mode, &make_lifeguard, wires, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ADDRCHECK;
    use lba_lifeguard::FindingKind;
    use lba_workloads::bugs;

    #[test]
    fn remote_addrcheck_detects_bugs_once() {
        let program = bugs::memory_bugs();
        let config = SystemConfig::default();
        let report = run_remote(&program, ADDRCHECK.make, 4, &config).unwrap();
        use FindingKind::*;
        for kind in [UnallocatedAccess, DoubleFree, InvalidFree, Leak] {
            assert!(
                report.findings.iter().any(|f| f.kind == kind),
                "missing {kind} in remote run"
            );
        }
        let doubles = report
            .findings
            .iter()
            .filter(|f| f.kind == DoubleFree)
            .count();
        assert_eq!(doubles, 1, "broadcast duplicates must merge away");
    }

    #[test]
    fn stalled_credit_window_is_a_run_error_not_a_hang() {
        // A one-frame window and a worker dragged hard enough to out-wait
        // the stall timeout: the producer must park, latch, and error.
        let program = bugs::memory_bugs();
        let mut config = SystemConfig::default();
        config.log.buffer_bytes = 64; // one-frame credit window
        config.log.records_per_frame = 8;
        config.log.channel_stall_timeout = Some(std::time::Duration::from_millis(20));
        config.log.fault = Some(lba_transport::FaultProfile {
            drain_drag: 100_000_000,
            ..lba_transport::FaultProfile::default()
        });
        let start = std::time::Instant::now();
        let err = run_remote(&program, ADDRCHECK.make, 1, &config).unwrap_err();
        assert!(matches!(err, LbaError::ChannelStalled), "got: {err}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "the stall must latch once, not hang"
        );
    }

    #[test]
    fn zero_workers_rejected() {
        let program = bugs::memory_bugs();
        let err = run_remote(&program, ADDRCHECK.make, 0, &SystemConfig::default());
        assert!(
            matches!(err, Err(LbaError::InvalidRequest { .. })),
            "got: {err:?}"
        );
    }
}
