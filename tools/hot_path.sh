#!/usr/bin/env bash
# Prints the code size of the pipeline's hot-path functions in the release
# benchmark binary, smallest first, as `nm --size-sort -C` lists them (the
# size in decimal bytes, then nm's symbol type and the demangled name):
#
#   lba_core::cosim and lba_core::live_parallel   the two runners
#   lba_core::pipeline::Producer                  the producer stage chain
#   lba_core::controller                          the capture controller
#   ModeledFrameChannel                           the modeled log buffer
#   FrameSender<_>::ship, SocketSink's ship       the live and socket sends
#   FrameReceiver                                 the live receive
#   Machine::step_*                               the machine's step bodies
#   CaptureFilter                                 the capture pass
#   LogCompressor::encode, FrameEncoder           the codec's encode side
#
# Drop glue is left out. A function that is missing here was inlined into
# its caller (`Producer::observe`, which runs on every record in every
# mode, should be); one that appears, or changes size, after a change
# that did not touch it moved in the binary, so compare this output
# before and after a change before attributing a throughput move to the
# code (an out-of-line `Cosim::ship` or `absorb` has cost the modeled
# runner 4-12%). It only prints: it gates nothing.
#
# Usage: tools/hot_path.sh [BINARY]
#   BINARY defaults to perfbench/target/release/perfbench; build it with
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
#   Pass another checkout's binary to compare two commits.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

bin=${1:-perfbench/target/release/perfbench}
if [[ ! -f $bin ]]; then
    echo "hot_path.sh: no binary at $bin (build perfbench in release first)" >&2
    exit 1
fi

hot='lba_core::(cosim|live_parallel|controller)::|lba_core::pipeline::Producer::'
hot+='|ModeledFrameChannel|FrameSender<[^>]*>::ship|SocketSink as [^>]*>::ship|FrameReceiver'
hot+='|Machine::step_|CaptureFilter|LogCompressor::encode|FrameEncoder::'

nm --size-sort -C "$bin" | grep -E "$hot" | grep -v 'drop_in_place' |
    while read -r size kind name; do
        printf '%7d %s %s\n' "0x$size" "$kind" "$name"
    done
