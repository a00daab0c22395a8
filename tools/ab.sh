#!/usr/bin/env bash
# Compares two commits on the benchmark in alternating pairs of runs, so a
# code change can be told apart from host drift and from code placement.
#
# It clones BASE and HEAD into a temporary directory (the working tree is
# never touched) and builds perfbench in each clone twice: once with
# default settings, the build BENCHMARK.json's bounds are stated for, and
# once with RUSTFLAGS="-C llvm-args=-align-all-functions=6", which puts
# every function rustc compiles on a 64-byte boundary and so holds code
# placement fixed between the two sides. Per build and workload it runs
# PAIRS alternating pairs, swapping which side runs first every pair, with
# seed 1 and BENCHMARK.json's run_seconds, and prints:
#
#   each pair's HEAD/BASE ratio for every end-to-end metric, read from the
#   last JSON line perfbench prints;
#   how many pairs HEAD won on events_per_s (ties count for neither);
#   each side's median and quartiles, and the median pair ratio with a
#   distribution-free interval: the sign test's order statistics, at the
#   narrowest level of at least 95% that the pair count allows (below six
#   pairs, the range of the ratios and its own level);
#   the diff of the two binaries' tools/hot_path.sh listings, once per
#   build (a function that changed size without being touched moved).
#
# The interval's level assumes independent pairs, and host drift can
# break that: calibrate with an A/A run, tools/ab.sh HEAD HEAD, whose
# intervals should all contain 1.0; one that does not shows how far drift
# alone moves a batch. A run whose output is wrong (perfbench exits
# non-zero, or its result reads "correct": false) is reported, and its
# pair is left out. The script changes no file and no build setting of
# the repository; RUSTFLAGS reaches only the clones' builds.
#
# Only committed work reaches the clones, so the script refuses to run
# while `git status --porcelain` lists anything: commit the change first.
#
# Usage: tools/ab.sh BASE HEAD [workload...]
#   BASE, HEAD  commits, as git rev-parse reads them
#   workload    perfbench workloads (default: the ones BENCHMARK.json lists)
#   PAIRS=n     pairs per build and workload (default 10)
# Needs git, cargo, jq and python3. A run makes 2 builds x 2 workloads x
# PAIRS x 2 runs of run_seconds plus setup each: at the defaults, about
# 37 minutes on a two-vCPU VM, builds included. Run nothing else meanwhile.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
repo=$PWD

if (($# < 2)); then
    echo "usage: tools/ab.sh BASE HEAD [workload...]" >&2
    exit 2
fi
if [[ -n $(git status --porcelain) ]]; then
    echo "ab.sh: the working tree has uncommitted changes, and the clones" \
        "would run without them; commit them first" >&2
    exit 2
fi
declare -A sha
for side in base head; do
    rev=$1
    shift
    if ! sha[$side]=$(git rev-parse --verify --quiet "$rev^{commit}"); then
        echo "ab.sh: $rev is not a commit" >&2
        exit 2
    fi
done
pairs=${PAIRS:-10}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "ab.sh: PAIRS must be a positive integer, not '$pairs'" >&2
    exit 2
fi
seconds=$(jq -r .run_seconds BENCHMARK.json)
if (($#)); then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi
metrics=$(jq -c '[.end_to_end[].name]' BENCHMARK.json)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/lba-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# Statistics over the recorded results: `row BASE_JSON HEAD_JSON` prints
# one pair's ratios, `summary BASE_FILE HEAD_FILE` the batch's.
stats() {
    python3 - "$metrics" "$@" <<'PY'
import json, math, sys

metrics = json.loads(sys.argv[1])
mode = sys.argv[2]

def values(line):
    got = json.loads(line)["metrics"]
    return {m: got.get(m, {}).get("value") for m in metrics}

def ratio(b, h):
    return None if b in (None, 0) or h is None else h / b

def fmt(x):
    return "-" if x is None else f"{x:.4f}"

def num(x):
    return f"{x / 1e6:.3f}M" if abs(x) >= 1e6 else f"{x:.4g}"

def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def sign_interval(xs):
    """Order statistics (k, n-k+1) bounding the median at >= 95%."""
    n = len(xs)
    tail = lambda j: sum(math.comb(n, i) for i in range(j + 1)) / 2**n
    k = 1
    while k + 1 <= n // 2 and 2 * tail(k) <= 0.05:
        k += 1
    xs = sorted(xs)
    return xs[k - 1], xs[n - k], 1 - 2 * tail(k - 1)

if mode == "header":
    print("pair first  " + "  ".join(f"{m:>19}" for m in metrics))
elif mode == "row":
    _, _, _, number, first, base, head = sys.argv
    b, h = values(base), values(head)
    cells = "  ".join(f"{fmt(ratio(b[m], h[m])):>19}" for m in metrics)
    print(f"{number:>4} {first:<5}  {cells}")
else:
    base = [values(l) for l in open(sys.argv[3]) if l.strip()]
    head = [values(l) for l in open(sys.argv[4]) if l.strip()]
    if not base:
        print("no complete pairs")
        sys.exit()
    n = len(base)
    eps = [ratio(b["events_per_s"], h["events_per_s"]) for b, h in zip(base, head)]
    wins = sum(1 for r in eps if r is not None and r > 1)
    losses = sum(1 for r in eps if r is not None and r < 1)
    print(f"HEAD won {wins}/{n} pairs on events_per_s ({losses} lost, {n - wins - losses} tied)")
    print(f"{'metric':<20} {'BASE median (q1-q3)':>28} {'HEAD median (q1-q3)':>28}"
          f"  {'median ratio [interval] level':>31}")
    for name in metrics:
        side = []
        for runs in (base, head):
            xs = [r[name] for r in runs if r[name] is not None]
            side.append(f"{num(quantile(xs, .5))} ({num(quantile(xs, .25))}-{num(quantile(xs, .75))})"
                        if xs else "-")
        rs = [ratio(b[name], h[name]) for b, h in zip(base, head)]
        rs = [r for r in rs if r is not None]
        if rs and all(r == 1 for r in rs):
            cell = "identical in every pair"
        elif rs:
            lo, hi, level = sign_interval(rs)
            cell = f"{quantile(rs, .5):.4f} [{lo:.4f}, {hi:.4f}] {level:.1%}"
        else:
            cell = "-"
        print(f"{name:<20} {side[0]:>28} {side[1]:>28}  {cell:>31}")
PY
}

# Clones one side's commit (once) and builds its perfbench with `flags`
# as the only RUSTFLAGS; prints the binary's path.
build() {
    local side=$1 flavour=$2 flags=$3
    local dir=$tmp/$side target=$tmp/target-$side-$flavour
    if [[ ! -d $dir ]]; then
        git clone -q --no-checkout "$repo" "$dir"
        git -C "$dir" checkout -q --detach "${sha[$side]}"
    fi
    if ! env -u CARGO_ENCODED_RUSTFLAGS RUSTFLAGS="$flags" \
        cargo build --release --locked --offline \
        --manifest-path "$dir/perfbench/Cargo.toml" --target-dir "$target" \
        >"$tmp/build-$side-$flavour.log" 2>&1; then
        cat "$tmp/build-$side-$flavour.log" >&2
        echo "ab.sh: the $side build ($flavour) failed" >&2
        exit 1
    fi
    echo "$target/release/perfbench"
}

# Runs one side once from its clone (perfbench keeps its scratch space in
# the directory it runs from); appends its result line, or reports it.
run() {
    local side=$1 bin=$2 workload=$3 out=$4
    local log=$tmp/run-$((++runs))-$side.log
    if (cd "$tmp/$side" && "$bin" --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace 0) >"$log" 2>&1 &&
        tail -n 1 "$log" | jq -e '.correct and .failed == 0' >/dev/null 2>&1; then
        tail -n 1 "$log" >"$out"
    else
        echo "  $side run failed: $(tail -n 1 "$log" | cut -c1-160)"
        return 1
    fi
}

echo "BASE ${sha[base]}"
echo "HEAD ${sha[head]}"
echo "$pairs pairs per build and workload, seed 1, ${seconds} s runs"
runs=0
for flavour in default aligned; do
    flags=
    [[ $flavour == aligned ]] && flags="-C llvm-args=-align-all-functions=6"
    declare -A bin=()
    for side in base head; do
        bin[$side]=$(build "$side" "$flavour" "$flags")
    done
    for workload in "${workloads[@]}"; do
        echo
        echo "== $flavour build, $workload: HEAD/BASE ratio per pair"
        stats header
        : >"$tmp/$flavour-$workload-base"
        : >"$tmp/$flavour-$workload-head"
        for ((pair = 1; pair <= pairs; pair++)); do
            order=(base head)
            ((pair % 2 == 0)) && order=(head base)
            ok=1
            for side in "${order[@]}"; do
                run "$side" "${bin[$side]}" "$workload" "$tmp/last-$side" || ok=0
            done
            ((ok)) || continue
            cat "$tmp/last-base" >>"$tmp/$flavour-$workload-base"
            cat "$tmp/last-head" >>"$tmp/$flavour-$workload-head"
            stats row "$pair" "${order[0]^^}" "$(cat "$tmp/last-base")" "$(cat "$tmp/last-head")"
        done
        stats summary "$tmp/$flavour-$workload-base" "$tmp/$flavour-$workload-head"
    done
    echo
    echo "== $flavour build: tools/hot_path.sh, BASE (<) against HEAD (>)"
    if diff <(tools/hot_path.sh "${bin[base]}") <(tools/hot_path.sh "${bin[head]}"); then
        echo "(identical)"
    fi
done
