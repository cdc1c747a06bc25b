#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test sweep.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (amgt-trace, -D warnings)"
cargo clippy -p amgt-trace --all-targets -- -D warnings

echo "==> rustdoc: no broken or private intra-doc links"
# A deleted or renamed item leaves stale [`links`] in the docs of the code
# that survives it; rustdoc resolves every link, so deny the broken ones.
# A public doc that links a private item renders a dead link in the
# published docs, so deny those too.
# The vendored stand-ins under vendor/ are not documented.
vendored=()
for manifest in vendor/*/Cargo.toml; do
    vendored+=(--exclude "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)")
done
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --workspace "${vendored[@]}" -q

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> benchmark harness build (perfbench is its own cargo workspace)"
# A root `cargo build` never compiles perfbench/, so a solver API change
# could break the benchmark silently; build it here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> allocation gate: 50 consecutive release runs"
# The gate's counters are process-global, so an allocation that depends on
# a value (a trace id) or on thread timing shows up only in some runs; one
# run per sweep would let it through most of the time.
alloc_free_bin="$(cargo test --release -p amgt-bench --test alloc_free --no-run 2>&1 |
    sed -n 's/.*Executable .*(\(.*alloc_free-[0-9a-f]*\)).*/\1/p')"
[ -x "$alloc_free_bin" ] || { echo "alloc_free test binary not found"; exit 1; }
for run in $(seq 1 50); do
    "$alloc_free_bin" -q >/dev/null || { echo "alloc_free failed on run $run"; exit 1; }
done
echo "    50/50 runs passed"

echo "==> exec-backend equivalence: native vs emulator, bitwise"
# The build identity block names the SIMD level the native kernels
# detected on this host, so the log shows which bodies the bitwise tests ran.
cargo run --release -q --bin amgt-cli -- --version --verbose
cargo test --release -q -p amgt-integration-tests --test exec_equivalence

echo "==> trace exporter smoke: solve -> chrome trace JSON"
trace_out="$(mktemp -t amgt-trace-XXXXXX.json)"
bench_out="$(mktemp -t amgt-bench-XXXXXX.json)"
wall_out="$(mktemp -t amgt-wall-XXXXXX.json)"
wall_native_out="$(mktemp -t amgt-wall-native-XXXXXX.json)"
wall_par_out="$(mktemp -t amgt-wall-par-XXXXXX.json)"
profile_out="$(mktemp -t amgt-profile-XXXXXX.json)"
folded_out="$(mktemp -t amgt-folded-XXXXXX.txt)"
flight_out="$(mktemp -t amgt-flight-XXXXXX.json)"
dist_out="$(mktemp -t amgt-dist-XXXXXX.json)"
serverd_log="$(mktemp -t amgt-serverd-XXXXXX.log)"
trap 'rm -f "$trace_out" "$bench_out" "$wall_out" "$wall_native_out" "$wall_par_out" \
    "$profile_out" "$folded_out" "$flight_out" "$dist_out" "$serverd_log"' EXIT
cargo run --release -q --bin amgt-cli -- --poisson2d 24 --trace "$trace_out" >/dev/null
python3 -m json.tool "$trace_out" >/dev/null
grep -q '"traceEvents"' "$trace_out"
echo "    wrote and validated $trace_out"

echo "==> bench baseline smoke: report schema + self-compare"
cargo run --release -q -p amgt-bench --bin bench -- --smoke --out "$bench_out" >/dev/null
python3 -m json.tool "$bench_out" >/dev/null
cargo run --release -q -p amgt-bench --bin bench -- --validate "$bench_out" >/dev/null
# The simulated clock makes the report deterministic: comparing a fresh
# run against the report just written must find zero regressions.
cargo run --release -q -p amgt-bench --bin bench -- --smoke --out /dev/null \
    --compare "$bench_out" >/dev/null
echo "    wrote, validated, and round-tripped $bench_out"

echo "==> wallclock bench smoke: schema v8 wall block + allocation self-compare"
cargo run --release -q -p amgt-bench --bin bench -- --smoke --wallclock \
    --threads 1 --out "$wall_out" >/dev/null
python3 -m json.tool "$wall_out" >/dev/null
cargo run --release -q -p amgt-bench --bin bench -- --validate "$wall_out" >/dev/null
# Wall-clock times are noisy and deliberately ungated; allocation counts
# are deterministic, so a fresh wallclock run compared against the report
# just written must show zero allocations-per-iteration regressions.
cargo run --release -q -p amgt-bench --bin bench -- --smoke --wallclock \
    --threads 1 --out /dev/null --compare "$wall_out" >/dev/null
echo "    wrote, validated, and alloc-round-tripped $wall_out"

echo "==> native-exec wallclock smoke: bitwise run + allocation self-compare"
# The native backend must pass the same gate: identical simulated costs
# and iteration counts (bitwise contract) and zero steady-state
# allocations per iteration. Runs on any host — simd autodetects AVX2/
# NEON and falls back to scalar.
cargo run --release -q -p amgt-bench --bin bench -- --smoke --wallclock \
    --exec native --threads 1 --out "$wall_native_out" >/dev/null
python3 -m json.tool "$wall_native_out" >/dev/null
cargo run --release -q -p amgt-bench --bin bench -- --validate "$wall_native_out" >/dev/null
cargo run --release -q -p amgt-bench --bin bench -- --smoke --wallclock \
    --exec native --threads 1 --out /dev/null --compare "$wall_native_out" >/dev/null
# Simulated-seconds figures are exec-independent, so the native report
# must also self-compare cleanly against the emulator baseline.
cargo run --release -q -p amgt-bench --bin bench -- --smoke --wallclock \
    --exec native --threads 1 --out /dev/null --compare "$wall_out" >/dev/null
echo "    wrote, validated, and alloc-round-tripped $wall_native_out"

echo "==> thread-count invariance: full solves bitwise across widths 1/2/4/8"
# The work-stealing pool's determinism contract: V/W/F-cycle, PCG and
# batched solves run inside private pools of width 1, 2, 4 and 8 and must
# produce bitwise-identical solutions and identical simulated charges.
cargo test --release -q -p amgt-integration-tests --test thread_invariance

echo "==> parallel wallclock smoke: --threads 4 native run + allocation gate"
# Pool width 4: results must stay bitwise identical to the 1-thread
# reports above (the compare below gates simulated seconds + iteration
# counts, which are width-invariant), the steady-state solve must stay
# allocation-free at width 4, and the report gains the v8 per-case `par`
# block (1-thread vs 4-thread solve walls + parallel efficiency).
cargo run --release -q -p amgt-bench --bin bench -- --smoke --wallclock \
    --exec native --threads 4 --out "$wall_par_out"
python3 -m json.tool "$wall_par_out" >/dev/null
cargo run --release -q -p amgt-bench --bin bench -- --validate "$wall_par_out" >/dev/null
grep -q '"par"' "$wall_par_out"
grep -q '"efficiency"' "$wall_par_out"
# Width-invariant quantities gate against the 1-thread native baseline;
# wall-derived numbers (including parallel efficiency) are skipped there
# because the thread counts differ, and are instead self-compared against
# the 4-thread report just written.
cargo run --release -q -p amgt-bench --bin bench -- --smoke --wallclock \
    --exec native --threads 4 --out /dev/null --compare "$wall_native_out" >/dev/null
cargo run --release -q -p amgt-bench --bin bench -- --smoke --wallclock \
    --exec native --threads 4 --out /dev/null --compare "$wall_par_out" >/dev/null
echo "    wrote, validated, and gated $wall_par_out at pool width 4"

echo "==> flight-overhead smoke: recorder on vs off, geomean gated at 5%"
# The bench's --flight-overhead mode interleaves recorder-disabled and
# recorder-enabled solves and exits non-zero by itself if the enabled
# run's solve-phase wall geomean regresses past the budget (default
# x1.05). The report carries a flight_overhead block.
cargo run --release -q -p amgt-bench --bin bench -- --smoke --flight-overhead \
    --out "$flight_out"
python3 -m json.tool "$flight_out" >/dev/null
cargo run --release -q -p amgt-bench --bin bench -- --validate "$flight_out" >/dev/null
grep -q '"flight_overhead"' "$flight_out"
echo "    wrote, validated, and gated $flight_out"

echo "==> distributed smoke: --ranks 4 bench + rank-count invariance suite"
# The domain-decomposed solver over 4 in-process ranks: the report must
# carry a dist block per case, and — the comm pattern
# being a deterministic function of the partition — a fresh run compared
# against the report just written must pass the halo/collective gate.
cargo run --release -q -p amgt-bench --bin bench -- --smoke --ranks 4 \
    --out "$dist_out" >/dev/null
python3 -m json.tool "$dist_out" >/dev/null
cargo run --release -q -p amgt-bench --bin bench -- --validate "$dist_out" >/dev/null
grep -q '"dist"' "$dist_out"
cargo run --release -q -p amgt-bench --bin bench -- --smoke --ranks 4 \
    --out /dev/null --compare "$dist_out" >/dev/null
# Rank-count invariance over the full Table II suite: P = 1 bitwise vs
# the single-device solver, P in {2, 4} bitwise-invariant iterates.
cargo test --release -q -p amgt-dist --test rank_invariance
echo "    wrote, validated, and round-tripped $dist_out; invariance suite passed"

echo "==> profile smoke: --profile fidelity JSON + non-empty folded stacks"
cargo run --release -q --bin amgt-cli -- --poisson2d 32 --exec native \
    --profile "$profile_out" --folded "$folded_out" >/dev/null
python3 -m json.tool "$profile_out" >/dev/null
grep -q '"fidelity"' "$profile_out"
grep -q '"drift_ratio"' "$profile_out"
test -s "$folded_out"
grep -q ';kernel:' "$folded_out"
echo "    wrote and validated $profile_out + $folded_out"

echo "==> introspection endpoint smoke: serverd answers every route"
cargo build --release -q -p amgt-server --bin amgt-serverd
./target/release/amgt-serverd --addr 127.0.0.1:0 --for-seconds 20 \
    --demo-jobs 4 >"$serverd_log" &
serverd_pid=$!
base_url=""
for _ in $(seq 1 50); do
    base_url="$(sed -n 's/^listening on \(http:\/\/.*\)$/\1/p' "$serverd_log")"
    [ -n "$base_url" ] && break
    sleep 0.2
done
[ -n "$base_url" ] || { echo "serverd never announced its address"; exit 1; }
fetch() { python3 -c '
import sys, urllib.request
body = urllib.request.urlopen(sys.argv[1], timeout=5).read().decode()
assert sys.argv[2] in body, f"{sys.argv[1]}: {sys.argv[2]!r} not in response"
' "$base_url$1" "$2"; }
fetch /healthz "ok"
fetch /metrics "# TYPE amgt_jobs_inflight gauge"
fetch /jobs '"queue_depth"'
fetch /jobs '"recent"'
fetch /version '"git"'
fetch /debug/flight '"retained"'
fetch /profile '"fidelity"'
kill "$serverd_pid" 2>/dev/null || true
wait "$serverd_pid" 2>/dev/null || true
echo "    serverd at $base_url answered /healthz /metrics /jobs /version /debug/flight /profile"

echo "OK: all checks passed"
