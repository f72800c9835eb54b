#!/usr/bin/env sh
# The gate every PR must pass, runnable locally: `sh ci/check.sh`.
# Formatting, lints-as-errors, the workspace's own static analysis
# (onoc-lint), a release build (bins + benches compile), the full
# workspace test suite, and a fast MILP solver smoke check. The slow
# dynamic-analysis pass (TSan/Miri) lives in ci/sanitize.sh and runs
# nightly, non-blocking.
set -eux

cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings

# Workspace static analysis (rules L1-L10, see DESIGN.md §12): blocking.
# Exit 1 means a new finding beyond lint-baseline.toml, a stale baseline
# entry, or a malformed suppression pragma. The JSON outcome is kept as a
# CI artifact and must parse as a single object.
LINT_JSON="${TMPDIR:-/tmp}/onoc_lint_outcome.json"
cargo run -q -p onoc-lint -- --format json | tee "$LINT_JSON"
grep -q '"clean": true' "$LINT_JSON"

# Baseline drift gate: a freshly regenerated baseline must be
# byte-identical to the committed one. Catches debt paid down but not
# recorded (the ratchet would also fail, but this points at the fix:
# commit the regenerated file) and any divergence in entry ordering.
LINT_BASELINE="${TMPDIR:-/tmp}/onoc_lint_baseline.toml"
cargo run -q -p onoc-lint -- --write-baseline --baseline "$LINT_BASELINE"
diff -u lint-baseline.toml "$LINT_BASELINE"

cargo build --release --workspace
cargo test --workspace -q
# The benchmark harness sits outside the workspace (it has its own
# [workspace] and Cargo.lock) but builds against crates/* by path: build
# and test it too, so an API change that breaks it fails here.
cargo test --offline -q --manifest-path perfbench/Cargo.toml
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Solver smoke check: solve the MWD assignment MILP warm and cold
# (sub-second) and fail on any solver error or empty statistics. The JSON
# goes to a scratch path so the tracked BENCH_milp.json (full tracked
# run) is not clobbered by a partial one.
./target/release/milp_stats "${TMPDIR:-/tmp}/BENCH_milp_smoke.json" --benchmark mwd

# Optimality gate: the sparse revised simplex must prove the VOPD
# assignment MILP optimal within the default budgets (the headline
# capability of the factorized-basis work). Release mode, warm path.
./target/release/milp_stats "${TMPDIR:-/tmp}/BENCH_milp_vopd.json" \
    --benchmark vopd --require-optimal

# Golden-design gate: the benchmark harness synthesizes the paper
# instances cold and compares each design (content hash, laser power,
# wavelength count) with perfbench/reference.txt. Its last output line is
# the JSON result; any drift shows there as match_frac below 1.
for W in paper-assign paper-cluster; do
    PERF_JSON="${TMPDIR:-/tmp}/perfbench_$W.json"
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml \
        --bin perfbench -- --workload "$W" --seed 1 --seconds 1 --trace 0 \
        | tail -n 1 > "$PERF_JSON"
    grep -q '"correct": true' "$PERF_JSON"
    grep -q '"match_frac": {"value": 1,' "$PERF_JSON"
done

# Artifact-cache smoke check: the cached strategy sweep must record
# cache hits, match the uncached sweep bit-for-bit, and be >= 1.5x
# faster (the binary enforces all three and exits non-zero otherwise).
./target/release/pipeline_cache "${TMPDIR:-/tmp}/BENCH_pipeline_smoke.json"

# Persistent-store smoke check: populate an on-disk store, export it,
# corrupt one byte of the archive (the last record's trailing checksum),
# and import into a fresh store. The damaged record must be reported as
# skipped — never imported — and a synthesis over the partial store must
# still complete (served from disk where possible, recomputed elsewhere).
STORE_SMOKE="${TMPDIR:-/tmp}/sring_store_smoke"
rm -rf "$STORE_SMOKE"
mkdir -p "$STORE_SMOKE/src" "$STORE_SMOKE/dst"
./target/release/sring-cli synth --benchmark mwd --cache-dir "$STORE_SMOKE/src"
./target/release/sring-cli export --cache-dir "$STORE_SMOKE/src" \
    --archive "$STORE_SMOKE/artifacts.onoa"
# Corrupt the archive's final byte (the last record's trailing checksum)
# with no tooling beyond sh + dd. Truncating by one and appending an
# inverted byte guarantees the byte actually changes.
SIZE=$(wc -c < "$STORE_SMOKE/artifacts.onoa")
dd if="$STORE_SMOKE/artifacts.onoa" bs=1 count=$((SIZE - 1)) \
    of="$STORE_SMOKE/damaged.onoa" 2>/dev/null
printf '\252' >> "$STORE_SMOKE/damaged.onoa"
cmp -s "$STORE_SMOKE/artifacts.onoa" "$STORE_SMOKE/damaged.onoa" && exit 1
./target/release/sring-cli import --cache-dir "$STORE_SMOKE/dst" \
    --archive "$STORE_SMOKE/damaged.onoa" 2>&1 | tee "$STORE_SMOKE/import.log"
grep -q "1 skipped" "$STORE_SMOKE/import.log"
./target/release/sring-cli synth --benchmark mwd --cache-dir "$STORE_SMOKE/dst"
rm -rf "$STORE_SMOKE"

# Trace smoke check: a traced synthesis must emit a JSON report that
# parses, names the expected pipeline phases, and whose top-level span
# times sum to the recorded runtime within tolerance.
./target/release/sring-cli synth --benchmark mwd \
    --trace-json "${TMPDIR:-/tmp}/sring_trace_smoke.json"
./target/release/sring-cli trace-check "${TMPDIR:-/tmp}/sring_trace_smoke.json" \
    --phase synth --phase synth/cluster --phase synth/layout \
    --phase synth/assign --phase synth/assign/milp

# Delta smoke check: synthesize MWD, retarget one message, re-synthesize
# incrementally and verify the result is byte-identical to a from-scratch
# run of the edited graph (--verify makes the binary do the diff and exit
# non-zero on divergence).
./target/release/sring-cli resynth --benchmark mwd \
    --delta retarget:0,0,3 --verify

# Incremental re-synthesis smoke check: the 16-edit interactive mix on
# MWD/VOPD/MPEG must stay bit-identical and >= 5x faster incrementally
# (the binary enforces both and exits non-zero otherwise).
./target/release/delta_resynth "${TMPDIR:-/tmp}/BENCH_delta_smoke.json"

# Daemon smoke check: start sring-served on an ephemeral loopback port,
# submit one MWD job, prove a second identical job is answered from the
# shared cache (all four cacheable stages hit), and drain cleanly. The
# port file doubles as the readiness signal (written atomically after
# bind). The cache-hit probe rides the new --repeat path, so the two
# jobs also exercise single-connection reuse.
SERVED_SMOKE="${TMPDIR:-/tmp}/sring_served_smoke"
rm -rf "$SERVED_SMOKE"
mkdir -p "$SERVED_SMOKE"
./target/release/sring-served serve --addr 127.0.0.1:0 \
    --port-file "$SERVED_SMOKE/port" \
    --metrics "$SERVED_SMOKE/metrics.jsonl" &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -f "$SERVED_SMOKE/port" ] && break
    sleep 0.1
done
[ -f "$SERVED_SMOKE/port" ]
SERVED_ADDR=$(cat "$SERVED_SMOKE/port")
./target/release/sring-served ping --addr "$SERVED_ADDR"
./target/release/sring-served submit --addr "$SERVED_ADDR" --benchmark mwd \
    --repeat 2 --require-cache-hits 4 --save-as base
# Delta-job round-trip: a bandwidth re-weight against the saved result
# must be served entirely from the cache warmed by the base job.
./target/release/sring-served submit --addr "$SERVED_ADDR" \
    --base base --delta scale:0,2.0 --require-cache-hits 4
./target/release/sring-served stats --addr "$SERVED_ADDR"
./target/release/sring-served shutdown --addr "$SERVED_ADDR"
wait "$SERVED_PID"
# Three finished jobs -> three metrics records.
[ "$(wc -l < "$SERVED_SMOKE/metrics.jsonl")" = "3" ]
rm -rf "$SERVED_SMOKE"
