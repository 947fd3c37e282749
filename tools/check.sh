#!/usr/bin/env bash
# Correctness gate: tier-1 tests, a differential equivalence pass over
# the quick grid, and a seeded fuzz batch.  Everything here is
# deterministic — a red run reproduces locally with the same commands.
#
# Usage: tools/check.sh [bench-out.json]
#
# Runtimes for each stage are merged into the JSON file given as $1
# (default BENCH_check.json) so CI history tracks harness cost.

set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_OUT="${1:-BENCH_check.json}"
export PYTHONPATH=src

echo "== tier-1 test suite =="
python -m pytest -x -q

echo "== tier-1 without numpy (vector-engine fallback) =="
# The vectorized batch engine needs numpy; without it the simulator
# must degrade to the compiled path with one RuntimeWarning, never an
# ImportError.  An import-blocking stub package shadows any installed
# numpy and the whole tier-1 suite must still pass.
PYTHONPATH="tools/no_numpy_stub:src" python -m pytest -x -q

echo "== benchmark self-tests =="
# bench/test_bench.py sits outside pytest's testpaths: metric schema,
# statistics, and a paper-regen smoke through the pool whose every
# cell must match the pinned reference digests.
python -m pytest bench/ -q

echo "== differential equivalence (quick grid) =="
python -m repro check diff --quick --bench "$BENCH_OUT"

echo "== engine-path equivalence (full suite) =="
# Every suite workload through all three engine loops — interpreted,
# compiled, vectorized (the quick grid above already runs the engine
# cells for its four workloads; this covers the other thirteen with a
# single lockstep reference cell each).
python -m repro check diff --protocols directory --predictors none \
    --bench "$BENCH_OUT" --bench-key diff_engine_full

echo "== seeded fuzz batch =="
FUZZ_DIR="$(mktemp -d)"
trap 'rm -rf "$FUZZ_DIR"' EXIT
python -m repro check fuzz --cases 8 --seed 1234 \
    --out-dir "$FUZZ_DIR" --bench "$BENCH_OUT"

echo "== ingest conformance (round trip + golden corpus) =="
# One suite workload through the SynchroTrace export -> re-ingest round
# trip on all three engine paths, plus the pinned golden corpus (valid
# traces must hit their recorded counters, malformed ones their exact
# one-line errors).  The full 17-workload certification runs in tier-1
# (tests/traces/test_ingest_roundtrip.py); this leg writes the
# conformance report CI uploads as an artifact.
python -m repro check ingest --workloads x264 --scale 0.05 --seed 7 \
    --corpus tests/data/synchrotrace \
    --report conformance-report.json --bench "$BENCH_OUT"

echo "== observability overhead gate =="
# Tracing off vs. on: counters must be bit-identical, the event stream
# must validate, and the disabled path must not run slower than the
# enabled one (the single falsy check is the only cost when off).
# The sweep stage additionally certifies the live telemetry + run
# ledger as non-perturbing and within the overhead budget, --spans
# extends the same contract to the span tracer + telemetry feed, and
# --forensics to the mispredict-attribution layer (bit-identical
# counters with attribution on/off, doc consistent with counters).
python -m repro obs overhead --workload lu --scale 0.1 --reps 5 \
    --spans --forensics --bench "$BENCH_OUT"

echo "== prediction forensics (taxonomy artifact) =="
# Every suite workload's mispredicts decomposed into the causal
# taxonomy: totals must match the counter-derived mispredict universe
# exactly and no workload may leave more than 10% unexplained
# ("other").  The taxonomy JSON uploads as a CI artifact.
python -m repro obs why --scale 0.1 --json forensics-report.json

echo "== distributed sweep tracing (feed + waterfall artifacts) =="
# A small two-worker sweep streaming its telemetry feed: the feed must
# pass strict validation (ordering, span/cell pairing, closed tail),
# and the span timeline exports as CI artifacts — the Perfetto trace
# with both sweep-process and simulator tracks, and the dashboard with
# the sweep waterfall panel.
SWEEP_FEED="sweep-feed.jsonl"
rm -f "$SWEEP_FEED"
python -m repro.experiments fig7 --scale 0.05 --jobs 2 --no-cache \
    --feed "$SWEEP_FEED" --quiet > /dev/null
python -m repro obs feed validate "$SWEEP_FEED" --strict-tail
python -m repro obs export --feed "$SWEEP_FEED" \
    -o sweep-spans-perfetto.json
python -m repro obs dashboard --feed "$SWEEP_FEED" \
    --out sweep-dashboard.html

echo "== vector default-quantum gate (contended suite) =="
# Cross-quantum window fusion and the shared-run fast path must keep
# the vectorized engine competitive at the *default* 400-cycle quantum
# (its historical weak spot): vector may not lose to the compiled loop
# by more than 5% on any contended-suite cell.  Interleaved min-of-3
# timing at scale 0.5 (below ~0.4, memo warm-up dominates the short
# traces and the gate would measure trace length, not steady state).
# The measured speedups merge into BENCH_sweep.json.
python tools/bench.py --default-quantum --reps 3 --out BENCH_sweep.json

echo "== regression sentinel (probe sweep vs. committed baselines) =="
# Counters must match benchmarks/baselines.json exactly; a red run is
# either a real regression or an intentional behavior change, in which
# case regenerate with `tools/regress.py --update` and commit the diff.
python tools/regress.py | tee regress-report.txt

echo "== check.sh: all gates green =="
