#!/usr/bin/env bash
# Tier-1 verification for the Delphi reproduction (see ROADMAP.md).
#
# Usage: scripts/ci.sh [-short]
#   -short   skip the slow experiment-harness tests (internal/bench)
#
# Gates, in order: formatting, vet, build, race-enabled tests.
set -euo pipefail
cd "$(dirname "$0")/.."

# A plain string, not an array: expanding an empty array under `set -u`
# aborts on bash < 4.4 (e.g. macOS system bash 3.2).
short_flag=""
if [[ "${1:-}" == "-short" ]]; then
    short_flag="-short"
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ${short_flag:+"$short_flag"} ./...

# BinAA allocation budget: replaying a seed-1 Delphi n=16 sim run's
# deliveries must stay within 8 allocations and 800 bytes per delivered
# message. The race detector instruments allocations, so the test file is
# built only without -race and the -race run above skips it: it runs here,
# explicitly, on every invocation (including -short).
echo "== alloc budget gate =="
go test ./internal/binaa -count=1 -run 'TestAllocBudget'

# The adversary scenario axis is exercised on every run (including -short,
# where the heavy bench tests skip): a quick-scale sweep of the named
# DelayRule presets across protocols, run twice to hold the byte-identical
# reruns guarantee.
echo "== adversary-matrix smoke =="
adv1=$(mktemp)
adv2=$(mktemp)
trap 'rm -f "$adv1" "$adv2" "${svc1:-}" "${svc2:-}"' EXIT
# (the trailing "[... completed in ...]" wall-clock line is dropped)
go run ./cmd/experiments -scale quick -seed 1 -run adversary | grep -v '^\[' > "$adv1"
go run ./cmd/experiments -scale quick -seed 1 -run adversary | grep -v '^\[' > "$adv2"
if ! cmp -s "$adv1" "$adv2"; then
    echo "adversary sweep reruns differ:" >&2
    diff "$adv1" "$adv2" >&2 || true
    exit 1
fi

# The sequential simulator's event queue carries a byte-identity guarantee:
# fixed-seed outputs for every protocol under every adversary preset must
# match the golden files generated from the original (container/heap)
# simulator bit for bit — at n≤8, and at n=400, where the calendar queue's
# ring horizon and overflow heap come into play (golden_sim_scale.txt,
# recorded with the heap queue). The queue's property test checks its pop
# order against the heap's on random push/pop interleavings. The gate runs
# explicitly — even when someone trims the test invocation above — because
# a silent schedule change would invalidate every downstream measurement.
echo "== sim byte-identity gate =="
go test ./internal/bench -run 'TestSimGoldenByteIdentity|TestSimGoldenScale' -count=1
go test ./internal/sim -run TestSeqQueueMatchesHeap -count=1

# The parallel window executor carries its own two guarantees, gated under
# -race on every run: (1) worker-count determinism — a parallel run is
# byte-identical across reruns and across 1/4/8 workers — and (2) δ-window
# agreement with the sequential loop on the quick cross-validation cell
# (every protocol, clean and under adversary presets). The sequential
# golden byte-identity gate above is untouched: parallel mode is opt-in
# and tie-breaks differently by construction.
echo "== parallel-sim gate (-race) =="
go test ./internal/sim -race -count=1 \
    -run 'TestParallelCompletes|TestParallelDeterminism|TestParallelScratchReuse|TestParallelOverflowHorizon|TestLookaheadViolation'
go test ./internal/bench -race -count=1 \
    -run 'TestParallelWindowAgreement|TestParallelWindowDeterminism'

# The execution-backend axis is exercised on every run (including -short):
# the cross-backend validator runs every protocol on the simulator AND a
# live goroutine cluster from identical specs — clean and under netadv
# presets injected into the live transport — and fails on any agreement or
# validity violation, then a sim|live matrix runs as one engine batch.
# Second line: a real `-backend live` retargeting of an existing workload.
# Wall-clock columns are real time and non-deterministic by design, so no
# byte comparison here; the full TCP-cluster smoke lives in the test suite
# (`TestTCPBackend`, `TestTCPTransportDelphi`) and is -short-gated, so the
# workflow's full (main) runs cover it while PR runs stay fast.
echo "== backend smoke =="
go run ./cmd/experiments -scale quick -seed 1 -run backends > /dev/null
go run ./cmd/experiments -scale quick -seed 1 -backend live -run matrix > /dev/null

# The live/tcp frame hot path batches per-step sends into sealed envelopes;
# the gates below run explicitly so a trimmed test invocation above can
# never silently drop them: per-link FIFO under overflow bursts and the
# dial-stall/close races (under -race — these are ordering and locking
# bugs), and the batched-vs-unbatched equivalence check (the batching knob
# must not move the simulator by a bit, and batched and unbatched live
# runs must agree inside the cross-backend δ window with zero transport
# drops).
echo "== transport batching gate =="
go test ./internal/runtime -race -count=1 \
    -run 'TestHubPerLinkFIFO|TestTCPPerLinkFIFO|TestTCPDialStall|TestTCPDialInstallRace|TestTCPDropCounter'
go test ./internal/backend -count=1 ${short_flag:+"$short_flag"} \
    -run 'TestBatchingLiveAgreement|TestBatchingTCPAgreement|TestSessionTransportDrops'

# Persistent-session smoke: a 3-trial tcp cell through the engine, reusing
# one loopback cluster (listeners + connections) across the trials. The
# target fails on any agreement violation. Stale-frame drops are the
# epoch-key mechanism working, not an error — filter them from stderr so
# real failures stand out.
echo "== tcp session smoke =="
go run ./cmd/experiments -scale quick -seed 1 -run sessions > /dev/null \
    2> >(grep -v "drop unauthentic frame" >&2 || true)

# Continuous-service mode, two gates that run on every invocation
# (including -short):
#   1. The simulator service model is deterministic end to end: the rendered
#      report must be byte-identical across reruns AND across worker counts.
#   2. The tcp soak (short profile: 150 rounds multiplexed onto ONE
#      persistent loopback session, window 4) under -race, with goroutine,
#      fd, and heap counts asserted flat mid-run and zero unaccounted frame
#      drops.
echo "== service determinism gate =="
svc1=$(mktemp)
svc2=$(mktemp)
go run ./cmd/experiments -scale quick -seed 1 -workers 1 -run service | grep -v '^\[' > "$svc1"
go run ./cmd/experiments -scale quick -seed 1 -workers 8 -run service | grep -v '^\[' > "$svc2"
if ! cmp -s "$svc1" "$svc2"; then
    echo "sim service reruns differ across worker counts:" >&2
    diff "$svc1" "$svc2" >&2 || true
    exit 1
fi

echo "== tcp service soak (-race) =="
go test ./internal/backend -race -short -count=1 -run 'TestServiceTCPSoak'

# Observability gates, all explicit so a trimmed test invocation above can
# never silently drop them:
#   1. Trace determinism (Go level): a fixed-seed sim run's exported trace
#      is byte-identical across reruns and across parallel worker counts,
#      clean and under the jitter-storm adversary — and attaching the
#      recorder moves no result bit (the disabled-tracing golden check:
#      traced and untraced runs produce identical golden lines, on top of
#      the sim byte-identity gate above which runs entirely untraced).
#   2. Span decomposition + accounting identity on the service model.
#   3. Zero-alloc regression on the disabled driver/transport hot paths.
#   4. Trace determinism (CLI level): the `trace` target's exported
#      Perfetto JSON is byte-identical across -sim-workers 1/4/8.
echo "== observability gate =="
go test ./internal/bench -count=1 \
    -run 'TestSimTraceDeterminism|TestServiceSimSpanDecomposition|TestServiceSimMetricsAccounting|TestRunStatsMetricsSnapshot'
go test ./internal/runtime -count=1 -run 'TestDisabledObs'
tr1=$(mktemp)
tr2=$(mktemp)
trap 'rm -f "$adv1" "$adv2" "${svc1:-}" "${svc2:-}" "$tr1" "$tr2"' EXIT
go run ./cmd/experiments -scale quick -seed 1 -sim-workers 1 -run trace -trace "$tr1" > /dev/null
for w in 4 8; do
    go run ./cmd/experiments -scale quick -seed 1 -sim-workers "$w" -run trace -trace "$tr2" > /dev/null
    if ! cmp -s "$tr1" "$tr2"; then
        echo "trace bytes differ between -sim-workers 1 and $w" >&2
        exit 1
    fi
done

# Worst-case search gate: the adversary-space search (successive halving +
# annealing, internal/advsearch) is a pure function of its seed — the
# printed profiles must be byte-identical across reruns AND across
# -sim-workers counts. All compared runs use the parallel executor: the
# sequential loop tie-breaks differently by construction, so it is outside
# this byte-identity contract (its own guarantees are gated above). The
# search exercises the adaptive adversaries end to end: every probe's
# history-reactive schedule must reproduce exactly for the bytes to match.
echo "== worst-case search determinism gate =="
wc1=$(mktemp)
wc2=$(mktemp)
trap 'rm -f "$adv1" "$adv2" "${svc1:-}" "${svc2:-}" "$tr1" "$tr2" "${wc1:-}" "${wc2:-}"' EXIT
go run ./cmd/experiments -scale quick -seed 1 -sim-workers 1 -run worstcase | grep -v '^\[' > "$wc1"
go run ./cmd/experiments -scale quick -seed 1 -sim-workers 1 -run worstcase | grep -v '^\[' > "$wc2"
if ! cmp -s "$wc1" "$wc2"; then
    echo "worst-case search reruns differ:" >&2
    diff "$wc1" "$wc2" >&2 || true
    exit 1
fi
go run ./cmd/experiments -scale quick -seed 1 -sim-workers 4 -run worstcase | grep -v '^\[' > "$wc2"
if ! cmp -s "$wc1" "$wc2"; then
    echo "worst-case search differs between -sim-workers 1 and 4:" >&2
    diff "$wc1" "$wc2" >&2 || true
    exit 1
fi

echo "CI OK"
