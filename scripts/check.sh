#!/bin/sh
# check.sh — the verification gate: formatting, vet, build, and the test
# suite under the race detector (the internal/serve tests hammer the
# gateway with >100 concurrent clients, so -race is the part that
# actually guards the concurrency contracts). The race run uses -short:
# the heavyweight experiment-driver sweeps skip themselves there (they
# exceed the test timeout under the ~10x race slowdown) while the serve
# stress tests run in full. The coverage pass is the full `go test ./...`
# suite, long tests included, so every golden section and driver test
# runs on every `make check`.
set -eu
cd "$(dirname "$0")/.."

echo '>> gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '>> go vet ./...'
go vet ./...

# Lint pass: staticcheck and govulncheck when they are on PATH (CI's
# lint job installs them; local environments without network fall back
# to vet above, which always runs).
if command -v staticcheck >/dev/null 2>&1; then
    echo '>> staticcheck ./...'
    staticcheck ./...
else
    echo '>> staticcheck not on PATH; skipping (CI lint job runs it)'
fi
if command -v govulncheck >/dev/null 2>&1; then
    echo '>> govulncheck ./...'
    govulncheck ./...
else
    echo '>> govulncheck not on PATH; skipping (CI lint job runs it)'
fi

echo '>> go build ./...'
go build ./...

echo '>> go test -race -short ./...'
go test -race -short ./...

# The parallel experiment runner's determinism contract is guarded by an
# explicit race-detector pass: the short-mode subset above exercises the
# worker pool, and this run pins the mapJobs scheduling itself.
echo '>> go test -race (parallel runner)'
go test -race -run 'TestMapJobs|TestDriversParallelEquivalence' -short ./internal/experiments

# Cluster concurrency gate: the full internal/cluster suite under -race,
# without -short, so the failover replay (node killed mid-stream while
# clients retry across the ring) always runs instrumented — it is the
# test most likely to catch a pending-map race. The view's publication
# tests (members and ring published as one table, the prober's failure
# streak) then run five times more under the race detector.
echo '>> go test -race (cluster failover)'
go test -race ./internal/cluster
go test -race -count=5 -run 'TestView|TestMembership' ./internal/cluster

# Simulator cycle-kernel gates, uninstrumented. Flits are 32-bit values
# naming their packet's slot, and packets come from slabs of 64 that
# recycle on delivery, carry every NI list in their link words, and pass
# to the next network on Release. The hot path must stay allocation-free
# in a control-packet steady state, free-flowing and under arbitration;
# steady data traffic must allocate nothing under any scheme (packets,
# payloads and the decoded block recycle) and recycled packets must keep
# their own payloads; a run on a released network's slabs must replay a
# run on fresh slabs bit for bit, and a saturated run after a released
# warm-up must stay within its allocations per packet sent; a slab must
# cost at most 5 % over its Packets' bytes, so Packet stays inside its
# size class; every list must hold each slot once and every flit must
# name an in-flight packet, head to tail per VC; and the request-mask
# allocators must match the exhaustive-sweep oracle on the full VCs x
# concentration x pattern x load grid, with the flit-slot invariant
# checked every cycle (the -race -short pass above runs a reduced grid;
# see DESIGN.md §9).
echo '>> cycle kernel (TestStepZeroAllocs, TestDataPathSteadyAllocs, TestRecycledPacketsKeepPayloads, TestReleasedSlabsReplayIdentically, TestSaturatedRunAllocs, TestPacketSlabBytes, TestFlitAndCreditConservation, TestAllocatorsMatchNaiveSweep)'
go test -run 'TestStepZeroAllocs|TestDataPathSteadyAllocs|TestRecycledPacketsKeepPayloads|TestReleasedSlabsReplayIdentically|TestSaturatedRunAllocs|TestPacketSlabBytes|TestFlitAndCreditConservation|TestAllocatorsMatchNaiveSweep' ./internal/noc

# Wire-path alloc gates: a 10k-frame replay must reuse one read buffer
# per connection, and the end-to-end pipelined serve path must stay
# within its per-request allocation budget of 4 (see DESIGN.md §10).
# These run without -race on purpose — the -race pass above executes
# them as skips; heap accounting is only stable uninstrumented. The
# server owns that budget by recycling per-connection request slots, so
# TestServerSlotReuse runs beside them and again under -race, three
# times, where a slot recycled while a shard still uses it is a race.
echo '>> alloc budget (serve wire path)'
go test -run 'TestReadFrameSteadyStateAllocs|TestWireReplaySteadyStateAllocs|TestServerSlotReuse' ./internal/serve
go test -race -count=3 -run 'TestServerSlotReuse' ./internal/serve

# Codec alloc gates: Compress and DecompressInto must stay zero-alloc per
# block in steady state on every scheme, an encoder-PMT update that
# evicts and installs must not allocate on either dictionary scheme, and
# the AVCL per-word mask computation must never allocate (see DESIGN.md
# §14). Uninstrumented for the same heap-accounting reason.
echo '>> alloc budget (codec encode/decode)'
go test -run 'TestCompressZeroAllocs|TestCompressZeroAllocsDict|TestDecompressIntoZeroAllocs|TestFabricTransferSteadyAllocs|TestHandleUpdateEvictZeroAllocs' ./internal/compress
go test -run 'TestAVCLZeroAllocs' ./internal/approx

echo '>> coverage (per package)'
coverprofile=${COVERPROFILE:-/tmp/approxnoc-cover.out}
go test -coverprofile "$coverprofile" ./...
go tool cover -func "$coverprofile" | tail -1
echo "coverage profile: $coverprofile"

# The observability layer is the instrumentation everything else leans
# on, and the QoS controller decides how much error every tenant eats
# under load — both carry an explicit coverage floor.
for pkg in internal/obs internal/qos; do
    echo ">> $pkg coverage floor (85%)"
    pkg_cover=$(go test -short -cover "./$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pkg_cover" ]; then
        echo "could not determine $pkg coverage" >&2
        exit 1
    fi
    echo "$pkg coverage: ${pkg_cover}%"
    if awk "BEGIN { exit !($pkg_cover < 85) }"; then
        echo "$pkg coverage ${pkg_cover}% is below the 85% floor" >&2
        exit 1
    fi
done

if [ "${FUZZ:-0}" = "1" ]; then
    echo '>> fuzz smoke'
    ./scripts/fuzz_smoke.sh
fi

echo 'check: all green'
