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

# Simulator cycle-kernel gates, uninstrumented. Flits are 32-bit values
# naming their packet's slot, and packets come from slabs of 64 that
# recycle on delivery and carry every NI list in their link words; on
# Release a network hands its body (slabs, and routers, NIs, staging and
# sequence storage to a network of its shape) to the next one built, and
# its codecs to the codec factories of their scheme. The
# hot path must stay allocation-free
# in a control-packet steady state, free-flowing and under arbitration;
# steady data traffic must allocate nothing under any scheme (packets,
# payloads and the decoded block recycle) and recycled packets must keep
# their own payloads; a run on a released network's body must replay a
# fresh run bit for bit, a body of another shape must give up only its
# slabs, a build on a released body must allocate only its header, also
# when the factory's DI-VAXX codecs come from a released network, which
# must keep a codec tiles share, and a
# saturated run after a released
# warm-up must stay within its allocations per packet sent; a slab must
# cost at most 5 % over its Packets' bytes, so Packet stays inside its
# size class; every list must hold each slot once and every flit must
# name an in-flight packet, head to tail per VC; and the request-mask
# allocators must match the exhaustive-sweep oracle on the full VCs x
# concentration x pattern x load grid, with the flit-slot invariant
# checked every cycle (the -race -short pass above runs a reduced grid;
# see DESIGN.md §9).
echo '>> cycle kernel (TestStepZeroAllocs, TestDataPathSteadyAllocs, TestRecycledPacketsKeepPayloads, TestReleasedBodyReplaysIdentically, TestNetworkBuildAllocs, TestReleaseRecyclesCodecs, TestSaturatedRunAllocs, TestPacketSlabBytes, TestFlitAndCreditConservation, TestAllocatorsMatchNaiveSweep)'
go test -run 'TestStepZeroAllocs|TestDataPathSteadyAllocs|TestRecycledPacketsKeepPayloads|TestReleasedBodyReplaysIdentically|TestNetworkBuildAllocs|TestReleaseRecyclesCodecs|TestSaturatedRunAllocs|TestPacketSlabBytes|TestFlitAndCreditConservation|TestAllocatorsMatchNaiveSweep' ./internal/noc

# Wire-path alloc gates: a 10k-frame replay must reuse one read buffer
# per connection, the end-to-end pipelined serve path must stay within
# its per-request allocation budget of 3, and a synchronous round trip,
# Client.Do over loopback or Gateway.Do in process, must allocate only
# its result block (see DESIGN.md §10). These run without -race on
# purpose — the -race pass above executes them as skips; heap accounting
# is only stable uninstrumented. The server owns that budget by
# recycling per-connection request slots, and Do recycles its calls, so
# TestServerSlotReuse and TestClientDoRecyclesCallsUnderFailure run
# again under -race, three times, where a slot recycled while a shard
# still uses it, or a call recycled while still pending, is a race.
# TestLoadgenDriver joins them: pipelined Go calls re-issued under
# overload across four connections race the client's pending map.
echo '>> alloc budget (serve wire path)'
go test -run 'TestReadFrameSteadyStateAllocs|TestWireReplaySteadyStateAllocs|TestServerSlotReuse|TestClientDoAllocs|TestGatewayDoAllocs' ./internal/serve
go test -race -count=3 -run 'TestServerSlotReuse|TestClientDoRecyclesCallsUnderFailure|TestLoadgenDriver' ./internal/serve

# Block alloc gate: a block of 4, 16 or 64 words is one allocation,
# header and words together (see DESIGN.md §9).
echo '>> alloc budget (value blocks)'
go test -run 'TestNewBlockOneAllocation' ./internal/value

# Workload alloc gate: a block source builds in four allocations, its
# Zipf tables shared per pool size. The sim workloads build a source per
# experiment cell, so this guards their allocs_per_op. Uninstrumented,
# for the same heap-accounting reason; it skips itself under -race.
echo '>> alloc budget (workload sources)'
go test -run 'TestNewSourceAllocs' ./internal/workload

# Inliner gate: every injection draw of every tile each cycle, and every
# word of every generated block, goes through these four draws, so each
# must inline into its caller. Bool sits exactly at the inliner's budget:
# one more node in the xoshiro step and the gate fails.
echo '>> inliner (sim.Rand draws)'
inl=$(go build -gcflags=-m ./internal/sim 2>&1)
for fn in Uint64 Float64 Bool Hit; do
    if ! printf '%s\n' "$inl" | grep -q "can inline (\*Rand)\.$fn\$"; then
        echo "(*Rand).$fn no longer inlines" >&2
        exit 1
    fi
done

# Codec alloc gates: Compress and DecompressInto must stay zero-alloc per
# block in steady state on every scheme, an encoder-PMT update that
# evicts and installs must not allocate on either dictionary scheme, nor
# must a decoder eviction's invalidate/ack handshake, a 32-node DI-VAXX
# codec must build within 10 allocations and 6 KiB and, made on a
# recycled one, allocate nothing, and the AVCL per-word mask computation
# must never allocate (see DESIGN.md §14). Uninstrumented for the same
# heap-accounting reason, and because the race detector drops pooled
# codecs: the recycling gate skips itself under -race.
echo '>> alloc budget (codec encode/decode)'
go test -run 'TestCompressZeroAllocs|TestCompressZeroAllocsDict|TestDecompressIntoZeroAllocs|TestFabricTransferSteadyAllocs|TestHandleUpdateEvictZeroAllocs|TestEvictionHandshakeZeroAllocs|TestDictCodecBuildAllocs|TestRecycledDictCodecBuildAllocs' ./internal/compress
go test -run 'TestAVCLZeroAllocs' ./internal/approx

# Codec reuse: a codec made on a recycled one must start in a new one's
# state and replay every scheme's stream as a new one does. The test
# calls the reuse path directly rather than through the pool, so it runs
# instrumented too.
echo '>> go test -race (codec reuse)'
go test -race -run 'TestRecycledCodecMatchesNew' ./internal/compress

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
