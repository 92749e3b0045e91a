#!/bin/sh
# fuzz_smoke.sh — run every native fuzz target for a short bounded time
# (FUZZTIME, default 30s each). The targets differential-test the
# optimized codecs against internal/oracle and hammer the wire protocol;
# a clean run means no divergence was found in this budget, not a proof.
# New crashers are written to the package's testdata/fuzz corpus by the
# Go tool itself — commit them with the fix.
set -eu
cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-30s}

run_target() {
    pkg=$1
    target=$2
    echo ">> fuzz $target ($pkg, $FUZZTIME)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
}

run_target ./internal/compress FuzzFPCRoundTrip
run_target ./internal/compress FuzzFPCDecodeArbitrary
run_target ./internal/compress FuzzDictRoundTrip
run_target ./internal/compress FuzzBDIRoundTrip
run_target ./internal/approx FuzzVAXXErrorBound
run_target ./internal/tcam FuzzTCAMEngine
run_target ./internal/serve FuzzProtocolFrame
run_target ./internal/workload FuzzTraceReader

echo 'fuzz-smoke: all targets clean'
