# Standard entry points; `make check` is the tier-1 verification gate
# (gofmt + vet + build + race-detector test run + coverage summary,
# including the internal/obs 85% coverage floor).
# `make check FUZZ=1` additionally runs the fuzz smoke pass.
# `make fuzz-smoke` runs the fuzz pass alone. FUZZTIME tunes the
# per-target budget.
# `make obs-demo` boots a live gateway with the debug endpoint, scrapes
# /metrics and /trace over HTTP, and fails unless the scrape parses.
# `make loc` prints non-test Go lines per package and in total,
# benchmark/ excluded (scripts/loc.sh <rev> counts a commit;
# scripts/loc.sh census lists exported names only tests mention).
# Measuring is not a make target: `go run ./benchmark` is the repo
# benchmark, `go run ./cmd/approxnoc-bench -exp ...` regenerates the
# paper's figures, and the per-package `go test -bench` families are for
# measuring while you work.

.PHONY: check test build fuzz-smoke obs-demo loc

check:
	FUZZ=$(FUZZ) ./scripts/check.sh

obs-demo:
	go run ./cmd/approxnoc-serve -obs-demo -records 1000

fuzz-smoke:
	./scripts/fuzz_smoke.sh

loc:
	./scripts/loc.sh

build:
	go build ./...

test:
	go test ./...
