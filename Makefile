# Developer entry points. CI runs the same targets so local runs and
# the workflow cannot drift.

BENCH     ?= .
BENCHTIME ?= 1s
COUNT     ?= 3

.PHONY: build test race bench fuzz-smoke lint

build:
	go build ./...

test:
	go test ./...

# lint is the static gate: formatting, go vet, and plclint — the
# repo's own analyzers (detrand, maporder, journalerr) plus the
# //plclint:noalloc escape gate over the annotated hot functions.
# See docs/LINTING.md.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/plclint ./...

race:
	go test -race ./...

# bench runs every Benchmark* with -benchmem, COUNT runs each
# (benchstat wants repeated samples), parsed into bench-results.json
# (git-ignored) with the raw text embedded. No baseline is committed:
# a performance claim compares paired runs of the parent and the
# change. `make bench BENCHTIME=1x COUNT=3` is the CI smoke.
bench:
	go test -run=XXX -bench='$(BENCH)' -benchmem -benchtime=$(BENCHTIME) -count=$(COUNT) ./... > bench.out
	go run ./cmd/benchjson < bench.out > bench-results.json
	@rm -f bench.out
	@echo "wrote bench-results.json"

# fuzz-smoke gives each scenario/campaign/journal/solver fuzzer a short budget
# — the CI regression net; long exploratory runs raise -fuzztime
# locally. Journal recovery fsyncs its compacted file on every exec, so
# its per-input minimization is capped or it would eat the budget.
fuzz-smoke:
	go test ./internal/scenario -run=XXX -fuzz=FuzzSpecDecode -fuzztime=15s
	go test ./internal/scenario -run=XXX -fuzz=FuzzNormalizeIdempotent -fuzztime=15s
	go test ./internal/campaign -run=XXX -fuzz=FuzzCampaignDecode -fuzztime=15s
	go test ./internal/campaign -run=XXX -fuzz=FuzzCampaignExpand -fuzztime=15s
	go test ./internal/serve -run=XXX -fuzz=FuzzJournalOpen -fuzztime=15s -fuzzminimizetime=100x
	go test ./internal/model -run=XXX -fuzz=FuzzSolveLoaded -fuzztime=15s
