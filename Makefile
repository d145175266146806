# Developer entry points. CI runs the same targets so local runs and
# the workflow cannot drift.

BENCH     ?= .
BENCHTIME ?= 1s
COUNT     ?= 3

.PHONY: build test race bench fuzz-smoke lint deadcode

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

# deadcode is the reachability gate: it links every cmd/*, examples/*
# and perfbench with the linker's dependency dump and fails on any
# internal/ func or method no program reaches that the gate's keep-list
# does not name with a reason. See docs/LINTING.md.
deadcode:
	go test -count=1 -tags reachability -run TestReachability .

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

# fuzz-smoke gives each scenario/campaign/journal/cache/solver/MME,
# HTTP-body and exposition-parser fuzzer, and the spec-run property
# fuzzer, a short budget — the CI regression net; long exploratory runs
# raise -fuzztime locally. Journal recovery opens, compacts (fsync,
# rename, directory fsync) and reopens its file up to three times per
# exec and the cache loader opens three segment directories, so their
# per-input minimization is capped or it would eat the budget; so is
# that of FuzzSpecRun, which runs every engine a spec allows per exec,
# and of FuzzParseText and FuzzRequestBodies, whose seeds are whole
# expositions and request bodies that minimize byte by byte.
fuzz-smoke:
	go test ./internal/scenario -run=XXX -fuzz=FuzzSpecDecode -fuzztime=15s
	go test ./internal/scenario -run=XXX -fuzz=FuzzNormalizeIdempotent -fuzztime=15s
	go test ./internal/scenario -run=XXX -fuzz=FuzzSpecRun -fuzztime=15s -fuzzminimizetime=100x
	go test ./internal/campaign -run=XXX -fuzz=FuzzCampaignDecode -fuzztime=15s
	go test ./internal/campaign -run=XXX -fuzz=FuzzCampaignExpand -fuzztime=15s
	go test ./internal/serve -run=XXX -fuzz=FuzzJournalOpen -fuzztime=15s -fuzzminimizetime=100x
	go test ./internal/serve -run=XXX -fuzz=FuzzCacheSegmentOpen -fuzztime=15s -fuzzminimizetime=100x
	go test ./internal/model -run=XXX -fuzz=FuzzSolveLoaded -fuzztime=15s
	go test ./internal/hpav -run=XXX -fuzz=FuzzMMEDecode -fuzztime=15s
	go test ./internal/serve -run=XXX -fuzz=FuzzRequestBodies -fuzztime=15s -fuzzminimizetime=100x
	go test ./internal/obs -run=XXX -fuzz=FuzzParseText -fuzztime=15s -fuzzminimizetime=100x
