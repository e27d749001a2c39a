# Dash reproduction build targets.

GO ?= go

.PHONY: build test race vet lint loc bench serve-bench

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# race mirrors CI's race step.
race:
	$(GO) test -race ./internal/search/ ./internal/fragindex/ ./internal/replic/ ./cmd/dashserve/ ./internal/relation/ ./internal/psj/ ./internal/crawl/

vet:
	$(GO) vet ./...

# lint runs dashvet — the project's invariant analyzers (snapshotescape,
# ctxfirst, atomicfield, droppederr; see internal/lint and
# ARCHITECTURE.md "Static analysis & invariants") — together with the
# stock go vet suite. Any finding fails the target.
lint:
	$(GO) run ./cmd/dashvet ./...

# loc prints the non-test Go line counts of the root package and of the
# whole repo: tracked .go files, leaving out _test.go files and testdata/.
GOSRC = git ls-files '*.go' | grep -v -e '_test\.go$$' -e 'testdata/'
loc:
	@echo "root $$($(GOSRC) | grep -v / | xargs cat | wc -l)"
	@echo "repo $$($(GOSRC) | xargs cat | wc -l)"

# bench regenerates the tracked search-path performance snapshot: the
# Fig. 11 top-k sweep, the context-overhead guard (the cooperative
# cancellation poll must sit within noise of a background-ctx run), the
# parallel-throughput scaling benchmark, the live-mutation-under-load
# benchmark, the snapshot-publish-cost benchmark (chunked metadata +
# batched applies), the sharded serving benchmarks (one-queue search
# over the pinned shard set + routed applies at S = 1/4/16 vs the
# single-index baseline), the durable apply benchmark (journal off vs
# interval vs always), and
# the serving-under-load benchmark (result-cache hit-rate sweep, cached
# vs uncached hot path, open-loop 2x-overload shedding percentiles),
# with allocation counts, converted to BENCH_search.json so the perf
# trajectory is diffable PR over PR.
bench:
	$(GO) test -run '^$$' -bench 'Fig11|SearchContextOverhead|ParallelSearchThroughput|LiveMutationUnderLoad|ApplyPublishCost|ShardedSearchThroughput|ShardedApplyThroughput|DurableApplyThroughput|ServeOverload' -benchmem -count 1 . > BENCH_search.txt
	$(GO) run ./cmd/benchjson -o BENCH_search.json < BENCH_search.txt
	@rm -f BENCH_search.txt
	@echo wrote BENCH_search.json

# serve-bench runs the acceptance gate BENCHMARK.json declares — dashload's
# end-to-end serving benchmark — for one workload:
#   make serve-bench W=write_durable SEED=3 TRACE=1
W ?= search_uncached
SEED ?= 1
TRACE ?= 0
serve-bench:
	bash bench/run.sh --workload $(W) --seed $(SEED) --seconds 15 --trace $(TRACE)
