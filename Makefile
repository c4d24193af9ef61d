GO ?= go

.PHONY: build test vet fmt race check check-reltypes fuzz bench bench-path bench-build bench-incr bench-query bench-snap bench-serve serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when any file is not gofmt-clean, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check-reltypes asserts every relationship type of the edge vocabulary
# is handled by the provenance table, the cpg re-exports and the DOT
# exporter (see scripts/check_reltypes.sh).
check-reltypes:
	sh scripts/check_reltypes.sh

# check is the pre-merge gate: formatting, schema exhaustiveness,
# compile everything, vet, and run the full test suite under the race
# detector (the parallel pipeline's determinism and safety contract).
# perfbench is a separate module that root `go build ./...` never
# compiles, so it is vetted on its own: an API change it depends on
# fails here, not in the benchmark run.
check: fmt check-reltypes
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...
	cd perfbench && $(GO) vet ./...

# fuzz runs each native fuzz target for 10 s: the
# mini-Java parser, the Cypher-lite dispatcher and both snapshot read
# paths. Inputs may be rejected but must never panic or hang; a failing
# input lands in the package's testdata/fuzz and then runs as a seed in
# every `go test`. Kept out of `check` because it is time-boxed, not
# deterministic.
fuzz:
	$(GO) test ./internal/javasrc -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s
	$(GO) test ./internal/cypher -run '^$$' -fuzz '^FuzzRunAny$$' -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime 10s

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-path compares the compiled-index search engine against the
# generic-store test oracle on synthetic and real graphs, and gates the
# index engine's steady-state allocation ceiling (TestSteadyStateAllocs
# fails the build if allocs/op regresses).
bench-path:
	$(GO) test ./internal/pathfinder -run TestSteadyStateAllocs -bench 'BenchmarkFind(Indexed|Generic)' -benchmem -v

# The bench-* gates are timing tests next to the code they measure.
# Wall-clock assertions are load-sensitive, so each test skips unless
# TABBY_BENCH_GATE is set; the targets run them at GOMAXPROCS=1.

# bench-build gates the cold-build fast path at workers=1
# (TestBuildGate, internal/core/gate_test.go): a cacheless full-corpus
# build (compile + taint + cpg) must be >= 1.5x faster and allocate
# >= 3x less than the recorded pre-fast-path seed.
bench-build:
	GOMAXPROCS=1 TABBY_BENCH_GATE=1 $(GO) test ./internal/core -run '^TestBuildGate$$' -count=1 -v

# bench-incr gates the incremental-analysis speedups (TestIncrementalGate,
# internal/core/gate_test.go): a warm rerun must beat a cold run by
# >= 3x and a one-class-changed rerun by >= 2x, with output identical
# to the cacheless pipeline.
bench-incr:
	GOMAXPROCS=1 TABBY_BENCH_GATE=1 $(GO) test ./internal/core -run '^TestIncrementalGate$$' -count=1 -v

# bench-query gates the Cypher-lite plan compiler (TestQueryGate,
# internal/cypher/gate_test.go): the compiled iterator plan must beat
# the tree-walking interpreter by >= 10x on a selective MATCH..WHERE
# pattern, with steady-state allocations bounded by a small constant
# plus a few per result row.
bench-query:
	GOMAXPROCS=1 TABBY_BENCH_GATE=1 $(GO) test ./internal/cypher -run '^TestQueryGate$$' -count=1 -v

# bench-snap gates the storage backends (TestSnapshotGate,
# internal/backend/gate_test.go): opening a snapshot as a zero-copy
# mmap view must be >= 100x faster than the full heap parse, with
# per-open allocations bounded by a constant (O(labels + relationship
# types), never O(graph)), and steady-state chains + query serving
# within 1.5x of the heap backend.
bench-snap:
	GOMAXPROCS=1 TABBY_BENCH_GATE=1 $(GO) test ./internal/backend -run '^TestSnapshotGate$$' -count=1 -v

# bench-serve gates the serve path under load (TestServeGate,
# internal/server/serve_gate_test.go): a repeat upload of an unchanged
# corpus must resolve >= 10x faster than a build (the body-digest memo
# and the fingerprint-keyed result cache), repeats must run zero
# builds, and cached /v1/query + /v1/chains responses must be
# byte-identical to cold ones on both storage backends.
bench-serve:
	GOMAXPROCS=1 TABBY_BENCH_GATE=1 $(GO) test ./internal/server -run '^TestServeGate$$' -count=1 -v

# serve-smoke runs the persistence + serving stack end to end: snapshot
# the quickstart corpus, boot tabby-server, curl every endpoint, and
# diff against scripts/testdata/serve_smoke.golden (regenerate with
# scripts/serve_smoke.sh -update).
serve-smoke:
	scripts/serve_smoke.sh
