# Common targets for the ib12x reproduction.

GO ?= go

.PHONY: all build test vet check race fuzz cover benchcheck soak bench perf perfstat reproduce extra examples clean

all: vet test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	gofmt -l .

# Full pre-merge gate: vet + the whole suite + the race detector over the
# hot-path packages + the fuzz corpus + the statement-coverage floor + the
# nested benchmark module.
check: vet test race fuzz cover benchcheck

race:
	$(GO) test -race ./internal/sim/... ./internal/adi/... ./internal/core/... ./internal/mpi/... ./internal/chaos/... ./internal/buf/... ./internal/harness/... ./internal/regcache/... ./internal/fabric/... ./internal/topo/... ./internal/hca/... ./internal/ib/... ./internal/trace/... ./internal/shmem/...
	$(GO) test -race -run 'TestLaneColl|TestEagerLatencyTable' ./internal/bench/

# Self-healing soak: the full chaos conformance matrix with the rail
# reliability layer armed, the health state machine and replay tests, and
# the epoch exactly-once audit — all under the race detector.
soak:
	$(GO) test -race -run 'TestSelfHealing|TestDifferentialOracle|TestGeneratedPlansConverge|TestHealthTimelineReplay|TestFalseSuspectRecovers|TestChaosReproducible|TestReliability|TestHealthStateMachine|TestBackoff|TestEpochCycle|TestDegradedRailTable' ./internal/chaos/ ./internal/adi/ ./internal/ib/ ./internal/bench/

# Each fuzz target gets a bounded live run on top of its checked-in corpus:
# the stripe planners against their coverage invariants, the lane partition
# against its tiling/steering invariants, the bucketed matcher against the
# naive linear reference, the eager-ring header cache against its flat
# MRU-scan reference, the pin-down registration cache against its
# flat-scan LRU reference, and the engine's timer heap against a stable
# sort by (fire time, post ordinal).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzEvenStripes -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzWeightedStripes -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzLanePartition -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzMatchOrder -fuzztime=$(FUZZTIME) ./internal/adi
	$(GO) test -run='^$$' -fuzz=FuzzHeaderCache -fuzztime=$(FUZZTIME) ./internal/adi
	$(GO) test -run='^$$' -fuzz=FuzzRegCacheLRU -fuzztime=$(FUZZTIME) ./internal/regcache
	$(GO) test -run='^$$' -fuzz=FuzzTimerHeap -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzChunkChecksum -fuzztime=$(FUZZTIME) ./internal/buf
	$(GO) test -run='^$$' -fuzz=FuzzRouteTable -fuzztime=$(FUZZTIME) ./internal/fabric

# Statement-coverage floor over the deterministic-simulation core. The gate
# fails when coverage drops below COVERAGE.txt; re-record the floor with
#   go run ./cmd/covergate -record
# only when a PR legitimately moves it. The profile goes to a temp path so
# the working tree stays clean.
cover:
	@prof=$$(mktemp -t ib12x-cover-XXXXXX.out); \
	trap 'rm -f $$prof' EXIT; \
	$(GO) test -coverprofile=$$prof ./internal/core ./internal/adi ./internal/sim ./internal/chaos ./internal/buf ./internal/harness ./internal/regcache ./internal/fabric ./internal/topo ./internal/hca && \
	$(GO) run ./cmd/covergate -profile $$prof -floor COVERAGE.txt

# benchmark/ is its own Go module, so `go test ./...` at the root never
# compiles it; this is what catches an API break against it.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# One testing.B benchmark per paper figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem .

# Wall-clock benchmark regression harness: runs BenchmarkFig04/06/07/08,
# fails if Fig06 loses the hot-path win or any figure's allocs/op creeps
# back toward the seed, and rewrites BENCH_hotpath.json only when every gate
# holds. The ns gate needs quiet timings, so the benchmark processes run
# one at a time (two at once on a 2-CPU host read Fig06 anywhere between
# 1x and 2x); on a noisy machine also raise PERF_SAMPLES: the gate judges
# the fastest sample.
PERF_SAMPLES ?= 1
perf:
	IB12X_WORKERS=1 $(GO) run ./cmd/perfgate -gate -samples $(PERF_SAMPLES)

# Statistical view of the same benchmarks: each figure runs SAMPLES times
# through the harness pool and prints mean ± stddev ns/op. The JSON report
# goes to a temp file so BENCH_hotpath.json keeps its gating record. The
# warm-path allocation gate keeps registration-cache lookups alloc-free on
# the warm rendezvous path.
SAMPLES ?= 5
perfstat:
	@out=$$(mktemp -t ib12x-perfstat-XXXXXX.json); \
	trap 'rm -f $$out' EXIT; \
	$(GO) run ./cmd/perfgate -samples $(SAMPLES) -o $$out
	$(GO) test -run TestWarmRegisterNoAllocs -count=1 ./internal/regcache

# Regenerate every figure of the paper (takes a few minutes: class-B NAS).
reproduce:
	$(GO) run ./cmd/reproduce -fig all

# The beyond-the-paper supplementary tables.
extra:
	$(GO) run ./cmd/reproduce -fig headline -extra

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil
	$(GO) run ./examples/multirail
	$(GO) run ./examples/alltoall
	$(GO) run ./examples/onesided
	$(GO) run ./examples/faults
	$(GO) run ./examples/chaos

clean:
	$(GO) clean ./...
