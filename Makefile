# Common targets for the ib12x reproduction.

GO ?= go

.PHONY: all build test vet check race fuzz cover benchcheck figs soak bench simbench perf reproduce extra clean

all: vet test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }

# Full pre-merge gate: vet + the whole suite + the race detector over the
# hot-path packages and the NAS kernels + the fuzz corpus + the statement-coverage floor + the
# nested benchmark module + the NAS IS figures against their recorded output.
check: vet test race fuzz cover benchcheck figs

race:
	$(GO) test -race ./internal/sim/... ./internal/adi/... ./internal/core/... ./internal/mpi/... ./internal/chaos/... ./internal/buf/... ./internal/harness/... ./internal/regcache/... ./internal/fabric/... ./internal/topo/... ./internal/hca/... ./internal/ib/... ./internal/trace/... ./internal/shmem/... ./internal/nas/...
	$(GO) test -race -run 'TestLaneColl|TestEagerLatencyTable|TestNASFig|TestDegradedRailTable|TestHCAGenerationTable|TestOversubscriptionTableShape' ./internal/bench/

# Self-healing soak: the whole generated chaos oracle array (its coverage
# proof, every legacy filter and the serial/parallel twins), the health
# state machine and replay tests, and the epoch exactly-once audit — all
# under the race detector.
soak:
	$(GO) test -race -run 'TestOracleArray|TestSelfHealing|TestDifferentialOracle|GeneratedPlansConverge|(Conformance|RDMAEager|LaneColl|Routing|Integrity)SerialParallelIdentical|TestHealthTimelineReplay|TestFalseSuspectRecovers|TestChaosReproducible|TestReliability|TestHealthStateMachine|TestBackoff|TestEpochCycle|TestDegradedRailTable' ./internal/chaos/ ./internal/adi/ ./internal/ib/ ./internal/bench/

# Each fuzz target gets a bounded live run on top of its checked-in corpus:
# the stripe planners against their coverage invariants, the lane partition
# against its tiling/steering invariants, the bucketed matcher against the
# naive linear reference, the eager-ring header cache against its flat
# MRU-scan reference, the pin-down registration cache against its
# flat-scan LRU reference, the engine's radix event queue (reserved-
# ordinal blocks posted lazily, ties, keys 2^62 apart and cancel-heavy
# compaction included) against a stable sort by (fire time, post ordinal),
# the NAS FT's planned FFT against the unplanned recurrence, bit for bit,
# and mpi.Run on small decoded jobs against Config.Validate and the fault
# plan's Arm (no panic; an error before any rank runs exactly when either
# gate rejects; an accepted job finishes a ring exchange).
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
	$(GO) test -run='^$$' -fuzz=FuzzFFT -fuzztime=$(FUZZTIME) ./internal/nas
	$(GO) test -run='^$$' -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME) ./internal/mpi

# Statement-coverage floor over the deterministic-simulation core and the
# NAS kernels. The gate
# fails when coverage drops below COVERAGE.txt; re-record the floor with
#   go run ./cmd/covergate -record
# only when a PR legitimately moves it. The profile goes to a temp path so
# the working tree stays clean.
cover:
	@prof=$$(mktemp -t ib12x-cover-XXXXXX.out); \
	trap 'rm -f $$prof' EXIT; \
	$(GO) test -coverprofile=$$prof ./internal/core ./internal/adi ./internal/sim ./internal/chaos ./internal/buf ./internal/harness ./internal/regcache ./internal/fabric ./internal/topo ./internal/hca ./internal/ib ./internal/trace ./internal/mpi ./internal/shmem ./internal/nas && \
	$(GO) run ./cmd/covergate -profile $$prof -floor COVERAGE.txt

# benchmark/ is its own Go module, so `go test ./...` at the root never
# compiles it; this is what catches an API break against it.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Figures 9 and 10 (NAS IS classes A and B, ~18 s together) at -quick,
# diffed against cmd/reproduce/testdata; TestFiguresGolden pins the other
# figures but these are too slow for the plain test suite.
figs:
	@out=$$(mktemp -t ib12x-figs-XXXXXX); \
	trap 'rm -f $$out' EXIT; \
	for f in 9 10; do \
		$(GO) run ./cmd/reproduce -quick -fig $$f > $$out && \
		diff -u cmd/reproduce/testdata/fig$$f.txt $$out || exit 1; \
	done

# One testing.B benchmark per paper figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem .

# The engine's own hot paths, pinned to one CPU, three runs each: the hold
# model at the workloads' queue depths, post+fire, Sleep and a ping-pong.
simbench:
	taskset -c 1 $(GO) test -run '^$$' -bench 'Hold|PostFire|Sleep|PingPong' -count 3 ./internal/sim

# The one speed yardstick: all six benchmark/ workloads at a fixed seed, then
# benchhist appends the run to the tracked BENCH_history.json and prints the
# delta against the last record from the same CPU model and count. Fails on
# failed ops, virt_us, allocs_per_msg and alloc_mb only; host-time deltas are
# printed, never gated (~3 min, so not on `make check`).
perf:
	bash benchmark/run.sh -seed 1
	$(GO) run ./cmd/benchhist

# Regenerate every figure of the paper (takes a few minutes: class-B NAS).
reproduce:
	$(GO) run ./cmd/reproduce -fig all

# The beyond-the-paper supplementary tables.
extra:
	$(GO) run ./cmd/reproduce -fig headline -extra

clean:
	$(GO) clean ./...
