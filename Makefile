# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover bench bench-smoke repro fuzz fuzz-smoke validate resil split-smoke arch-smoke serve-smoke ui-smoke fleet-smoke fmt vet clean figures

all: build vet test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fail if total statement coverage drops below the recorded baseline
# (78.0% when the gate was added; kept slightly lower for run noise).
COVER_BASELINE ?= 76.0

cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" \
		'BEGIN { if (t+0 < b+0) { printf "coverage %s%% is below baseline %s%%\n", t, b; exit 1 } }'

# One testing.B entry per paper claim (E1..E15) and ablation (A1..A3),
# plus hot-path microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem

# Cheap CI gate for the zero-alloc event core (see docs/perf.md): run
# every benchmark exactly once to catch panics and compile breakage,
# then the hot-path allocation-budget tests.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run '^$$' ./...
	$(GO) test -run 'TestSchedulerZeroAlloc' -count=1 ./internal/sim
	$(GO) test -run 'TestPerPacketAllocBudget' -count=1 ./internal/hbmswitch
	$(GO) test -run 'TestMuxNextZeroAlloc' -count=1 ./internal/traffic

# Regenerate every quantitative claim in the paper.
repro:
	$(GO) run ./cmd/spsbench -exp all

FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz=FuzzBatcherUnbatcher -fuzztime=$(FUZZTIME) ./internal/packet/
	$(GO) test -fuzz=FuzzFrameAssembler -fuzztime=$(FUZZTIME) ./internal/packet/
	$(GO) test -fuzz=FuzzTraceReader -fuzztime=$(FUZZTIME) ./internal/traffic/
	$(GO) test -fuzz=FuzzStaggeredInterleave -fuzztime=$(FUZZTIME) ./internal/hbm/
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzUnitEvent -fuzztime=$(FUZZTIME) ./internal/serve/

# Short fuzzing pass over every target — cheap enough for CI.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=30s

# The differential validation sweep (see docs/validation.md).
validate:
	$(GO) run ./cmd/spsvalidate -cases 200 -seed 1

# Resilience smoke: a seeded quick availability campaign whose report
# must match the checked-in fixtures byte for byte (see
# docs/resilience.md). Catches both behavioural drift and any loss of
# cross-worker determinism.
resil:
	$(GO) run ./cmd/spsresil -quick -j 8 -out /tmp/resil_failed_switches.csv
	cmp internal/resilience/testdata/quick_failed_switches.csv /tmp/resil_failed_switches.csv
	$(GO) run ./cmd/spsresil -quick -sweep mtbf -j 8 -out /tmp/resil_mtbf.csv
	cmp internal/resilience/testdata/quick_mtbf.csv /tmp/resil_mtbf.csv
	@echo "resilience smoke: reports match fixtures"

# Splitter-policy smoke: the quick policy × workload grid with the
# validation observer on (see docs/splitpolicy.md) — exits non-zero on
# any FIFO/conservation violation — whose table must match the
# checked-in fixture byte for byte, plus every test of the campaign
# engine and both sweeps (golden tables and per-point series, static ≡
# nil policy, cross-worker identity).
split-smoke:
	$(GO) run ./cmd/spssplit -quick -j 8 -out /tmp/split_quick.csv
	cmp internal/splitpolicy/testdata/quick.csv /tmp/split_quick.csv
	$(GO) test -count=1 ./internal/resilience ./internal/splitpolicy

# Architecture-arena smoke: the quick (architecture × workload) grid
# and the full six-design N=4 grid, both with the SPS validation
# observer on — exits non-zero on any invariant violation — whose
# tables must match the checked-in fixtures byte for byte, plus the
# per-cell series fixtures, cross-worker byte-identity, column
# stream-identity, and heavy-tail separation pins (docs/workloads.md).
arch-smoke:
	$(GO) run ./cmd/spsarch -quick -j 8 -out /tmp/arch_quick.csv
	cmp internal/arch/testdata/quick.csv /tmp/arch_quick.csv
	$(GO) run ./cmd/spsarch -N 4 -port-gbps 200 -horizon 10us -j 8 -out /tmp/arch_grid.csv
	cmp internal/arch/testdata/grid.csv /tmp/arch_grid.csv
	$(GO) test -run 'TestQuickSweepMatchesFixtures|TestGridContract|TestWorkerByteIdentity|TestColumnStreamIdentity|TestHeavyTailSeparation' -count=1 ./internal/arch

# Serving smoke: build the real binaries, run an actual spsd daemon,
# submit one job of each kind, and require every result byte-identical
# to its CLI twin (and to the checked-in fixtures in
# internal/serve/testdata). Also load-tests with 32 spsload clients
# and SIGTERMs the daemon mid-campaign to prove drain + checkpoint +
# resume lose nothing. See docs/serving.md.
serve-smoke:
	SPSD_SMOKE=1 $(GO) test ./internal/serve -run TestServeSmoke -count=1 -v

# Control-plane smoke: boot a real `spsd -ui`, fetch the embedded
# dashboard and every asset, walk the full /api/v1 surface against a
# live traced job, and validate each JSON payload's shape. See
# docs/dashboard.md.
ui-smoke:
	SPSD_UI_SMOKE=1 $(GO) test ./internal/serve -run TestUISmoke -count=1 -v

# Fleet smoke: build the real spsd, spsfleet, and spsload binaries,
# boot three backends plus the coordinator, drive a spsload campaign
# through it, SIGKILL one backend mid-run, and require zero errors —
# the coordinator must retry every lost unit on the survivors. See
# docs/fleet.md.
fleet-smoke:
	SPSFLEET_SMOKE=1 $(GO) test ./internal/fleet -run TestFleetSmoke -count=1 -v

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...

# Figure-style CSV series + ASCII charts into results/.
figures:
	mkdir -p results
	$(GO) run ./cmd/spssweep -sweep latency-load > results/latency_load.csv
	$(GO) run ./cmd/spssweep -sweep throughput-speedup > results/throughput_speedup.csv
	$(GO) run ./cmd/spssweep -sweep latency-framesize > results/latency_framesize.csv
	$(GO) run ./cmd/spssweep -sweep latency-cdf > results/latency_cdf.csv
	$(GO) run ./cmd/spssweep -sweep mesh-load > results/mesh_load.csv
	$(GO) run ./cmd/spssweep -sweep latency-load -plot > results/latency_load.txt
	$(GO) run ./cmd/spssweep -sweep mesh-load -plot > results/mesh_load.txt
