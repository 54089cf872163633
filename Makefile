GO ?= go

.PHONY: build test race bench bench-all bench-baseline verify golden lint analyze chaos noise

build:
	$(GO) build ./...

# Static analysis gate (see internal/analysis/detlint): builds the vettool
# and runs its eight analyzers over every package.
lint:
	$(GO) build -o bin/detlint ./cmd/detlint
	$(GO) vet -vettool=bin/detlint ./...

# Same suite in machine-readable form (-json per-package findings). See
# DESIGN.md §6.
analyze:
	$(GO) build -o bin/detlint ./cmd/detlint
	$(GO) vet -vettool=bin/detlint -json ./...

test:
	$(GO) test ./...

# -short skips the 2048-rank experiments, which take tens of race-instrumented
# minutes on small hosts (see verify.sh).
race:
	$(GO) test -race -short ./...

# Benchmark regression gate: runs the engine and sweep benchmarks and
# fails if any is >15% slower (ns/op) or allocates >10% more (allocs/op)
# than the latest committed BENCH_<date>.json baseline. See cmd/benchgate
# and DESIGN.md §8.
bench:
	$(GO) run ./cmd/benchgate

# Refresh the committed baseline after an intentional performance change
# (writes BENCH_<today>.json; commit it alongside the change).
bench-baseline:
	$(GO) run ./cmd/benchgate -write

# Every benchmark in the repo, ungated.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Crash-tolerance smoke: a small sweep on 2 supervised worker processes
# under a kill-after-every-point chaos schedule, byte-compared against the
# serial run. See DESIGN.md §10.
chaos:
	$(GO) build -o bin/columbia ./cmd/columbia
	bin/columbia -faults wkill=1 run stride table1 > bin/chaos_serial.out
	bin/columbia -workers 2 -faults wkill=1 run stride table1 > bin/chaos_workers.out
	cmp bin/chaos_serial.out bin/chaos_workers.out
	rm -f bin/chaos_serial.out bin/chaos_workers.out
	@echo "chaos: byte-identical under worker crashes"

# Noise ensemble smoke: a paper figure as a 5-replica seeded jitter
# ensemble, serial vs 2 worker processes, byte-compared — the replica
# draws are a pure function of (spec, seed, replica), never of
# scheduling. See DESIGN.md §13.
noise:
	$(GO) build -o bin/columbia ./cmd/columbia
	bin/columbia -noise jitter=exp:0.05,seed=12 -replicas 5 run fig7 > bin/noise_serial.out
	bin/columbia -workers 2 -noise jitter=exp:0.05,seed=12 -replicas 5 run fig7 > bin/noise_workers.out
	cmp bin/noise_serial.out bin/noise_workers.out
	grep -q '±' bin/noise_serial.out
	rm -f bin/noise_serial.out bin/noise_workers.out
	@echo "noise: ensemble byte-identical across worker processes"

# Full tier-1 gate: gofmt, vet, build, tests, race detector.
verify:
	./verify.sh

# Regenerate the golden experiment outputs after an intentional model change.
golden:
	$(GO) test ./internal/core -run TestGoldenOutputs -update
