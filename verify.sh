#!/bin/sh
# Tier-1 verification: formatting, vet, build, tests, and the race detector.
# Run from anywhere; the script cds to the repo root.
set -eu
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# The tests include TestLint, which runs the detlint suite (DESIGN.md §6)
# over every package of the module, here and in the -race pass below. They
# also run every rank program under the communication sanitizer
# (DESIGN.md §7): each experiment sanitized and byte-compared with the
# plain run, b_eff's own tests, and each MPI kernel test's vmpi leg. And
# they check every pick the vmpi calendar makes in the paper sweep, plain,
# sanitized, faulted and noisy, against the reference scan (DESIGN.md §8).
echo "== go test =="
go test -timeout 15m ./...

# colbench/ (the repository benchmark, BENCHMARK.json) is its own module, so
# the ./... patterns above never compile it; vet and test it in place, so an
# internal API change that breaks the benchmark fails here.
echo "== colbench module: go vet, go test =="
(cd colbench && go vet ./... && go test ./...)

# The fault-injection and crash-recovery tests (TestFault* across vmpi,
# sweep, fault, dist, core and the CLI) exercise goroutine shutdown,
# retries, cancellation and worker restarts; run them repeatedly to shake
# out nondeterministic flakes before they reach the golden suites. They
# include the two goroutine-leak tests, vmpi's
# TestFaultShutdownLeavesNoGoroutines and dist's
# TestFaultSupervisorLeavesNoGoroutines, which own goroutine lifetimes.
echo "== go test -run Fault -count=5 (flake gate) =="
go test -timeout 10m -run Fault -count=5 \
	./internal/fault/ ./internal/vmpi/ ./internal/sweep/ ./internal/report/ ./internal/dist/ \
	./internal/core/ ./cmd/columbia/

# Seeded-noise determinism: the noise tests (stream discipline in vmpi,
# ensemble cache isolation/collapse, parallel replay byte-identity, seed
# sensitivity, golden distribution cells) are the replay contract for
# stochastic runs; repeat them to shake out schedule-dependent draws.
echo "== go test -run Noise -count=5 (noise flake gate) =="
go test -timeout 10m -run Noise -count=5 \
	./internal/noise/ ./internal/vmpi/ ./internal/core/ ./cmd/columbia/

# A short fuzz of the engine's pick check: each generated rank program runs
# once under it (FuzzEngineEquivalence), or with its collectives on both
# paths (FuzzCollectiveEquivalence). A failing input is saved under
# internal/vmpi/testdata/fuzz and fails here.
echo "== fuzz smoke (10 s per target) =="
go test -run '^$' -fuzz '^FuzzEngineEquivalence$' -fuzztime 10s ./internal/vmpi/
go test -run '^$' -fuzz '^FuzzCollectiveEquivalence$' -fuzztime 10s ./internal/vmpi/

# The runnable examples: go build only compiles them. Run each (under a
# second in all) so one that panics or exits non-zero fails here.
echo "== examples =="
for ex in examples/*/; do
	go run "./$ex" > /dev/null || {
		echo "example $ex failed" >&2
		exit 1
	}
done

# Crash-tolerance and noise-ensemble smokes, owned by the Makefile (see
# DESIGN.md §10 and §13): a small sweep on 2 supervised worker processes
# under a kill-after-every-point chaos schedule, and one paper table as a
# 5-replica seeded jitter ensemble, each byte-compared against the serial
# run. Crashes are restarted and re-dispatched, never visible in stdout;
# the distribution cells (min/avg/max ±spread) must survive the process
# boundary byte-for-byte, and the output must actually contain them.
echo "== worker chaos and noise ensemble smokes (make chaos noise) =="
make chaos noise

# -short skips the 2048-rank experiments: their race-instrumented goroutine
# churn takes tens of minutes on small hosts while exercising the exact same
# engine and scheduler code paths as the light experiments, which the
# determinism tests still replay on 8 workers here.
echo "== go test -race -short =="
go test -timeout 20m -race -short ./...

# Benchmark regression report: the fast engine benchmarks vs the latest
# committed BENCH_<date>.json. Non-blocking here — benchmark noise on
# shared hosts must not fail tier-1 verification; `make bench` is the
# blocking gate (and adds SweepSerial and SweepEnsemble, the whole-sweep
# allocs/op gate).
echo "== benchgate (non-blocking report) =="
go run ./cmd/benchgate -bench 'Engine' ||
	echo "benchgate: regression reported above (non-blocking in verify)"

echo "verify: all checks passed"
