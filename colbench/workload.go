package main

import (
	"fmt"
	"strconv"
)

// workload is one closed-loop invocation of the columbia CLI: a single
// client starts the next invocation when the previous one has exited.
// README.md explains why each exists.
type workload struct {
	name string
	// gomaxprocs pins GOMAXPROCS for the CLI, its workers and the traced
	// in-process passes.
	gomaxprocs int
	// jobs is the -j flag; 0 leaves it unset, so it defaults to GOMAXPROCS.
	jobs int
	// workers is the -workers flag; 0 runs points in-process.
	workers int
	// replicas > 0 turns on the seeded noise ensemble (-noise, -replicas).
	replicas int
	// experiments run with "run"; nil runs "all".
	experiments []string
	csv         bool
}

var workloads = []workload{
	{name: "paper-1core", gomaxprocs: 1, jobs: 1, csv: true},
	{name: "paper-2core", gomaxprocs: 2, jobs: 2, csv: true},
	{name: "ensemble-workers", gomaxprocs: 1, workers: 2, replicas: 16,
		experiments: []string{"fig7", "fig9"}},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// noiseSpec maps the benchmark seed onto the ensemble's noise spec: 5%
// exponential compute jitter plus a daemon stealing CPUs 0-1 for 20% of
// every 10 ms window at 3x slowdown, with the seed as the noise seed.
func noiseSpec(seed uint64) string {
	return fmt.Sprintf("jitter=exp:0.05,daemon=0.01:0.2:3:2,seed=%d", seed)
}

// lanes is the effective -j: the in-process sweep's affinity lanes.
func (w workload) lanes() int {
	if w.jobs > 0 {
		return w.jobs
	}
	return w.gomaxprocs
}

// parallelism is how many CPUs the workload expects to use at once.
func (w workload) parallelism() int {
	if w.workers > w.lanes() {
		return w.workers
	}
	return w.lanes()
}

// flags is the CLI flag list, without the command.
func (w workload) flags(seed uint64) []string {
	var a []string
	if w.jobs > 0 {
		a = append(a, "-j", strconv.Itoa(w.jobs))
	}
	if w.csv {
		a = append(a, "-csv")
	}
	if w.workers > 0 {
		a = append(a, "-workers", strconv.Itoa(w.workers))
	}
	if w.replicas > 0 {
		a = append(a, "-noise", noiseSpec(seed), "-replicas", strconv.Itoa(w.replicas))
	}
	return a
}

func (w workload) command() []string {
	if w.experiments == nil {
		return []string{"all"}
	}
	return append([]string{"run"}, w.experiments...)
}

// runArgs is the timed invocation.
func (w workload) runArgs(seed uint64) []string {
	return append(w.flags(seed), w.command()...)
}

// setupArgs is the set-up invocation: the same flags with "list" in place
// of the experiments.
func (w workload) setupArgs(seed uint64) []string {
	return append(w.flags(seed), "list")
}

// referenceArgs is the same run in-process at -j 1, whose stdout the
// noise ensemble must reproduce byte for byte.
func (w workload) referenceArgs(seed uint64) []string {
	ref := w
	ref.jobs, ref.workers = 1, 0
	return ref.runArgs(seed)
}
