package core

import (
	"context"
	"sync"
	"testing"

	"columbia/internal/fault"
	"columbia/internal/noise"
	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

// diffFaultPlan degrades — never kills — hardware across every fault
// dimension the engine consults on its hot paths: compute (whole-box
// jitter), the memory roofline (one degraded bus), internode capacity (one
// weak link) and the intra-node cross-brick fabric. Killing faults
// (LoseNode, severed links) are covered by the fault tests; here the plan
// must let every experiment complete, so that every pick is checked.
func diffFaultPlan() *fault.Plan {
	return fault.New().
		SlowNode(0, 1.35).
		DegradeBus(0, 0, 0.8).
		DegradeLink(1, 0.7).
		DegradeFabric(0, 0.85)
}

// diffNoiseSpec is a jitter+daemon overlay every experiment can survive:
// both noise kinds fire, so the picks are checked on timelines that every
// stream draw and window crossing shapes, not just on healthy ones.
func diffNoiseSpec() *noise.Spec {
	s, err := noise.Parse("jitter=exp:0.05,daemon=0.002:0.2:1.5:2,seed=12")
	if err != nil {
		panic(err)
	}
	return s
}

// renderings carries each experiment's plain and sanitized CSV
// ("<ID>/plain", "<ID>/commsan") from TestEngineDifferential, which
// renders them under the pick check, to
// TestSanitizedExperimentsByteIdentical, which compares them instead of
// sweeping both configurations again. A rendering is taken once, so each
// -count repetition renders afresh, and a run without the differential
// renders its own.
var renderings sync.Map

// checkPicks replaces the default sweep pool with a fresh one, whose cold
// cache makes every point run, and whose runs check each calendar pick
// against the reference scan (vmpi.WithPickCheck). Under the race
// detector the pool keeps TestMain's cap of 2 workers. The returned
// function fails t if a pick disagreed since its last call, quoting the
// first; the test's cleanup installs a fresh unchecked pool.
func checkPicks(t *testing.T) func(t *testing.T) {
	var (
		mu  sync.Mutex
		bad []error
	)
	ctx := vmpi.WithPickCheck(context.Background(), func(err error) {
		mu.Lock()
		bad = append(bad, err)
		mu.Unlock()
	})
	workers := 0 // GOMAXPROCS
	if sweep.RaceEnabled {
		workers = 2
	}
	sweep.Configure(ctx, sweep.Options{Workers: workers})
	t.Cleanup(func() { sweep.SetWorkers(workers) })
	return func(t *testing.T) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(bad) > 0 {
			t.Errorf("%d calendar picks disagree with the scan; the first: %v", len(bad), bad[0])
		}
		bad = nil
	}
}

// TestEngineDifferential holds the vmpi engine to its reference
// (DESIGN.md §8): every sweep point of every registered experiment runs
// once under the pick check, and every pick the calendar makes must be
// the rank, at the time, that the O(P) scan of every rank defines —
// plain, under a degrading fault plan, under the communication
// sanitizer, and under seeded performance noise, alone and stacked on the
// fault plan, whose seed decorrelates the jitter streams. Each distinct
// point of a mode runs once, and a mismatch names the pick and the run's
// fingerprint. The plain and commsan renderings go on to
// TestSanitizedExperimentsByteIdentical (renderings).
func TestEngineDifferential(t *testing.T) {
	modes := []struct {
		name     string
		faults   *fault.Plan
		sanitize bool
		noise    *noise.Spec
	}{
		{"plain", nil, false, nil},
		{"faulted", diffFaultPlan(), false, nil},
		{"commsan", nil, true, nil},
		{"noisy", nil, false, diffNoiseSpec()},
		{"noisy-faulted", diffFaultPlan().WithSeed(7), false, diffNoiseSpec()},
	}
	agree := checkPicks(t)
	defer func() {
		SetFaultPlan(nil)
		SetSanitize(false)
		SetNoise(nil)
	}()
	for _, e := range Experiments() {
		e := e
		for _, m := range modes {
			m := m
			t.Run(e.ID+"/"+m.name, func(t *testing.T) {
				if testing.Short() && heavyExperiments[e.ID] {
					t.Skip("heavy experiment in -short mode")
				}
				SetFaultPlan(m.faults)
				SetSanitize(m.sanitize)
				SetNoise(m.noise)
				out := experimentCSV(e)
				agree(t)
				if m.faults == nil && m.noise == nil {
					renderings.Store(e.ID+"/"+m.name, out)
				}
			})
		}
	}
}
