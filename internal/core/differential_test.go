package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"columbia/internal/fault"
	"columbia/internal/noise"
	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

// diffFaultPlan degrades — never kills — hardware across every fault
// dimension the engines consult on their hot paths: compute (whole-box
// jitter), the memory roofline (one degraded bus), internode capacity (one
// weak link) and the intra-node cross-brick fabric. Killing faults
// (LoseNode, severed links) are covered by the fault tests; here the plan
// must let every experiment complete so the outputs can be diffed.
func diffFaultPlan() *fault.Plan {
	return fault.New().
		SlowNode(0, 1.35).
		DegradeBus(0, 0, 0.8).
		DegradeLink(1, 0.7).
		DegradeFabric(0, 0.85)
}

// diffNoiseSpec is a jitter+daemon overlay every experiment can survive:
// both noise kinds fire, so the engines must agree on every stream draw
// and window crossing, not just on healthy timelines.
func diffNoiseSpec() *noise.Spec {
	s, err := noise.Parse("jitter=exp:0.05,daemon=0.002:0.2:1.5:2,seed=12")
	if err != nil {
		panic(err)
	}
	return s
}

// engineOracle is the test-only Dispatcher behind TestEngineDifferential.
// It serves each point in-process twice under one pooled arena — once as
// is (the calendar engine) and once on the reference goroutine engine
// (vmpi.WithEngine), which picks every next rank by an O(P) scan instead
// of the calendar's heap — and records every point whose result bytes or
// error text differ. The calendar outcome is what the report renders. The
// arena pool also bounds how many points, and rank fleets, are live at
// once.
type engineOracle struct {
	arenas chan *vmpi.Arena
	mu     sync.Mutex
	diffs  []string
}

func newEngineOracle(n int) *engineOracle {
	o := &engineOracle{arenas: make(chan *vmpi.Arena, n)}
	for i := 0; i < n; i++ {
		o.arenas <- vmpi.NewArena()
	}
	return o
}

func (o *engineOracle) Do(ctx context.Context, _, kind, key string, spec []byte) ([]byte, error) {
	a := <-o.arenas
	defer func() { o.arenas <- a }()
	ctx = vmpi.WithArena(ctx, a)
	cal, calErr := ExecutePoint(ctx, kind, key, spec)
	gor, gorErr := ExecutePoint(vmpi.WithEngine(ctx, vmpi.EngineGoroutine), kind, key, spec)
	if c, g := outcome(cal, calErr), outcome(gor, gorErr); c != g {
		o.mu.Lock()
		o.diffs = append(o.diffs, fmt.Sprintf("point %s: engines disagree\n--- calendar ---\n%s\n--- goroutine ---\n%s", key, c, g))
		o.mu.Unlock()
	}
	return cal, calErr
}

// take returns and clears the disagreements recorded so far.
func (o *engineOracle) take() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	d := o.diffs
	o.diffs = nil
	return d
}

// outcome renders a served point for comparison: the full error text on
// failure, the exact gob-encoded result bytes otherwise.
func outcome(res []byte, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("result %x", res)
}

// TestEngineDifferential is the equivalence contract between the two vmpi
// execution engines (DESIGN.md §8), which share the rank handoff and differ
// only in how they pick the next rank: every sweep point of every
// registered experiment, run under the event-calendar engine and the
// goroutine engine, must produce identical result bytes (unrounded values,
// not rendered cells) or identical error text — plain, under a degrading
// fault plan, under the communication sanitizer, and under seeded
// performance noise (alone and stacked on the fault plan, whose seed
// decorrelates the jitter streams). Points reach the engines through
// engineOracle on a fresh sweep pool, so each distinct point of a mode is
// compared exactly once, and a disagreement names the point's cache key.
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
	oracle := newEngineOracle(runtime.GOMAXPROCS(0))
	sweep.SetWorkers(0) // a cold cache: no point is served from an earlier test
	SetDispatcher(oracle)
	defer func() {
		SetDispatcher(nil)
		sweep.SetWorkers(0)
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
				experimentCSV(e)
				for _, d := range oracle.take() {
					t.Error(d)
				}
			})
		}
	}
}
