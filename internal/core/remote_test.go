package core

import (
	"context"
	"strings"
	"testing"

	"columbia/internal/hpcc"
	"columbia/internal/machine"
	"columbia/internal/npb"
	"columbia/internal/pinning"
	"columbia/internal/sweep"
)

// loopback is a Dispatcher that executes points in-process through the same
// ExecutePoint entry a worker process uses, so the full spec → wire → key
// check → run → wire → decode path is exercised without spawning anything.
type loopback struct {
	t     *testing.T
	calls *int
}

func (l loopback) Do(ctx context.Context, class, kind, key string, spec []byte) ([]byte, error) {
	if l.calls != nil {
		*l.calls++
	}
	if class != key {
		l.t.Errorf("dispatched class %q, want the key %q", class, key)
	}
	return ExecutePoint(ctx, kind, key, spec)
}

// withLoopback installs the loopback dispatcher for the duration of the
// test, clearing the memo cache on both edges so serial and dispatched
// computations cannot shadow one another.
func withLoopback(t *testing.T, calls *int) {
	t.Helper()
	sweep.ResetCache()
	SetDispatcher(loopback{t: t, calls: calls})
	t.Cleanup(func() {
		SetDispatcher(nil)
		sweep.ResetCache()
	})
}

// TestFaultRemoteMatchesLocal: every point kind computes the identical
// value whether it runs in-process or through the dispatch/execute wire
// path. The simulation is deterministic, so equality is exact.
func TestFaultRemoteMatchesLocal(t *testing.T) {
	scalars := []struct {
		name string
		run  func() float64
	}{
		{"npb-mpi", func() float64 { return npbRateMPI("CG", npb.ClassC, machine.Altix3700, 4) }},
		{"npb-omp", func() float64 { return npbRateOpenMP("FT", npb.ClassB, machine.AltixBX2b, 4, 1) }},
		{"mz", func() float64 {
			return mzTime("SP-MZ", npb.ClassC, singleNode(machine.AltixBX2b), 16, 2, 1,
				pinning.Dplace, machine.MPT111b)
		}},
		{"pingpong-lat", func() float64 {
			return submitPoint[float64](PointSpec{
				Kind: "pingpong-lat", Cluster: singleNode(machine.Altix3700), Procs: 8, Stride: 2,
			}).Wait()
		}},
		{"md-weak", func() float64 {
			return submitPoint[float64](PointSpec{
				Kind: "md-weak", Cluster: quadNL, Procs: 8, Nodes: 1,
			}).Wait()
		}},
	}
	serial := make([]float64, len(scalars))
	for i, s := range scalars {
		serial[i] = s.run()
	}
	beffSerial := beffAsync(singleNode(machine.AltixBX2b), 8, 1, true).Wait()

	calls := 0
	withLoopback(t, &calls)
	for i, s := range scalars {
		if got := s.run(); got != serial[i] {
			t.Errorf("%s: dispatched = %v, serial = %v", s.name, got, serial[i])
		}
	}
	if got := beffAsync(singleNode(machine.AltixBX2b), 8, 1, true).Wait(); got != beffSerial {
		t.Errorf("beff: dispatched = %+v, serial = %+v", got, beffSerial)
	}
	if want := len(scalars) + 1; calls != want {
		t.Errorf("dispatcher served %d points, want %d", calls, want)
	}
	// A repeated submission memoizes on the supervisor side: no new call.
	_ = beffAsync(singleNode(machine.AltixBX2b), 8, 1, true).Wait()
	if want := len(scalars) + 1; calls != want {
		t.Errorf("memoized resubmission hit the dispatcher (%d calls)", calls)
	}
}

// TestFaultRemoteBeffResultShape: the struct-valued b_eff point survives
// gob intact — all six sub-metrics present after the wire trip.
func TestFaultRemoteBeffResultShape(t *testing.T) {
	withLoopback(t, nil)
	r := beffAsync(singleNode(machine.Altix3700), 4, 1, true).Wait()
	var zero hpcc.BeffResult
	if r == zero || r.PingPong.Latency <= 0 || r.Random.Bandwidth <= 0 {
		t.Errorf("wire-tripped b_eff result degenerate: %+v", r)
	}
}

// TestFaultExecutePointRejectsDrift: a worker that derives a different key
// than the supervisor routed by must refuse the point rather than fill a
// cell from the wrong configuration.
func TestFaultExecutePointRejectsDrift(t *testing.T) {
	spec := PointSpec{Kind: "npb-mpi", Cluster: singleNode(machine.Altix3700),
		Procs: 4, Bench: "CG", Class: npb.ClassC}
	key, _, err := buildPoint(spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecutePoint(context.Background(), "npb-mpi", key+"x", raw); err == nil ||
		!strings.Contains(err.Error(), "key drift") {
		t.Errorf("drifted key: err = %v, want key drift", err)
	}
	if _, err := ExecutePoint(context.Background(), "mz", key, raw); err == nil ||
		!strings.Contains(err.Error(), "kind mismatch") {
		t.Errorf("mismatched kind: err = %v, want kind mismatch", err)
	}
	if _, err := ExecutePoint(context.Background(), "npb-mpi", key, []byte("garbage")); err == nil {
		t.Error("garbage spec decoded")
	}
	if got, err := ExecutePoint(context.Background(), "npb-mpi", key, raw); err != nil || len(got) == 0 {
		t.Errorf("valid point: %v, %v", got, err)
	}
}

// TestFaultUnknownKindDegrades: an unbuildable spec surfaces as a failed
// future, not a panic, and ExecutePoint refuses it symmetrically.
func TestFaultUnknownKindDegrades(t *testing.T) {
	sweep.ResetCache()
	t.Cleanup(sweep.ResetCache)
	_, err := submitPoint[float64](PointSpec{Kind: "no-such-kind"}).WaitErr()
	if err == nil || !strings.Contains(err.Error(), "unknown point kind") {
		t.Errorf("submit unknown kind: err = %v", err)
	}
	raw, _ := encodeSpec(PointSpec{Kind: "no-such-kind"})
	if _, err := ExecutePoint(context.Background(), "no-such-kind", "k", raw); err == nil {
		t.Error("ExecutePoint accepted unknown kind")
	}
}
