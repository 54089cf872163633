// Package mlp implements the Multi-Level Parallelism paradigm used by
// INS3D on Columbia (§3.4, Taft's MLP library): coarse-grain parallelism
// from independent forked processes sharing a memory arena, fine-grain
// parallelism from OpenMP-style threads inside each process, and
// synchronization primitives. Here the "processes" are goroutines and the
// shared arena is an in-process store, which preserves the programming
// model (archive boundary data → synchronize → read neighbours' data)
// exactly.
package mlp

import (
	"fmt"
	"sync"

	"columbia/internal/omp"
	"columbia/internal/par"
)

// Arena is the shared-memory arena where each group archives the boundary
// data of its overset zones for the other groups to read.
type Arena struct {
	mu   sync.RWMutex
	data map[string][]float64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{data: make(map[string][]float64)} }

// Archive publishes a copy of vals under key, overwriting prior data.
func (a *Arena) Archive(key string, vals []float64) {
	cp := append([]float64(nil), vals...)
	a.mu.Lock()
	a.data[key] = cp
	a.mu.Unlock()
}

// Fetch returns the data archived under key (shared slice; callers must not
// mutate) or nil.
func (a *Arena) Fetch(key string) []float64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.data[key]
}

// Len returns the number of archived keys.
func (a *Arena) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.data)
}

// Group is one forked MLP process: an ID, the shared arena, a barrier to
// the sibling groups, and a thread team for fine-grain loops.
type Group struct {
	id    int
	n     int
	arena *Arena
	bar   *par.CyclicBarrier
	team  *omp.Team
}

// ID returns the group index in [0, N).
func (g *Group) ID() int { return g.id }

// N returns the number of groups.
func (g *Group) N() int { return g.n }

// Arena returns the shared arena.
func (g *Group) Arena() *Arena { return g.arena }

// Team returns the group's OpenMP-style thread team.
func (g *Group) Team() *omp.Team { return g.team }

// Barrier blocks until all groups reach it — the MLP synchronization
// primitive used between the archive and read phases of a time step.
func (g *Group) Barrier() { g.bar.Await() }

// Run forks n MLP groups with the given OpenMP threads each, executes fn in
// every group concurrently, and waits for all of them. Panics propagate.
func Run(groups, threads int, fn func(*Group)) {
	if groups < 1 {
		panic("mlp: need at least one group")
	}
	arena := NewArena()
	bar := par.NewCyclicBarrier(groups)
	var wg sync.WaitGroup
	panics := make(chan interface{}, groups)
	for i := 0; i < groups; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Sprintf("mlp group %d: %v", id, p)
				}
			}()
			fn(&Group{id: id, n: groups, arena: arena, bar: bar, team: omp.NewTeam(threads)})
		}(i)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}
