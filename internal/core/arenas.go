package core

import (
	"context"
	"strings"

	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

// The sweep scheduler and the engine's scratch recycling meet here: every
// pool gets one vmpi.Arena per worker slot, installed into the context each
// leaf attempt runs under, so the engines a leaf starts (vmpi.RunCtx) draw
// their rank records, mailbox storage and slabs from the slot's private
// arena. Mailboxes themselves live for one run; what a slot's arena keeps
// is storage already grown to the leaves it runs, so a worker neither
// rebuilds it nor contends for the shared scratch pool (see DESIGN.md §9).
func init() {
	sweep.RegisterWorkerContext(func(workers int) sweep.WorkerContext {
		arenas := make([]*vmpi.Arena, workers)
		for i := range arenas {
			arenas[i] = vmpi.NewArena()
		}
		return func(slot int, ctx context.Context) context.Context {
			return vmpi.WithArena(ctx, arenas[slot])
		}
	})
	// Affinity classes group leaves by rank count, not workload family: how
	// many ranks a simulation runs sizes its engine scratch — rank records,
	// and the mailbox and index storage its collectives fill — and is
	// largely shared between different workloads at the same scale. Keying
	// affinity on the fingerprint's |p=N| field sends every 2048-rank leaf
	// to one slot and every 64-rank leaf to another, so same-scale leaves
	// run back to back on storage already grown for them.
	sweep.RegisterAffinity(func(key string) string {
		if i := strings.Index(key, "|p="); i >= 0 {
			j := i + 1
			for j < len(key) && key[j] != '|' {
				j++
			}
			return key[i:j]
		}
		return ""
	})
}
