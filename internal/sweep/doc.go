// Package sweep schedules independent simulation points across a bounded
// worker pool, so regenerating the paper's tables uses every host core
// instead of one, and memoizes completed points so configurations repeated
// across tables (the baseline BX2b points, for instance) are simulated once.
//
// # Why parallel replay stays deterministic
//
// Every sweep point is a pure function: a vmpi simulation builds its entire
// state — engine, machine model, network model, RNG streams — per instance,
// reads only immutable calibration tables, and performs the same
// floating-point operations in the same order no matter when or where it
// runs. Concurrency therefore changes only *when* a point is computed,
// never *what* it computes.
//
// Ordering is restored at collection: callers submit points in their
// sequential program order, hold the returned futures, and assemble tables
// by waiting on the futures in that same order. The rendered output is
// byte-identical to a serial run, which the determinism tests in
// internal/core assert experiment by experiment (-j 1 versus -j 8), and the
// golden files in internal/core/testdata/golden lock in release after
// release.
//
// The cache is sound for the same reason: a point's fingerprint (workload
// identity plus vmpi.Config.Fingerprint) canonically determines its result,
// so serving a memoized value is indistinguishable from recomputing it.
//
// Two scheduling levels exist. Go runs coordination work — a whole
// experiment assembling its tables — on an ordinary goroutine with no
// admission control, because such work spends its time waiting on pooled
// points and must not hold one of the pool's tokens (a token-holding
// waiter could deadlock a one-worker pool). Cached admits the leaf
// simulations themselves through a counting semaphore: at most
// min(Workers, GOMAXPROCS) run at a time, and waiting leaves are admitted
// in arrival order. Leaf functions must not wait on other futures.
package sweep
