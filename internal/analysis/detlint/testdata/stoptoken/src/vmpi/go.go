// Package vmpi (fixture) keeps the cases of the former stoptoken analyzer,
// now checked by chanlive: a goroutine that can block before it observes
// the rank stop token outlives a RunError shutdown. All three leaks
// stoptoken reported must still fire, at the blocking operation.
package vmpi

// stopToken mirrors the real engine's shutdown panic value.
type stopToken struct{}

type engine struct {
	stopping bool
	parked   chan int
}

// runRank is stop-aware: it panics with stopToken when asked to unwind,
// so its send runs observed and calling it counts as an observation.
func (e *engine) runRank(id int) {
	if e.stopping {
		panic(stopToken{})
	}
	e.parked <- id
}

// drain never consults the token: each iteration of the range is a
// blocking receive nothing can interrupt.
func (e *engine) drain() {
	for range e.parked { // want `chanlive: range over a channel`
	}
}

func (e *engine) start() {
	// Direct reference in the literal body.
	go func() {
		if e.stopping {
			panic(stopToken{})
		}
		e.parked <- 0
	}()
	// Stop-aware through a callee.
	go func() {
		e.runRank(1)
	}()
	// Named stop-aware method.
	go e.runRank(2)
	// Neither: leaks past shutdown.
	go e.drain()
	go func() {
		e.parked <- 3 // want `chanlive: blocking channel send`
	}()
	// Justified fire-and-forget.
	go func() {
		//detlint:allow chanlive metrics flush, exits with the process
		e.parked <- 4
	}()
	// The only token mention sits after an unconditional return, where
	// no running goroutine can reach it.
	go func() {
		e.parked <- 5 // want `chanlive: blocking channel send`
		return
		if e.stopping {
			panic(stopToken{})
		}
	}()
}
