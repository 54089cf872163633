// Package dist (fixture) keeps the cases of the former stoptoken
// analyzer, now checked by chanlive: a goroutine that can block before it
// observes its stop outlives the supervisor. Every leak stoptoken
// reported must still fire, at the blocking operation.
package dist

type worker struct {
	done <-chan struct{}
	work chan int
	out  chan int
}

// forward is stop-aware: it returns once done is closed, so its send runs
// observed and calling it counts as an observation.
func (w *worker) forward(v int) {
	select {
	case <-w.done:
		return
	default:
	}
	w.out <- v
}

// consume never consults done: each iteration of the range is a blocking
// receive nothing can interrupt.
func (w *worker) consume() {
	for range w.work { // want `chanlive: range over a channel`
	}
}

func (w *worker) start() {
	// Direct observation in the literal body.
	go func() {
		<-w.done
		w.out <- 0
	}()
	// Stop-aware through a callee: the send after the call runs observed.
	go func() {
		w.forward(1)
		w.out <- 2
	}()
	// Named stop-aware method.
	go w.forward(3)
	// Neither: leaks past the stop.
	go w.consume()
	go func() {
		w.out <- 4 // want `chanlive: blocking channel send`
	}()
	// Justified fire-and-forget.
	go func() {
		//detlint:allow chanlive metrics flush, exits with the process
		w.out <- 5
	}()
	// The only stop observation sits after an unconditional return, where
	// no running goroutine can reach it.
	go func() {
		w.out <- 6 // want `chanlive: blocking channel send`
		return
		<-w.done
	}()
}
