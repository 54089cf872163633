// Package dist (fixture) pins the goroutine leak the chanlive audit found
// in the worker supervisor: a per-worker read loop, started through a
// named `go readLoop(...)`, that forwarded each frame with a bare send.
// When the supervisor abandoned a lane mid-read nobody drained the event
// channel, and the loop blocked forever on its next send.
package dist

type procEvent struct {
	typ int
	err error
}

type proc interface {
	read() (int, error)
}

// readLoopLeaky is the pre-fix shape: the send after the blocking read is
// not raced against done.
func readLoopLeaky(p proc, ch chan<- procEvent, done <-chan struct{}) {
	for {
		typ, err := p.read()
		if err != nil {
			ch <- procEvent{err: err} // want `chanlive: blocking channel send`
			return
		}
		ch <- procEvent{typ: typ} // want `chanlive: blocking channel send`
	}
}

// readLoop is the fixed shape: every send selects against done, so the
// loop unwinds as soon as the supervisor stops listening.
func readLoop(p proc, ch chan<- procEvent, done <-chan struct{}) {
	for {
		typ, err := p.read()
		ev := procEvent{typ: typ, err: err}
		select {
		case ch <- ev:
		case <-done:
			return
		}
		if err != nil {
			return
		}
	}
}

func spawn(p proc, ch chan procEvent, done chan struct{}) {
	go readLoopLeaky(p, ch, done)
	go readLoop(p, ch, done)
}
