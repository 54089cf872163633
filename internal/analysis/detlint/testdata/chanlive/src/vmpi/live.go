// Package vmpi (fixture) exercises chanlive: every blocking operation in
// a goroutine must be dominated by a stop-token observation on every CFG
// path, not merely accompanied by one somewhere in the body.
package vmpi

import "sync"

type stopToken struct{}

type engine struct {
	stop chan struct{}
	work chan int
	out  chan int
}

// runGood listens on the stop channel in the same select as the work
// channel: the select is the observation point, so the clause bodies run
// observed and the send is silent.
func (e *engine) runGood() {
	go func() {
		for {
			select {
			case <-e.stop:
				return
			case w := <-e.work:
				e.out <- w
			}
		}
	}()
}

// runEager blocks on the work channel before ever looking at the stop
// token: the classic leak — shutdown broadcasts, nobody is listening.
func (e *engine) runEager() {
	go func() {
		w := <-e.work // want `chanlive: blocking channel receive`
		_ = w
		<-e.stop
	}()
}

// runDeaf selects without a stop case or default, then sends while still
// unobserved.
func (e *engine) runDeaf() {
	go func() {
		for {
			select {
			case w := <-e.work: // want `chanlive: select with no stop case and no default`
				e.out <- w // want `chanlive: blocking channel send`
			}
		}
	}()
}

// runOneArmed observes the token on only one branch: the join still sees
// an unobserved path, so the send is flagged. Path sensitivity is the
// whole point — a lexical scan would see the stop reference and stay
// silent.
func (e *engine) runOneArmed(flag bool) {
	go func(f bool) {
		if f {
			<-e.stop
		}
		e.out <- 1 // want `chanlive: blocking channel send`
	}(flag)
}

// runBothArmed observes on every path: the then-branch receives the stop
// channel and the else-branch unwinds with the token, so the send only
// executes observed.
func (e *engine) runBothArmed(flag bool) {
	go func(f bool) {
		if f {
			<-e.stop
		} else {
			panic(stopToken{})
		}
		e.out <- 2
	}(flag)
}

// drain is a named goroutine entry: analyzed through the go statement in
// spawnNamed, and clean.
func (e *engine) drain() {
	for {
		select {
		case <-e.stop:
			return
		case w := <-e.work:
			_ = w
		}
	}
}

func (e *engine) spawnNamed() {
	go e.drain()
}

// runImpatient waits on a WaitGroup before any stop observation.
func (e *engine) runImpatient(wg *sync.WaitGroup) {
	go func() {
		wg.Wait() // want `chanlive: blocking Wait call`
		<-e.stop
	}()
}

// drainStop ranges over the stop channel itself: that is the observation,
// not a leak.
func (e *engine) drainStop() {
	go func() {
		for range e.stop {
		}
		e.out <- 6
	}()
}
