package dist

// The cases below exercise chanlive's path sensitivity: every blocking
// operation in a goroutine must be dominated by a stop observation on
// every CFG path, not merely accompanied by one somewhere in the body.

import (
	"context"
	"sync"
)

type lane struct {
	done <-chan struct{}
	work chan int
	out  chan int
}

// runGood listens on the done channel in the same select as the work
// channel: the select is the observation point, so the clause bodies run
// observed and the send is silent.
func (l *lane) runGood() {
	go func() {
		for {
			select {
			case <-l.done:
				return
			case w := <-l.work:
				l.out <- w
			}
		}
	}()
}

// runEager blocks on the work channel before ever looking at done: the
// classic leak — the supervisor stops, nobody is listening.
func (l *lane) runEager() {
	go func() {
		w := <-l.work // want `chanlive: blocking channel receive`
		_ = w
		<-l.done
	}()
}

// runDeaf selects without a stop case or default, then sends while still
// unobserved.
func (l *lane) runDeaf() {
	go func() {
		for {
			select {
			case w := <-l.work: // want `chanlive: select with no stop case and no default`
				l.out <- w // want `chanlive: blocking channel send`
			}
		}
	}()
}

// runOneArmed observes the stop on only one branch: the join still sees
// an unobserved path, so the send is flagged. Path sensitivity is the
// whole point — a lexical scan would see the done receive and stay silent.
func (l *lane) runOneArmed(flag bool) {
	go func(f bool) {
		if f {
			<-l.done
		}
		l.out <- 1 // want `chanlive: blocking channel send`
	}(flag)
}

// runBothArmed observes on every path: the then-branch receives done and
// the else-branch waits on the context, so the send only executes
// observed.
func (l *lane) runBothArmed(ctx context.Context, flag bool) {
	go func(f bool) {
		if f {
			<-l.done
		} else {
			<-ctx.Done()
		}
		l.out <- 2
	}(flag)
}

// drain is a named goroutine entry: analyzed through the go statement in
// spawnNamed, and clean.
func (l *lane) drain() {
	for {
		select {
		case <-l.done:
			return
		case w := <-l.work:
			_ = w
		}
	}
}

func (l *lane) spawnNamed() {
	go l.drain()
}

// runImpatient waits on a WaitGroup before any stop observation.
func (l *lane) runImpatient(wg *sync.WaitGroup) {
	go func() {
		wg.Wait() // want `chanlive: blocking Wait call`
		<-l.done
	}()
}

// drainStop ranges over the done channel itself: that is the observation,
// not a leak.
func (l *lane) drainStop() {
	go func() {
		for range l.done {
		}
		l.out <- 8
	}()
}

// runParked parks in an empty select: it has no case a stop could wake,
// so the goroutine outlives the supervisor.
func (l *lane) runParked() {
	go func() {
		select {} // want `chanlive: select with no stop case and no default`
	}()
}
