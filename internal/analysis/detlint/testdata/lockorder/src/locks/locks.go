// Package locks exercises the lockorder analyzer: acquisition-order
// cycles, re-acquisition through calls, direct double locking, and
// blocking channel operations under a held mutex.
package locks

import "sync"

type store struct {
	mu    sync.Mutex
	aux   sync.Mutex
	items map[string]int
	ch    chan int
}

// ab and ba acquire the two mutexes in conflicting orders: a cycle in the
// acquisition-order graph, reported at its lexically first edge.
func (s *store) ab() {
	s.mu.Lock()
	s.aux.Lock() // want `lockorder: inconsistent lock acquisition order: store\.aux → store\.mu → store\.aux`
	s.items["ab"]++
	s.aux.Unlock()
	s.mu.Unlock()
}

func (s *store) ba() {
	s.aux.Lock()
	s.mu.Lock()
	s.items["ba"]++
	s.mu.Unlock()
	s.aux.Unlock()
}

// outer re-acquires s.mu through inner: a self-deadlock.
func (s *store) outer() {
	s.mu.Lock()
	s.inner() // want `lockorder: call to inner may re-acquire store\.mu`
	s.mu.Unlock()
}

func (s *store) inner() {
	s.mu.Lock()
	s.items["x"]++
	s.mu.Unlock()
}

// direct double-locks without any call in between.
func (s *store) direct() {
	s.mu.Lock()
	s.mu.Lock() // want `lockorder: Lock of store\.mu, which is already held`
	s.mu.Unlock()
	s.mu.Unlock()
}

// sendLocked blocks on a channel send while holding the mutex.
func (s *store) sendLocked(v int) {
	s.mu.Lock()
	s.ch <- v // want `lockorder: blocking channel send while holding store\.mu`
	s.mu.Unlock()
}

// waitLocked blocks through a call: drain receives while s.mu is held.
func (s *store) waitLocked() {
	s.mu.Lock()
	s.drain() // want `lockorder: call to drain may block on a channel while holding store\.mu`
	s.mu.Unlock()
}

func (s *store) drain() {
	<-s.ch
}

// allowedSend is the suppression case: the channel is buffered to
// capacity by construction, and the author says so in place.
func (s *store) allowedSend(v int) {
	s.mu.Lock()
	//detlint:allow lockorder channel buffered to fleet size, send never blocks
	s.ch <- v
	s.mu.Unlock()
}

// poll is clean: a select with a default never blocks, so holding the
// lock around it is fine.
func (s *store) poll(v int) {
	s.mu.Lock()
	select {
	case s.ch <- v:
	default:
	}
	s.mu.Unlock()
}

// consistent is clean: both mutexes, always mu before aux, merged across
// branches.
func (s *store) consistent(flag bool) {
	s.mu.Lock()
	if flag {
		s.aux.Lock()
		s.items["a"]++
		s.aux.Unlock()
	}
	s.mu.Unlock()
}

// deferred holds to function end via defer, with only pure work after:
// clean.
func (s *store) deferred() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items["d"]
}

// parkLocked parks forever in an empty select with s.mu held.
func (s *store) parkLocked() {
	s.mu.Lock()
	select {} // want `lockorder: blocking select while holding store\.mu`
}

// breakHeld leaves a `for {}` by break with s.mu still held: the code
// after the loop runs locked, so the send blocks under it.
func (s *store) breakHeld() {
	s.mu.Lock()
	for {
		if s.items["b"] > 0 {
			break
		}
		s.items["b"]++
	}
	s.ch <- 1 // want `lockorder: blocking channel send while holding store\.mu`
	s.mu.Unlock()
}

// hook is a function literal in a package-level initializer: its own
// root, like every other function body.
var hook = func(s *store, v int) {
	s.mu.Lock()
	s.ch <- v // want `lockorder: blocking channel send while holding store\.mu`
	s.mu.Unlock()
}

// spawnNested sends under the mutex from a literal nested inside a
// goroutine's literal.
func (s *store) spawnNested(v int) {
	go func() {
		send := func() {
			s.mu.Lock()
			s.ch <- v // want `lockorder: blocking channel send while holding store\.mu`
			s.mu.Unlock()
		}
		send()
	}()
}
