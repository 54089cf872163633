//go:build go1.23

package vmpi

import "iter"

// newRank creates pooled rank record id together with its coroutine, an
// iter.Pull stack that lives as long as the record stays in its scratch.
// The coroutine body loops over successive runs' programs: wake starts the
// rank's program in the run whose engine r.e names, park hands control back
// to run's driver loop — from yield while the program waits, and after it
// returns until the next run wakes it — and halt ends the coroutine for
// good. rankExit recovers every panic inside the coroutine, so none reaches
// the driver.
//
// This is the package's only use of iter (Go 1.23); the build constraint
// lets go.mod stay at go 1.22.
func newRank(id int) *rankState {
	r := &rankState{id: id}
	r.wake, r.halt = iter.Pull(func(park func(struct{}) bool) {
		r.park = park
		for {
			r.e.exec(r)
			if !park(struct{}{}) {
				return
			}
		}
	})
	return r
}
