package vmpi

import (
	"columbia/internal/machine"
	"columbia/internal/par"
)

// comm adapts one simulated rank to the par.Comm interface. The zero rank's
// extra methods (Elapse) are available through the Clock interface.
type comm struct {
	e *engine
	r *rankState
}

var (
	_ par.Comm       = (*comm)(nil)
	_ par.PlanRunner = (*comm)(nil)
)

func (c *comm) Rank() int { return c.r.id }
func (c *comm) Size() int { return len(c.e.ranks) }

func (c *comm) Send(dst, tag int, data []float64) {
	c.e.send(c.r, dst, tag, float64(8*len(data)), data)
}

func (c *comm) Recv(src, tag int) []float64 {
	m := c.e.recv(c.r, src, tag)
	data := m.data
	c.e.release(m)
	return data
}

func (c *comm) SendBytes(dst, tag int, bytes float64) {
	c.e.send(c.r, dst, tag, bytes, nil)
}

func (c *comm) RecvBytes(src, tag int) float64 {
	m := c.e.recv(c.r, src, tag)
	bytes := m.bytes
	c.e.release(m)
	return bytes
}

func (c *comm) Compute(w machine.Work) {
	t := c.e.computeTime(c.r, w)
	c.r.now += t
	c.r.compute += t
	c.e.yieldReady(c.r)
}

func (c *comm) Barrier() { c.e.barrier(c.r) }

func (c *comm) Now() float64 { return c.r.now }

// Clock is the simulator-specific extension of par.Comm, obtained by type
// assertion; drivers use it to charge fixed costs that are not naturally a
// machine.Work (e.g. I/O stalls).
type Clock interface {
	// Elapse advances the rank's clock by dt seconds of compute time.
	Elapse(dt float64)
}

// Elapse implements Clock.
func (c *comm) Elapse(dt float64) {
	if dt < 0 {
		panic("vmpi: negative Elapse")
	}
	c.r.now += dt
	c.r.compute += dt
	c.e.yieldReady(c.r)
}

// RecvAny receives the earliest matching message from any source, like
// MPI_ANY_SOURCE. The match is chosen by (arrival time, source rank) over
// every send the program will ever issue — the engine defers it until no
// earlier candidate can still appear — so the result is a property of the
// message timeline, not of scheduling order. Available on simulated comms
// via type assertion to
// interface{ RecvAny(tag int) (src int, data []float64) }.
func (c *comm) RecvAny(tag int) (int, []float64) {
	m := c.e.recv(c.r, AnySource, tag)
	src, data := m.src, m.data
	c.e.release(m)
	return src, data
}

// AnnounceCollective implements par.CollectiveAnnouncer: with the sanitizer
// enabled, the entry is checked against every other rank's collective
// sequence; without it the call is free.
func (c *comm) AnnounceCollective(kind string, operand float64) {
	if c.e.san == nil {
		return
	}
	if v := c.e.san.EnterCollective(c.r.id, kind, operand); v != nil {
		c.e.sanFail(v)
	}
}

// RunPlan implements par.PlanRunner. The rank runs the plan's steps itself
// until one must wait while another rank runs; it then parks once, and
// run's driver loop runs the remaining steps whenever next picks the rank,
// waking the coroutine when the plan ends.
func (c *comm) RunPlan(p par.Plan) []float64 {
	ps := &c.e.plans[c.r.id]
	ps.plan, ps.step = p, 0
	if !c.e.runSteps(c.r) {
		c.r.driven = true
		c.e.park(c.r)
		c.r.driven = false
	}
	acc := ps.plan.Result()
	*ps = planState{}
	return acc
}
