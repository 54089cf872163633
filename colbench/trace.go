package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"columbia/internal/core"
	"columbia/internal/dist"
	"columbia/internal/noise"
	"columbia/internal/report"
	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

// Span names, and the two kinds of pass: points on in-process lanes, or
// on worker processes behind a supervisor. A workload span covers a pass.
const (
	spanWorkload = "workload"
	spanPoint    = "point" // core.ExecutePoint on an in-process lane
	spanDo       = "do"    // dist.Supervisor.Do round trip
	spanTable    = "table" // report.Table rendering

	passLanes   = "lanes"
	passWorkers = "workers"
)

// span is one timed call into a layer, relative to the recorder's origin.
type span struct {
	Iter  int    // repetition of the traced workload within the run
	Pass  string // passLanes or passWorkers
	Name  string
	Kind  string // point kind or table title
	Key   string // point cache key
	Lane  int    // lane, worker, or experiment index for tables
	Start time.Duration
	End   time.Duration
	Ranks int // simulated ranks of a point
	Bytes int // spec bytes of a Do, rendered bytes of a table
	Reply int // reply bytes of a Do
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// tracer records spans of one pass of one iteration.
type tracer struct {
	rec  *recorder
	iter int
	pass string
}

func (t tracer) now() time.Duration { return t.rec.now() }

func (t tracer) add(s span) {
	s.Iter, s.Pass = t.iter, t.pass
	t.rec.add(s)
}

func classHash(class string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(class))
	return h.Sum32()
}

// specRanks decodes a point spec for its simulated rank count.
func specRanks(raw []byte) (int, error) {
	var spec core.PointSpec
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&spec); err != nil {
		return 0, fmt.Errorf("decode point spec: %w", err)
	}
	return max(spec.Procs, 1), nil
}

// laneDispatcher runs points in-process on a fixed set of lanes, each with
// its own vmpi arena, and records a span per point. Installing a
// dispatcher bypasses the sweep's slot table, so this reproduces its
// policy: a point takes the lane its scheduling class hashes to when that
// lane is free and any free lane otherwise, and a released lane goes to
// the earliest waiter of its class, else to the earliest waiter.
type laneDispatcher struct {
	tr     tracer
	arenas []*vmpi.Arena

	mu      sync.Mutex
	free    []bool
	waiters []laneWaiter
}

type laneWaiter struct {
	pref  int
	grant chan int // buffered(1): release never blocks on the handoff
}

func newLaneDispatcher(tr tracer, lanes int) *laneDispatcher {
	d := &laneDispatcher{tr: tr, arenas: make([]*vmpi.Arena, lanes), free: make([]bool, lanes)}
	for i := range d.arenas {
		d.arenas[i] = vmpi.NewArena()
		d.free[i] = true
	}
	return d
}

// acquire blocks until a lane is granted. Every acquired lane is released
// when its point returns, so a queued waiter is always served.
func (d *laneDispatcher) acquire(pref int) int {
	d.mu.Lock()
	if d.free[pref] {
		d.free[pref] = false
		d.mu.Unlock()
		return pref
	}
	for i, f := range d.free {
		if f {
			d.free[i] = false
			d.mu.Unlock()
			return i
		}
	}
	w := laneWaiter{pref: pref, grant: make(chan int, 1)}
	d.waiters = append(d.waiters, w)
	d.mu.Unlock()
	return <-w.grant
}

func (d *laneDispatcher) release(lane int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.waiters) == 0 {
		d.free[lane] = true
		return
	}
	idx := 0
	for i, w := range d.waiters {
		if w.pref == lane {
			idx = i
			break
		}
	}
	w := d.waiters[idx]
	d.waiters = append(d.waiters[:idx], d.waiters[idx+1:]...)
	w.grant <- lane
}

// Do satisfies core.Dispatcher.
func (d *laneDispatcher) Do(ctx context.Context, class, kind, key string, spec []byte) ([]byte, error) {
	ranks, err := specRanks(spec)
	if err != nil {
		return nil, err
	}
	lane := d.acquire(int(classHash(class) % uint32(len(d.arenas))))
	defer d.release(lane)
	start := d.tr.now()
	out, err := core.ExecutePoint(vmpi.WithArena(ctx, d.arenas[lane]), kind, key, spec)
	d.tr.add(span{Name: spanPoint, Kind: kind, Key: key, Lane: lane, Start: start, End: d.tr.now(), Ranks: ranks})
	return out, err
}

// timedDispatcher times every round trip through a worker fleet. The
// supervisor serves one point at a time per worker and queues the rest
// inside Do, so Do calls are gated one per worker here, routed by the
// supervisor's class hash: a Do span is then one round trip, not a wait
// in the queue.
type timedDispatcher struct {
	sup   *dist.Supervisor
	tr    tracer
	gates []chan struct{}
}

func newTimedDispatcher(sup *dist.Supervisor, tr tracer, workers int) *timedDispatcher {
	d := &timedDispatcher{sup: sup, tr: tr, gates: make([]chan struct{}, workers)}
	for i := range d.gates {
		d.gates[i] = make(chan struct{}, 1)
	}
	return d
}

// Do satisfies core.Dispatcher.
func (d *timedDispatcher) Do(ctx context.Context, class, kind, key string, spec []byte) ([]byte, error) {
	worker := int(classHash(class) % uint32(len(d.gates)))
	select {
	case d.gates[worker] <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-d.gates[worker] }()
	start := d.tr.now()
	out, err := d.sup.Do(ctx, class, kind, key, spec)
	d.tr.add(span{Name: spanDo, Kind: kind, Key: key, Lane: worker, Start: start, End: d.tr.now(), Bytes: len(spec), Reply: len(out)})
	return out, err
}

// renderExperiment renders one experiment as the CLI prints it, recording
// a span per table.
func renderExperiment(e core.Experiment, idx int, csv bool, tr tracer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	fmt.Fprintf(&b, "paper: %s\n\n", e.Paper)
	for _, t := range e.Run() {
		start := tr.now()
		s := renderTable(t, csv)
		tr.add(span{Name: spanTable, Kind: t.Title, Lane: idx, Start: start, End: tr.now(), Bytes: len(s)})
		b.WriteString(s)
	}
	return b.String()
}

func renderTable(t *report.Table, csv bool) string {
	if csv {
		return t.CSV()
	}
	return t.String() + "\n"
}

// pass runs the workload's experiments once through the installed
// dispatcher, on a fresh sweep pool with an empty memo cache, submitting
// every experiment through sweep.Go as the CLI does. It returns the
// rendered stdout and the pass's wall time, and records its span.
// Canceling ctx fails the points still to run.
func pass(ctx context.Context, w workload, seed uint64, d core.Dispatcher, tr tracer) (string, time.Duration, error) {
	exps, err := experiments(w)
	if err != nil {
		return "", 0, err
	}
	if w.replicas > 0 {
		spec, err := noise.Parse(noiseSpec(seed))
		if err != nil {
			return "", 0, err
		}
		core.SetNoise(spec)
		core.SetReplicas(w.replicas)
		defer core.SetNoise(nil)
		defer core.SetReplicas(0)
	}
	sweep.Configure(ctx, sweep.Options{Workers: w.lanes()})
	core.SetDispatcher(d)
	defer core.SetDispatcher(nil)

	start := tr.now()
	futs := make([]sweep.Future[string], len(exps))
	for i, e := range exps {
		futs[i] = sweep.Go(sweep.Default(), func() string { return renderExperiment(e, i, w.csv, tr) })
	}
	var b strings.Builder
	for _, f := range futs {
		s, err := f.WaitErr()
		if err != nil {
			return "", 0, err
		}
		b.WriteString(s)
	}
	end := tr.now()
	tr.add(span{Name: spanWorkload, Lane: -1, Start: start, End: end})
	return b.String(), end - start, nil
}

func experiments(w workload) ([]core.Experiment, error) {
	if w.experiments == nil {
		return core.Experiments(), nil
	}
	out := make([]core.Experiment, len(w.experiments))
	for i, id := range w.experiments {
		e, err := core.Lookup(id)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// fleetPass runs the workload through a real supervisor whose workers are
// the built CLI in worker mode, sending the handshake the CLI would send.
func fleetPass(ctx context.Context, w workload, seed uint64, cli string, tr tracer) (string, time.Duration, dist.Stats, error) {
	spec, err := noise.Parse(noiseSpec(seed))
	if err != nil {
		return "", 0, dist.Stats{}, err
	}
	sup, err := dist.New(dist.Config{
		Workers: w.workers,
		Spawn:   func() (dist.Proc, error) { return spawnWorker(cli, w.gomaxprocs) },
		Hello:   dist.Hello{Noise: spec.Fingerprint(), Heartbeat: time.Second},
	})
	if err != nil {
		return "", 0, dist.Stats{}, err
	}
	out, wall, err := pass(ctx, w, seed, newTimedDispatcher(sup, tr, w.workers), tr)
	sup.Close()
	return out, wall, sup.Stats(), err
}

// workerProc is a CLI worker process as dist.Proc: Write feeds its stdin,
// Read drains its stdout, Kill terminates and reaps it.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
}

func (p *workerProc) Read(b []byte) (int, error)  { return p.stdout.Read(b) }
func (p *workerProc) Write(b []byte) (int, error) { return p.stdin.Write(b) }

func (p *workerProc) Kill() error {
	p.stdin.Close()
	_ = p.cmd.Process.Kill() // already exited after a graceful shutdown frame
	err := p.cmd.Wait()
	p.stdout.Close()
	return err
}

func spawnWorker(cli string, gomaxprocs int) (dist.Proc, error) {
	cmd := exec.Command(cli)
	cmd.Env = append(cliEnv(gomaxprocs), "COLUMBIA_WORKER=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		stdout.Close()
		return nil, err
	}
	return &workerProc{cmd: cmd, stdin: stdin, stdout: stdout}, nil
}

// writeChromeTrace writes spans as Chrome trace-event JSON: one process
// per pass of each iteration, one thread per lane or worker, and tables
// on threads numbered from tableTID by experiment.
func writeChromeTrace(path string, spans []span) error {
	const tableTID = 100
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	named := map[int]bool{}
	var evs []event
	for _, s := range spans {
		pid := 2*s.Iter + 1
		if s.Pass == passWorkers {
			pid++
		}
		if !named[pid] {
			named[pid] = true
			evs = append(evs, event{Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": fmt.Sprintf("iteration %d, %s pass", s.Iter, s.Pass)}})
		}
		ev := event{Name: s.Kind, Cat: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.dur()), PID: pid, TID: s.Lane + 1}
		switch s.Name {
		case spanPoint:
			ev.Args = map[string]any{"key": s.Key, "ranks": s.Ranks}
		case spanDo:
			ev.Args = map[string]any{"key": s.Key, "spec_bytes": s.Bytes, "reply_bytes": s.Reply}
		case spanTable:
			ev.TID = tableTID + s.Lane
			ev.Args = map[string]any{"bytes": s.Bytes}
		case spanWorkload:
			ev.Name = s.Pass + " pass"
		}
		evs = append(evs, ev)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
