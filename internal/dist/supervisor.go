package dist

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"columbia/internal/vmpi"
)

// Proc is one live worker process as the supervisor sees it: Write feeds
// the worker's stdin, Read drains its stdout, Kill terminates and reaps it.
// cmd/columbia backs it with os/exec; tests back it with in-memory pipes.
type Proc interface {
	io.Reader
	io.Writer
	Kill() error
}

// Spawn starts a fresh worker process. The supervisor calls it on startup
// and after every crash (within the restart budget).
type Spawn func() (Proc, error)

// Config parameterizes a Supervisor.
type Config struct {
	// Workers is the fleet size: one lane per worker process, so at most
	// Workers points are in flight at once.
	Workers int
	// Spawn starts one worker.
	Spawn Spawn
	// Hello is the handshake sent to every worker incarnation; Version is
	// filled in by New.
	Hello Hello
	// PoisonK quarantines a point after it kills this many consecutive
	// workers (default 3): the point degrades to a "!workercrash" cell
	// instead of crash-looping the lane forever.
	PoisonK int
	// Backoff is the delay before the first restart while serving a point;
	// it doubles per consecutive crash and is capped at 2s (default 100ms).
	Backoff time.Duration
	// Grace is how long the supervisor waits without hearing anything —
	// neither reply nor heartbeat — from a worker serving a point before
	// declaring it hung and killing it. Zero derives 4×Hello.Heartbeat, or
	// disables the deadline when heartbeats are off.
	Grace time.Duration
}

// Stats counts fleet-level failure handling for the end-of-run summary.
type Stats struct {
	// Restarts is how many worker processes were respawned after a crash.
	Restarts int64
	// Crashes is how many worker failures were observed (process exit,
	// pipe EOF, corrupt frame, missed heartbeat, handshake failure).
	Crashes int64
	// Quarantined is how many points were given up on after PoisonK
	// consecutive crashes and degraded to "!workercrash" cells.
	Quarantined int64
}

const (
	defaultPoisonK        = 3
	defaultRestartBackoff = 100 * time.Millisecond
	maxRestartBackoff     = 2 * time.Second
)

// Supervisor owns a fleet of worker processes fed from one job queue:
// every lane takes the next point as soon as its worker is idle. Every
// worker failure is recoverable: the lane kills the process, restarts it
// with doubling backoff, and re-dispatches the in-flight point, which is
// safe because points are deterministic and memoized by fingerprint. A
// point surviving PoisonK consecutive crashes is quarantined as a
// *vmpi.RunError with kind ErrWorkerCrash.
type Supervisor struct {
	cfg Config
	// jobs is the fleet's one queue; unbuffered, so a point is handed over
	// only when a lane is free to serve it.
	jobs   chan *job
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// after paces restart backoff; graceAfter arms the heartbeat deadline.
	// Tests swap both for fakes to drive schedules deterministically.
	after      func(time.Duration) <-chan time.Time
	graceAfter func(time.Duration) <-chan time.Time

	restarts    atomic.Int64
	crashes     atomic.Int64
	quarantined atomic.Int64
}

// New starts a supervisor with one lane per worker. Workers are spawned
// lazily: a lane first spawns on its first point, so a fleet larger than
// the sweep costs nothing.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: Workers = %d, want >= 1", cfg.Workers)
	}
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("dist: Config.Spawn is required")
	}
	if cfg.PoisonK < 1 {
		cfg.PoisonK = defaultPoisonK
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = defaultRestartBackoff
	}
	if cfg.Grace <= 0 && cfg.Hello.Heartbeat > 0 {
		cfg.Grace = 4 * cfg.Hello.Heartbeat
	}
	cfg.Hello.Version = ProtocolVersion
	s := &Supervisor{
		cfg:        cfg,
		jobs:       make(chan *job),
		after:      time.After,
		graceAfter: time.After,
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go (&lane{s: s}).run()
	}
	return s, nil
}

// Stats snapshots the fleet counters; safe concurrently with dispatches.
func (s *Supervisor) Stats() Stats {
	return Stats{
		Restarts:    s.restarts.Load(),
		Crashes:     s.crashes.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

// Close drains the fleet: every lane sends its live worker a shutdown
// frame, kills it, and exits. Points still queued or in flight fail with
// the supervisor's cancellation. Close blocks until all lanes are down.
func (s *Supervisor) Close() {
	s.cancel()
	s.wg.Wait()
}

// Do dispatches one point to the fleet and blocks until it completes, the
// point is quarantined, or ctx is canceled. The first idle lane takes it;
// class routes nothing and is ignored (it keeps Do satisfying
// core.Dispatcher). kind, key and spec pass through to the worker's
// executor. The returned error is the point's own structured failure (a
// *WireError preserving kind, text and retryability), a quarantine
// *vmpi.RunError, or a context error.
func (s *Supervisor) Do(ctx context.Context, class, kind, key string, spec []byte) ([]byte, error) {
	j := &job{ctx: ctx, kind: kind, key: key, spec: spec, result: make(chan jobResult, 1)}
	select {
	case s.jobs <- j:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.ctx.Done():
		return nil, fmt.Errorf("dist: supervisor closed")
	}
	select {
	case r := <-j.result:
		return r.data, r.err
	case <-s.ctx.Done():
		return nil, fmt.Errorf("dist: supervisor closed")
	}
}

// job is one dispatched point waiting for a lane.
type job struct {
	ctx    context.Context
	kind   string
	key    string
	spec   []byte
	result chan jobResult // buffered(1): the lane never blocks completing it
}

type jobResult struct {
	data []byte
	err  error
}

// procEvent is one message (or stream failure) from a worker incarnation's
// reader goroutine.
type procEvent struct {
	typ   byte
	reply Reply
	err   error
}

// lane serves one worker of the fleet: a goroutine owning at most one live
// process and serving one point at a time, taken from Supervisor.jobs.
type lane struct {
	s *Supervisor

	// Goroutine-local process state.
	proc   Proc
	events chan procEvent
	seq    uint64
	// pid is the last handshaken worker's operating-system PID (from its
	// HelloAck); it survives kill() so crash reports can name the process
	// that died.
	pid int
	// permErr marks the lane permanently failed (protocol version
	// mismatch): restarting cannot heal it, so every point fails fast
	// instead of burning spawn cycles.
	permErr error
}

func (l *lane) run() {
	defer l.s.wg.Done()
	defer l.retire()
	for {
		select {
		case j := <-l.s.jobs:
			data, err := l.serve(j)
			j.result <- jobResult{data: data, err: err}
		case <-l.s.ctx.Done():
			return
		}
	}
}

// retire shuts the lane's live worker down politely — shutdown frame first,
// so a healthy worker exits its serve loop cleanly — then reaps it.
func (l *lane) retire() {
	if l.proc == nil {
		return
	}
	_ = writeFrame(l.proc, frameShutdown, Heartbeat{})
	l.kill()
}

// kill terminates the lane's live worker and forgets its stream.
func (l *lane) kill() {
	if l.proc != nil {
		_ = l.proc.Kill()
		l.proc = nil
		l.events = nil
	}
}

// ensure has a live, handshaken worker on the lane, spawning one if needed.
func (l *lane) ensure() error {
	if l.permErr != nil {
		return l.permErr
	}
	if l.proc != nil {
		return nil
	}
	p, err := l.s.cfg.Spawn()
	if err != nil {
		return fmt.Errorf("dist: spawn worker: %w", err)
	}
	if err := writeFrame(p, frameHello, l.s.cfg.Hello); err != nil {
		_ = p.Kill()
		return err
	}
	typ, payload, err := readFrame(p)
	if err != nil {
		_ = p.Kill()
		return fmt.Errorf("dist: worker handshake: %w", err)
	}
	if typ != frameHelloAck {
		_ = p.Kill()
		return fmt.Errorf("dist: worker handshake: got frame type %d, want helloAck", typ)
	}
	var ack HelloAck
	if err := decodePayload(payload, &ack); err != nil {
		_ = p.Kill()
		return err
	}
	if ack.Version != ProtocolVersion {
		_ = p.Kill()
		l.permErr = fmt.Errorf("dist: protocol version mismatch: supervisor %d, worker %d", ProtocolVersion, ack.Version)
		return l.permErr
	}
	l.proc = p
	l.pid = ack.PID
	l.events = make(chan procEvent, 16)
	l.seq = 0
	go readLoop(p, l.events, l.s.ctx.Done())
	return nil
}

// readLoop turns one worker incarnation's stdout into events. It exits on
// the first stream error (EOF, corrupt frame, killed process), reporting it
// as a final event, or when the supervisor shuts down: every send races the
// done channel, so a lane that was abandoned mid-burst can never strand
// this goroutine behind a full event buffer. (The buffer still absorbs the
// common case; done is the guarantee, not the fast path.)
func readLoop(p Proc, ch chan<- procEvent, done <-chan struct{}) {
	send := func(ev procEvent) bool {
		select {
		case ch <- ev:
			return true
		case <-done:
			return false
		}
	}
	for {
		typ, payload, err := readFrame(p)
		if err != nil {
			send(procEvent{err: fmt.Errorf("dist: worker stream: %w", err)})
			return
		}
		switch typ {
		case frameHeartbeat:
			if !send(procEvent{typ: typ}) {
				return
			}
		case frameReply:
			var r Reply
			if err := decodePayload(payload, &r); err != nil {
				send(procEvent{err: err})
				return
			}
			if !send(procEvent{typ: typ, reply: r}) {
				return
			}
		default:
			send(procEvent{err: fmt.Errorf("dist: unexpected frame type %d from worker", typ)})
			return
		}
	}
}

// serve runs one point to completion: dispatch, await the reply (resetting
// the grace deadline on every heartbeat), and on any worker failure kill
// the process, back off with doubling delay, respawn and re-dispatch — at
// most PoisonK attempts before the point is quarantined. A reply carrying
// the point's own structured error is a *successful* serve of a failed
// point, not a crash: the worker stays up and the error goes back verbatim.
func (l *lane) serve(j *job) ([]byte, error) {
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	crashes := 0
	delay := l.s.cfg.Backoff
	var lastCrash error
	for {
		if err := l.ensure(); err != nil {
			if l.permErr != nil {
				return nil, l.permErr
			}
			lastCrash = err
		} else if data, werr, crashErr := l.dispatch(j); crashErr == nil {
			if werr != nil {
				return nil, werr
			}
			return data, nil
		} else if crashErr == errCtxDone {
			// The run was canceled mid-point: abandon the worker (its
			// in-flight reply would desynchronize the next request).
			l.kill()
			if err := j.ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("dist: supervisor closed")
		} else {
			l.kill()
			lastCrash = crashErr
		}
		crashes++
		l.s.crashes.Add(1)
		if crashes >= l.s.cfg.PoisonK {
			l.s.quarantined.Add(1)
			return nil, &vmpi.RunError{
				Kind: vmpi.ErrWorkerCrash, Rank: -1,
				Msg: fmt.Sprintf("point %q killed %d consecutive workers; quarantined (last pid %d: %v)", j.key, crashes, l.pid, lastCrash),
			}
		}
		l.s.restarts.Add(1)
		select {
		case <-l.s.after(delay):
		case <-j.ctx.Done():
			return nil, j.ctx.Err()
		case <-l.s.ctx.Done():
			return nil, fmt.Errorf("dist: supervisor closed")
		}
		if delay < maxRestartBackoff {
			delay *= 2
		}
	}
}

// errCtxDone distinguishes "the job's context fired" from worker failures
// inside dispatch.
var errCtxDone = fmt.Errorf("dist: context done")

// dispatch sends one request to the lane's live worker and waits for its
// reply. Returns (result, workerReportedErr, nil) on a completed round
// trip, or a non-nil crashErr when the worker failed: stream error, reply
// sequence mismatch, or grace deadline missed with no heartbeat.
func (l *lane) dispatch(j *job) (data []byte, werr error, crashErr error) {
	l.seq++
	req := Request{Seq: l.seq, Kind: j.kind, Key: j.key, Spec: j.spec}
	if err := writeFrame(l.proc, frameRequest, req); err != nil {
		return nil, nil, err
	}
	var grace <-chan time.Time
	if l.s.cfg.Grace > 0 {
		grace = l.s.graceAfter(l.s.cfg.Grace)
	}
	for {
		select {
		case ev := <-l.events:
			switch {
			case ev.err != nil:
				return nil, nil, ev.err
			case ev.typ == frameHeartbeat:
				if l.s.cfg.Grace > 0 {
					grace = l.s.graceAfter(l.s.cfg.Grace)
				}
			case ev.reply.Seq != l.seq:
				return nil, nil, fmt.Errorf("dist: reply seq %d, want %d (worker desynchronized)", ev.reply.Seq, l.seq)
			case ev.reply.Err != nil:
				return nil, ev.reply.Err, nil
			default:
				return ev.reply.Result, nil, nil
			}
		case <-grace:
			return nil, nil, fmt.Errorf("dist: worker missed heartbeat deadline (%v) while serving point", l.s.cfg.Grace)
		case <-j.ctx.Done():
			return nil, nil, errCtxDone
		case <-l.s.ctx.Done():
			return nil, nil, errCtxDone
		}
	}
}
