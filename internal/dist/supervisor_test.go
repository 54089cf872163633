package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"columbia/internal/report"
	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

// pipeProc backs Proc with in-memory pipes to a real ServeWorker goroutine,
// so supervisor tests exercise the genuine protocol end to end without
// spawning processes.
type pipeProc struct {
	r  *io.PipeReader // supervisor reads worker stdout
	w  *io.PipeWriter // supervisor writes worker stdin
	wr *io.PipeWriter // worker's stdout write end
	rr *io.PipeReader // worker's stdin read end
}

func (p *pipeProc) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p *pipeProc) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *pipeProc) Kill() error {
	p.w.Close()
	p.r.CloseWithError(io.ErrClosedPipe)
	p.wr.CloseWithError(io.ErrClosedPipe)
	p.rr.Close()
	return nil
}

// pipeSpawn builds a Spawn backed by ServeWorker goroutines. It counts
// spawns and collects each incarnation's exit status.
func pipeSpawn(setup Setup, spawns *atomic.Int64, exits chan error) Spawn {
	return func() (Proc, error) {
		if spawns != nil {
			spawns.Add(1)
		}
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		go func() {
			err := ServeWorker(inR, outW, setup)
			outW.Close()
			inR.Close()
			if exits != nil {
				exits <- err
			}
		}()
		return &pipeProc{r: outR, w: inW, wr: outW, rr: inR}, nil
	}
}

// immediateClock returns an after-hook that records requested delays and
// fires instantly: virtual time, real schedule.
func immediateClock(delays *[]time.Duration) func(time.Duration) <-chan time.Time {
	return func(d time.Duration) <-chan time.Time {
		if delays != nil {
			*delays = append(*delays, d)
		}
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch
	}
}

func newTestSupervisor(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestFaultSupervisorRoundTrip: a healthy fleet computes points with zero
// failure-handling activity.
func TestFaultSupervisorRoundTrip(t *testing.T) {
	var spawns atomic.Int64
	s := newTestSupervisor(t, Config{
		Workers: 2,
		Spawn:   pipeSpawn(echoSetup(nil), &spawns, nil),
	})
	for i := 0; i < 6; i++ {
		class := fmt.Sprintf("p=%d", i%2)
		key := fmt.Sprintf("fam/point-%d", i)
		got, err := s.Do(context.Background(), class, "echo", key, []byte{byte(i)})
		if err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
		want := "echo/" + key + "=" + string([]byte{byte(i)})
		if string(got) != want {
			t.Errorf("Do(%s) = %q, want %q", key, got, want)
		}
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("healthy fleet stats = %+v, want zeros", st)
	}
	if n := spawns.Load(); n < 1 || n > 2 {
		t.Errorf("spawns = %d, want 1..2 (lazy, at most one per lane)", n)
	}
}

// TestSupervisorSharedQueue: any idle worker takes the next point. A point
// held inside one worker must not delay a second point of the same class,
// which the other worker serves while the first is still held.
func TestSupervisorSharedQueue(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	holdSetup := func(Hello) (Executor, error) {
		return func(_ context.Context, _, key string, _ []byte) ([]byte, error) {
			if key == "fam/held" {
				close(started)
				<-release
			}
			return []byte(key), nil
		}, nil
	}
	s := newTestSupervisor(t, Config{Workers: 2, Spawn: pipeSpawn(holdSetup, nil, nil)})
	t.Cleanup(free)
	held := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), "p=1", "echo", "fam/held", nil)
		held <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := s.Do(ctx, "p=1", "echo", "fam/free", nil)
	if err != nil || string(got) != "fam/free" {
		t.Fatalf("same-class Do while another point is held = %q, %v; want it served by the idle worker", got, err)
	}
	free()
	if err := <-held; err != nil {
		t.Errorf("held point: %v", err)
	}
}

// TestFaultSupervisorRestartsAfterKill: a worker dying mid-point is
// restarted and the point re-dispatched; the sweep sees only results.
func TestFaultSupervisorRestartsAfterKill(t *testing.T) {
	var spawns atomic.Int64
	var delays []time.Duration
	s := newTestSupervisor(t, Config{
		Workers: 1,
		Spawn:   pipeSpawn(echoSetup(nil), &spawns, nil),
		Hello:   Hello{Faults: "wkill=1"}, // serve one point, die on the next
		Backoff: 100 * time.Millisecond,
	})
	s.after = immediateClock(&delays)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("fam/point-%d", i)
		got, err := s.Do(context.Background(), "p=1", "echo", key, nil)
		if err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
		if want := "echo/" + key + "="; string(got) != want {
			t.Errorf("Do(%s) = %q, want %q", key, got, want)
		}
	}
	st := s.Stats()
	if st.Crashes != 2 || st.Restarts != 2 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want 2 crashes, 2 restarts, 0 quarantined", st)
	}
	if n := spawns.Load(); n != 3 {
		t.Errorf("spawns = %d, want 3 (initial + 2 restarts)", n)
	}
	want := []time.Duration{100 * time.Millisecond, 100 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Errorf("backoff delays = %v, want %v (doubling resets per point)", delays, want)
	}
}

// TestFaultSupervisorQuarantinesPoisonPoint: a point that kills PoisonK
// consecutive workers degrades to an ErrWorkerCrash instead of aborting or
// crash-looping — and the lane keeps serving later points.
func TestFaultSupervisorQuarantinesPoisonPoint(t *testing.T) {
	var delays []time.Duration
	s := newTestSupervisor(t, Config{
		Workers: 1,
		Spawn:   pipeSpawn(echoSetup(nil), nil, nil),
		Hello:   Hello{Faults: "wkill=0"}, // poison schedule: die on every request
		PoisonK: 3,
		Backoff: 10 * time.Millisecond,
	})
	s.after = immediateClock(&delays)
	_, err := s.Do(context.Background(), "p=1", "echo", "fam/poison", nil)
	var re *vmpi.RunError
	if !errors.As(err, &re) || re.Kind != vmpi.ErrWorkerCrash {
		t.Fatalf("Do = %v, want *vmpi.RunError{ErrWorkerCrash}", err)
	}
	if re.Retryable() {
		t.Error("quarantine error must not be retryable")
	}
	if !strings.Contains(re.Error(), "killed 3 consecutive workers") {
		t.Errorf("quarantine message = %q", re.Error())
	}
	wantDelays := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(delays) != 2 || delays[0] != wantDelays[0] || delays[1] != wantDelays[1] {
		t.Errorf("backoff delays = %v, want %v (doubling schedule)", delays, wantDelays)
	}
	st := s.Stats()
	if st.Crashes != 3 || st.Restarts != 2 || st.Quarantined != 1 {
		t.Errorf("stats = %+v, want 3 crashes, 2 restarts, 1 quarantined", st)
	}
	// The sweep goes on: the next point gets its own fresh restart budget.
	_, err = s.Do(context.Background(), "p=1", "echo", "fam/poison-2", nil)
	if !errors.As(err, &re) || re.Kind != vmpi.ErrWorkerCrash {
		t.Fatalf("second Do = %v, want quarantine again", err)
	}
	if st := s.Stats(); st.Quarantined != 2 {
		t.Errorf("Quarantined = %d, want 2", st.Quarantined)
	}
}

// TestFaultSupervisorRecoversDamagedFrames: corrupt and truncated reply
// frames are detected (checksum, mid-frame EOF), the worker is recycled,
// and the point's re-dispatch returns the true result.
func TestFaultSupervisorRecoversDamagedFrames(t *testing.T) {
	for _, chaos := range []string{"wcorrupt=2", "wtrunc=2"} {
		t.Run(chaos, func(t *testing.T) {
			s := newTestSupervisor(t, Config{
				Workers: 1,
				Spawn:   pipeSpawn(echoSetup(nil), nil, nil),
				Hello:   Hello{Faults: chaos},
				Backoff: time.Millisecond,
			})
			s.after = immediateClock(nil)
			for i := 0; i < 4; i++ {
				key := fmt.Sprintf("fam/point-%d", i)
				got, err := s.Do(context.Background(), "p=1", "echo", key, nil)
				if err != nil {
					t.Fatalf("Do(%s): %v", key, err)
				}
				if want := "echo/" + key + "="; string(got) != want {
					t.Errorf("Do(%s) = %q, want %q", key, got, want)
				}
			}
			// Each incarnation serves one clean reply and sabotages its
			// second: points 1, 2 and 3 (0-indexed) each crash one worker
			// and succeed on re-dispatch to the fresh one.
			if st := s.Stats(); st.Crashes != 3 || st.Restarts != 3 || st.Quarantined != 0 {
				t.Errorf("stats = %+v, want 3 crashes, 3 restarts, 0 quarantined", st)
			}
		})
	}
}

// TestFaultSupervisorHeartbeatDeadline: a stalled worker — no reply, no
// heartbeats — is killed at the grace deadline and the point quarantined
// after PoisonK stalls.
func TestFaultSupervisorHeartbeatDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	graceArms := 0
	s := newTestSupervisor(t, Config{
		Workers: 1,
		Spawn:   pipeSpawn(echoSetup(nil), nil, nil),
		Hello:   Hello{Faults: "wstall=0"}, // hang on every request
		PoisonK: 2,
		Grace:   50 * time.Millisecond,
		Backoff: time.Millisecond,
	})
	s.after = immediateClock(nil)
	s.graceAfter = func(d time.Duration) <-chan time.Time {
		graceArms++
		ch := make(chan time.Time, 1)
		ch <- time.Time{} // the deadline always fires first: virtual hang
		return ch
	}
	_, err := s.Do(context.Background(), "p=1", "echo", "fam/hang", nil)
	var re *vmpi.RunError
	if !errors.As(err, &re) || re.Kind != vmpi.ErrWorkerCrash {
		t.Fatalf("Do = %v, want quarantine", err)
	}
	if !strings.Contains(re.Error(), "heartbeat deadline") {
		t.Errorf("quarantine message = %q, want heartbeat deadline cause", re.Error())
	}
	if graceArms != 2 {
		t.Errorf("grace deadline armed %d times, want 2 (once per incarnation)", graceArms)
	}
	if st := s.Stats(); st.Crashes != 2 || st.Quarantined != 1 {
		t.Errorf("stats = %+v, want 2 crashes, 1 quarantined", st)
	}
	// Each kill closed its stalled worker's request stream, so neither
	// worker outlives the supervisor.
	s.Close()
	awaitGoroutines(t, before)
}

// TestFaultSupervisorHeartbeatsResetDeadline: a slow-but-alive worker keeps
// the grace deadline at bay by heartbeating; the supervisor re-arms the
// deadline on every beat instead of killing a healthy worker.
func TestFaultSupervisorHeartbeatsResetDeadline(t *testing.T) {
	slowSetup := func(Hello) (Executor, error) {
		return func(context.Context, string, string, []byte) ([]byte, error) {
			time.Sleep(30 * time.Millisecond)
			return []byte("slow-done"), nil
		}, nil
	}
	var graceArms atomic.Int64
	s := newTestSupervisor(t, Config{
		Workers: 1,
		Spawn:   pipeSpawn(slowSetup, nil, nil),
		Hello:   Hello{Heartbeat: 5 * time.Millisecond},
		Grace:   time.Hour,
	})
	s.graceAfter = func(d time.Duration) <-chan time.Time {
		graceArms.Add(1)
		return make(chan time.Time) // never fires; we count re-arms
	}
	got, err := s.Do(context.Background(), "p=1", "echo", "fam/slow", nil)
	if err != nil || string(got) != "slow-done" {
		t.Fatalf("Do = %q, %v", got, err)
	}
	if n := graceArms.Load(); n < 2 {
		t.Errorf("grace deadline armed %d times, want >= 2 (initial + heartbeat resets)", n)
	}
	if st := s.Stats(); st.Crashes != 0 {
		t.Errorf("healthy slow worker counted as crash: %+v", st)
	}
}

// TestFaultSupervisorWorkerErrorIsNotACrash: a point's own structured
// failure rides back in the reply — the worker stays up, nothing restarts,
// and kind/text/retryability are preserved for the report layer.
func TestFaultSupervisorWorkerErrorIsNotACrash(t *testing.T) {
	var spawns atomic.Int64
	failSetup := func(Hello) (Executor, error) {
		return func(_ context.Context, _, key string, _ []byte) ([]byte, error) {
			if strings.HasSuffix(key, "bad") {
				return nil, &kindedErr{kind: "deadlock", msg: "vmpi: deadlock; 2 ranks blocked:\nrank 0", retry: false}
			}
			return []byte("fine"), nil
		}, nil
	}
	s := newTestSupervisor(t, Config{Workers: 1, Spawn: pipeSpawn(failSetup, &spawns, nil)})
	_, err := s.Do(context.Background(), "p=1", "echo", "fam/bad", nil)
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("Do = %v, want *WireError", err)
	}
	if we.FailureKind() != "deadlock" || we.Retryable() ||
		we.Error() != "vmpi: deadlock; 2 ranks blocked:\nrank 0" {
		t.Errorf("wire error = %+v", we)
	}
	got, err := s.Do(context.Background(), "p=1", "echo", "fam/ok", nil)
	if err != nil || string(got) != "fine" {
		t.Fatalf("follow-up Do = %q, %v", got, err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("stats = %+v, want zeros (a failed point is not a crashed worker)", st)
	}
	if spawns.Load() != 1 {
		t.Errorf("spawns = %d, want 1 (the worker survived the failed point)", spawns.Load())
	}
}

// TestFaultSupervisorSpawnFailure: a fleet that cannot even start workers
// still bounds its retries and degrades the point instead of hanging.
func TestFaultSupervisorSpawnFailure(t *testing.T) {
	s := newTestSupervisor(t, Config{
		Workers: 1,
		Spawn:   func() (Proc, error) { return nil, errors.New("fork bomb shields up") },
		PoisonK: 2,
		Backoff: time.Millisecond,
	})
	s.after = immediateClock(nil)
	_, err := s.Do(context.Background(), "p=1", "echo", "fam/x", nil)
	var re *vmpi.RunError
	if !errors.As(err, &re) || re.Kind != vmpi.ErrWorkerCrash {
		t.Fatalf("Do = %v, want quarantine", err)
	}
	if !strings.Contains(re.Error(), "fork bomb shields up") {
		t.Errorf("quarantine message lost the spawn cause: %q", re.Error())
	}
}

// ackSpawn starts fake workers that answer the handshake with ack and then
// read requests without ever replying: processes whose stream stays
// silent until Kill.
func ackSpawn(ack HelloAck) Spawn {
	return func() (Proc, error) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		go func() {
			if _, _, err := readFrame(inR); err == nil {
				_ = writeFrame(outW, frameHelloAck, ack)
			}
			_, _ = io.Copy(io.Discard, inR)
		}()
		return &pipeProc{r: outR, w: inW, wr: outW, rr: inR}, nil
	}
}

// TestFaultSupervisorVersionMismatchFailsFast: an incompatible worker
// binary poisons the lane permanently — no respawn storm, every point
// fails with the mismatch instead of a quarantine loop.
func TestFaultSupervisorVersionMismatchFailsFast(t *testing.T) {
	var spawns atomic.Int64
	stale := ackSpawn(HelloAck{Version: ProtocolVersion + 7}) // another protocol generation
	staleSpawn := func() (Proc, error) {
		spawns.Add(1)
		return stale()
	}
	s := newTestSupervisor(t, Config{Workers: 1, Spawn: staleSpawn, Backoff: time.Millisecond})
	s.after = immediateClock(nil)
	for i := 0; i < 2; i++ {
		_, err := s.Do(context.Background(), "p=1", "echo", "fam/x", nil)
		if err == nil || !strings.Contains(err.Error(), "version mismatch") {
			t.Fatalf("Do %d = %v, want version mismatch", i, err)
		}
	}
	if spawns.Load() != 1 {
		t.Errorf("spawns = %d, want 1 (mismatch must not respawn-loop)", spawns.Load())
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Errorf("Quarantined = %d, want 0 (config error, not poison)", st.Quarantined)
	}
}

// TestFaultSupervisorDrain: Close retires live workers politely — each one
// sees the shutdown frame and exits its serve loop cleanly.
func TestFaultSupervisorDrain(t *testing.T) {
	exits := make(chan error, 4)
	s, err := New(Config{Workers: 1, Spawn: pipeSpawn(echoSetup(nil), nil, exits)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(context.Background(), "p=1", "echo", "fam/x", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	select {
	case err := <-exits:
		if err != nil {
			t.Errorf("worker exit = %v, want nil (clean shutdown)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker never exited after Close")
	}
	// The supervisor is down: new dispatches fail instead of hanging.
	if _, err := s.Do(context.Background(), "p=1", "echo", "fam/y", nil); err == nil {
		t.Error("Do after Close succeeded")
	}
}

// TestFaultSupervisorCancellationMidPoint: canceling the dispatch context
// while a point is in flight abandons the worker and returns promptly.
func TestFaultSupervisorCancellationMidPoint(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	blockSetup := func(Hello) (Executor, error) {
		return func(context.Context, string, string, []byte) ([]byte, error) {
			<-release
			return []byte("late"), nil
		}, nil
	}
	s := newTestSupervisor(t, Config{Workers: 1, Spawn: pipeSpawn(blockSetup, nil, nil)})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := s.Do(ctx, "p=1", "echo", "fam/block", nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Do = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Errorf("cancellation must not quarantine: %+v", st)
	}
}

// TestFaultWorkerPanicIsAPointFailure: an executor that panics fails its
// point, not its worker. The error carries failure kind "panic" and the
// first line of the *sweep.PanicError the same point builds in-process, so
// the cell renders "!panic" either way; nothing crashes or restarts, and
// the same worker serves the next point.
func TestFaultWorkerPanicIsAPointFailure(t *testing.T) {
	var spawns atomic.Int64
	boom := func(context.Context) ([]byte, error) { panic("builder bug") }
	setup := func(Hello) (Executor, error) {
		return func(ctx context.Context, _, key string, _ []byte) ([]byte, error) {
			if key == "fam/bad" {
				return boom(ctx)
			}
			return []byte("fine"), nil
		}, nil
	}
	s := newTestSupervisor(t, Config{Workers: 1, Spawn: pipeSpawn(setup, &spawns, nil)})
	_, err := s.Do(context.Background(), "p=1", "echo", "fam/bad", nil)
	if kind := report.FailureKind(err); kind != "panic" {
		t.Fatalf("Do = %v (kind %q), want a point failure of kind panic", err, kind)
	}
	_, local := sweep.CachedCtx(sweep.NewPool(1), "fam/bad", boom).WaitErr()
	firstLine := func(err error) string { line, _, _ := strings.Cut(err.Error(), "\n"); return line }
	if got, want := firstLine(err), firstLine(local); got != want {
		t.Errorf("worker panic reads %q, want the in-process %q", got, want)
	}
	got, err := s.Do(context.Background(), "p=1", "echo", "fam/ok", nil)
	if err != nil || string(got) != "fine" {
		t.Fatalf("follow-up Do = %q, %v", got, err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("stats = %+v, want zeros (a panicking point is not a crashed worker)", st)
	}
	if n := spawns.Load(); n != 1 {
		t.Errorf("spawns = %d, want 1 (the worker survived the panic)", n)
	}
}

// TestFaultSupervisorLeavesNoGoroutines: however a lane ends, no goroutine
// of dist outlives Close — no lane (New), no reader of a worker stream
// (ensure's readLoop), and for in-process workers no serve loop or
// heartbeat ticker — so the count falls back to its value before New. The
// in-process workers' serve loops end by a shutdown frame (Close) or a
// chaos kill (wkill, wcorrupt, wtrunc).
func TestFaultSupervisorLeavesNoGoroutines(t *testing.T) {
	echo := pipeSpawn(echoSetup(nil), nil, nil)
	// Heartbeats start a ticker goroutine per point in every in-process
	// worker; the hour-long grace keeps a slow host from killing one.
	beat := func(faults string) Hello { return Hello{Faults: faults, Heartbeat: time.Millisecond} }
	// fails dispatches one point, which must fail with an error naming
	// each of words.
	fails := func(words ...string) func(*Supervisor) error {
		return func(s *Supervisor) error {
			_, err := s.Do(context.Background(), "p=1", "echo", "fam/x", nil)
			for _, w := range words {
				if err == nil || !strings.Contains(err.Error(), w) {
					return fmt.Errorf("Do = %v, want a failure naming %q", err, w)
				}
			}
			return nil
		}
	}
	quarantined := func(cause string) func(*Supervisor) error { return fails("quarantined", cause) }
	silent := ackSpawn(HelloAck{Version: ProtocolVersion})
	cases := []struct {
		name  string
		cfg   Config
		drive func(*Supervisor) error
	}{
		{"round-trip", Config{Workers: 2, Spawn: echo, Hello: beat(""), Grace: time.Hour}, doPoints(4, false)},
		{"wkill-restart", Config{Workers: 1, Spawn: echo, Hello: beat("wkill=1"), Grace: time.Hour}, doPoints(3, true)},
		{"wkill-quarantine", Config{Workers: 1, Spawn: echo, Hello: beat("wkill=0"), Grace: time.Hour, PoisonK: 2}, quarantined("dist: worker stream")},
		{"wcorrupt", Config{Workers: 1, Spawn: echo, Hello: beat("wcorrupt=2"), Grace: time.Hour}, doPoints(3, true)},
		{"wtrunc", Config{Workers: 1, Spawn: echo, Hello: beat("wtrunc=2"), Grace: time.Hour}, doPoints(3, true)},
		{"heartbeat-deadline", Config{Workers: 1, Spawn: silent, Grace: time.Nanosecond, PoisonK: 2}, quarantined("dist: worker missed heartbeat deadline")},
		{"version-mismatch", Config{Workers: 1, Spawn: ackSpawn(HelloAck{Version: ProtocolVersion + 1})}, fails("version mismatch")},
		{"spawn-failure", Config{Workers: 1, Spawn: func() (Proc, error) { return nil, errors.New("no fork") }, PoisonK: 2}, quarantined("dist: spawn worker: no fork")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { leakCheck(t, c.cfg, c.drive) })
	}

	t.Run("canceled-mid-flight", func(t *testing.T) {
		// The canceled lane abandons a worker whose stream outruns the
		// 16-event buffer: readLoop must park on the stop, not the send.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p := &chattyProc{onRequest: cancel}
		spawn := func() (Proc, error) { return p, nil }
		leakCheck(t, Config{Workers: 1, Spawn: spawn}, func(s *Supervisor) error {
			if _, err := s.Do(ctx, "p=1", "echo", "fam/x", nil); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("Do = %v, want context.Canceled", err)
			}
			return nil
		})
	})
}

// leakCheck runs drive on a supervisor built from cfg, whose restart
// backoff fires at once, closes it, and fails unless the goroutine count
// falls back to its value before New.
func leakCheck(t *testing.T, cfg Config, drive func(*Supervisor) error) {
	t.Helper()
	before := runtime.NumGoroutine()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.after = immediateClock(nil)
	bounded(t, "dispatching", func() { err = drive(s) })
	if err != nil {
		t.Error(err)
	}
	bounded(t, "Close", s.Close)
	awaitGoroutines(t, before)
}

// doPoints dispatches n echo points and checks each result, and that
// workers crashed on the way iff crashes.
func doPoints(n int, crashes bool) func(*Supervisor) error {
	return func(s *Supervisor) error {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("fam/point-%d", i)
			got, err := s.Do(context.Background(), "p=1", "echo", key, nil)
			if want := "echo/" + key + "="; err != nil || string(got) != want {
				return fmt.Errorf("Do(%s) = %q, %v; want %q", key, got, err, want)
			}
		}
		if st := s.Stats(); (st.Crashes > 0) != crashes || st.Quarantined != 0 {
			return fmt.Errorf("stats = %+v, want crashes %v and no quarantine", st, crashes)
		}
		return nil
	}
}

// bounded runs f and fails the test if it has not returned within five
// seconds, so a goroutine that never exits fails instead of hanging.
func bounded(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
	}
}

// awaitGoroutines fails the test unless the goroutine count falls to at
// most want within five seconds, dumping every goroutine's stack if not.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		select {
		case <-deadline:
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before, %d after:\n%s", want, got, buf[:runtime.Stack(buf, true)])
		case <-time.After(time.Millisecond):
		}
	}
}

// chattyProc is a worker that acks the handshake and then streams
// heartbeats without end, before and after Kill, like a pipe still full
// of frames from a process that was told to die. It runs no goroutine:
// Read makes the next frame on demand. onRequest runs when the first
// request arrives.
type chattyProc struct {
	mu        sync.Mutex
	out       bytes.Buffer
	writes    int
	onRequest func()
}

func (p *chattyProc) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.writes++
	n := p.writes
	if n == 1 { // the hello
		_ = writeFrame(&p.out, frameHelloAck, HelloAck{Version: ProtocolVersion})
	}
	p.mu.Unlock()
	if n == 2 {
		p.onRequest()
	}
	return len(b), nil
}

func (p *chattyProc) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.out.Len() == 0 {
		_ = writeFrame(&p.out, frameHeartbeat, Heartbeat{})
	}
	return p.out.Read(b)
}

func (p *chattyProc) Kill() error { return nil }
