package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestFaultSupervisorVersionMismatchFailsFast: an incompatible worker
// binary poisons the lane permanently — no respawn storm, every point
// fails with the mismatch instead of a quarantine loop.
func TestFaultSupervisorVersionMismatchFailsFast(t *testing.T) {
	var spawns atomic.Int64
	staleSpawn := func() (Proc, error) {
		spawns.Add(1)
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		go func() {
			// A worker from another protocol generation: acks the wrong
			// version (readFrame tolerates the hello it can't fathom).
			_, _, _ = readFrame(inR)
			_ = writeFrame(outW, frameHelloAck, HelloAck{Version: ProtocolVersion + 7})
		}()
		return &pipeProc{r: outR, w: inW, wr: outW, rr: inR}, nil
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
