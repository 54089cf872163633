package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"columbia/internal/fault"
	"columbia/internal/report"
	"columbia/internal/sweep"
)

// Executor computes one sweep point in the worker process: it rebuilds the
// point from its serialized spec, runs it under ctx (which carries the
// per-point budget from the handshake), and returns the gob-encoded result
// or the point's structured error. cmd/columbia wires core.ExecutePoint in.
type Executor func(ctx context.Context, kind, key string, spec []byte) ([]byte, error)

// Setup builds the worker's executor once the handshake arrives: it applies
// the run configuration the Hello carries (fault plan, sanitizer, noise)
// to the worker's own process state and returns the executor that serves
// requests under it. A setup error aborts the worker before it computes
// anything under a misconfiguration.
type Setup func(h Hello) (Executor, error)

// ErrChaosKill terminates the serve loop when a worker-chaos directive
// fires; the worker process exits nonzero, which the supervisor sees as an
// ordinary crash. It deliberately reads like a real operational failure.
var ErrChaosKill = errors.New("dist: worker killed by chaos directive")

// ServeWorker runs the worker side of the protocol on (r, w), usually the
// process's stdin/stdout: handshake first, then a serve loop answering one
// request at a time until a shutdown frame or a clean EOF (the supervisor
// went away), which both return nil. Any protocol violation, setup failure
// or chaos directive returns an error; the caller exits nonzero and the
// supervisor recycles the process.
//
// Worker-chaos directives in the handshake's fault plan sabotage the
// worker's own infrastructure without ever touching simulation results:
// wkill=M exits while serving request M+1, wstall=M stops heartbeating and
// never replies to request M+1, wcorrupt=N flips a byte in reply N after
// the checksum is computed, wtrunc=N cuts reply N off mid-frame. Request
// and reply counts are per process incarnation, so a schedule with M >= 1
// (or N >= 2) always makes progress after a restart, while wkill=0,
// wstall=0, wcorrupt=1 and wtrunc=1 are deliberate poison schedules that
// exercise quarantine.
func ServeWorker(r io.Reader, w io.Writer, setup Setup) error {
	typ, payload, err := readFrame(r)
	if err != nil {
		return fmt.Errorf("dist: worker handshake: %w", err)
	}
	if typ != frameHello {
		return fmt.Errorf("dist: worker handshake: got frame type %d, want hello", typ)
	}
	var hello Hello
	if err := decodePayload(payload, &hello); err != nil {
		return err
	}
	if hello.Version != ProtocolVersion {
		return fmt.Errorf("dist: protocol version mismatch: supervisor %d, worker %d", hello.Version, ProtocolVersion)
	}
	chaos, err := fault.Parse(hello.Faults)
	if err != nil {
		return fmt.Errorf("dist: worker fault plan: %w", err)
	}
	exec, err := setup(hello)
	if err != nil {
		return fmt.Errorf("dist: worker setup: %w", err)
	}
	var wmu sync.Mutex // serializes reply and heartbeat frames
	if err := writeFrame(w, frameHelloAck, HelloAck{Version: ProtocolVersion, PID: os.Getpid()}); err != nil {
		return err
	}
	served, replies := 0, 0
	for {
		typ, payload, err := readFrame(r)
		if err == io.EOF {
			return nil // supervisor closed the pipe: orderly retirement
		}
		if err != nil {
			return err
		}
		switch typ {
		case frameShutdown:
			return nil
		case frameRequest:
		default:
			return fmt.Errorf("dist: worker got unexpected frame type %d", typ)
		}
		var req Request
		if err := decodePayload(payload, &req); err != nil {
			return err
		}
		served++
		if at, ok := chaos.WorkerKillRequest(); ok && served == at {
			return ErrChaosKill
		}
		if at, ok := chaos.WorkerStallRequest(); ok && served == at {
			// Stall: no heartbeats, no reply — hold the pipe open until the
			// supervisor's grace deadline expires and it kills the worker.
			// Draining the request stream keeps the stall a hang, not a
			// crash: a blocked read is no deadlock to the Go runtime. The
			// kill closes the stream, and the serve loop ends with it.
			_, _ = io.Copy(io.Discard, r)
			return ErrChaosKill
		}
		stop := heartbeat(w, &wmu, hello.Heartbeat)
		result, rerr := runPoint(exec, hello.Timeout, req)
		stop()
		reply := Reply{Seq: req.Seq, Result: result, Err: toWireError(rerr)}
		replies++
		if at, ok := chaos.WorkerCorruptReply(); ok && replies == at {
			if err := writeSabotagedReply(w, &wmu, reply, false); err != nil {
				return err
			}
			return ErrChaosKill
		}
		if at, ok := chaos.WorkerTruncateReply(); ok && replies == at {
			if err := writeSabotagedReply(w, &wmu, reply, true); err != nil {
				return err
			}
			return ErrChaosKill
		}
		wmu.Lock()
		err = writeFrame(w, frameReply, reply)
		wmu.Unlock()
		if err != nil {
			return err
		}
	}
}

// runPoint executes one request under the handshake's wall-clock budget,
// converting a panicking executor into an error instead of killing the
// process (a deterministic panic would otherwise burn the whole restart
// budget re-crashing on re-dispatch). The error is the *sweep.PanicError
// an in-process point builds, so the cell degrades to the same "!panic".
func runPoint(exec Executor, timeout time.Duration, req Request) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &sweep.PanicError{Key: req.Key, Value: r, Stack: string(debug.Stack())}
		}
	}()
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return exec(ctx, req.Kind, req.Key, req.Spec)
}

// heartbeat starts the liveness ticker for one in-flight request: every
// interval it writes a heartbeat frame (sharing the reply path's mutex so
// frames never interleave), proving the worker is alive while a long point
// computes. The returned func stops it; with interval 0 both are no-ops.
func heartbeat(w io.Writer, mu *sync.Mutex, interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				mu.Lock()
				// A write error means the supervisor is gone; the serve
				// loop will notice on its next read.
				_ = writeFrame(w, frameHeartbeat, Heartbeat{})
				mu.Unlock()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// writeSabotagedReply emits a deliberately damaged reply frame: truncated
// mid-body (truncate) or with one payload byte flipped after the checksum
// was computed (corrupt). Either way the supervisor's reader must detect a
// dead stream, never a plausible frame.
func writeSabotagedReply(w io.Writer, mu *sync.Mutex, reply Reply, truncate bool) error {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameReply, reply); err != nil {
		return err
	}
	b := buf.Bytes()
	mu.Lock()
	defer mu.Unlock()
	if truncate {
		_, err := w.Write(b[:len(b)/2])
		return err
	}
	b[len(b)-1] ^= 0xFF
	_, err := w.Write(b)
	return err
}

// toWireError converts a point's structured failure for the pipe,
// preserving the three facts the report and retry layers consume: the kind
// label, the complete error text, and retryability. It classifies with
// the same functions those layers use, so a cell degrades to the same
// "!kind" whether the point failed here or in-process.
func toWireError(err error) *WireError {
	if err == nil {
		return nil
	}
	return &WireError{Kind: report.FailureKind(err), Msg: err.Error(), CanRetry: sweep.Retryable(err)}
}
