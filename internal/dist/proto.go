// Package dist is the supervised out-of-process worker pool behind the
// sweep's -workers N mode: a supervisor routes sweep points to a fleet of
// worker processes over a length-prefixed, checksummed frame protocol on
// stdin/stdout, and treats every worker failure — process exit, pipe EOF,
// corrupt or truncated frame, missed heartbeat — as recoverable: the worker
// is restarted with bounded doubling backoff and the in-flight point is
// re-dispatched (idempotent, because points are deterministic and memoized
// by fingerprint). A point that kills K consecutive workers is quarantined
// as a degraded "!workercrash" cell instead of aborting the sweep.
//
// # Frame format
//
// Every message is one frame:
//
//	[4 bytes big-endian body length][4 bytes big-endian CRC32/IEEE of body]
//	[body = 1 type byte + gob-encoded payload]
//
// The CRC turns silent corruption into a detected crash: a reader that sees
// a bad checksum (or an absurd length, or EOF mid-frame) reports the stream
// dead, and the supervisor recycles the worker. The first frame in each
// direction is the handshake — Hello down, HelloAck up — carrying the
// protocol version and the run configuration (fault-plan fingerprint,
// sanitizer toggle, noise spec, per-point budget, heartbeat interval), so a
// worker from a stale binary fails loudly at startup instead of computing
// cells under the wrong configuration.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// ProtocolVersion is bumped whenever the frame vocabulary or a message
// shape changes incompatibly; the handshake rejects a mismatch.
// Version 2 added Hello.Noise and PointSpec.Replica (noise ensembles);
// version 3 removed Hello.Engine (the engine is no longer a run option).
const ProtocolVersion = 3

// maxFrame bounds a frame body. A corrupt length prefix must not make the
// reader allocate gigabytes before the CRC gets a chance to object.
const maxFrame = 16 << 20

// Frame type bytes. The zero value is deliberately invalid.
const (
	frameHello byte = iota + 1
	frameHelloAck
	frameRequest
	frameReply
	frameHeartbeat
	frameShutdown
)

// Hello is the supervisor→worker handshake: everything a fresh worker
// process needs to reproduce the parent's run configuration bit-for-bit.
// Every field must be consumed on the worker side — an ignored field is a
// configuration that silently diverges between processes.
//
//detlint:wire ServeWorker
type Hello struct {
	Version int
	// Faults is the active fault plan's canonical fingerprint (fault.Plan
	// round-trips through it losslessly); the worker re-parses it, which
	// also arms any worker-chaos directives it carries.
	Faults string
	// Commsan enables the communication sanitizer in the worker.
	Commsan bool
	// Noise is the active performance-noise spec's canonical fingerprint
	// (noise.Spec round-trips through it losslessly); the worker re-parses
	// it so replica-bearing point specs stamp identical noise fingerprints
	// — and therefore identical cache keys — on both sides.
	Noise string
	// Timeout is the per-point wall-clock budget the worker enforces; the
	// supervisor deliberately does not double-budget (a local deadline
	// would relabel the worker's "!timeout" cells "!canceled").
	Timeout time.Duration
	// Heartbeat is the interval at which the worker emits heartbeat frames
	// while serving a request; zero disables heartbeats.
	Heartbeat time.Duration
}

// HelloAck is the worker→supervisor handshake reply.
//
//detlint:wire lane.ensure
type HelloAck struct {
	Version int
	PID     int
}

// Request dispatches one sweep point: an opaque kind + serialized spec the
// worker's executor understands, plus the memo key for cross-checking.
//
//detlint:wire ServeWorker
type Request struct {
	// Seq matches a Reply to its Request within one worker incarnation.
	Seq uint64
	// Kind names the point builder (core.PointSpec kinds).
	Kind string
	// Key is the supervisor-side cache key; the worker recomputes it from
	// Spec and refuses to serve on drift, so a builder-version skew cannot
	// silently fill cells with the wrong configuration.
	Key string
	// Spec is the gob-encoded point specification.
	Spec []byte
}

// Reply carries one computed point back: the gob-encoded result, or the
// structured failure the point degraded with.
//
//detlint:wire lane.dispatch
type Reply struct {
	Seq    uint64
	Result []byte
	Err    *WireError
}

// Heartbeat is the payload of heartbeat and shutdown frames, whose content
// is irrelevant — the frame type is the message. gob refuses structs with
// no exported fields, hence the pad byte.
type Heartbeat struct{ Pad byte }

// WireError is a structured point failure serialized across the pipe. It
// preserves exactly what the report layer consumes — the kind label for the
// "!kind" cell, the full original error text for the footnote, and the
// retryable bit for the sweep's resubmission policy — so a degraded cell is
// byte-identical whether the point failed in-process or in a worker.
//
//detlint:wire WireError.Error WireError.FailureKind WireError.Retryable
type WireError struct {
	// Kind is the FailureKind label ("timeout", "deadlock", ...).
	Kind string
	// Msg is the complete original Error() text, newlines and all.
	Msg string
	// CanRetry mirrors the original error's Retryable().
	CanRetry bool
}

func (e *WireError) Error() string { return e.Msg }

// FailureKind labels degraded report cells (see report.FailureKinder).
func (e *WireError) FailureKind() string { return e.Kind }

// Retryable feeds the sweep's retry policy (see sweep.CachedRemote).
func (e *WireError) Retryable() bool { return e.CanRetry }

// writeFrame encodes payload with gob and writes one framed message. The
// frame is assembled in memory and written with a single Write so that
// concurrent writers (the reply path and the heartbeat goroutine serialize
// on a mutex above this) never interleave partial frames.
func writeFrame(w io.Writer, typ byte, payload any) error {
	var body bytes.Buffer
	body.WriteByte(typ)
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return fmt.Errorf("dist: encode frame type %d: %w", typ, err)
	}
	return writeRawFrame(w, body.Bytes())
}

// writeRawFrame frames and writes an already-assembled body.
func writeRawFrame(w io.Writer, body []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	if _, err := w.Write(append(hdr[:], body...)); err != nil {
		return fmt.Errorf("dist: write frame: %w", err)
	}
	return nil
}

// readFrame reads one frame and verifies its checksum, returning the type
// byte and the gob payload. Any violation — short read, oversized length,
// checksum mismatch — is an error; callers treat all of them as the stream
// being dead. io.EOF (cleanly between frames) passes through unwrapped so
// callers can distinguish an orderly close from a mid-frame truncation.
// The frame body buffer, sized by the length prefix, is allocated per
// frame; TestFrameRoundTripAllocationBudget pins a frame's total cost.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("dist: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame length %d out of range (corrupt stream?)", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("dist: read frame body: %w", err)
	}
	if sum := crc32.ChecksumIEEE(body); sum != binary.BigEndian.Uint32(hdr[4:8]) {
		return 0, nil, fmt.Errorf("dist: frame checksum mismatch (corrupt stream)")
	}
	return body[0], body[1:], nil
}

// decodePayload gob-decodes a frame payload into out.
func decodePayload(payload []byte, out any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
		return fmt.Errorf("dist: decode frame payload: %w", err)
	}
	return nil
}
