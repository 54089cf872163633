package dist

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// TestFaultFrameRoundTrip: every message shape survives the pipe intact,
// including a reply carrying a structured error and one carrying none.
func TestFaultFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []struct {
		typ     byte
		payload any
	}{
		{frameHello, Hello{Version: 1, Faults: "wkill=3", Commsan: true, Noise: "jitter=exp:0.05,seed=3",
			Timeout: 30 * time.Second, Heartbeat: time.Second}},
		{frameHelloAck, HelloAck{Version: 1, PID: 4242}},
		{frameRequest, Request{Seq: 7, Kind: "npb-mpi", Key: "npb/mpi/ft/A/x", Spec: []byte{1, 2, 3}}},
		{frameReply, Reply{Seq: 7, Result: []byte{9, 8}}},
		{frameReply, Reply{Seq: 8, Err: &WireError{Kind: "timeout", Msg: "vmpi: run timeout: x\nsecond", CanRetry: true}}},
		{frameHeartbeat, Heartbeat{}},
	}
	for _, m := range msgs {
		if err := writeFrame(&buf, m.typ, m.payload); err != nil {
			t.Fatalf("writeFrame(%d): %v", m.typ, err)
		}
	}
	for _, m := range msgs {
		typ, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame for type %d: %v", m.typ, err)
		}
		if typ != m.typ {
			t.Fatalf("frame type = %d, want %d", typ, m.typ)
		}
		switch want := m.payload.(type) {
		case Hello:
			var got Hello
			if err := decodePayload(payload, &got); err != nil || got != want {
				t.Errorf("hello = %+v (%v), want %+v", got, err, want)
			}
		case Reply:
			var got Reply
			if err := decodePayload(payload, &got); err != nil {
				t.Fatalf("decode reply: %v", err)
			}
			if got.Seq != want.Seq || !bytes.Equal(got.Result, want.Result) {
				t.Errorf("reply = %+v, want %+v", got, want)
			}
			if (got.Err == nil) != (want.Err == nil) {
				t.Fatalf("reply err presence = %v, want %v", got.Err, want.Err)
			}
			if want.Err != nil && *got.Err != *want.Err {
				t.Errorf("wire error = %+v, want %+v", *got.Err, *want.Err)
			}
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Errorf("drained stream: err = %v, want io.EOF", err)
	}
}

// TestFaultFrameCorruptionDetected: a flipped body byte, a truncated body,
// and an absurd length prefix all surface as errors, never as frames.
func TestFaultFrameCorruptionDetected(t *testing.T) {
	frame := func() []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frameReply, Reply{Seq: 1, Result: []byte("ok")}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	flipped := frame()
	flipped[len(flipped)-1] ^= 0xFF
	if _, _, err := readFrame(bytes.NewReader(flipped)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped byte: err = %v, want checksum mismatch", err)
	}
	short := frame()
	if _, _, err := readFrame(bytes.NewReader(short[:len(short)/2])); err == nil {
		t.Error("truncated frame read as valid")
	}
	absurd := frame()
	absurd[0], absurd[1] = 0xFF, 0xFF // claim a multi-gigabyte body
	if _, _, err := readFrame(bytes.NewReader(absurd)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("absurd length: err = %v, want out-of-range", err)
	}
	if _, _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestFaultWireErrorPreservesContract: the three facts report and sweep
// consume — kind label, full text, retryability — survive the conversion,
// and context errors map to the kinds FailCell would derive locally.
func TestFaultWireErrorPreservesContract(t *testing.T) {
	if toWireError(nil) != nil {
		t.Error("nil error must convert to nil")
	}
	we := toWireError(&kindedErr{kind: "deadlock", msg: "vmpi: deadlock; 2 ranks blocked:\nrank 0", retry: false})
	if we.FailureKind() != "deadlock" || we.Retryable() || we.Error() != "vmpi: deadlock; 2 ranks blocked:\nrank 0" {
		t.Errorf("wire error = %+v", we)
	}
	we = toWireError(&kindedErr{kind: "timeout", msg: "vmpi: run timeout: budget", retry: true})
	if !we.Retryable() || we.FailureKind() != "timeout" {
		t.Errorf("retryable lost: %+v", we)
	}
	if we := toWireError(errors.New("opaque")); we.FailureKind() != "error" || we.Retryable() {
		t.Errorf("opaque error = %+v", we)
	}
}

type kindedErr struct {
	kind, msg string
	retry     bool
}

func (e *kindedErr) Error() string       { return e.msg }
func (e *kindedErr) FailureKind() string { return e.kind }
func (e *kindedErr) Retryable() bool     { return e.retry }
