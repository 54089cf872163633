// Package wire exercises the wirecover analyzer: annotated wire structs
// must have every exported field consumed in the closure of their cover
// functions.
package wire

import "strconv"

// Spec is a wire struct whose key builder forgets one field.
//
//detlint:wire keyOf
type Spec struct {
	Kind string
	N    int
	Skip int // want `wirecover: wire field Spec\.Skip is never read in cover function\(s\) keyOf`

	pad int // unexported: gob never encodes it, exempt
}

func keyOf(s Spec) string {
	return s.Kind + "/" + strconv.Itoa(sub(s))
}

// sub is reached transitively from keyOf, so N is covered.
func sub(s Spec) int { return s.N * 2 }

// Frame demonstrates the suppression protocol for a deliberate hole.
//
//detlint:wire readFrame
type Frame struct {
	Len int
	//detlint:allow wirecover padding byte, never interpreted on either side
	Pad int
}

func readFrame(f Frame) int { return f.Len }

// Msg is fully delegated: the whole struct passes through a dynamic
// callee, so the walk cannot see (and must not demand) field reads.
//
//detlint:wire dispatch
type Msg struct {
	A int
	B int
}

func dispatch(m Msg, sink func(Msg)) {
	_ = m.A
	sink(m)
}

// Bad names a cover function that does not exist.
//
//detlint:wire nosuch
type Bad struct { // want `wirecover: //detlint:wire on Bad names unknown cover function "nosuch"`
	X int
}

// Pair is covered by a method, named Type.Method.
//
//detlint:wire codec.Encode
type Pair struct {
	L int
	R int
}

type codec struct{}

func (codec) Encode(p Pair) int { return p.L + p.R }

func use() {
	_ = keyOf(Spec{})
	_ = readFrame(Frame{})
	dispatch(Msg{}, func(Msg) {})
	_ = codec{}.Encode(Pair{})
	_ = Bad{}
	_ = sink
}

var sink func(Msg)

// HelloAck is the handshake reply whose PID the supervisor once ignored:
// the cover function checked the version and never read the worker's
// process id, so quarantine messages could not name the crashed worker.
//
//detlint:wire ensure
type HelloAck struct {
	Version int
	PID     int // want `wirecover: wire field HelloAck\.PID is never read in cover function\(s\) ensure`
}

func ensure(ack HelloAck) bool { return ack.Version == 2 }
