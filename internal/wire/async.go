package wire

// Asynchronous-mode payloads: the two message families the event-driven
// `-mode async` transport carries. Unlike the synchronous leaf payloads,
// which are one-per-protocol, these two cover the whole asynchronous TreeAA
// pipeline — every frame is either a Bracha reliable-broadcast step for a
// real value (AsyncValue) or for a witness report (AsyncReport):
//
//	AsyncValue  0x16  one RBC step (init/echo/ready) of an iteration value:
//	                  phase(1) | kind(1) | uvarint(iter) | u32(src) | f64
//	AsyncReport 0x17  one RBC step of a witness report naming the senders
//	                  whose iteration values the reporter holds:
//	                  phase(1) | kind(1) | uvarint(iter) | u32(src) |
//	                  uvarint(count) | u32 ids, strictly ascending
//
// Phase selects which of the pipeline's two chained RealAA instances the
// frame belongs to (1 = PathsFinder on Euler-list indices, 2 = projection
// on path positions); kind is the Bracha step (1 init, 2 echo, 3 ready);
// src is the original broadcaster, carried because every party broadcasts
// concurrently and echoes/readies travel under the originator's name. Both
// types keep the codec's canonicality contract — minimal varints, strictly
// ascending id lists, Encode(Decode(b)) == b, exact Size() — so the golden
// frame and fuzz harnesses cover them unchanged, and a malformed frame from
// a Byzantine peer is rejected at decode, before any protocol state.
//
// There is deliberately no iteration-window validation beyond iter >= 1:
// asynchrony means arbitrarily old and arbitrarily new iterations are both
// legal on a link at any time, and the codec does not know a session's
// iteration budget. The receiving machine does, and drops what lies outside
// it before storing anything; the driver's delivery budget bounds the rest.

import (
	"fmt"
	"math"

	"treeaa/internal/sim"
)

// Async type tags (continuing the overlay tags 0x14–0x15).
const (
	TypeAsyncValue  byte = 0x16
	TypeAsyncReport byte = 0x17
)

// Pipeline phases an async frame can belong to (async.Phase* alias these).
const (
	AsyncPhasePathsFinder byte = 1
	AsyncPhaseProjection  byte = 2
)

// Bracha RBC steps (async.KindInit/KindEcho/KindReady alias these).
const (
	AsyncKindInit  byte = 1
	AsyncKindEcho  byte = 2
	AsyncKindReady byte = 3
)

// AsyncValue is one Bracha step of a reliable value broadcast: party Src's
// iteration-Iter value in the given pipeline phase, at RBC step Kind.
type AsyncValue struct {
	Phase byte
	Kind  byte
	Iter  int
	Src   sim.PartyID
	Val   float64
}

// Size implements sim.Sizer exactly.
func (m AsyncValue) Size() int {
	return 2 + 2 + sim.UvarintLen(uint64(m.Iter)) + 4 + 8
}

// AsyncReport is one Bracha step of a witness-report broadcast: reporter
// Src names the senders whose iteration-Iter values it has RBC-delivered.
// Senders must be strictly ascending — the canonical set encoding.
type AsyncReport struct {
	Phase   byte
	Kind    byte
	Iter    int
	Src     sim.PartyID
	Senders []sim.PartyID
}

// Size implements sim.Sizer exactly.
func (m AsyncReport) Size() int {
	return 2 + 2 + sim.UvarintLen(uint64(m.Iter)) + 4 +
		sim.UvarintLen(uint64(len(m.Senders))) + 4*len(m.Senders)
}

// ---- encoders

func appendAsyncHeader(dst []byte, typ, phase, kind byte, iter int, src sim.PartyID) ([]byte, error) {
	if phase != AsyncPhasePathsFinder && phase != AsyncPhaseProjection {
		return nil, fmt.Errorf("wire: async phase %d out of range", phase)
	}
	if kind < AsyncKindInit || kind > AsyncKindReady {
		return nil, fmt.Errorf("wire: async kind %d out of range", kind)
	}
	if iter < 1 || iter > math.MaxInt32 {
		return nil, fmt.Errorf("wire: async iteration %d out of range", iter)
	}
	dst = append(dst, Version, typ, phase, kind)
	dst = AppendUvarint(dst, uint64(iter))
	return appendID(dst, int(src))
}

func appendAsyncValue(dst []byte, m AsyncValue) ([]byte, error) {
	dst, err := appendAsyncHeader(dst, TypeAsyncValue, m.Phase, m.Kind, m.Iter, m.Src)
	if err != nil {
		return nil, err
	}
	return appendFloat(dst, m.Val), nil
}

func appendAsyncReport(dst []byte, m AsyncReport) ([]byte, error) {
	dst, err := appendAsyncHeader(dst, TypeAsyncReport, m.Phase, m.Kind, m.Iter, m.Src)
	if err != nil {
		return nil, err
	}
	if len(m.Senders) > maxLen {
		return nil, fmt.Errorf("wire: report of %d senders exceeds limit", len(m.Senders))
	}
	dst = AppendUvarint(dst, uint64(len(m.Senders)))
	prev := -1
	for _, p := range m.Senders {
		if int(p) <= prev {
			return nil, fmt.Errorf("wire: report senders not strictly ascending at %d", p)
		}
		prev = int(p)
		if dst, err = appendID(dst, int(p)); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// ---- decoders

func consumeAsyncHeader(b []byte) (phase, kind byte, iter int, src sim.PartyID, rest []byte, err error) {
	if len(b) < 2 {
		return 0, 0, 0, 0, nil, malformed("truncated async header")
	}
	phase, kind, b = b[0], b[1], b[2:]
	if phase != AsyncPhasePathsFinder && phase != AsyncPhaseProjection {
		return 0, 0, 0, 0, nil, malformed("async phase %d out of range", phase)
	}
	if kind < AsyncKindInit || kind > AsyncKindReady {
		return 0, 0, 0, 0, nil, malformed("async kind %d out of range", kind)
	}
	iter, b, err = consumeIter(b)
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if iter < 1 {
		return 0, 0, 0, 0, nil, malformed("async iteration %d out of range", iter)
	}
	id, b, err := consumeID(b)
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	return phase, kind, iter, sim.PartyID(id), b, nil
}

func decodeAsyncValue(b []byte) (any, []byte, error) {
	phase, kind, iter, src, b, err := consumeAsyncHeader(b)
	if err != nil {
		return nil, nil, err
	}
	val, b, err := consumeFloat(b)
	if err != nil {
		return nil, nil, err
	}
	return AsyncValue{Phase: phase, Kind: kind, Iter: iter, Src: src, Val: val}, b, nil
}

func decodeAsyncReport(b []byte) (any, []byte, error) {
	phase, kind, iter, src, b, err := consumeAsyncHeader(b)
	if err != nil {
		return nil, nil, err
	}
	count, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if count > maxLen || count*4 > uint64(len(b)) {
		return nil, nil, malformed("report sender count %d exceeds buffer", count)
	}
	m := AsyncReport{Phase: phase, Kind: kind, Iter: iter, Src: src}
	if count > 0 {
		m.Senders = make([]sim.PartyID, 0, count)
	}
	prev := -1
	for i := uint64(0); i < count; i++ {
		var id int
		id, b, err = consumeID(b)
		if err != nil {
			return nil, nil, err
		}
		if id <= prev {
			return nil, nil, malformed("report senders not strictly ascending")
		}
		prev = id
		m.Senders = append(m.Senders, sim.PartyID(id))
	}
	return m, b, nil
}
