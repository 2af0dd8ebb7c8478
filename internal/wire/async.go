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
	return appendIDs(dst, m.Senders, func(p sim.PartyID) int { return int(p) }, nil)
}

// ---- decoders

func (r *Reader) asyncHeader() (phase, kind byte, iter int, src sim.PartyID) {
	phase, kind = r.Byte(), r.Byte()
	if phase != AsyncPhasePathsFinder && phase != AsyncPhaseProjection {
		r.Fail("async phase %d out of range", phase)
	}
	if kind < AsyncKindInit || kind > AsyncKindReady {
		r.Fail("async kind %d out of range", kind)
	}
	if iter = r.Iter(); iter < 1 {
		r.Fail("async iteration %d out of range", iter)
	}
	return phase, kind, iter, sim.PartyID(r.ID())
}
