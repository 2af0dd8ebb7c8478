package wire

// Client-plane payloads for the serving layer's binary client API
// (internal/session server.go / client.go): the request/response frames a
// client exchanges with one daemon over its client listener. They never
// travel on peer links and never nest inside SessionMsg. Four types:
//
//	ClientSubmit  0x0D  offer a session to the daemon:
//	                    uvarint(sid) | tree spec | seed(8, big-endian two's
//	                    complement) | uvarint(t) | input spec |
//	                    uvarint(ttl ms) | flags(1) (bit 0: wait)
//	ClientWait    0x0E  block until the session is terminal: uvarint(sid)
//	ClientStatus  0x0F  current lifecycle view: uvarint(sid)
//	ClientOutcome 0x10  the daemon's answer to any request:
//	                    flags(1) (bit 0: ok) | uvarint(sid) | state(1) |
//	                    err string | uvarint(latency ns) | uvarint(rounds) |
//	                    uvarint(msgs) | uvarint(bytes) | uvarint(#outputs) |
//	                    (u32 party | u32 vertex)* parties strictly ascending
//
// All four keep the package's canonicality contract — Encode(Decode(b)) ==
// b — so the golden-frame and fuzz harnesses cover them unchanged. On the
// socket each frame travels uvarint-length-prefixed (transport.AppendFrame /
// ReadFrame), exactly like the peer mux.

import (
	"fmt"

	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Client API type tags (continuing the session tags 0x08–0x0C).
const (
	TypeClientSubmit  byte = 0x0D
	TypeClientWait    byte = 0x0E
	TypeClientStatus  byte = 0x0F
	TypeClientOutcome byte = 0x10
)

// ClientStateNone marks a ClientOutcome that carries no session state (a
// request-level rejection: unknown op, bad spec, unknown sid). Valid states
// are the session.State values 0–4.
const ClientStateNone byte = 0xFF

// maxClientState is the largest encodable session state (StateExpired).
const maxClientState byte = 4

// ClientSubmit offers one session spec. SID 0 means auto-assign; Wait asks
// the daemon to answer with the terminal outcome instead of the admission.
type ClientSubmit struct {
	SID       uint64
	Tree      string
	Seed      int64
	T         int
	Inputs    string
	TTLMillis uint64
	Wait      bool
}

// ClientWait blocks until the session reaches a terminal state.
type ClientWait struct {
	SID uint64
}

// ClientStatus asks for a session's current lifecycle view.
type ClientStatus struct {
	SID uint64
}

// OutputPair is one party's decided vertex inside a ClientOutcome; pairs
// are encoded with strictly ascending parties, which Decode enforces.
type OutputPair struct {
	Party sim.PartyID
	V     tree.VertexID
}

// ClientOutcome answers every client request. OK reports request-level
// success; State is a session.State value or ClientStateNone; the result
// fields (Rounds/Msgs/Bytes/Outputs) are populated for decided sessions
// only and zero otherwise.
type ClientOutcome struct {
	OK        bool
	SID       uint64
	State     byte
	Err       string
	LatencyNS int64
	Rounds    int
	Msgs      int
	Bytes     int
	Outputs   []OutputPair
}

// ---- encoders

func appendClientSubmit(dst []byte, m ClientSubmit) ([]byte, error) {
	dst = AppendUvarint(append(dst, Version, TypeClientSubmit), m.SID)
	dst, err := appendSpec(dst, spec{m.Tree, m.Seed, m.T, m.Inputs, m.TTLMillis})
	if err != nil {
		return nil, err
	}
	return appendFlag(dst, m.Wait), nil
}

func appendClientQuery(dst []byte, typ byte, sid uint64) []byte {
	dst = append(dst, Version, typ)
	return AppendUvarint(dst, sid)
}

func appendClientOutcome(dst []byte, m ClientOutcome) ([]byte, error) {
	if m.State > maxClientState && m.State != ClientStateNone {
		return nil, fmt.Errorf("wire: outcome state %d out of range", m.State)
	}
	if m.LatencyNS < 0 {
		return nil, fmt.Errorf("wire: negative latency %d", m.LatencyNS)
	}
	dst = appendFlag(append(dst, Version, TypeClientOutcome), m.OK)
	dst = append(AppendUvarint(dst, m.SID), m.State)
	dst, err := appendString(dst, m.Err)
	if err != nil {
		return nil, err
	}
	dst = AppendUvarint(dst, uint64(m.LatencyNS))
	return appendResult(dst, result{m.Rounds, m.Msgs, m.Bytes, m.Outputs})
}

// ---- decoders

func decodeClientOutcome(r *Reader) any {
	ok, sid, state := r.Flag(), r.Uvarint(), r.Byte()
	if state > maxClientState && state != ClientStateNone {
		r.Fail("outcome state %d out of range", state)
	}
	errStr, lat, res := r.Str(), r.latency(), r.result()
	return ClientOutcome{OK: ok, SID: sid, State: state, Err: errStr, LatencyNS: lat,
		Rounds: res.rounds, Msgs: res.msgs, Bytes: res.bytes, Outputs: res.outputs}
}
