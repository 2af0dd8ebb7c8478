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
	"encoding/binary"
	"fmt"
	"math"

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
	if m.T < 0 || m.T > math.MaxInt32 {
		return nil, fmt.Errorf("wire: submit t %d out of range", m.T)
	}
	dst = append(dst, Version, TypeClientSubmit)
	dst = AppendUvarint(dst, m.SID)
	dst, err := appendString(dst, m.Tree)
	if err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Seed))
	dst = AppendUvarint(dst, uint64(m.T))
	if dst, err = appendString(dst, m.Inputs); err != nil {
		return nil, err
	}
	dst = AppendUvarint(dst, m.TTLMillis)
	var flags byte
	if m.Wait {
		flags |= 0x01
	}
	return append(dst, flags), nil
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
	if m.Rounds < 0 || m.Rounds > math.MaxInt32 {
		return nil, fmt.Errorf("wire: outcome rounds %d out of range", m.Rounds)
	}
	if m.Msgs < 0 || uint64(m.Msgs) > maxCount || m.Bytes < 0 || uint64(m.Bytes) > maxCount {
		return nil, fmt.Errorf("wire: outcome counters %d/%d out of range", m.Msgs, m.Bytes)
	}
	dst = append(dst, Version, TypeClientOutcome)
	var flags byte
	if m.OK {
		flags |= 0x01
	}
	dst = append(dst, flags)
	dst = AppendUvarint(dst, m.SID)
	dst = append(dst, m.State)
	dst, err := appendString(dst, m.Err)
	if err != nil {
		return nil, err
	}
	dst = AppendUvarint(dst, uint64(m.LatencyNS))
	dst = AppendUvarint(dst, uint64(m.Rounds))
	dst = AppendUvarint(dst, uint64(m.Msgs))
	dst = AppendUvarint(dst, uint64(m.Bytes))
	dst = AppendUvarint(dst, uint64(len(m.Outputs)))
	prev := -1
	for _, pair := range m.Outputs {
		if int(pair.Party) <= prev {
			return nil, fmt.Errorf("wire: outcome outputs not strictly ascending at party %d", pair.Party)
		}
		prev = int(pair.Party)
		if dst, err = appendID(dst, int(pair.Party)); err != nil {
			return nil, err
		}
		if dst, err = appendID(dst, int(pair.V)); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// ---- decoders

func decodeClientSubmit(b []byte) (any, []byte, error) {
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	treeSpec, b, err := consumeString(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 8 {
		return nil, nil, malformed("truncated submit seed")
	}
	seed := binary.BigEndian.Uint64(b[:8])
	b = b[8:]
	t, b, err := consumeIter(b)
	if err != nil {
		return nil, nil, err
	}
	inputs, b, err := consumeString(b)
	if err != nil {
		return nil, nil, err
	}
	ttl, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 1 {
		return nil, nil, malformed("truncated submit flags")
	}
	flags := b[0]
	if flags&^byte(0x01) != 0 {
		return nil, nil, malformed("unknown submit flags %#x", flags)
	}
	return ClientSubmit{SID: sid, Tree: treeSpec, Seed: int64(seed), T: t,
		Inputs: inputs, TTLMillis: ttl, Wait: flags&0x01 != 0}, b[1:], nil
}

func decodeClientQuery(b []byte, typ byte) (any, []byte, error) {
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if typ == TypeClientWait {
		return ClientWait{SID: sid}, b, nil
	}
	return ClientStatus{SID: sid}, b, nil
}

func decodeClientOutcome(b []byte) (any, []byte, error) {
	if len(b) < 1 {
		return nil, nil, malformed("truncated outcome flags")
	}
	flags := b[0]
	if flags&^byte(0x01) != 0 {
		return nil, nil, malformed("unknown outcome flags %#x", flags)
	}
	b = b[1:]
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 1 {
		return nil, nil, malformed("truncated outcome state")
	}
	state := b[0]
	if state > maxClientState && state != ClientStateNone {
		return nil, nil, malformed("outcome state %d out of range", state)
	}
	b = b[1:]
	errStr, b, err := consumeString(b)
	if err != nil {
		return nil, nil, err
	}
	lat, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if lat > uint64(math.MaxInt64) {
		return nil, nil, malformed("latency %d out of range", lat)
	}
	rounds, b, err := consumeIter(b)
	if err != nil {
		return nil, nil, err
	}
	msgs, b, err := consumeCount(b)
	if err != nil {
		return nil, nil, err
	}
	bytesSum, b, err := consumeCount(b)
	if err != nil {
		return nil, nil, err
	}
	count, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(MaxIDValue)+1 || 8*count > uint64(len(b)) {
		return nil, nil, malformed("output count %d exceeds buffer", count)
	}
	var outputs []OutputPair
	prev := -1
	for i := uint64(0); i < count; i++ {
		var party, v int
		if party, b, err = consumeID(b); err != nil {
			return nil, nil, err
		}
		if v, b, err = consumeID(b); err != nil {
			return nil, nil, err
		}
		if party <= prev {
			return nil, nil, malformed("outcome outputs not strictly ascending at party %d", party)
		}
		prev = party
		outputs = append(outputs, OutputPair{Party: sim.PartyID(party), V: tree.VertexID(v)})
	}
	return ClientOutcome{OK: flags&0x01 != 0, SID: sid, State: state, Err: errStr,
		LatencyNS: int64(lat), Rounds: rounds, Msgs: msgs, Bytes: bytesSum,
		Outputs: outputs}, b, nil
}

// PeekSession reads the type tag and session id of an encoded session-plane
// frame (0x08–0x0C, 0x18) without decoding its payload — the serving mux's
// routing primitive: a data frame goes to the owning engine's shard as raw
// bytes and is decoded there, once, by whoever steps the engine.
func PeekSession(b []byte) (typ byte, sid uint64, err error) {
	if len(b) < 3 {
		return 0, 0, malformed("body shorter than session header")
	}
	if b[0] != Version {
		return 0, 0, malformed("version %d, want %d", b[0], Version)
	}
	typ = b[1]
	if (typ < TypeSessionMsg || typ > TypeSessionDecide) && typ != TypeSessionRound {
		return 0, 0, malformed("unknown session type 0x%02x", typ)
	}
	sid, _, err = ConsumeUvarint(b[2:])
	if err != nil {
		return 0, 0, err
	}
	return typ, sid, nil
}
