package wire

// Journal record payloads for the serving layer's write-ahead session
// journal (internal/journal). A daemon appends an open and a seal per
// session to its on-disk log so a restart can rebuild its session table;
// JournalFrame is the per-frame record older builds also wrote, still
// decoded so their journals replay. Three types:
//
//	JournalOpen  0x11  a session was admitted on this daemon:
//	                   uvarint(sid) | u32(origin) | tree spec | seed(8,
//	                   big-endian two's complement) | uvarint(t) |
//	                   input spec | uvarint(ttl ms) | deadline(8, unix
//	                   nanoseconds, big-endian two's complement)
//	JournalFrame 0x12  one inbound session-plane frame, exactly as read off
//	                   the peer link:
//	                   u32(from) | uvarint(len) | raw session body
//	JournalSeal  0x13  a session reached a terminal state:
//	                   uvarint(sid) | state(1, terminal: 2–4) | reason
//	                   string | uvarint(latency ns) | flags(1) (bit 0: has
//	                   result) | [uvarint(rounds) | uvarint(msgs) |
//	                   uvarint(bytes) | uvarint(#outputs) | (u32 party |
//	                   u32 vertex)* parties strictly ascending]
//
// JournalFrame nests the raw bytes of exactly one session-plane frame
// (0x08–0x0C); Append and Decode both validate the nested body, and journal
// types are themselves barred from SessionMsg nesting like every other
// non-leaf payload. All three types keep the package's canonicality
// contract — Encode(Decode(b)) == b — so the golden-frame and fuzz
// harnesses cover them unchanged. Journal records never travel on peer or
// client links; they live inside CRC-framed journal segments (see
// internal/journal for the on-disk record framing).

import (
	"encoding/binary"
	"fmt"
	"math"

	"treeaa/internal/sim"
)

// Journal type tags (continuing the client tags 0x0D–0x10).
const (
	TypeJournalOpen  byte = 0x11
	TypeJournalFrame byte = 0x12
	TypeJournalSeal  byte = 0x13
)

// JournalOpen records a session admission: the full spec plus the resolved
// absolute deadline, so recovery re-admits with the remaining TTL instead of
// a fresh one.
type JournalOpen struct {
	SID       uint64
	Origin    sim.PartyID // daemon the session was submitted to
	Tree      string
	Seed      int64
	T         int
	Inputs    string
	TTLMillis uint64 // the resolved TTL (never 0 after admission)
	// DeadlineUnixNano is the admission deadline as absolute unix
	// nanoseconds; fixed 8-byte two's complement encoding like Seed.
	DeadlineUnixNano int64
}

// JournalFrame records one inbound session-plane frame verbatim: the wire
// body exactly as the link reader received it, attributed to its
// authenticated peer. The serving layer no longer writes or consumes it;
// the codec stays for journals that hold it and for the bench's replay of
// the old append pattern.
type JournalFrame struct {
	From sim.PartyID
	Body []byte // a complete encoded session-plane frame (0x08–0x0C)
}

// JournalSeal records a session's terminal transition. Decided sessions on
// their origin daemon carry the assembled result (HasResult true); peer
// seats and failed or expired sessions seal without one.
type JournalSeal struct {
	SID       uint64
	State     byte // a terminal session.State value: 2 decided, 3 failed, 4 expired
	Reason    string
	LatencyNS int64
	HasResult bool
	Rounds    int
	Msgs      int
	Bytes     int
	Outputs   []OutputPair
}

// minSealState is the smallest terminal session.State (StateDecided).
const minSealState byte = 2

// ---- encoders

func appendJournalOpen(dst []byte, m JournalOpen) ([]byte, error) {
	dst = AppendUvarint(append(dst, Version, TypeJournalOpen), m.SID)
	dst, err := appendID(dst, int(m.Origin))
	if err != nil {
		return nil, err
	}
	if dst, err = appendSpec(dst, spec{m.Tree, m.Seed, m.T, m.Inputs, m.TTLMillis}); err != nil {
		return nil, err
	}
	return binary.BigEndian.AppendUint64(dst, uint64(m.DeadlineUnixNano)), nil
}

// sessionPlane reports whether body is a session-plane frame (0x08–0x0C),
// the only kind a JournalFrame holds.
func sessionPlane(body []byte) bool {
	return len(body) >= 2 && body[1] >= TypeSessionMsg && body[1] <= TypeSessionDecide
}

func appendJournalFrame(dst []byte, m JournalFrame) ([]byte, error) {
	if len(m.Body) > maxLen || !sessionPlane(m.Body) {
		return nil, fmt.Errorf("wire: journal frame body must be a session-plane frame within the limit")
	}
	dst, err := appendID(append(dst, Version, TypeJournalFrame), int(m.From))
	if err != nil {
		return nil, err
	}
	dst = AppendUvarint(dst, uint64(len(m.Body)))
	return append(dst, m.Body...), nil
}

func appendJournalSeal(dst []byte, m JournalSeal) ([]byte, error) {
	if m.State < minSealState || m.State > maxClientState {
		return nil, fmt.Errorf("wire: journal seal state %d is not terminal", m.State)
	}
	if m.LatencyNS < 0 {
		return nil, fmt.Errorf("wire: negative journal seal latency %d", m.LatencyNS)
	}
	dst = append(AppendUvarint(append(dst, Version, TypeJournalSeal), m.SID), m.State)
	dst, err := appendString(dst, m.Reason)
	if err != nil {
		return nil, err
	}
	dst = appendFlag(AppendUvarint(dst, uint64(m.LatencyNS)), m.HasResult)
	if !m.HasResult {
		return dst, nil
	}
	return appendResult(dst, result{m.Rounds, m.Msgs, m.Bytes, m.Outputs})
}

// ---- decoders

func decodeJournalFrame(r *Reader) any {
	from, body := r.ID(), r.prefixed()
	// The nested body must itself be a canonical session-plane frame: a
	// journaled frame that would not have survived the link reader must not
	// survive replay either.
	if !sessionPlane(body) {
		r.Fail("journal frame body is not a session-plane frame")
	}
	if r.Err() == nil {
		_, err := Decode(body)
		r.keep(err)
	}
	return JournalFrame{From: sim.PartyID(from), Body: append([]byte(nil), body...)}
}

func decodeJournalSeal(r *Reader) any {
	sid, state := r.Uvarint(), r.Byte()
	if state < minSealState || state > maxClientState {
		r.Fail("journal seal state %d is not terminal", state)
	}
	m := JournalSeal{SID: sid, State: state, Reason: r.Str(), LatencyNS: r.latency(), HasResult: r.Flag()}
	if m.HasResult {
		res := r.result()
		m.Rounds, m.Msgs, m.Bytes, m.Outputs = res.rounds, res.msgs, res.bytes, res.outputs
	}
	return m
}

// latency reads a latency in nanoseconds: a uvarint that fits an int64.
func (r *Reader) latency() int64 {
	x := r.Uvarint()
	if x > math.MaxInt64 {
		r.Fail("latency %d out of range", x)
		return 0
	}
	return int64(x)
}
