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
// contract — Encode(Decode(b)) == b and an exact Sizer — so the
// golden-frame and fuzz harnesses cover them unchanged. Journal records
// never travel on peer or client links; they live inside CRC-framed journal
// segments (see internal/journal for the on-disk record framing).

import (
	"encoding/binary"
	"fmt"
	"math"

	"treeaa/internal/sim"
	"treeaa/internal/tree"
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

func (m JournalOpen) Size() int {
	return 2 + sim.UvarintLen(m.SID) + 4 +
		sim.UvarintLen(uint64(len(m.Tree))) + len(m.Tree) + 8 +
		sim.UvarintLen(uint64(m.T)) +
		sim.UvarintLen(uint64(len(m.Inputs))) + len(m.Inputs) +
		sim.UvarintLen(m.TTLMillis) + 8
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

func (m JournalFrame) Size() int {
	return 2 + 4 + sim.UvarintLen(uint64(len(m.Body))) + len(m.Body)
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

func (m JournalSeal) Size() int {
	sz := 2 + sim.UvarintLen(m.SID) + 1 +
		sim.UvarintLen(uint64(len(m.Reason))) + len(m.Reason) +
		sim.UvarintLen(uint64(m.LatencyNS)) + 1
	if m.HasResult {
		sz += sim.UvarintLen(uint64(m.Rounds)) +
			sim.UvarintLen(uint64(m.Msgs)) + sim.UvarintLen(uint64(m.Bytes)) +
			sim.UvarintLen(uint64(len(m.Outputs))) + 8*len(m.Outputs)
	}
	return sz
}

// minSealState is the smallest terminal session.State (StateDecided).
const minSealState byte = 2

// ---- encoders

func appendJournalOpen(dst []byte, m JournalOpen) ([]byte, error) {
	if m.T < 0 || m.T > math.MaxInt32 {
		return nil, fmt.Errorf("wire: journal open t %d out of range", m.T)
	}
	dst = append(dst, Version, TypeJournalOpen)
	dst = AppendUvarint(dst, m.SID)
	dst, err := appendID(dst, int(m.Origin))
	if err != nil {
		return nil, err
	}
	if dst, err = appendString(dst, m.Tree); err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Seed))
	dst = AppendUvarint(dst, uint64(m.T))
	if dst, err = appendString(dst, m.Inputs); err != nil {
		return nil, err
	}
	dst = AppendUvarint(dst, m.TTLMillis)
	return binary.BigEndian.AppendUint64(dst, uint64(m.DeadlineUnixNano)), nil
}

func appendJournalFrame(dst []byte, m JournalFrame) ([]byte, error) {
	if len(m.Body) > maxLen {
		return nil, fmt.Errorf("wire: journal frame body of %d bytes exceeds limit", len(m.Body))
	}
	if len(m.Body) < 2 || m.Body[1] < TypeSessionMsg || m.Body[1] > TypeSessionDecide {
		return nil, fmt.Errorf("wire: journal frame body must be a session-plane frame")
	}
	dst = append(dst, Version, TypeJournalFrame)
	dst, err := appendID(dst, int(m.From))
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
	dst = append(dst, Version, TypeJournalSeal)
	dst = AppendUvarint(dst, m.SID)
	dst = append(dst, m.State)
	dst, err := appendString(dst, m.Reason)
	if err != nil {
		return nil, err
	}
	dst = AppendUvarint(dst, uint64(m.LatencyNS))
	if !m.HasResult {
		return append(dst, 0), nil
	}
	if m.Rounds < 0 || m.Rounds > math.MaxInt32 {
		return nil, fmt.Errorf("wire: journal seal rounds %d out of range", m.Rounds)
	}
	if m.Msgs < 0 || uint64(m.Msgs) > maxCount || m.Bytes < 0 || uint64(m.Bytes) > maxCount {
		return nil, fmt.Errorf("wire: journal seal counters %d/%d out of range", m.Msgs, m.Bytes)
	}
	dst = append(dst, 1)
	dst = AppendUvarint(dst, uint64(m.Rounds))
	dst = AppendUvarint(dst, uint64(m.Msgs))
	dst = AppendUvarint(dst, uint64(m.Bytes))
	dst = AppendUvarint(dst, uint64(len(m.Outputs)))
	prev := -1
	for _, pair := range m.Outputs {
		if int(pair.Party) <= prev {
			return nil, fmt.Errorf("wire: journal seal outputs not strictly ascending at party %d", pair.Party)
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

func decodeJournalOpen(b []byte) (any, []byte, error) {
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	origin, b, err := consumeID(b)
	if err != nil {
		return nil, nil, err
	}
	treeSpec, b, err := consumeString(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 8 {
		return nil, nil, malformed("truncated journal open seed")
	}
	seed := int64(binary.BigEndian.Uint64(b))
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
	if len(b) < 8 {
		return nil, nil, malformed("truncated journal open deadline")
	}
	deadline := int64(binary.BigEndian.Uint64(b))
	b = b[8:]
	return JournalOpen{SID: sid, Origin: sim.PartyID(origin), Tree: treeSpec,
		Seed: seed, T: t, Inputs: inputs, TTLMillis: ttl,
		DeadlineUnixNano: deadline}, b, nil
}

func decodeJournalFrame(b []byte) (any, []byte, error) {
	from, b, err := consumeID(b)
	if err != nil {
		return nil, nil, err
	}
	n, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > maxLen || n > uint64(len(b)) {
		return nil, nil, malformed("journal frame body length %d exceeds buffer", n)
	}
	body := append([]byte(nil), b[:n]...)
	b = b[n:]
	// The nested body must itself be a canonical session-plane frame: a
	// journaled frame that would not have survived the link reader must not
	// survive replay either.
	if len(body) < 2 || body[1] < TypeSessionMsg || body[1] > TypeSessionDecide {
		return nil, nil, malformed("journal frame body is not a session-plane frame")
	}
	if _, err := Decode(body); err != nil {
		return nil, nil, fmt.Errorf("%w (nested journal frame body)", err)
	}
	return JournalFrame{From: sim.PartyID(from), Body: body}, b, nil
}

func decodeJournalSeal(b []byte) (any, []byte, error) {
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 1 {
		return nil, nil, malformed("truncated journal seal state")
	}
	state := b[0]
	if state < minSealState || state > maxClientState {
		return nil, nil, malformed("journal seal state %d is not terminal", state)
	}
	b = b[1:]
	reason, b, err := consumeString(b)
	if err != nil {
		return nil, nil, err
	}
	lat, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if lat > uint64(math.MaxInt64) {
		return nil, nil, malformed("journal seal latency %d out of range", lat)
	}
	if len(b) < 1 {
		return nil, nil, malformed("truncated journal seal flags")
	}
	flags := b[0]
	if flags&^byte(0x01) != 0 {
		return nil, nil, malformed("unknown journal seal flags %#x", flags)
	}
	b = b[1:]
	m := JournalSeal{SID: sid, State: state, Reason: reason, LatencyNS: int64(lat)}
	if flags&0x01 == 0 {
		return m, b, nil
	}
	m.HasResult = true
	if m.Rounds, b, err = consumeIter(b); err != nil {
		return nil, nil, err
	}
	if m.Msgs, b, err = consumeCount(b); err != nil {
		return nil, nil, err
	}
	if m.Bytes, b, err = consumeCount(b); err != nil {
		return nil, nil, err
	}
	count, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(MaxIDValue)+1 || 8*count > uint64(len(b)) {
		return nil, nil, malformed("journal seal output count %d exceeds buffer", count)
	}
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
			return nil, nil, malformed("journal seal outputs not strictly ascending at party %d", party)
		}
		prev = party
		m.Outputs = append(m.Outputs, OutputPair{Party: sim.PartyID(party), V: tree.VertexID(v)})
	}
	return m, b, nil
}
