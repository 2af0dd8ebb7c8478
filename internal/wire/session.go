package wire

// Session-scoped payloads for the serving layer (internal/session): a daemon
// hosts many concurrent TreeAA sessions over one set of peer links, so every
// frame it puts on a link carries the session id it belongs to (a one-shot
// mesh link belongs to one execution and carries id 0). The types are
//
//	SessionRound  0x18  everything a seat sends one peer in one engine turn,
//	                    with its end-of-round mark:
//	                    uvarint(sid) | uvarint(round) | flags(1) (bit 0: done)
//	                    | uvarint(k) | k × (uvarint(len) | leaf body)
//	SessionMsg    0x08  one protocol message inside a session:
//	                    uvarint(sid) | uvarint(round) | nested leaf body
//	SessionEOR    0x09  per-session end-of-round barrier:
//	                    uvarint(sid) | uvarint(round) | flags(1) (bit 0: done)
//	SessionOpen   0x0A  origin announces a new session to its peers:
//	                    uvarint(sid) | space spec | seed(8, big-endian two's
//	                    complement) | uvarint(t) | input spec | uvarint(ttl ms)
//	SessionAbort  0x0B  terminal failure broadcast (admission rejection,
//	                    deadline eviction, engine error):
//	                    uvarint(sid) | reason string
//	SessionDecide 0x0C  a seat reports its terminal record to the origin:
//	                    uvarint(sid) | u32(party) | u32(vertex) |
//	                    uvarint(done round) | uvarint(term round) |
//	                    uvarint(msgs) | uvarint(bytes)
//
// SessionRound is the one data-plane frame of every mesh link — the serving
// mux's and the one-shot transport's; internal/driver writes and reads it: a
// lock-step seat ships one per peer per round, an async seat one per message
// (k = 1) and one empty done-marked frame as its decision announcement.
// SessionMsg and SessionEOR, which it replaced on the mux, stay exported for
// the benchmark's frozen wire replay alone: no daemon emits or accepts them.
// A leaf is one of the protocol payloads (the four synchronous types, the
// two async ones): session, client, journal and overlay payloads never nest,
// and both Append and Decode reject the attempt. All types keep the package's
// canonicality contract — Encode(Decode(b)) == b — so the golden-frame and
// fuzz harnesses cover them unchanged; SessionRound alone of them is a
// sim.Sizer, because driver.Framer writes its exact length ahead of it.

import (
	"encoding/binary"
	"fmt"
	"math"

	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Session type tags (continuing the leaf payload tags 0x01–0x07).
const (
	TypeSessionMsg    byte = 0x08
	TypeSessionEOR    byte = 0x09
	TypeSessionOpen   byte = 0x0A
	TypeSessionAbort  byte = 0x0B
	TypeSessionDecide byte = 0x0C
	// TypeSessionRound continues after the async tags 0x16–0x17.
	TypeSessionRound byte = 0x18
)

// maxCount bounds the message/byte counters in a SessionDecide: they must
// fit an int64 with room to sum across seats.
const maxCount = uint64(1) << 62

// SessionMsg wraps one leaf protocol payload with the session id and round
// it belongs to. It is the unit the serving mux demultiplexes on.
type SessionMsg struct {
	SID     uint64
	Round   int
	Payload any
}

// SessionEOR is the per-session round barrier: the last frame a seat emits
// for (sid, round), with Done marking its machine as terminated.
type SessionEOR struct {
	SID   uint64
	Round int
	Done  bool
}

// SessionRound carries everything a seat sends one peer in one engine turn
// of round Round — k leaf payloads in emission order — together with the
// seat's end-of-round mark (Done: its machine has terminated). Receivers
// stream it with ReadSessionRound; Decode materialises Payloads.
type SessionRound struct {
	SID      uint64
	Round    int
	Done     bool
	Payloads []any
}

// Size implements sim.Sizer exactly: each leaf contributes its own wire size
// and its length prefix.
func (m SessionRound) Size() int {
	sz := 2 + sim.UvarintLen(m.SID) + sim.UvarintLen(uint64(m.Round)) + 1 +
		sim.UvarintLen(uint64(len(m.Payloads)))
	for _, p := range m.Payloads {
		n := sim.PayloadSize(p)
		sz += sim.UvarintLen(uint64(n)) + n
	}
	return sz
}

// SessionOpen announces a new session from its origin daemon to every peer:
// the full spec a seat needs to build its machine deterministically.
type SessionOpen struct {
	SID       uint64
	Tree      string // cli.ParseSpaceSpec input, verbatim: "path:16", or "graph:cliquechain:3:4"
	Seed      int64  // space-spec seed (random shapes); fixed 8-byte encoding
	T         int    // corruption budget the machines are built with
	Inputs    string // cli.ParseInputs spec; "" means spread placement
	TTLMillis uint64 // session deadline; 0 means the server default
}

// SessionAbort broadcasts a terminal failure for a session.
type SessionAbort struct {
	SID    uint64
	Reason string
}

// SessionDecide is a seat's terminal record, sent to the session's origin,
// which assembles the N records into the sim.Run-identical Result.
type SessionDecide struct {
	SID       uint64
	Party     sim.PartyID
	V         tree.VertexID
	DoneRound int // round the machine first produced its output
	TermRound int // round the seat terminated (done + all peers done)
	Msgs      int // messages this seat sent in rounds 1..TermRound
	Bytes     int // payload bytes this seat sent in rounds 1..TermRound
}

// ---- encoders

func appendSessionHeader(dst []byte, typ byte, sid uint64, round int) ([]byte, error) {
	if round < 1 || round > math.MaxInt32 {
		return nil, fmt.Errorf("wire: session round %d out of range", round)
	}
	dst = append(dst, Version, typ)
	dst = AppendUvarint(dst, sid)
	return AppendUvarint(dst, uint64(round)), nil
}

// leafTag is encodedSize's leaf test on an encoded body's type tag.
// Client-plane frames (0x0D–0x10), journal records (0x11–0x13) and overlay
// envelopes (0x14–0x15) are barred from peer links like the session types
// themselves; the async leaves 0x16–0x17 may nest.
func leafTag(typ byte) bool {
	return (typ < TypeSessionMsg || typ > TypeOverlayEOR) && typ != TypeSessionRound
}

// AppendSessionRound is Append without boxing the frame: m.Size() bytes.
func AppendSessionRound(dst []byte, m SessionRound) ([]byte, error) {
	if len(m.Payloads) > maxLen {
		return nil, fmt.Errorf("wire: session round of %d payloads exceeds limit", len(m.Payloads))
	}
	dst, err := appendSessionHeader(dst, TypeSessionRound, m.SID, m.Round)
	if err != nil {
		return nil, err
	}
	var flags byte
	if m.Done {
		flags |= 0x01
	}
	dst = append(dst, flags)
	dst = AppendUvarint(dst, uint64(len(m.Payloads)))
	for _, p := range m.Payloads {
		sz, err := encodedSize(p)
		if err != nil {
			return nil, err
		}
		dst = AppendUvarint(dst, uint64(sz))
		if dst, err = Append(dst, p); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendSessionMsg(dst []byte, m SessionMsg) ([]byte, error) {
	if _, err := encodedSize(m.Payload); err != nil {
		return nil, err
	}
	dst, err := appendSessionHeader(dst, TypeSessionMsg, m.SID, m.Round)
	if err != nil {
		return nil, err
	}
	return Append(dst, m.Payload)
}

func appendSessionEOR(dst []byte, m SessionEOR) ([]byte, error) {
	dst, err := appendSessionHeader(dst, TypeSessionEOR, m.SID, m.Round)
	if err != nil {
		return nil, err
	}
	var flags byte
	if m.Done {
		flags |= 0x01
	}
	return append(dst, flags), nil
}

func appendSessionOpen(dst []byte, m SessionOpen) ([]byte, error) {
	if m.T < 0 || m.T > math.MaxInt32 {
		return nil, fmt.Errorf("wire: session t %d out of range", m.T)
	}
	dst = append(dst, Version, TypeSessionOpen)
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
	return AppendUvarint(dst, m.TTLMillis), nil
}

func appendSessionAbort(dst []byte, m SessionAbort) ([]byte, error) {
	dst = append(dst, Version, TypeSessionAbort)
	dst = AppendUvarint(dst, m.SID)
	return appendString(dst, m.Reason)
}

func appendSessionDecide(dst []byte, m SessionDecide) ([]byte, error) {
	if m.DoneRound < 1 || m.DoneRound > math.MaxInt32 ||
		m.TermRound < 1 || m.TermRound > math.MaxInt32 {
		return nil, fmt.Errorf("wire: decide rounds %d/%d out of range", m.DoneRound, m.TermRound)
	}
	if m.Msgs < 0 || uint64(m.Msgs) > maxCount || m.Bytes < 0 || uint64(m.Bytes) > maxCount {
		return nil, fmt.Errorf("wire: decide counters %d/%d out of range", m.Msgs, m.Bytes)
	}
	dst = append(dst, Version, TypeSessionDecide)
	dst = AppendUvarint(dst, m.SID)
	dst, err := appendID(dst, int(m.Party))
	if err != nil {
		return nil, err
	}
	if dst, err = appendID(dst, int(m.V)); err != nil {
		return nil, err
	}
	dst = AppendUvarint(dst, uint64(m.DoneRound))
	dst = AppendUvarint(dst, uint64(m.TermRound))
	dst = AppendUvarint(dst, uint64(m.Msgs))
	return AppendUvarint(dst, uint64(m.Bytes)), nil
}

// ---- decoders

func consumeSessionRound(b []byte) (int, []byte, error) {
	r, rest, err := ConsumeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if r == 0 || r > math.MaxInt32 {
		return 0, nil, malformed("session round %d out of range", r)
	}
	return int(r), rest, nil
}

// SessionRoundReader streams one encoded SessionRound: the header fields are
// read by ReadSessionRound, the leaves come one Next at a time, so a receiver
// files k messages and the mark in one pass without a []any in between.
type SessionRoundReader struct {
	SID   uint64
	Round int
	Done  bool

	left int    // leaves not yet read
	rest []byte // their encodings
}

// ReadSessionRound parses the header of a complete SessionRound body
// (version and type bytes included) and returns the reader over its leaves.
func ReadSessionRound(b []byte) (SessionRoundReader, error) {
	if len(b) < 2 || b[0] != Version || b[1] != TypeSessionRound {
		return SessionRoundReader{}, malformed("not a session round")
	}
	return readSessionRound(b[2:])
}

func readSessionRound(b []byte) (r SessionRoundReader, err error) {
	if r.SID, b, err = ConsumeUvarint(b); err != nil {
		return r, err
	}
	if r.Round, b, err = consumeSessionRound(b); err != nil {
		return r, err
	}
	if len(b) < 1 {
		return r, malformed("truncated session round")
	}
	flags := b[0]
	if flags&^byte(0x01) != 0 {
		return r, malformed("unknown session round flags %#x", flags)
	}
	r.Done = flags&0x01 != 0
	k, b, err := ConsumeUvarint(b[1:])
	if err != nil {
		return r, err
	}
	// A leaf costs at least its length byte and a two-byte header.
	if k > maxLen || k*3 > uint64(len(b)) {
		return r, malformed("session round count %d exceeds buffer", k)
	}
	r.left, r.rest = int(k), b
	return r, nil
}

// Len returns how many leaves Next has yet to return.
func (r *SessionRoundReader) Len() int { return r.left }

// Next decodes the next leaf. ok is false once all k have been returned and
// the frame ended with them; bytes past the last leaf are an error.
func (r *SessionRoundReader) Next() (payload any, ok bool, err error) {
	if r.left == 0 {
		if len(r.rest) != 0 {
			return nil, false, malformed("%d trailing bytes", len(r.rest))
		}
		return nil, false, nil
	}
	n, b, err := ConsumeUvarint(r.rest)
	if err != nil {
		return nil, false, err
	}
	if n > uint64(len(b)) {
		return nil, false, malformed("leaf length %d exceeds buffer", n)
	}
	if n >= 2 && !leafTag(b[1]) {
		return nil, false, malformed("session payloads do not nest")
	}
	if payload, err = Decode(b[:n]); err != nil {
		return nil, false, err
	}
	r.left, r.rest = r.left-1, b[n:]
	return payload, true, nil
}

func decodeSessionRound(b []byte) (any, []byte, error) {
	r, err := readSessionRound(b)
	if err != nil {
		return nil, nil, err
	}
	m := SessionRound{SID: r.SID, Round: r.Round, Done: r.Done}
	if r.left > 0 {
		m.Payloads = make([]any, 0, r.left)
	}
	for {
		p, ok, err := r.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return m, nil, nil
		}
		m.Payloads = append(m.Payloads, p)
	}
}

func decodeSessionMsg(b []byte) (any, []byte, error) {
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	round, b, err := consumeSessionRound(b)
	if err != nil {
		return nil, nil, err
	}
	// The nested body must be a complete leaf frame: Decode consumes the
	// whole remaining buffer and rejects nested session types itself (they
	// would re-enter this switch; the explicit check keeps the error crisp).
	if len(b) >= 2 && !leafTag(b[1]) {
		return nil, nil, malformed("session payloads do not nest")
	}
	payload, err := Decode(b)
	if err != nil {
		return nil, nil, err
	}
	return SessionMsg{SID: sid, Round: round, Payload: payload}, nil, nil
}

func decodeSessionEOR(b []byte) (any, []byte, error) {
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	round, b, err := consumeSessionRound(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 1 {
		return nil, nil, malformed("truncated session eor")
	}
	flags := b[0]
	if flags&^byte(0x01) != 0 {
		return nil, nil, malformed("unknown session eor flags %#x", flags)
	}
	return SessionEOR{SID: sid, Round: round, Done: flags&0x01 != 0}, b[1:], nil
}

func decodeSessionOpen(b []byte) (any, []byte, error) {
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	treeSpec, b, err := consumeString(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 8 {
		return nil, nil, malformed("truncated session seed")
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
	return SessionOpen{SID: sid, Tree: treeSpec, Seed: seed, T: t,
		Inputs: inputs, TTLMillis: ttl}, b, nil
}

func decodeSessionAbort(b []byte) (any, []byte, error) {
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	reason, b, err := consumeString(b)
	if err != nil {
		return nil, nil, err
	}
	return SessionAbort{SID: sid, Reason: reason}, b, nil
}

func decodeSessionDecide(b []byte) (any, []byte, error) {
	sid, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	party, b, err := consumeID(b)
	if err != nil {
		return nil, nil, err
	}
	v, b, err := consumeID(b)
	if err != nil {
		return nil, nil, err
	}
	doneRound, b, err := consumeSessionRound(b)
	if err != nil {
		return nil, nil, err
	}
	termRound, b, err := consumeSessionRound(b)
	if err != nil {
		return nil, nil, err
	}
	msgs, b, err := consumeCount(b)
	if err != nil {
		return nil, nil, err
	}
	bytesSent, b, err := consumeCount(b)
	if err != nil {
		return nil, nil, err
	}
	return SessionDecide{SID: sid, Party: sim.PartyID(party), V: tree.VertexID(v),
		DoneRound: doneRound, TermRound: termRound, Msgs: msgs, Bytes: bytesSent}, b, nil
}

func consumeCount(b []byte) (int, []byte, error) {
	x, rest, err := ConsumeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if x > maxCount {
		return 0, nil, malformed("counter %d out of range", x)
	}
	return int(x), rest, nil
}
