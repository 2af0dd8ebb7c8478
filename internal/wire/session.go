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

// maxCount bounds the message/byte counters of a SessionDecide and of the
// result tail: they must fit an int64 with room to sum across seats.
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
	dst = appendFlag(dst, m.Done)
	dst = AppendUvarint(dst, uint64(len(m.Payloads)))
	for _, p := range m.Payloads {
		sz, err := encodedSize(p)
		if err != nil {
			return nil, err
		}
		if dst, err = Append(AppendUvarint(dst, uint64(sz)), p); err != nil {
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
	return appendFlag(dst, m.Done), nil
}

func appendSessionOpen(dst []byte, m SessionOpen) ([]byte, error) {
	dst = AppendUvarint(append(dst, Version, TypeSessionOpen), m.SID)
	return appendSpec(dst, spec{m.Tree, m.Seed, m.T, m.Inputs, m.TTLMillis})
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
	dst = AppendUvarint(append(dst, Version, TypeSessionDecide), m.SID)
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

// SessionRoundReader streams one encoded SessionRound: the header fields are
// read by ReadSessionRound, the leaves come one Next at a time, so a receiver
// files k messages and the mark in one pass without a []any in between.
type SessionRoundReader struct {
	SID   uint64
	Round int
	Done  bool

	left int    // leaves not yet read
	r    Reader // over their encodings
}

// ReadSessionRound parses the header of a complete SessionRound body
// (version and type bytes included) and returns the reader over its leaves.
func ReadSessionRound(b []byte) (SessionRoundReader, error) {
	s := SessionRoundReader{r: NewReader(b)}
	if s.r.header() != TypeSessionRound {
		s.r.Fail("not a session round")
	}
	s.head()
	return s, s.r.Err()
}

// head reads the fields after the type byte.
func (s *SessionRoundReader) head() {
	s.SID, s.Round, s.Done = s.r.Uvarint(), s.r.Round(), s.r.Flag()
	// A leaf costs at least its length byte and a two-byte header.
	s.left = s.r.count(3)
}

// Len returns how many leaves Next has yet to return.
func (s *SessionRoundReader) Len() int { return s.left }

// Next decodes the next leaf. ok is false once all k have been returned and
// the frame ended with them; bytes past the last leaf are an error.
func (s *SessionRoundReader) Next() (payload any, ok bool, err error) {
	if s.left == 0 {
		return nil, false, s.r.End()
	}
	payload = s.r.leaf(s.r.Bytes(s.r.Uvarint()))
	if err := s.r.Err(); err != nil {
		return nil, false, err
	}
	s.left--
	return payload, true, nil
}

// leaf decodes b, a complete leaf body nested in the one r reads.
func (r *Reader) leaf(b []byte) any {
	if len(b) >= 2 && !leafTag(b[1]) {
		r.Fail("session payloads do not nest")
	}
	if r.err != nil {
		return nil
	}
	p, err := Decode(b)
	r.keep(err)
	return p
}

func decodeSessionRound(r *Reader) any {
	s := SessionRoundReader{r: *r}
	s.head()
	m := SessionRound{SID: s.SID, Round: s.Round, Done: s.Done}
	if s.left > 0 {
		m.Payloads = make([]any, 0, s.left)
	}
	for {
		p, ok, _ := s.Next()
		if !ok {
			*r = s.r
			return m
		}
		m.Payloads = append(m.Payloads, p)
	}
}

func decodeSessionMsg(r *Reader) any {
	// The nested body is the rest of the frame, a complete leaf frame.
	return SessionMsg{SID: r.Uvarint(), Round: r.Round(), Payload: r.leaf(r.Rest())}
}

// PeekSession reads the type tag and session id of an encoded session-plane
// frame (0x08–0x0C, 0x18) without decoding its payload — the serving mux's
// routing primitive: a data frame goes to the owning engine's shard as raw
// bytes and is decoded there, once, by whoever steps the engine.
func PeekSession(b []byte) (typ byte, sid uint64, err error) {
	r := NewReader(b)
	if typ = r.header(); (typ < TypeSessionMsg || typ > TypeSessionDecide) && typ != TypeSessionRound {
		r.Fail("unknown session type 0x%02x", typ)
	}
	sid = r.Uvarint()
	return typ, sid, r.Err()
}
