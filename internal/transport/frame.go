package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// Stream framing. Every frame on a connection is
//
//	uvarint(length) | type(1) | fields...
//
// and the first frame of every connection is the mux hello (mux.go), which
// identifies the link without authenticating it: the receiver attributes
// every later frame on it to the party the hello claims, and the dialer
// every frame to the party it dialed. After it, a mesh link carries
//
//	round:  wire.SessionRound body (FrameMuxSession envelope)
//	mirror: uvarint(round) | u32(recipient, or mirrorBroadcast) | wire body
//	count:  uvarint(data frames received from the peer)
//	bye:    no fields
//
// The round frame is internal/driver's: everything the sender has for this
// peer in one round, and its end-of-round mark. It is the synchronization
// barrier of the lock-step round structure — a party that holds round r's
// frame from every peer knows its round-r inbox is complete — and the same
// frame the serving mux carries, so this package neither builds nor decodes
// it. Rounds and mirrors are the mesh's data frames; the count is its resume
// (endpoint.go), sent by both ends as the first frame of every link
// generation, and the bye its end of run: the sender finished and needs
// nothing more, and the bye is the last frame it writes on the link.
const (
	frameMirror byte = 0x03
	frameCount  byte = 0x05
	frameBye    byte = 0x09

	// mirrorBroadcast is a mirror's recipient field for a broadcast: the
	// observer is shown the send once, as the sender made it. Every other
	// value above wire.MaxIDValue is refused.
	mirrorBroadcast uint32 = math.MaxUint32

	// FrameMuxSession is the envelope tag of a wire session body: a
	// wire.SessionRound on every mesh link, this package's and the serving
	// daemon's (internal/session), and on a serving link also SessionOpen,
	// SessionAbort and SessionDecide. FrameMuxHello opens every peer link.
	FrameMuxSession byte = 0x06
	FrameMuxHello   byte = 0x07

	// MaxFrameSize bounds a frame body on a peer link; a malformed length
	// prefix can never force a larger allocation.
	MaxFrameSize = 1 << 24
)

// AppendFrame is the stream framing of every peer link: it appends
// uvarint(len(body)) | body to dst. The body's first byte must be a frame
// type tag.
func AppendFrame(dst, body []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// ReadFrame reads one length-prefixed frame body of at most max bytes from
// the stream. The bound is checked before anything is allocated or read past
// the prefix, so it is what a hostile length can cost the reader.
func ReadFrame(br *bufio.Reader, max int) ([]byte, error) {
	return readFrame(br, max, func(n int) []byte { return make([]byte, n) })
}

func readFrame(br *bufio.Reader, max int, alloc func(int) []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > uint64(max) {
		return nil, fmt.Errorf("transport: frame of %d bytes out of range", n)
	}
	body := alloc(int(n))
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("transport: truncated frame: %w", err)
	}
	return body, nil
}

// ReadArena bump-allocates frame bodies out of large blocks, for readers
// whose frames are retained briefly (a serving link hands bodies to shard
// workers that decode and drop them within a round). One make per ~64KB of
// frames replaces one per frame — per-frame body allocation was a top
// serve-profile cost. A block is reclaimed by the GC once every frame
// sliced from it has been released; the arena itself must not be shared
// across goroutines.
type ReadArena struct {
	buf []byte
}

const readArenaBlock = 64 << 10

func (a *ReadArena) take(n int) []byte {
	if n > len(a.buf) {
		size := readArenaBlock
		if n > size {
			size = n
		}
		a.buf = make([]byte, size)
	}
	b := a.buf[:n:n]
	a.buf = a.buf[n:]
	return b
}

// ReadFrameArena is ReadFrame with the body allocated from the arena.
func ReadFrameArena(br *bufio.Reader, a *ReadArena) ([]byte, error) {
	return readFrame(br, MaxFrameSize, a.take)
}

// encodeCount builds a count frame: how many data frames this end has
// received from the peer, so the peer's resume starts at the first one
// missing.
func encodeCount(rcvd uint64) []byte {
	return AppendFrame(nil, wire.AppendUvarint([]byte{frameCount}, rcvd))
}

var byeFrame = AppendFrame(nil, []byte{frameBye})

// parseCount decodes a count frame body.
func parseCount(body []byte) (uint64, error) {
	if len(body) == 0 || body[0] != frameCount {
		return 0, fmt.Errorf("transport: not a count frame")
	}
	rcvd, rest, err := wire.ConsumeUvarint(body[1:])
	if err != nil || len(rest) != 0 {
		return 0, fmt.Errorf("transport: malformed count frame")
	}
	return rcvd, nil
}

// encodeMirror builds a mirror frame around an already-encoded wire body:
// one send as its sender made it, to one recipient or to sim.Broadcast.
func encodeMirror(round int, to sim.PartyID, body []byte) []byte {
	rcpt := uint32(to)
	if to == sim.Broadcast {
		rcpt = mirrorBroadcast
	}
	env := make([]byte, 0, 16+len(body))
	env = append(env, frameMirror)
	env = wire.AppendUvarint(env, uint64(round))
	env = wire.AppendU32(env, rcpt)
	env = append(env, body...)
	return AppendFrame(nil, env)
}

// parseMirror decodes a mirror frame body, wire payload included, into the
// message it mirrors: what from sent in that round, to one recipient or to
// sim.Broadcast.
func parseMirror(from sim.PartyID, body []byte) (sim.Message, error) {
	round, rest, err := consumeRound(body[1:])
	if err != nil {
		return sim.Message{}, err
	}
	rcpt, rest, err := wire.ConsumeU32(rest)
	if err != nil || (rcpt > wire.MaxIDValue && rcpt != mirrorBroadcast) {
		return sim.Message{}, fmt.Errorf("transport: bad mirror recipient")
	}
	to := sim.PartyID(rcpt)
	if rcpt == mirrorBroadcast {
		to = sim.Broadcast
	}
	payload, err := wire.Decode(rest)
	if err != nil {
		return sim.Message{}, fmt.Errorf("transport: bad payload body: %w", err)
	}
	return sim.Message{From: from, To: to, Round: round, Payload: payload}, nil
}

// FrameInfo peeks at the head frame of an encoded buffer as the link hands
// it to conn.Write: the round it belongs to, whether it is a control frame —
// the hello, a count, a bye, session open-abort-decide, and an event-driven
// seat's decision announcement (an empty done-marked round frame: chaos latency
// windows, which key on rounds, let it pass, because a decided party's
// announcement must not queue behind delayed protocol backlog that its
// already-decided peers will discard anyway) — and its encoded size, length
// prefix included, which is 0 when b does not start with a well-formed
// frame. It exists for the chaos injector, which wraps connections at the
// net.Conn boundary and keys its fault windows on rounds without
// re-implementing the framing. A link writes batches, so a write is walked
// frame by frame: b[size:] starts the next one.
func FrameInfo(b []byte) (round int, control bool, size int) {
	n, rest, err := wire.ConsumeUvarint(b)
	if err != nil || uint64(len(rest)) < n || n == 0 {
		return 0, false, 0
	}
	size = len(b) - len(rest) + int(n)
	ok := true
	switch body := rest[:n]; body[0] {
	case FrameMuxHello, frameCount, frameBye:
		control = true
	case frameMirror:
		round, _, err = consumeRound(body[1:])
		ok = err == nil
	case FrameMuxSession:
		round, control, ok = muxSessionInfo(body[1:])
	default:
		ok = false
	}
	if !ok {
		return 0, false, 0
	}
	return round, control, size
}

// muxSessionInfo classifies one wire session body: a SessionRound carries a
// round; SessionOpen, SessionAbort and SessionDecide are session-control
// traffic with none.
func muxSessionInfo(b []byte) (round int, control bool, ok bool) {
	if len(b) < 2 || b[0] != wire.Version {
		return 0, false, false
	}
	switch b[1] {
	case wire.TypeSessionOpen, wire.TypeSessionAbort, wire.TypeSessionDecide:
		return 0, true, true
	case wire.TypeSessionRound:
		return driver.PeekFrame(b)
	default:
		return 0, false, false
	}
}

func consumeRound(b []byte) (int, []byte, error) {
	r, rest, err := wire.ConsumeUvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: bad round: %w", err)
	}
	if r == 0 || r > math.MaxInt32 {
		return 0, nil, fmt.Errorf("transport: round %d out of range", r)
	}
	return int(r), rest, nil
}
