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
// and the first frame of every connection must be a hello.
//
//	hello:  magic(4) | transport version(1) | uvarint(session) |
//	        u32(from) | u32(to) | u32(n) | flags(1)   (bit 0: resume)
//	ack:    uvarint(frames received on this link)
//	mirror: uvarint(round) | u32(real recipient) | wire body
//	round:  wire.SessionRound body (FrameMuxSession envelope)
//
// The hello emulates the model's authenticated links: a connection speaks
// for exactly one ordered pair (from, to) within one session, and the
// receiver attributes every subsequent frame on it to that sender. The
// round frame is internal/driver's: everything the sender has for this peer
// in one round, and its end-of-round mark. It is the synchronization barrier
// of the lock-step round structure — a party that holds round r's frame from
// every peer knows its round-r inbox is complete — and the same frame the
// serving mux carries, so this package neither builds nor decodes it.
//
// A hello with the resume flag re-establishes a link whose connection died
// (version 2 of the framing, added with the chaos subsystem): the receiver
// answers with a hello-ack carrying how many post-hello frames it has
// received and processed on that link, and the dialer replays everything
// after that point from its resend buffer. The ack is the only frame that
// ever travels "backwards" on a connection.
const (
	frameHello    byte = 0x01
	frameMirror   byte = 0x03
	frameHelloAck byte = 0x05

	// FrameMuxSession is the envelope tag of a wire session body: a
	// wire.SessionRound on every mesh link, this package's and the serving
	// mux's (internal/session), and on the mux also SessionOpen, SessionAbort
	// and SessionDecide. FrameMuxHello opens a duplex daemon-pair link of the
	// mux, which shares this package's length-prefixed stream format so
	// FrameInfo can classify its traffic too. Distinct tags are required
	// because wire.Version (0x01) collides with frameHello as a first body
	// byte.
	FrameMuxSession byte = 0x06
	FrameMuxHello   byte = 0x07

	// transportVersion is independent of wire.Version: framing and payload
	// codec can evolve separately. Version 2 added the hello flags byte and
	// the hello-ack frame for the reconnect path; version 3 carries a round
	// as one round frame where version 2 spoke a msg frame per message, an
	// eor and an async-done (tags 0x02, 0x04, 0x08, now refused), so the
	// hello keeps a mixed fleet from pairing at all.
	transportVersion byte = 3

	// MaxFrameSize bounds a frame body on a peer link; a malformed length
	// prefix can never force a larger allocation.
	MaxFrameSize = 1 << 24

	// helloResumeFlag marks a hello as re-establishing an existing link.
	helloResumeFlag byte = 0x01
)

// helloMagic opens every connection; it doubles as a cheap port-collision
// detector (a stray client speaking another protocol fails immediately).
var helloMagic = [4]byte{'T', 'A', 'A', '1'}

// hello is the parsed first frame of a connection.
type hello struct {
	session  uint64
	from, to sim.PartyID
	n        int
	resume   bool
}

// AppendFrame is the stream framing, this package's and the session mux's:
// it appends uvarint(len(body)) | body to dst. The body's first byte must be
// a frame type tag (the mux uses FrameMuxSession / FrameMuxHello).
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
// whose frames are retained briefly (the session mux hands bodies to shard
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

func encodeHello(h hello) []byte {
	body := make([]byte, 0, 24)
	body = append(body, frameHello)
	body = append(body, helloMagic[:]...)
	body = append(body, transportVersion)
	body = wire.AppendUvarint(body, h.session)
	body = wire.AppendU32(body, uint32(h.from))
	body = wire.AppendU32(body, uint32(h.to))
	body = wire.AppendU32(body, uint32(h.n))
	var flags byte
	if h.resume {
		flags |= helloResumeFlag
	}
	body = append(body, flags)
	return AppendFrame(nil, body)
}

// encodeHelloAck builds the receiver's answer to a resume hello: how many
// post-hello frames it holds on the link, so the dialer's replay starts at
// the first missing frame.
func encodeHelloAck(rcvd uint64) []byte {
	body := make([]byte, 0, 12)
	body = append(body, frameHelloAck)
	body = wire.AppendUvarint(body, rcvd)
	return AppendFrame(nil, body)
}

// parseHelloAck decodes a hello-ack frame body.
func parseHelloAck(body []byte) (uint64, error) {
	if len(body) < 1 || body[0] != frameHelloAck {
		return 0, fmt.Errorf("transport: expected hello-ack frame")
	}
	rcvd, rest, err := wire.ConsumeUvarint(body[1:])
	if err != nil || len(rest) != 0 {
		return 0, fmt.Errorf("transport: malformed hello-ack")
	}
	return rcvd, nil
}

// encodeMirror builds a mirror frame around an already-encoded wire body,
// shared by every recipient of a broadcast; only the envelope differs.
func encodeMirror(round int, to sim.PartyID, body []byte) []byte {
	env := make([]byte, 0, 16+len(body))
	env = append(env, frameMirror)
	env = wire.AppendUvarint(env, uint64(round))
	env = wire.AppendU32(env, uint32(to))
	env = append(env, body...)
	return AppendFrame(nil, env)
}

// parseHello validates a connection's opening frame.
func parseHello(body []byte) (hello, error) {
	var h hello
	if len(body) < 1 || body[0] != frameHello {
		return h, fmt.Errorf("transport: connection did not open with hello")
	}
	b := body[1:]
	if len(b) < 5 || [4]byte(b[:4]) != helloMagic {
		return h, fmt.Errorf("transport: bad hello magic")
	}
	if b[4] != transportVersion {
		return h, fmt.Errorf("transport: peer speaks framing version %d, want %d", b[4], transportVersion)
	}
	b = b[5:]
	session, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return h, fmt.Errorf("transport: bad hello session: %w", err)
	}
	from, b, err := consumePartyID(b)
	if err != nil {
		return h, fmt.Errorf("transport: bad hello sender: %w", err)
	}
	to, b, err := consumePartyID(b)
	if err != nil {
		return h, fmt.Errorf("transport: bad hello target: %w", err)
	}
	nv, b, err := wire.ConsumeU32(b)
	if err != nil || len(b) != 1 {
		return h, fmt.Errorf("transport: malformed hello tail")
	}
	flags := b[0]
	if flags&^helloResumeFlag != 0 {
		return h, fmt.Errorf("transport: unknown hello flags %#x", flags)
	}
	return hello{session: session, from: from, to: to, n: int(nv),
		resume: flags&helloResumeFlag != 0}, nil
}

// parseMirror decodes a mirror frame body, wire payload included, into the
// message it mirrors: what from sent its real recipient in that round.
func parseMirror(from sim.PartyID, body []byte) (sim.Message, error) {
	round, rest, err := consumeRound(body[1:])
	if err != nil {
		return sim.Message{}, err
	}
	to, rest, err := consumePartyID(rest)
	if err != nil {
		return sim.Message{}, err
	}
	payload, err := wire.Decode(rest)
	if err != nil {
		return sim.Message{}, fmt.Errorf("transport: bad payload body: %w", err)
	}
	return sim.Message{From: from, To: to, Round: round, Payload: payload}, nil
}

// FrameInfo peeks at an encoded frame buffer as the transport hands it to
// conn.Write: the round it belongs to, and whether it is a control frame —
// hello, hello-ack, session open-abort-decide, and an event-driven seat's
// decision announcement (an empty done-marked round frame: chaos latency
// windows, which key on rounds, let it pass, because a decided party's
// announcement must not queue behind delayed protocol backlog that its
// already-decided peers will discard anyway). It exists for the chaos
// injector, which wraps connections at the net.Conn boundary and keys its
// fault windows on rounds without re-implementing the framing.
//
// The buffer is classified by its *first* frame: the round engines write
// one frame per call, and the session mux writes batches whose frames all
// left one flush (so a window keyed on the head is as precise as a batched
// link can be — rounds of different sessions interleave freely in a batch
// anyway). ok is false when b does not start with a well-formed frame.
func FrameInfo(b []byte) (round int, control bool, ok bool) {
	n, rest, err := wire.ConsumeUvarint(b)
	if err != nil || uint64(len(rest)) < n || n == 0 {
		return 0, false, false
	}
	body := rest[:n]
	switch body[0] {
	case frameHello, frameHelloAck, FrameMuxHello:
		return 0, true, true
	case frameMirror:
		r, _, err := consumeRound(body[1:])
		return r, false, err == nil
	case FrameMuxSession:
		return muxSessionInfo(body[1:])
	default:
		return 0, false, false
	}
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

func consumePartyID(b []byte) (sim.PartyID, []byte, error) {
	x, rest, err := wire.ConsumeU32(b)
	if err != nil {
		return 0, nil, err
	}
	if x > wire.MaxIDValue {
		return 0, nil, fmt.Errorf("transport: party id %d out of range", x)
	}
	return sim.PartyID(x), rest, nil
}
