package transport

// go test -run FuzzLinkFrames -fuzz FuzzLinkFrames ./internal/transport/ —
// in make fuzz and fuzz-short. The link's own frame parsers read what a peer
// sends before anything else has vetted it: the hello, the count, the
// mirror, and FrameInfo's walk over the frames of a write. The invariants
// are: none of them panics, FrameInfo never claims more bytes than it was
// given, and an accepted hello, count or mirror re-encodes to the same
// frame.

import (
	"bytes"
	"testing"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

func FuzzLinkFrames(f *testing.F) {
	leaf, err := wire.Encode(&gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5})
	if err != nil {
		f.Fatal(err)
	}
	round, err := wire.Append([]byte{FrameMuxSession}, wire.SessionRound{SID: 7, Round: 2, Done: true,
		Payloads: []any{&gradecast.SendMsg{Tag: "t", Iter: 1, Val: 1}}})
	if err != nil {
		f.Fatal(err)
	}
	for _, frame := range [][]byte{
		encodeMuxHello(0, 1, 4, 0xDEADBEEF),
		encodeMuxHello(wire.MaxIDValue, 0, wire.MaxIDValue, 1<<63),
		encodeCount(0),
		encodeCount(1 << 40),
		encodeMirror(3, 2, leaf),
		encodeMirror(1, sim.Broadcast, leaf),
		byeFrame,
		AppendFrame(nil, round),
	} {
		f.Add(frame)
		f.Add(headBody(frame))
		f.Add(frame[:len(frame)-1])
		f.Add(append(append([]byte{}, frame...), frame...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for rest := b; len(rest) > 0; {
			_, _, size := FrameInfo(rest)
			if size == 0 {
				break
			}
			if size > len(rest) {
				t.Fatalf("FrameInfo(%x) claims %d bytes of %d", rest, size, len(rest))
			}
			checkLinkBody(t, headBody(rest))
			rest = rest[size:]
		}
		checkLinkBody(t, b)
	})
}

// checkLinkBody runs every parser of a link frame body over body and holds
// what one accepts to its encoder.
func checkLinkBody(t *testing.T, body []byte) {
	frame := AppendFrame(nil, body)
	if from, to, n, hash, err := parseMuxHello(body); err == nil {
		if re := encodeMuxHello(from, to, n, hash); !bytes.Equal(re, frame) {
			t.Fatalf("accepted hello %x re-encodes to %x", frame, re)
		}
	}
	if rcvd, err := parseCount(body); err == nil {
		if re := encodeCount(rcvd); !bytes.Equal(re, frame) {
			t.Fatalf("accepted count %x re-encodes to %x", frame, re)
		}
	}
	if m, err := parseMirror(1, body); err == nil {
		payload, err := wire.Encode(m.Payload)
		if err != nil {
			t.Fatalf("accepted mirror %x: payload does not re-encode: %v", frame, err)
		}
		if re := encodeMirror(m.Round, m.To, payload); !bytes.Equal(re, frame) {
			t.Fatalf("accepted mirror %x re-encodes to %x", frame, re)
		}
	}
}
