package transport

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

func readOne(t *testing.T, stream []byte) []byte {
	t.Helper()
	body, err := ReadFrame(bufio.NewReader(bytes.NewReader(stream)), MaxFrameSize)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return body
}

// TestHelloRoundTrip: the one hello — the mux's — carries the pair, n and
// the deployment hash (a serving cluster's, or a one-shot mesh's session id).
func TestHelloRoundTrip(t *testing.T) {
	from, to, n, hash, err := parseMuxHello(readOne(t, encodeMuxHello(3, 5, 7, 0xDEADBEEF)))
	if err != nil {
		t.Fatal(err)
	}
	if from != 3 || to != 5 || n != 7 || hash != 0xDEADBEEF {
		t.Errorf("hello round trip: got (%d, %d, %d, %#x), want (3, 5, 7, 0xdeadbeef)", from, to, n, hash)
	}
}

// TestHelloRejections: a hello that is not exactly the mux's current one
// never opens a link — among them the hello of a parent-version mesh peer,
// which spoke its own (tag 0x01, magic TAA1, framing version 3, a resume
// flag) and one simplex connection per ordered pair.
func TestHelloRejections(t *testing.T) {
	valid := readOne(t, encodeMuxHello(0, 1, 3, 1))
	version1 := append([]byte{}, valid...)
	version1[5] = 1 // SessionMsg and SessionEOR
	parentMesh := []byte{0x01, 'T', 'A', 'A', '1', 3, 0x01}
	parentMesh = wire.AppendU32(wire.AppendU32(wire.AppendU32(parentMesh, 0), 1), 3)
	parentMesh = append(parentMesh, 0x00)
	cases := map[string][]byte{
		"empty":       {},
		"not hello":   {frameMirror, 1, 0},
		"bad magic":   append([]byte{FrameMuxHello, 'X', 'X', 'X', 'X'}, valid[5:]...),
		"version 1":   version1,
		"trailing":    append(append([]byte{}, valid...), 0),
		"truncated":   valid[:len(valid)-2],
		"parent mesh": parentMesh,
	}
	for name, b := range cases {
		if _, _, _, _, err := parseMuxHello(b); err == nil {
			t.Errorf("%s: parseMuxHello accepted %x", name, b)
		}
	}
}

// The count frame is the hello-ack's successor: same tag (0x05), same
// uvarint body, now sent by both ends of a link generation. The two tests
// below keep the hello-ack's names.

// TestHelloAckRoundTrip: the count a link generation opens with survives
// the codec at every size.
func TestHelloAckRoundTrip(t *testing.T) {
	for _, rcvd := range []uint64{0, 1, 127, 1 << 40} {
		got, err := parseCount(readOne(t, encodeCount(rcvd)))
		if err != nil {
			t.Fatal(err)
		}
		if got != rcvd {
			t.Errorf("count round trip: got %d, want %d", got, rcvd)
		}
	}
}

// TestHelloAckRejections: a malformed count is refused, and the node —
// which sees data frames only — refuses a valid one too.
func TestHelloAckRejections(t *testing.T) {
	valid := readOne(t, encodeCount(42))
	for name, b := range map[string][]byte{
		"empty":      {},
		"wrong type": {frameMirror, 42},
		"no count":   valid[:1],
		"trailing":   append(append([]byte{}, valid...), 0),
	} {
		if _, err := parseCount(b); err == nil {
			t.Errorf("%s: parseCount accepted %x", name, b)
		}
	}
	if err := (&meshNode{}).handle(event{from: 1, body: valid}); err == nil {
		t.Error("a node accepted a count as data")
	}
}

// TestMsgFrameRoundTrip: the per-message codec survives as the mirror
// frame's alone, for a unicast and for a broadcast, which is mirrored once
// under the reserved recipient marker.
func TestMsgFrameRoundTrip(t *testing.T) {
	payload := &gradecast.EchoMsg{Tag: "treeaa/pf", Iter: 3,
		Vals: gradecast.Vec{{ID: 0, Val: 1.5}, {ID: 4, Val: -2}}}
	body, err := wire.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []sim.PartyID{4, sim.Broadcast} {
		got, err := parseMirror(2, readOne(t, encodeMirror(9, to, body)))
		if err != nil {
			t.Fatal(err)
		}
		if want := (sim.Message{From: 2, To: to, Round: 9, Payload: payload}); !reflect.DeepEqual(got, want) {
			t.Errorf("mirror round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestParseFrameRejections: a malformed mirror does not parse, and neither
// an honest node nor the adversary host takes a frame that is not a round or
// (the host) a mirror — a second hello, a stray count, an unknown tag or
// one of the frames a round frame replaced.
func TestParseFrameRejections(t *testing.T) {
	body, err := wire.Encode(&gradecast.SendMsg{Tag: "t", Iter: 1, Val: 2})
	if err != nil {
		t.Fatal(err)
	}
	mirror := readOne(t, encodeMirror(1, 0, body))
	for name, b := range map[string][]byte{
		"round zero":  mirror[:1+1], // truncate past the type byte
		"bad payload": readOne(t, encodeMirror(1, 0, []byte{0xFF, 0xFF})),
		// Above wire.MaxIDValue only the broadcast marker is a recipient.
		"recipient past MaxIDValue": readOne(t, encodeMirror(1, wire.MaxIDValue+1, body)),
		"recipient below marker":    readOne(t, encodeMirror(1, sim.PartyID(mirrorBroadcast-1), body)),
	} {
		if _, err := parseMirror(1, b); err == nil {
			t.Errorf("%s: parseMirror accepted %x", name, b)
		}
	}
	for name, b := range map[string][]byte{
		"unknown type":       {0x7F, 1},
		"second hello":       {FrameMuxHello, 'T', 'A', 'A', 'S'},
		"count":              {frameCount, 0},
		"retired msg":        append([]byte{0x02}, mirror[1:]...),
		"retired eor":        {0x04, 0x01, 0x00},
		"retired async-done": {0x08},
	} {
		if err := (&meshNode{}).handle(event{from: 1, body: b}); err == nil {
			t.Errorf("%s: a node accepted %x", name, b)
		}
		if err := (&hostState{}).handle(event{from: 1, body: b}); err == nil {
			t.Errorf("%s: the adversary host accepted %x", name, b)
		}
	}
	if err := (&meshNode{}).handle(event{from: 1, body: mirror}); err == nil {
		t.Error("an honest node accepted a mirror frame")
	}
}

// TestReadFrameBounds: a hostile length prefix cannot force a huge
// allocation or a zero-length frame.
func TestReadFrameBounds(t *testing.T) {
	huge := wire.AppendUvarint(nil, MaxFrameSize+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge)), MaxFrameSize); err == nil {
		t.Error("ReadFrame accepted an oversized length prefix")
	}
	zero := wire.AppendUvarint(nil, 0)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(zero)), MaxFrameSize); err == nil {
		t.Error("ReadFrame accepted a zero-length frame")
	}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire.AppendUvarint(nil, 100))), MaxFrameSize); err == nil {
		t.Error("ReadFrame accepted a truncated body")
	}
}
