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

func TestHelloRoundTrip(t *testing.T) {
	want := hello{session: 0xDEADBEEF, from: 3, to: 5, n: 7}
	got, err := parseHello(readOne(t, encodeHello(want)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("hello round trip: got %+v, want %+v", got, want)
	}
}

func TestHelloResumeRoundTrip(t *testing.T) {
	want := hello{session: 0x1234, from: 2, to: 0, n: 4, resume: true}
	got, err := parseHello(readOne(t, encodeHello(want)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resume hello round trip: got %+v, want %+v", got, want)
	}
}

func TestHelloRejections(t *testing.T) {
	valid := readOne(t, encodeHello(hello{session: 1, from: 0, to: 1, n: 3}))
	unknownFlags := append([]byte{}, valid...)
	unknownFlags[len(unknownFlags)-1] = 0x80
	cases := map[string][]byte{
		"empty":         {},
		"not hello":     {frameMirror, 1, 0},
		"bad magic":     append([]byte{frameHello, 'X', 'X', 'X', 'X'}, valid[5:]...),
		"bad version":   append([]byte{frameHello, 'T', 'A', 'A', '1', 99}, valid[6:]...),
		"version 2":     append([]byte{frameHello, 'T', 'A', 'A', '1', 2}, valid[6:]...), // one frame per message, eor, async-done
		"trailing":      append(append([]byte{}, valid...), 0),
		"truncated":     valid[:len(valid)-2],
		"no flags":      valid[:len(valid)-1],
		"unknown flags": unknownFlags,
	}
	for name, b := range cases {
		if _, err := parseHello(b); err == nil {
			t.Errorf("%s: parseHello accepted %x", name, b)
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, rcvd := range []uint64{0, 1, 127, 1 << 40} {
		got, err := parseHelloAck(readOne(t, encodeHelloAck(rcvd)))
		if err != nil {
			t.Fatal(err)
		}
		if got != rcvd {
			t.Errorf("hello-ack round trip: got %d, want %d", got, rcvd)
		}
	}
}

func TestHelloAckRejections(t *testing.T) {
	valid := readOne(t, encodeHelloAck(42))
	cases := map[string][]byte{
		"empty":      {},
		"wrong type": {frameMirror, 42},
		"no count":   valid[:1],
		"trailing":   append(append([]byte{}, valid...), 0),
	}
	for name, b := range cases {
		if _, err := parseHelloAck(b); err == nil {
			t.Errorf("%s: parseHelloAck accepted %x", name, b)
		}
	}
	// A hello-ack must never appear in the forward frame stream.
	if err := (&meshNode{}).handle(event{from: 1, body: valid}); err == nil {
		t.Error("a node accepted a hello-ack on the read side")
	}
}

// TestMsgFrameRoundTrip: the per-message codec survives as the mirror
// frame's alone.
func TestMsgFrameRoundTrip(t *testing.T) {
	payload := gradecast.EchoMsg{Tag: "treeaa/pf", Iter: 3,
		Vals: gradecast.Vec{{ID: 0, Val: 1.5}, {ID: 4, Val: -2}}}
	body, err := wire.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseMirror(2, readOne(t, encodeMirror(9, 4, body)))
	if err != nil {
		t.Fatal(err)
	}
	if want := (sim.Message{From: 2, To: 4, Round: 9, Payload: payload}); !reflect.DeepEqual(got, want) {
		t.Errorf("mirror round trip: got %+v, want %+v", got, want)
	}
}

// TestParseFrameRejections: a malformed mirror does not parse, and neither
// an honest node nor the adversary host takes a frame that is not a round or
// (the host) a mirror — a second hello, a stray hello-ack, an unknown tag or
// one of the version-2 frames a round frame replaced.
func TestParseFrameRejections(t *testing.T) {
	body, err := wire.Encode(gradecast.SendMsg{Tag: "t", Iter: 1, Val: 2})
	if err != nil {
		t.Fatal(err)
	}
	mirror := readOne(t, encodeMirror(1, 0, body))
	for name, b := range map[string][]byte{
		"round zero":  mirror[:1+1], // truncate past the type byte
		"bad payload": readOne(t, encodeMirror(1, 0, []byte{0xFF, 0xFF})),
	} {
		if _, err := parseMirror(1, b); err == nil {
			t.Errorf("%s: parseMirror accepted %x", name, b)
		}
	}
	for name, b := range map[string][]byte{
		"unknown type":       {0x7F, 1},
		"second hello":       {frameHello, 'T', 'A', 'A', '1'},
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
