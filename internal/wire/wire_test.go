package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"treeaa/internal/crashaa"
	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

// samplePayloads covers every codec type with representative values,
// including the edge shapes (empty tag, empty map, NaN and ±Inf values,
// zero-length signatures).
func samplePayloads() []any {
	return []any{
		&gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5},
		&gradecast.SendMsg{Tag: "", Iter: 0, Val: math.Inf(-1)},
		&gradecast.SendMsg{Tag: "treeaa/pf/acc", Iter: 300, Val: float64(1 << 52)},
		&gradecast.EchoMsg{Tag: "treeaa/proj", Iter: 2, Vals: gradecast.CopyVals(map[sim.PartyID]float64{
			0: 1.5, 3: -2.25, 7: 4096, 51: math.NaN(),
		})},
		&gradecast.EchoMsg{Tag: "x", Iter: 1, Vals: gradecast.Vec{}},
		&gradecast.VoteMsg{Tag: "treeaa/path", Iter: 9, Vals: gradecast.CopyVals(map[sim.PartyID]float64{
			1: 0, 2: math.Copysign(0, -1), 130: 1e-300,
		})},
		crashaa.ValueMsg{Tag: "crash", Iter: 7, Val: 0.125},
		AsyncValue{Phase: AsyncPhaseProjection, Kind: AsyncKindReady, Iter: 300, Src: 6, Val: -0.5},
		AsyncReport{Phase: AsyncPhasePathsFinder, Kind: AsyncKindInit, Iter: 1, Src: 0,
			Senders: []sim.PartyID{0, 2, 3}},
		SessionMsg{SID: 1, Round: 1,
			Payload: &gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5}},
		SessionMsg{SID: 1<<48 | 7, Round: 300,
			Payload: crashaa.ValueMsg{Tag: "crash", Iter: 5, Val: 39}},
		SessionEOR{SID: 0, Round: 1, Done: false},
		SessionEOR{SID: math.MaxUint64, Round: 12, Done: true},
		SessionRound{SID: 1, Round: 1}, // a silent round's bare mark
		SessionRound{SID: math.MaxUint64, Round: 12, Done: true},
		SessionRound{SID: 1<<48 | 7, Round: 300, Payloads: []any{
			&gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5},
			&gradecast.EchoMsg{Tag: "treeaa/pf", Iter: 3, Vals: gradecast.Vec{{ID: 0, Val: 1}, {ID: 2, Val: -2}}},
			crashaa.ValueMsg{Tag: "crash", Iter: 5, Val: 39},
		}},
		SessionRound{SID: 9, Round: 2, Payloads: []any{ // an async seat's k = 1
			AsyncValue{Phase: AsyncPhasePathsFinder, Kind: AsyncKindEcho, Iter: 3, Src: 5, Val: 17.5}}},
		SessionOpen{SID: 9, Tree: "path:16", Seed: -3, T: 2, Inputs: "0,5,10,15", TTLMillis: 30_000},
		SessionOpen{SID: 1, Tree: "random:20", Seed: 1 << 40, T: 0, Inputs: "", TTLMillis: 0},
		SessionOpen{SID: 9, Tree: "graph:cycle:9", Seed: -3, T: 2, Inputs: "v1,v3,v5,v7", TTLMillis: 30_000},
		SessionAbort{SID: 77, Reason: "session capacity reached"},
		SessionAbort{SID: 0, Reason: ""},
		SessionDecide{SID: 5, Party: 3, V: 12, DoneRound: 4, TermRound: 5, Msgs: 1234, Bytes: 1 << 20},
		SessionDecide{SID: 1, Party: 0, V: 0, DoneRound: 1, TermRound: 1, Msgs: 0, Bytes: 0},
		ClientSubmit{SID: 0, Tree: "spider:3:3", Seed: 1, T: 0, Inputs: "0,4,8,12",
			TTLMillis: 120_000, Wait: true},
		ClientSubmit{SID: 3<<48 | 9, Tree: "random:20", Seed: -1 << 40, T: 6,
			Inputs: "", TTLMillis: 0, Wait: false},
		ClientWait{SID: 3<<48 | 9},
		ClientWait{SID: 0},
		ClientStatus{SID: math.MaxUint64},
		ClientOutcome{OK: false, SID: 0, State: ClientStateNone, Err: "unknown session"},
		ClientOutcome{OK: true, SID: 3<<48 | 9, State: 2, LatencyNS: 41_250_000,
			Rounds: 6, Msgs: 1234, Bytes: 1 << 17,
			Outputs: []OutputPair{{Party: 0, V: 4}, {Party: 2, V: 7}}},
		ClientOutcome{OK: true, SID: 1, State: 0},
		JournalOpen{SID: 2<<48 | 77, Origin: 1, Tree: "spider:3:3", Seed: -3, T: 1,
			Inputs: "0,4,8,12", TTLMillis: 120_000, DeadlineUnixNano: 1_754_000_000_123_456_789},
		JournalOpen{SID: 1, Origin: 0, Tree: "path:4", Seed: 0, T: 0,
			Inputs: "", TTLMillis: 0, DeadlineUnixNano: -1},
		JournalFrame{From: 2, Body: mustEncode(SessionEOR{SID: 2<<48 | 77, Round: 4, Done: true})},
		JournalFrame{From: 0, Body: mustEncode(SessionMsg{SID: 9, Round: 1,
			Payload: &gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5}})},
		JournalFrame{From: 1, Body: mustEncode(SessionDecide{SID: 5, Party: 1, V: 12,
			DoneRound: 4, TermRound: 5, Msgs: 1234, Bytes: 1 << 20})},
		JournalSeal{SID: 2<<48 | 77, State: 2, LatencyNS: 93_000_000, HasResult: true,
			Rounds: 6, Msgs: 1234, Bytes: 1 << 17,
			Outputs: []OutputPair{{Party: 0, V: 4}, {Party: 2, V: 7}}},
		JournalSeal{SID: 3, State: 3, Reason: "deadline exceeded", LatencyNS: 0},
		JournalSeal{SID: 4, State: 4, Reason: "daemon shutting down", LatencyNS: 1},
		RelayMsg{Origin: 5, Dest: sim.Broadcast, Seq: 300, Round: 3,
			Body: mustEncode(&gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5})},
		RelayMsg{Origin: 0, Dest: 511, Seq: 1, Round: 1,
			Body: mustEncode(&gradecast.EchoMsg{Tag: "t", Iter: 1,
				Vals: gradecast.Vec{{ID: 2, Val: -0.5}}})},
		OverlayEOR{Round: 7, Down: false, Arrived: []byte{0xFF, 0x03}, Done: []byte{0x01}},
		OverlayEOR{Round: 1, Down: true, Done: []byte{0x0F}},
		OverlayEOR{Round: 2, Down: true},
	}
}

// equalPayload compares payloads treating NaN map values as equal when
// their bit patterns match (reflect.DeepEqual treats NaN != NaN).
func equalPayload(a, b any) bool {
	switch av := a.(type) {
	case *gradecast.EchoMsg:
		bv, ok := b.(*gradecast.EchoMsg)
		return ok && av.Tag == bv.Tag && av.Iter == bv.Iter && equalVals(av.Vals, bv.Vals)
	case *gradecast.VoteMsg:
		bv, ok := b.(*gradecast.VoteMsg)
		return ok && av.Tag == bv.Tag && av.Iter == bv.Iter && equalVals(av.Vals, bv.Vals)
	default:
		return reflect.DeepEqual(a, b)
	}
}

func equalVals(a, b gradecast.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i, av := range a {
		if b[i].ID != av.ID || math.Float64bits(av.Val) != math.Float64bits(b[i].Val) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	for _, p := range samplePayloads() {
		enc, err := Encode(p)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", p, err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%#v)): %v", p, err)
		}
		if !equalPayload(p, normalizeEmpty(dec, p)) {
			t.Errorf("round trip changed payload:\n in: %#v\nout: %#v", p, dec)
		}
		re, err := Encode(dec)
		if err != nil {
			t.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("encoding not canonical for %#v", p)
		}
	}
}

// normalizeEmpty maps decoded nil/empty collections onto the original's
// empty form: the codec cannot (and need not) distinguish nil from empty.
func normalizeEmpty(dec, orig any) any {
	switch d := dec.(type) {
	case *gradecast.EchoMsg:
		if o, ok := orig.(*gradecast.EchoMsg); ok && len(d.Vals) == 0 && len(o.Vals) == 0 {
			return &gradecast.EchoMsg{Tag: d.Tag, Iter: d.Iter, Vals: o.Vals}
		}
	}
	return dec
}

// leaf reports whether p is a leaf a round charges, sized by sim and
// driver.Tally; charged adds the SessionRound whose length driver.Framer
// writes.
func leaf(p any) bool {
	switch p.(type) {
	case *gradecast.SendMsg, *gradecast.EchoMsg, *gradecast.VoteMsg,
		crashaa.ValueMsg, AsyncValue, AsyncReport:
		return true
	}
	return false
}

func charged(p any) bool {
	_, round := p.(SessionRound)
	return round || leaf(p)
}

// TestOnlyRoundPayloadsAreSizers: a codec payload is a sim.Sizer if and
// only if a round charges it, and encodedSize knows it if and only if it is
// a leaf. Every other frame is measured by encoding it.
func TestOnlyRoundPayloadsAreSizers(t *testing.T) {
	for _, p := range samplePayloads() {
		_, sizer := p.(sim.Sizer)
		_, err := encodedSize(p)
		if sizer != charged(p) {
			t.Errorf("%T: sim.Sizer %v, charged by a round %v", p, sizer, charged(p))
		}
		if (err == nil) != leaf(p) {
			t.Errorf("%T: encodedSize error %v, a leaf %v", p, err, leaf(p))
		}
	}
}

// TestSizerMatchesEncoding pins the size quantities to each other for every
// payload a round charges: the type's sim.Sizer arithmetic, the actual
// encoded length and, for a leaf, encodedSize. The protocol packages cannot
// import wire (wire imports them), so their Size() methods mirror the codec
// by hand — this test is what keeps the mirrors honest.
func TestSizerMatchesEncoding(t *testing.T) {
	check := func(p any) {
		t.Helper()
		enc, err := Encode(p)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", p, err)
		}
		want := p.(sim.Sizer).Size()
		if len(enc) != want {
			t.Errorf("%T: Size() = %d, encoded length = %d", p, want, len(enc))
		}
		if sz, err := encodedSize(p); leaf(p) && (err != nil || sz != len(enc)) {
			t.Errorf("%T: encodedSize = %d (%v), encoded length = %d", p, sz, err, len(enc))
		}
	}
	for _, p := range samplePayloads() {
		if charged(p) {
			check(p)
		}
	}
	// Randomized shapes: long tags (multi-byte length prefix), large
	// iteration counts and map sizes.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		tag := strings.Repeat("t", rng.Intn(300))
		iter := rng.Intn(1 << 16)
		vals := make(map[sim.PartyID]float64)
		for j := rng.Intn(200); j > 0; j-- {
			vals[sim.PartyID(rng.Intn(1<<20))] = rng.NormFloat64()
		}
		vec := gradecast.CopyVals(vals)
		check(&gradecast.SendMsg{Tag: tag, Iter: iter, Val: rng.NormFloat64()})
		check(&gradecast.EchoMsg{Tag: tag, Iter: iter, Vals: vec})
		check(&gradecast.VoteMsg{Tag: tag, Iter: iter, Vals: vec})
		check(crashaa.ValueMsg{Tag: tag, Iter: iter, Val: rng.NormFloat64()})
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := Encode(&gradecast.EchoMsg{Tag: "t", Iter: 1,
		Vals: gradecast.Vec{{ID: 1, Val: 1}, {ID: 2, Val: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"header only":       {Version},
		"bad version":       {99, TypeGradecastSend},
		"unknown type":      {Version, 0x7F},
		"retired DLPSW":     {Version, 0x04, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0},
		"retired vertex":    {Version, 0x06, 0x00, 0x00, 0, 0, 0, 0},
		"retired chain":     {Version, 0x07, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x00},
		"truncated body":    valid[:len(valid)-3],
		"trailing bytes":    append(append([]byte{}, valid...), 0),
		"huge string":       {Version, TypeGradecastSend, 0xFF, 0xFF, 0xFF, 0xFF, 0x07},
		"huge vec count":    {Version, TypeGradecastEcho, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x07},
		"nonminimal varint": {Version, TypeGradecastSend, 0x80, 0x00},
	}
	// Unsorted map keys: swap the two 12-byte entries of the valid frame.
	unsorted := append([]byte{}, valid...)
	entries := unsorted[len(unsorted)-24:]
	swapped := append(append([]byte{}, entries[12:]...), entries[:12]...)
	copy(entries, swapped)
	cases["unsorted keys"] = unsorted
	// Duplicate keys: make both entries key 1.
	dup := append([]byte{}, valid...)
	copy(dup[len(dup)-12:len(dup)-8], dup[len(dup)-24:len(dup)-20])
	cases["duplicate keys"] = dup

	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted %x", name, b)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	cases := []any{
		struct{ X int }{1}, // unknown type
		&gradecast.SendMsg{Tag: "t", Iter: -1},
		&gradecast.EchoMsg{Tag: "t", Iter: 1, Vals: gradecast.Vec{{ID: -1, Val: 0}}},
		&gradecast.EchoMsg{Tag: "t", Iter: 1, // unsorted Vec is not canonical
			Vals: gradecast.Vec{{ID: 2, Val: 0}, {ID: 1, Val: 0}}},
		RelayMsg{Origin: 1, Dest: 2, Seq: 1, Round: 1, Body: []byte{Version, 0x04, 0x00, 0x00}}, // retired leaf type
		SessionMsg{SID: 1, Round: 0, Payload: &gradecast.SendMsg{Tag: "t"}},
		SessionMsg{SID: 1, Round: 1, Payload: SessionAbort{SID: 1}}, // no nesting
		SessionMsg{SID: 1, Round: 1, Payload: nil},
		SessionEOR{SID: 1, Round: -1},
		SessionRound{SID: 1, Round: 0},
		SessionRound{SID: 1, Round: 1, Payloads: []any{nil}},
		SessionRound{SID: 1, Round: 1, Payloads: []any{SessionRound{SID: 1, Round: 1}}},         // no nesting
		SessionRound{SID: 1, Round: 1, Payloads: []any{SessionEOR{SID: 1, Round: 1}}},           // no nesting
		SessionRound{SID: 1, Round: 1, Payloads: []any{ClientWait{SID: 1}}},                     // no client nesting
		SessionRound{SID: 1, Round: 1, Payloads: []any{JournalSeal{SID: 1, State: 2}}},          // no journal nesting
		SessionRound{SID: 1, Round: 1, Payloads: []any{OverlayEOR{Round: 1}}},                   // no overlay nesting
		SessionRound{SID: 1, Round: 1, Payloads: []any{&gradecast.SendMsg{Tag: "t", Iter: -1}}}, // bad leaf
		SessionMsg{SID: 1, Round: 1, Payload: SessionRound{SID: 1, Round: 1}},                   // no nesting
		SessionOpen{SID: 1, Tree: "path:4", T: -1},
		SessionDecide{SID: 1, Party: -1, DoneRound: 1, TermRound: 1},
		SessionDecide{SID: 1, Party: 0, DoneRound: 0, TermRound: 1},
		SessionDecide{SID: 1, Party: 0, DoneRound: 1, TermRound: 1, Msgs: -1},
		SessionMsg{SID: 1, Round: 1, Payload: ClientWait{SID: 1}}, // no client nesting
		ClientSubmit{SID: 1, Tree: "path:4", T: -1},
		ClientOutcome{OK: true, SID: 1, State: 5},
		ClientOutcome{OK: true, SID: 1, State: 0, LatencyNS: -1},
		ClientOutcome{OK: true, SID: 1, State: 0, Rounds: -1},
		ClientOutcome{OK: true, SID: 1, State: 0, Msgs: -1},
		ClientOutcome{OK: true, SID: 1, State: 0,
			Outputs: []OutputPair{{Party: 2, V: 1}, {Party: 2, V: 1}}}, // not ascending
		ClientOutcome{OK: true, SID: 1, State: 0,
			Outputs: []OutputPair{{Party: -1, V: 1}}},
		JournalOpen{SID: 1, Origin: -1, Tree: "path:4"},
		JournalOpen{SID: 1, Origin: 0, Tree: "path:4", T: -1},
		JournalFrame{From: 0, Body: nil},                                      // empty body is not a session frame
		JournalFrame{From: 0, Body: mustEncode(&gradecast.SendMsg{Tag: "t"})}, // leaf, not session-plane
		JournalFrame{From: 0, Body: mustEncode(ClientWait{SID: 1})},           // client plane barred
		SessionMsg{SID: 1, Round: 1, Payload: JournalSeal{SID: 1, State: 2}},  // no journal nesting
		JournalSeal{SID: 1, State: 0},                                         // not terminal
		JournalSeal{SID: 1, State: 5},                                         // out of range
		JournalSeal{SID: 1, State: 2, LatencyNS: -1},
		JournalSeal{SID: 1, State: 2, HasResult: true, Rounds: -1},
		JournalSeal{SID: 1, State: 2, HasResult: true, Msgs: -1},
		JournalSeal{SID: 1, State: 2, HasResult: true,
			Outputs: []OutputPair{{Party: 2, V: 1}, {Party: 2, V: 1}}}, // not ascending
		RelayMsg{Origin: 0, Dest: 1, Seq: 0, Round: 1, // seq must be positive
			Body: mustEncode(&gradecast.SendMsg{Tag: "t"})},
		RelayMsg{Origin: 0, Dest: -2, Seq: 1, Round: 1, // dest below Broadcast
			Body: mustEncode(&gradecast.SendMsg{Tag: "t"})},
		RelayMsg{Origin: 0, Dest: 1, Seq: 1, Round: 0, // round must be positive
			Body: mustEncode(&gradecast.SendMsg{Tag: "t"})},
		RelayMsg{Origin: 0, Dest: 1, Seq: 1, Round: 1, Body: nil}, // empty body
		RelayMsg{Origin: 0, Dest: 1, Seq: 1, Round: 1, // non-leaf body barred
			Body: mustEncode(SessionEOR{SID: 1, Round: 1})},
		OverlayEOR{Round: 0, Done: []byte{0x01}},                    // round 0
		OverlayEOR{Round: 1, Arrived: []byte{0x01, 0x00}},           // trailing zero
		OverlayEOR{Round: 1, Down: true, Arrived: []byte{0x01}},     // down w/ arrived
		OverlayEOR{Round: 1, Done: []byte{0x00}},                    // zero byte
		SessionMsg{SID: 1, Round: 1, Payload: OverlayEOR{Round: 1}}, // no nesting
		JournalFrame{From: 0, Body: mustEncode(OverlayEOR{Round: 1, Down: true})},
	}
	for _, p := range cases {
		if enc, err := Encode(p); err == nil {
			t.Errorf("Encode(%#v) accepted: %x", p, enc)
		}
	}
}

// TestGradecastPayloadsArePointers: the gradecast messages have one wire
// form, the pointer. A value-form payload is an unknown payload to Encode,
// Append and encodedSize, and inside a session round; each committed
// gradecast frame decodes to its pointer form.
func TestGradecastPayloadsArePointers(t *testing.T) {
	for _, p := range []any{
		gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5},
		gradecast.EchoMsg{Tag: "treeaa/pf", Iter: 3, Vals: gradecast.Vec{{ID: 0, Val: 1}}},
		gradecast.VoteMsg{Tag: "treeaa/pf", Iter: 3},
	} {
		if _, err := Encode(p); !errors.Is(err, ErrUnknownPayload) {
			t.Errorf("Encode(%T) = %v, want ErrUnknownPayload", p, err)
		}
		if _, err := Append(nil, p); !errors.Is(err, ErrUnknownPayload) {
			t.Errorf("Append(%T) = %v, want ErrUnknownPayload", p, err)
		}
		if _, err := encodedSize(p); !errors.Is(err, ErrUnknownPayload) {
			t.Errorf("encodedSize(%T) = %v, want ErrUnknownPayload", p, err)
		}
		if _, err := Encode(SessionRound{SID: 1, Round: 1, Payloads: []any{p}}); !errors.Is(err, ErrUnknownPayload) {
			t.Errorf("a session round carrying a %T: %v, want ErrUnknownPayload", p, err)
		}
	}
	for name, want := range map[string]any{
		"gradecast_send": (*gradecast.SendMsg)(nil),
		"gradecast_echo": (*gradecast.EchoMsg)(nil),
		"gradecast_vote": (*gradecast.VoteMsg)(nil),
	} {
		b, err := os.ReadFile(filepath.Join(goldenDir, name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Errorf("%s decodes to a %T, want %T", name, got, want)
		}
	}
}

// TestEnvelopeEncodeAllocatesOnce: Encode builds an overlay envelope —
// one per relayed message and per barrier — in a single allocation, its
// largest field values included.
func TestEnvelopeEncodeAllocatesOnce(t *testing.T) {
	body := mustEncode(&gradecast.EchoMsg{Tag: "treeaa/pf", Iter: 3,
		Vals: gradecast.Vec{{ID: 0, Val: 1}, {ID: 5, Val: 2}}})
	long := append([]byte{Version, TypeCrashValue}, make([]byte, 300)...)
	for _, p := range []any{
		RelayMsg{Origin: 3, Dest: sim.Broadcast, Seq: 1, Round: 1, Body: body},
		RelayMsg{Origin: MaxIDValue, Dest: MaxIDValue, Seq: math.MaxUint64,
			Round: math.MaxInt32, Body: long},
		OverlayEOR{Round: 1, Arrived: []byte{0xff, 0x01}, Done: []byte{0x01}},
		OverlayEOR{Round: math.MaxInt32, Down: true, Done: append(make([]byte, 200), 1)},
	} {
		if _, err := Encode(p); err != nil {
			t.Fatalf("Encode(%T): %v", p, err)
		}
		if n := testing.AllocsPerRun(20, func() { Encode(p) }); n != 1 {
			t.Errorf("Encode(%T) allocates %v times, want 1", p, n)
		}
	}
}

// TestPayloadSizeAgreement: the sim accounting helper charges exactly the
// encoded length for the payloads a round charges, so in-process
// Result.Bytes equals the bytes a TCP execution puts on the wire.
func TestPayloadSizeAgreement(t *testing.T) {
	for _, p := range samplePayloads() {
		if !charged(p) {
			continue
		}
		enc, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.PayloadSize(p); got != len(enc) {
			t.Errorf("%T: sim.PayloadSize = %d, wire length = %d", p, got, len(enc))
		}
	}
}

// sessionRoundBody assembles a SessionRound body by hand, so the rejection
// cases below can break one field at a time: count is written as given, and
// each leaf is length-prefixed with its true length.
func sessionRoundBody(flags byte, count uint64, leaves ...[]byte) []byte {
	b := []byte{Version, TypeSessionRound, 0x07, 0x03, flags} // sid 7, round 3
	b = AppendUvarint(b, count)
	for _, l := range leaves {
		b = AppendUvarint(b, uint64(len(l)))
		b = append(b, l...)
	}
	return b
}

// TestSessionRoundRejectsMalformed: the frame-level violations a
// SessionRound can carry beyond those of its leaves.
func TestSessionRoundRejectsMalformed(t *testing.T) {
	leaf := mustEncode(&gradecast.SendMsg{Tag: "t", Iter: 1, Val: 2})
	if _, err := Decode(sessionRoundBody(0x01, 2, leaf, leaf)); err != nil {
		t.Fatalf("the well-formed template is rejected: %v", err)
	}
	nonMinimalLen := sessionRoundBody(0, 1)
	nonMinimalLen = append(nonMinimalLen, 0x80|byte(len(leaf)), 0x00)
	nonMinimalLen = append(nonMinimalLen, leaf...)
	cases := map[string][]byte{
		"unknown flags":        sessionRoundBody(0x02, 0),
		"round zero":           {Version, TypeSessionRound, 0x07, 0x00, 0x00, 0x00},
		"truncated header":     {Version, TypeSessionRound, 0x07, 0x03},
		"count exceeds buffer": sessionRoundBody(0, 2, leaf),
		"huge count":           append(sessionRoundBody(0, 0)[:5], 0xFF, 0xFF, 0xFF, 0xFF, 0x07),
		"trailing byte":        append(sessionRoundBody(0, 1, leaf), 0x00),
		"trailing after none":  append(sessionRoundBody(0x01, 0), 0x00),
		"leaf length overruns": append(sessionRoundBody(0, 1), byte(len(leaf)+1)),
		"leaf length short":    sessionRoundBody(0, 1, leaf[:len(leaf)-1]),
		"non-minimal length":   nonMinimalLen,
		"empty leaf":           sessionRoundBody(0, 1, nil),
		"nested session round": sessionRoundBody(0, 1, sessionRoundBody(0, 0)),
		"nested session eor":   sessionRoundBody(0, 1, mustEncode(SessionEOR{SID: 7, Round: 3})),
		"nested client frame":  sessionRoundBody(0, 1, mustEncode(ClientWait{SID: 7})),
		"nested journal":       sessionRoundBody(0, 1, mustEncode(JournalSeal{SID: 7, State: 2})),
		"nested overlay eor":   sessionRoundBody(0, 1, mustEncode(OverlayEOR{Round: 1, Down: true})),
		"unknown leaf type":    sessionRoundBody(0, 1, []byte{Version, 0x7F}),
	}
	for name, b := range cases {
		if p, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted %x as %#v", name, b, p)
		}
		if r, err := ReadSessionRound(b); err == nil {
			for ok := true; ok && err == nil; {
				_, ok, err = r.Next()
			}
			if err == nil {
				t.Errorf("%s: the streaming reader accepted %x", name, b)
			}
		}
	}
}

// TestSessionRoundReaderMatchesDecode: streaming a frame yields the header
// and the leaves Decode materialises, in order, and PeekSession routes it.
func TestSessionRoundReaderMatchesDecode(t *testing.T) {
	for _, p := range samplePayloads() {
		want, ok := p.(SessionRound)
		if !ok {
			continue
		}
		enc := mustEncode(want)
		if typ, sid, err := PeekSession(enc); err != nil || typ != TypeSessionRound || sid != want.SID {
			t.Errorf("PeekSession = (%#x, %d, %v), want (%#x, %d)", typ, sid, err, TypeSessionRound, want.SID)
		}
		r, err := ReadSessionRound(enc)
		if err != nil {
			t.Fatalf("ReadSessionRound(%#v): %v", want, err)
		}
		if r.SID != want.SID || r.Round != want.Round || r.Done != want.Done || r.Len() != len(want.Payloads) {
			t.Errorf("header = (%d, %d, %v, %d leaves), want %#v", r.SID, r.Round, r.Done, r.Len(), want)
		}
		for i := 0; ; i++ {
			got, ok, err := r.Next()
			if err != nil {
				t.Fatalf("leaf %d of %#v: %v", i, want, err)
			}
			if !ok {
				if i != len(want.Payloads) {
					t.Errorf("reader ended after %d of %d leaves", i, len(want.Payloads))
				}
				break
			}
			if i >= len(want.Payloads) || !equalPayload(want.Payloads[i], got) {
				t.Errorf("leaf %d = %#v, want the %d-th of %#v", i, got, i, want.Payloads)
			}
		}
	}
	if _, err := ReadSessionRound(mustEncode(SessionEOR{SID: 1, Round: 1})); err == nil {
		t.Error("ReadSessionRound accepted a SessionEOR body")
	}
}
