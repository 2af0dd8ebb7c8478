package overlay

import (
	"reflect"
	"testing"

	"treeaa/internal/sim"
)

func TestHelloRoundtrip(t *testing.T) {
	h := hello{session: 0xdeadbeefcafe, from: 7, to: 1, n: 12, branch: 3,
		lastDown: 41, have: []uint64{9, 0, 0, 3, 0, 0, 0, 120, 0, 0, 0, 1}}
	got, err := parseHello(encodeHello(h), h.n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("roundtrip:\n got %+v\nwant %+v", got, h)
	}

	empty := hello{session: 1, from: 4, to: 0, n: 5, branch: 2, have: make([]uint64, 5)}
	got, err = parseHello(encodeHello(empty), empty.n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, empty) {
		t.Fatalf("empty-watermark roundtrip:\n got %+v\nwant %+v", got, empty)
	}
}

func TestHelloRejects(t *testing.T) {
	good := encodeHello(hello{session: 1, from: 2, to: 0, n: 4, branch: 2, have: make([]uint64, 4)})
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("TAAX"), good[4:]...),
		"bad version":    append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"trailing bytes": append(append([]byte{}, good...), 0),
		"truncated":      good[:len(good)-1],
	}
	for name, b := range cases {
		if _, err := parseHello(b, 4); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}

	// A hello for another n is refused before its watermarks are read, so a
	// peer's n never sizes an allocation.
	if _, err := parseHello(good, 5); err == nil {
		t.Error("hello for n = 4 parsed by a party of n = 5")
	}
	if _, err := parseHello(encodeHello(hello{session: 1, from: 2, to: 0, n: 1 << 30, branch: 2}), 4); err == nil {
		t.Error("hello claiming n = 2^30 parsed by a party of n = 4")
	}

	// Nonzero flags and out-of-range watermark origins are rejected.
	flagged := append([]byte{}, good...)
	flagged[len(flagged)-3] = 1 // flags byte sits before lastDown|count (both 0)
	if _, err := parseHello(flagged, 4); err == nil {
		t.Error("nonzero flags parsed")
	}
	if _, err := parseHello(encodeHello(hello{session: 1, from: 2, to: 0, n: 4, branch: 2,
		have: []uint64{0, 0, 0, 0, 7}}), 4); err == nil {
		t.Error("watermark beyond n parsed")
	}
}

func TestAckRoundtrip(t *testing.T) {
	have := []uint64{0, 44, 0, 0, 0, 0, 2, 0}
	got, err := parseAck(encodeAck(have), len(have))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, have) {
		t.Fatalf("ack roundtrip: got %v, want %v", got, have)
	}
	if _, err := parseAck(encodeHello(hello{session: 1, from: 1, to: 0, n: 2, branch: 1,
		have: make([]uint64, 2)}), 2); err == nil {
		t.Fatal("hello parsed as ack")
	}
	if _, err := parseAck(append(encodeAck(have), 9), len(have)); err == nil {
		t.Fatal("trailing bytes parsed")
	}
}

func TestBitset(t *testing.T) {
	var b bitset
	if !b.set(9) || b.set(9) {
		t.Fatal("set growth reporting broken")
	}
	if !b.has(9) || b.has(8) || b.count() != 1 {
		t.Fatalf("membership broken: %v", b)
	}
	if b[len(b)-1] == 0 {
		t.Fatalf("non-canonical after set: %v", b)
	}

	other := bitset{}
	other.set(0)
	other.set(9)
	if !b.merge(other) {
		t.Fatal("merge with new bit reported no growth")
	}
	if b.merge(other) {
		t.Fatal("repeat merge reported growth")
	}
	if b.count() != 2 || !b.full(2) || b.full(3) {
		t.Fatalf("count/full broken: %v", b)
	}
	if c := b.clone(); !reflect.DeepEqual([]byte(b), c) {
		t.Fatalf("clone = %v, want %v", c, b)
	}
	var empty bitset
	if empty.clone() != nil || empty.count() != 0 || !empty.full(0) {
		t.Fatal("empty bitset misbehaves")
	}
	if sim.Broadcast >= 0 {
		t.Fatal("sanity: Broadcast must be negative")
	}
}
