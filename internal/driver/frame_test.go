package driver

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// sent is one call of a Framer's send, the frame copied.
type sent struct {
	to    sim.PartyID
	frame []byte
}

func recordFrames(into *[]sent) func(sim.PartyID, []byte) {
	return func(to sim.PartyID, frame []byte) {
		*into = append(*into, sent{to, append([]byte(nil), frame...)})
	}
}

// openFrame strips the stream envelope and decodes the round inside.
func openFrame(t *testing.T, frame []byte) wire.SessionRound {
	t.Helper()
	k, used := binary.Uvarint(frame)
	if used <= 0 || int(k) != len(frame)-used || frame[used] != frameTag {
		t.Fatalf("bad envelope %x", frame)
	}
	got, err := wire.Decode(frame[used+1:])
	if err != nil {
		t.Fatal(err)
	}
	return got.(wire.SessionRound)
}

// TestFramerRoundFrames: an all-broadcast round is one frame for everybody;
// a round with a unicast in it goes out as one frame per peer, each holding
// what that peer is sent — the broadcasts and its own unicasts, in emission
// order — and the mark; nothing of a round leaks into the next.
func TestFramerRoundFrames(t *testing.T) {
	const self, n = 1, 4
	var got []sent
	f := NewFramer(self, n, 77, recordFrames(&got))
	note := func(i int) any { return wire.AsyncValue{Phase: 1, Kind: 1, Iter: i + 1} }

	for i := 0; i < 2; i++ {
		if err := f.Emit(2, sim.Broadcast, note(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.EndRound(2, false); err != nil {
		t.Fatal(err)
	}
	want := wire.SessionRound{SID: 77, Round: 2, Payloads: []any{note(0), note(1)}}
	if len(got) != 1 || got[0].to != sim.Broadcast || !reflect.DeepEqual(openFrame(t, got[0].frame), want) {
		t.Fatalf("all-broadcast round shipped %+v, want one broadcast frame %+v", got, want)
	}

	for round := 3; round <= 4; round++ {
		got = got[:0]
		for i, to := range []sim.PartyID{sim.Broadcast, 0, self, 3, sim.Broadcast, 0} {
			if err := f.Emit(round, to, note(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.EndRound(round, round == 4); err != nil {
			t.Fatal(err)
		}
		wantTo := map[sim.PartyID][]int{0: {0, 1, 4, 5}, 2: {0, 4}, 3: {0, 3, 4}}
		if len(got) != len(wantTo) {
			t.Fatalf("round %d: %d frames, want one per peer", round, len(got))
		}
		for _, s := range got {
			want := wire.SessionRound{SID: 77, Round: round, Done: round == 4}
			for _, i := range wantTo[s.to] {
				want.Payloads = append(want.Payloads, note(i))
			}
			if fr := openFrame(t, s.frame); !reflect.DeepEqual(fr, want) {
				t.Errorf("round %d to peer %d:\n got %+v\nwant %+v", round, s.to, fr, want)
			}
		}
	}
}

// TestFramerEventFrames: an event-driven seat ships a frame of one per
// message and one empty done-marked frame as its announcement, which
// PeekFrame tells from every other frame.
func TestFramerEventFrames(t *testing.T) {
	var got []sent
	f := NewFramer(0, 3, 9, recordFrames(&got))
	if err := f.Send(5, 2, value(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(6, 0, value(2, 6)); err != nil { // to self: the Event delivered it already
		t.Fatal(err)
	}
	if err := f.Announce(); err != nil {
		t.Fatal(err)
	}
	want := []wire.SessionRound{
		{SID: 9, Round: 5, Payloads: []any{value(1, 5)}},
		{SID: 9, Round: 1, Done: true},
	}
	if len(got) != 2 || got[0].to != 2 || got[1].to != sim.Broadcast {
		t.Fatalf("shipped %+v, want a unicast and a broadcast", got)
	}
	for i, s := range got {
		fr := openFrame(t, s.frame)
		if !reflect.DeepEqual(fr, want[i]) {
			t.Errorf("frame %d: got %+v, want %+v", i, fr, want[i])
		}
		body, _ := wire.Encode(fr)
		if round, announce, ok := PeekFrame(body); !ok || round != fr.Round || announce != (i == 1) {
			t.Errorf("PeekFrame(frame %d) = (%d, %v, %v)", i, round, announce, ok)
		}
	}
	if _, _, ok := PeekFrame([]byte{wire.Version, wire.TypeSessionEOR, 1, 1, 0}); ok {
		t.Error("PeekFrame accepted a SessionEOR body")
	}
}

// TestEventApply: a frame's payloads are delivered on arrival and a
// done-marked frame announces its sender once; an empty open frame, a second
// announcement and a lock-step payload are errors.
func TestEventApply(t *testing.T) {
	m := &scriptEvent{budget: 100}
	ev := NewEvent(0, 3, m, &recEventSink{})
	body := func(fr wire.SessionRound) []byte {
		b, err := wire.Encode(fr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := ev.Apply(1, body(wire.SessionRound{Round: 3, Payloads: []any{value(1, 7)}})); err != nil {
		t.Fatal(err)
	}
	if err := ev.Apply(1, body(wire.SessionRound{Round: 4, Done: true, Payloads: []any{value(1, 8)}})); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.log, []float64{7, 8}) || !ev.IsPeerDone(1) || ev.IsPeerDone(2) {
		t.Fatalf("delivered %v, peer 1 done %v", m.log, ev.IsPeerDone(1))
	}
	for name, fr := range map[string]wire.SessionRound{
		"empty open frame":    {Round: 1},
		"second announcement": {Round: 1, Done: true},
		"lock-step payload":   {Round: 1, Payloads: []any{&gradecast.SendMsg{Tag: "t", Iter: 1}}},
	} {
		if err := ev.Apply(1, body(fr)); err == nil {
			t.Errorf("%s: applied", name)
		}
	}
}

// FuzzApplyRound: go test -fuzz=FuzzApplyRound ./internal/driver/. Arbitrary
// bytes applied to a mailbox either error or file exactly the leaves
// wire.Decode yields, in order, under the frame's round, with its mark; they
// never panic, and a frame that errors leaves no mark behind — the one thing
// that would let a driver step a round on a partial inbox.
func FuzzApplyRound(f *testing.F) {
	dir := filepath.Join("..", "..", "testdata", "wire")
	paths, _ := filepath.Glob(filepath.Join(dir, "*.bin"))
	retired, _ := filepath.Glob(filepath.Join(dir, "retired", "*.bin"))
	corpus, _ := filepath.Glob(filepath.Join(dir, "corpus", "*.bin"))
	if len(paths) == 0 || len(retired) == 0 || len(corpus) == 0 {
		f.Fatalf("no golden frames, retired frames or corpus under %s", dir)
	}
	for _, path := range append(append(paths, retired...), corpus...) {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	round, err := os.ReadFile(filepath.Join(dir, "session_round.bin"))
	if err != nil {
		f.Fatal(err)
	}
	for i := range round { // every truncation and a flip of every byte of the one real frame
		f.Add(round[:i])
		mut := append([]byte(nil), round...)
		mut[i] ^= 0x81
		f.Add(mut)
	}
	for _, fr := range []wire.SessionRound{
		{Round: 1},
		{SID: 1 << 40, Round: 2, Done: true},
		{Round: 2, Payloads: []any{&gradecast.SendMsg{Tag: "t", Iter: 1, Val: 2}, wire.AsyncValue{Phase: 1, Kind: 1, Iter: 1}}},
		{Round: 3}, // past the window
	} {
		b, err := wire.Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	const from, to, n, window = 1, 0, 3, 2
	f.Fuzz(func(t *testing.T, b []byte) {
		box := NewMailbox(n, window)
		err := box.Apply(from, to, b)
		decoded, derr := wire.Decode(b)
		fr, isRound := decoded.(wire.SessionRound)
		inWindow := derr == nil && isRound && fr.Round <= window
		if err != nil {
			if inWindow {
				t.Fatalf("refused a well-formed frame of round %d: %v", fr.Round, err)
			}
			for r := 1; r <= window; r++ {
				if eors, _ := box.Barrier(r); eors != 0 {
					t.Fatalf("a frame that failed (%v) left a mark on round %d", err, r)
				}
			}
			return
		}
		if !inWindow {
			t.Fatalf("applied %x, which decodes to %#v (%v)", b, decoded, derr)
		}
		var want []sim.Message
		for _, p := range fr.Payloads {
			want = append(want, sim.Message{From: from, To: to, Round: fr.Round, Payload: p})
		}
		if got := box.Inbox(fr.Round, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("filed %+v, want %+v", got, want)
		}
		wantDones := 0
		if fr.Done {
			wantDones = 1
		}
		if eors, dones := box.Barrier(fr.Round); eors != 1 || dones != wantDones {
			t.Fatalf("barrier of round %d = (%d, %d), want (1, %d)", fr.Round, eors, dones, wantDones)
		}
		if other := 3 - fr.Round; len(box.Inbox(other, nil)) != 0 {
			t.Fatalf("round %d frame filed under round %d", fr.Round, other)
		}
	})
}
