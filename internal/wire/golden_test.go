package wire

// Golden wire frames: a committed .bin per payload type (two for
// SessionOpen: a tree and a graph space) pins the byte format. Any codec change — even one that still round-trips — fails this
// test, so format drift has to be reviewed and shipped deliberately with a
// Version bump:
//
//	go test -run TestGoldenFrames -update ./internal/wire/
//
// The same files seed the FuzzDecode corpus.

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"treeaa/internal/crashaa"
	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden wire frames")

// mustEncode builds a nested golden body; the fixed payloads are known-good.
func mustEncode(p any) []byte {
	b, err := Encode(p)
	if err != nil {
		panic(err)
	}
	return b
}

// goldenDir is the repo-root testdata/wire directory (this package lives at
// internal/wire).
const goldenDir = "../../testdata/wire"

// goldenPayloads fixes one representative frame per payload type. Values
// are chosen to exercise multi-byte varints and non-trivial float bits.
func goldenPayloads() map[string]any {
	return map[string]any{
		"gradecast_send": gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5},
		"gradecast_echo": gradecast.EchoMsg{Tag: "treeaa/proj", Iter: 2, Vals: gradecast.CopyVals(map[sim.PartyID]float64{
			0: 1.5, 3: -2.25, 7: 4096, 51: float64(1 << 52),
		})},
		"gradecast_vote": gradecast.VoteMsg{Tag: "treeaa/path", Iter: 200, Vals: gradecast.CopyVals(map[sim.PartyID]float64{
			1: 0, 6: math.Pi,
		})},
		"crash_value": crashaa.ValueMsg{Tag: "crash", Iter: 7, Val: 0.125},
		"session_msg": SessionMsg{SID: 1<<48 | 42, Round: 3,
			Payload: gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5}},
		"session_eor": SessionEOR{SID: 1<<48 | 42, Round: 7, Done: true},
		// One lock-step round to one peer: a send, a vote and the mark.
		"session_round": SessionRound{SID: 1<<48 | 42, Round: 300, Done: true, Payloads: []any{
			gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5},
			gradecast.VoteMsg{Tag: "treeaa/pf", Iter: 2, Vals: gradecast.Vec{{ID: 1, Val: 0}, {ID: 6, Val: math.Pi}}},
		}},
		"session_open": SessionOpen{SID: 2<<48 | 1, Tree: "path:16", Seed: -7,
			T: 2, Inputs: "0,5,10,15", TTLMillis: 30_000},
		// A graph-space session's open: there is no graph-specific frame, the
		// "graph:"-prefixed spec rides SessionOpen.Tree verbatim.
		"session_open_graphspace": SessionOpen{SID: 2<<48 | 2, Tree: "graph:cliquechain:3:4",
			Seed: -7, T: 2, Inputs: "v01,v04,v07,v10", TTLMillis: 30_000},
		"session_abort": SessionAbort{SID: 2<<48 | 1, Reason: "deadline exceeded"},
		"session_decide": SessionDecide{SID: 1<<48 | 42, Party: 3, V: 12,
			DoneRound: 5, TermRound: 6, Msgs: 1234, Bytes: 1 << 17},
		"client_submit": ClientSubmit{SID: 3<<48 | 9, Tree: "spider:3:3", Seed: -1,
			T: 1, Inputs: "0,4,8,12", TTLMillis: 120_000, Wait: true},
		"client_wait":   ClientWait{SID: 3<<48 | 9},
		"client_status": ClientStatus{SID: 3<<48 | 9},
		"client_outcome": ClientOutcome{OK: true, SID: 3<<48 | 9, State: 2,
			LatencyNS: 41_250_000, Rounds: 6, Msgs: 1234, Bytes: 1 << 17,
			Outputs: []OutputPair{{Party: 0, V: 4}, {Party: 1, V: 4}, {Party: 3, V: 7}}},
		"journal_open": JournalOpen{SID: 2<<48 | 77, Origin: 1, Tree: "spider:3:3",
			Seed: -3, T: 1, Inputs: "0,4,8,12", TTLMillis: 120_000,
			DeadlineUnixNano: 1_754_000_000_123_456_789},
		"journal_frame": JournalFrame{From: 2, Body: mustEncode(
			SessionEOR{SID: 2<<48 | 77, Round: 4, Done: true})},
		"journal_seal": JournalSeal{SID: 2<<48 | 77, State: 2,
			LatencyNS: 93_000_000, HasResult: true, Rounds: 6, Msgs: 1234, Bytes: 1 << 17,
			Outputs: []OutputPair{{Party: 0, V: 4}, {Party: 2, V: 7}}},
		"relay": RelayMsg{Origin: 5, Dest: sim.Broadcast, Seq: 300, Round: 3,
			Body: mustEncode(gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5})},
		"overlay_eor": OverlayEOR{Round: 7, Down: false,
			Arrived: []byte{0xFF, 0x03}, Done: []byte{0x01}},
		"async_value": AsyncValue{Phase: AsyncPhasePathsFinder, Kind: AsyncKindEcho,
			Iter: 3, Src: 5, Val: 17.5},
		"async_report": AsyncReport{Phase: AsyncPhaseProjection, Kind: AsyncKindInit,
			Iter: 200, Src: 2, Senders: []sim.PartyID{0, 2, 3, 6}},
	}
}

func TestGoldenFrames(t *testing.T) {
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, p := range goldenPayloads() {
		enc, err := Encode(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(goldenDir, name+".bin")
		if *update {
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(enc))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden frame (regenerate with -update): %v", name, err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s: wire format drifted (bump Version and regenerate with -update if intentional)\n got %x\nwant %x",
				name, enc, want)
		}
		// The committed frame must also decode back to the fixed payload.
		dec, err := Decode(want)
		if err != nil {
			t.Errorf("%s: golden frame no longer decodes: %v", name, err)
		} else if re, err := Encode(dec); err != nil || !bytes.Equal(re, want) {
			t.Errorf("%s: golden frame not canonical under decode/encode", name)
		}
	}
}
