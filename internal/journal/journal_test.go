package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"treeaa/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden journal corpus")

// testRecords is a small mixed batch covering all three journal payloads.
func testRecords(n int) []any {
	recs := make([]any, 0, n)
	for i := 0; i < n; i++ {
		sid := uint64(1<<48 | i)
		switch i % 3 {
		case 0:
			recs = append(recs, wire.JournalOpen{SID: sid, Origin: 0, Tree: "path:8",
				Seed: int64(i), T: 1, Inputs: "0,7", TTLMillis: 1000,
				DeadlineUnixNano: int64(i) * 1e6})
		case 1:
			recs = append(recs, wire.JournalFrame{From: 2, Body: mustEncode(
				wire.SessionEOR{SID: sid, Round: i%7 + 1, Done: i%2 == 0})})
		default:
			recs = append(recs, wire.JournalSeal{SID: sid, State: 3,
				Reason: "deadline exceeded", LatencyNS: int64(i)})
		}
	}
	return recs
}

// mustEncode panics on error; the test payloads are known-good.
func mustEncode(p any) []byte {
	b, err := wire.Encode(p)
	if err != nil {
		panic(err)
	}
	return b
}

// replayAll collects every payload Replay yields.
func replayAll(t *testing.T, dir string, stats *Stats) []any {
	t.Helper()
	var got []any
	if err := Replay(dir, stats, func(p any) error {
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(30)
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	got := replayAll(t, dir, stats)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		wantB := mustEncode(recs[i])
		gotB := mustEncode(got[i])
		if !bytes.Equal(wantB, gotB) {
			t.Fatalf("record %d: got %#v want %#v", i, got[i], recs[i])
		}
	}
	if stats.Replayed.Load() != int64(len(recs)) || stats.ReplaySkips.Load() != 0 {
		t.Fatalf("stats: replayed=%d skips=%d", stats.Replayed.Load(), stats.ReplaySkips.Load())
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	w, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(60)
	for _, r := range recs[:40] {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments after rotation, got %d", len(segs))
	}
	// A second writer must append after the existing segments, never into them.
	w2, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[40:] {
		if err := w2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, nil)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records across reopen, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(mustEncode(recs[i]), mustEncode(got[i])) {
			t.Fatalf("record %d mismatch after reopen", i)
		}
	}
}

func TestCommitTicketDurability(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	seal := wire.JournalSeal{SID: 7, State: 2, HasResult: true, Rounds: 3,
		Outputs: []wire.OutputPair{{Party: 0, V: 1}}}
	ticket, err := w.Commit(seal)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ticket:
	case <-time.After(5 * time.Second):
		t.Fatal("commit ticket never resolved")
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if w.stats.Syncs.Load() == 0 {
		t.Fatal("ticket resolved without a sync")
	}
	// The record must already be durable: replay without closing the writer.
	got := replayAll(t, dir, nil)
	if len(got) != 1 {
		t.Fatalf("replayed %d records before Close, want 1", len(got))
	}
	w.Abandon()
}

func TestAbandonDropsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	// Huge interval so the syncer never runs: all durability is explicit.
	w, err := Open(Options{Dir: dir, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(9)
	for _, r := range recs[:6] {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[6:] {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Abandon() // simulated kill -9: the buffered tail must vanish
	got := replayAll(t, dir, nil)
	if len(got) != 6 {
		t.Fatalf("replayed %d records after abandon, want the 6 synced ones", len(got))
	}
	if err := w.Append(recs[0]); err == nil {
		t.Fatal("append after abandon succeeded")
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	got := replayAll(t, filepath.Join(t.TempDir(), "never-created"), nil)
	if len(got) != 0 {
		t.Fatalf("replayed %d records from a missing dir", len(got))
	}
}

func TestReplayCallbackErrorStops(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(6) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls := 0
	err = Replay(dir, nil, func(any) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want boom after 3", err, calls)
	}
}

// writeSegment writes raw bytes as a segment file with the given sequence.
func writeSegment(t *testing.T, dir string, seq int64, b []byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, seq), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// encodeRecord frames one payload exactly as the Writer does.
func encodeRecord(p any) []byte {
	body := mustEncode(p)
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(body)))
	var crcBuf [4]byte
	binary.BigEndian.PutUint32(crcBuf[:], crc32.Checksum(body, castagnoli))
	b = append(b, crcBuf[:]...)
	return append(b, body...)
}

// TestReplayTorture drives Replay through every damage shape: torn tails of
// all kinds are tolerated on the last segment, everything else is ErrCorrupt.
func TestReplayTorture(t *testing.T) {
	recs := testRecords(4)
	full := func(t *testing.T) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, encodeRecord(r)...)
		}
		return b
	}
	cases := []struct {
		name string
		// build writes segment files into dir.
		build       func(t *testing.T, dir string)
		wantReplay  int
		wantSkips   int64
		wantCorrupt bool
	}{
		{
			name: "truncated tail mid-body",
			build: func(t *testing.T, dir string) {
				b := full(t)
				writeSegment(t, dir, 1, b[:len(b)-3])
			},
			wantReplay: 3, wantSkips: 1,
		},
		{
			name: "truncated tail mid-length-prefix",
			build: func(t *testing.T, dir string) {
				b := full(t)
				last := encodeRecord(recs[3])
				// Keep only part of a multi-byte... the prefix here is 1 byte,
				// so chop to exactly the prefix: body and CRC both missing.
				writeSegment(t, dir, 1, b[:len(b)-len(last)+1])
			},
			wantReplay: 3, wantSkips: 1,
		},
		{
			name: "corrupt CRC on final record",
			build: func(t *testing.T, dir string) {
				b := full(t)
				b[len(b)-1] ^= 0xFF
				writeSegment(t, dir, 1, b)
			},
			wantReplay: 3, wantSkips: 1,
		},
		{
			name: "corrupt CRC mid-segment",
			build: func(t *testing.T, dir string) {
				b := encodeRecord(recs[0])
				bad := encodeRecord(recs[1])
				bad[len(bad)-1] ^= 0xFF
				b = append(b, bad...)
				b = append(b, encodeRecord(recs[2])...)
				writeSegment(t, dir, 1, b)
			},
			wantCorrupt: true,
		},
		{
			name: "torn record in non-final segment",
			build: func(t *testing.T, dir string) {
				b := full(t)
				writeSegment(t, dir, 1, b[:len(b)-3])
				writeSegment(t, dir, 2, encodeRecord(recs[0]))
			},
			wantCorrupt: true,
		},
		{
			// Segments are preallocated, so a zero run after the data is the
			// normal shape of a crash-abandoned segment, not damage.
			name: "zero padding tail",
			build: func(t *testing.T, dir string) {
				b := encodeRecord(recs[0])
				b = append(b, make([]byte, 512)...)
				writeSegment(t, dir, 1, b)
			},
			wantReplay: 1, wantSkips: 0,
		},
		{
			// Padding in a non-final segment is equally clean: the writer
			// crashed and a reopen sealed the segment off.
			name: "zero padding tail in sealed segment",
			build: func(t *testing.T, dir string) {
				b := encodeRecord(recs[0])
				b = append(b, make([]byte, 512)...)
				writeSegment(t, dir, 1, b)
				writeSegment(t, dir, 2, encodeRecord(recs[1]))
			},
			wantReplay: 2, wantSkips: 0,
		},
		{
			// A record can never legitimately sit past a zero run — the
			// writer appends contiguously.
			name: "valid record after zero padding",
			build: func(t *testing.T, dir string) {
				b := encodeRecord(recs[0])
				b = append(b, make([]byte, 64)...)
				b = append(b, encodeRecord(recs[1])...)
				writeSegment(t, dir, 1, b)
			},
			wantCorrupt: true,
		},
		{
			name: "oversized length prefix",
			build: func(t *testing.T, dir string) {
				var b []byte
				b = binary.AppendUvarint(b, uint64(maxRecordBytes)+1)
				b = append(b, full(t)...)
				writeSegment(t, dir, 1, b)
			},
			// Broken first record followed by what would be valid bytes, but
			// record framing is not self-synchronizing: the tail is dropped.
			wantReplay: 0, wantSkips: 1,
		},
		{
			name: "non-journal payload inside journal",
			build: func(t *testing.T, dir string) {
				b := encodeRecord(recs[0])
				b = append(b, encodeRecord(wire.SessionEOR{SID: 9, Round: 1})...)
				b = append(b, encodeRecord(recs[1])...)
				writeSegment(t, dir, 1, b)
			},
			wantCorrupt: true,
		},
		{
			name: "empty segment",
			build: func(t *testing.T, dir string) {
				writeSegment(t, dir, 1, full(t))
				writeSegment(t, dir, 2, nil)
			},
			wantReplay: 4,
		},
		{
			name: "garbage body with matching CRC",
			build: func(t *testing.T, dir string) {
				body := []byte{0xDE, 0xAD, 0xBE, 0xEF}
				var b []byte
				b = binary.AppendUvarint(b, uint64(len(body)))
				var crcBuf [4]byte
				binary.BigEndian.PutUint32(crcBuf[:], crc32.Checksum(body, castagnoli))
				b = append(b, crcBuf[:]...)
				b = append(b, body...)
				writeSegment(t, dir, 1, append(encodeRecord(recs[0]), b...))
			},
			wantReplay: 1, wantSkips: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			stats := &Stats{}
			var got int
			err := Replay(dir, stats, func(any) error { got++; return nil })
			if tc.wantCorrupt {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err=%v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got != tc.wantReplay || stats.ReplaySkips.Load() != tc.wantSkips {
				t.Fatalf("replayed=%d skips=%d, want %d/%d",
					got, stats.ReplaySkips.Load(), tc.wantReplay, tc.wantSkips)
			}
			// Replay must be idempotent: a second pass sees the same records.
			var again int
			if err := Replay(dir, nil, func(any) error { again++; return nil }); err != nil {
				t.Fatalf("second replay: %v", err)
			}
			if again != got {
				t.Fatalf("second replay saw %d records, first saw %d", again, got)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	stats := &Stats{}
	w, err := Open(Options{Dir: dir, Stats: stats, SegmentBytes: 256, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(12)
	var wantBytes int64
	for _, r := range recs {
		wantBytes += int64(len(encodeRecord(r)))
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.Appends.Load(); got != int64(len(recs)) {
		t.Fatalf("Appends=%d want %d", got, len(recs))
	}
	if got := stats.AppendBytes.Load(); got != wantBytes {
		t.Fatalf("AppendBytes=%d want %d", got, wantBytes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Rotation happens on the sync pass (Close runs the final one), never
	// at append time: appends are memory-only.
	if stats.Segment.Load() < 2 {
		t.Fatalf("Segment=%d, expected rotation past 1", stats.Segment.Load())
	}
	if stats.Depth.Load() != 0 {
		t.Fatalf("Depth=%d after Close, want 0", stats.Depth.Load())
	}
	replayAll(t, dir, stats)
	if stats.Replayed.Load() != int64(len(recs)) {
		t.Fatalf("Replayed=%d want %d", stats.Replayed.Load(), len(recs))
	}
	if stats.ReplayedSegs.Load() < 2 {
		t.Fatalf("ReplayedSegs=%d, expected several", stats.ReplayedSegs.Load())
	}
}

func TestOpenRejectsMissingDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open with empty Dir succeeded")
	}
}

func TestAppendRejectsNonWirePayload(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(struct{ X int }{1}); err == nil {
		t.Fatal("appending a non-wire payload succeeded")
	}
}

// TestGoldenCorpus replays the committed testdata/journal segment and pins
// its contents, so the record framing can't drift silently. Regenerate with
//
//	go test ./internal/journal/ -run TestGoldenCorpus -update
func TestGoldenCorpus(t *testing.T) {
	const corpusDir = "../../testdata/journal"
	if *update {
		if err := os.RemoveAll(corpusDir); err != nil {
			t.Fatal(err)
		}
		w, err := Open(Options{Dir: corpusDir, SegmentBytes: 192})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range testRecords(9) {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Leave a torn tail on the final segment so replay's tolerance is
		// pinned too.
		segs, err := segments(corpusDir)
		if err != nil {
			t.Fatal(err)
		}
		last := segs[len(segs)-1].path
		b, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(last, append(b, encodeRecord(testRecords(1)[0])[:5]...), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", corpusDir)
	}
	stats := &Stats{}
	got := replayAll(t, corpusDir, stats)
	if len(got) != 9 || stats.ReplaySkips.Load() != 1 {
		t.Fatalf("golden corpus: replayed=%d skips=%d, want 9/1", len(got), stats.ReplaySkips.Load())
	}
	want := testRecords(9)
	for i := range want {
		if !bytes.Equal(mustEncode(want[i]), mustEncode(got[i])) {
			t.Fatalf("golden corpus record %d drifted", i)
		}
	}
}

// TestWriterReproducesGoldenCorpus: the writer's own bytes are the corpus's.
// Writing testRecords(9) with 192-byte segments reproduces the first
// committed segment exactly and the second up to the 5-byte torn tail
// TestGoldenCorpus's -update appends to it.
func TestWriterReproducesGoldenCorpus(t *testing.T) {
	const corpusDir = "../../testdata/journal"
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 192})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(9) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, err := segments(dir); err != nil || len(segs) != 2 {
		t.Fatalf("the writer left %d segments (%v), the corpus holds 2", len(segs), err)
	}
	for name, tail := range map[string]int{"seg-00000001.waj": 0, "seg-00000002.waj": 5} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < tail || !bytes.Equal(got, want[:len(want)-tail]) {
			t.Errorf("%s: the writer wrote %x, the corpus holds %x (%d-byte torn tail)", name, got, want, tail)
		}
	}
}

// TestTornTailSurvivesSecondRestart: a crash mid-append leaves a broken
// record at the end of the final segment. The restart that tolerates it
// opens a new segment, which makes the torn one non-final — where a broken
// record is corruption. Replay therefore cuts the torn tail off, and the
// restart after that replays both segments cleanly.
func TestTornTailSurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(6)
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop the preallocated padding and half its body.
	seg := segPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	end := len(bytes.TrimRight(data, "\x00"))
	if err := os.WriteFile(seg, data[:end-3], 0o644); err != nil {
		t.Fatal(err)
	}

	stats := &Stats{}
	first := replayAll(t, dir, stats)
	if len(first) != len(recs)-1 || stats.ReplaySkips.Load() != 1 {
		t.Fatalf("first restart replayed %d records with %d skips, want %d and 1",
			len(first), stats.ReplaySkips.Load(), len(recs)-1)
	}
	w, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	second := replayAll(t, dir, stats)
	if len(second) != len(recs) || stats.ReplaySkips.Load() != 0 {
		t.Fatalf("second restart replayed %d records with %d skips, want all %d and none",
			len(second), stats.ReplaySkips.Load(), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(mustEncode(second[i]), mustEncode(recs[i])) {
			t.Fatalf("record %d: got %#v want %#v", i, second[i], recs[i])
		}
	}
}
