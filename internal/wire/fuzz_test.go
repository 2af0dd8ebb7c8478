package wire

// go test -fuzz=FuzzDecode ./internal/wire/ — make fuzz (30s) and make
// fuzz-short (10s) run it. The corpus is seeded from the committed golden frames
// (testdata/wire/*.bin) and the retired ones (testdata/wire/retired/*.bin)
// plus systematic mutations of them; the invariants
// are: Decode never panics, and every accepted frame is canonical
// (Encode(Decode(b)) == b), with an exact Sizer (Size() == len(b)) when a
// round charges it.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"treeaa/internal/sim"
)

func FuzzDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.bin"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden frames to seed the corpus (run TestGoldenFrames -update): %v", err)
	}
	// The frames of the retired leaf types (0x04, 0x06, 0x07) stay seeds, and
	// Decode must reject them.
	retired, err := filepath.Glob(filepath.Join(goldenDir, "retired", "*.bin"))
	if err != nil || len(retired) == 0 {
		f.Fatalf("no retired frames under %s/retired: %v", goldenDir, err)
	}
	for _, path := range retired {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := Decode(b); err == nil {
			f.Fatalf("%s: Decode accepted a retired frame", path)
		}
	}
	for _, path := range append(paths, retired...) {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Truncations, extensions and bit flips of known-good frames reach
		// deeper decode states than random bytes.
		f.Add(b[:len(b)/2])
		f.Add(append(append([]byte{}, b...), 0x00))
		for i := 0; i < len(b); i += 5 {
			mut := append([]byte{}, b...)
			mut[i] ^= 0x80
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, TypeGradecastEcho, 0x00, 0x00, 0xFF})
	// SessionRound's own rejections: a nested session frame, a trailing byte,
	// a count the buffer cannot hold and a non-minimal leaf length.
	leaf := mustEncode(SessionEOR{SID: 7, Round: 3})
	f.Add(sessionRoundBody(0, 1, sessionRoundBody(0x01, 0)))
	f.Add(sessionRoundBody(0, 1, leaf))
	f.Add(append(sessionRoundBody(0x01, 0), 0x00))
	f.Add(sessionRoundBody(0, 9))
	f.Add(append(append(sessionRoundBody(0, 1), 0x80|byte(len(leaf)), 0x00), leaf...))

	// The committed corpus (testdata/wire/corpus/*.bin) holds inputs earlier
	// fuzzing runs found interesting — near-valid frames probing length
	// fields, map-key ordering and float encodings. Seeding them makes even a
	// 10-second fuzz-short pass start from deep decoder states.
	corpus, err := filepath.Glob(filepath.Join(goldenDir, "corpus", "*.bin"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no committed corpus under %s/corpus: %v", goldenDir, err)
	}
	for _, path := range corpus {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return // malformed frames must error, never panic
		}
		re, err := Encode(p)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %#v: %v", p, err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted non-canonical frame:\n  in %x\n out %x", b, re)
		}
		if s, ok := p.(sim.Sizer); charged(p) && (!ok || s.Size() != len(b)) {
			t.Fatalf("%T: not an exact sim.Sizer of its %d-byte frame", p, len(b))
		}
	})
}
