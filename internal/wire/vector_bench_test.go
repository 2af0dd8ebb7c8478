package wire

import (
	"testing"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

// bigEchoFrame is an n=64 echo vector, the shape that dominates the serving
// hot path (engine.apply decodes one per inbound vector frame).
func bigEchoFrame(tb testing.TB, n int) []byte {
	tb.Helper()
	vals := make(map[sim.PartyID]float64, n)
	for i := 0; i < n; i++ {
		vals[sim.PartyID(i)] = float64(i) * 1.5
	}
	enc, err := Encode(&gradecast.EchoMsg{Tag: "treeaa/pf", Iter: 3, Vals: gradecast.CopyVals(vals)})
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// TestDecodeVectorAllocs pins the decode cost of a vector payload: one flat
// exact-size Vec, the tag string, and the interface box — three allocations,
// independent of entry count. The map-based decoder this replaced allocated
// the hmap plus a bucket chain per message (~34% of serve-path allocations);
// this assertion is the regression gate that keeps it dead.
func TestDecodeVectorAllocs(t *testing.T) {
	frame := bigEchoFrame(t, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Decode(echo[64]) = %.1f allocs/op, want <= 3 (flat Vec + tag + box)", allocs)
	}
}

func BenchmarkDecodeVector(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		frame := bigEchoFrame(b, n)
		b.Run(map[int]string{8: "n8", 64: "n64", 256: "n256"}[n], func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if _, err := Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
