package core

import (
	"testing"

	"treeaa/internal/pathaa"
	"treeaa/internal/tree"
)

// TestDecideVertexEdges drives TreeAA's line-6 decode — pathaa.VertexAt on
// the party's path — directly with out-of-range RealAA outputs, pinning the
// Figure 5 path-end fallback (closestInt(j) > k) and the defensive pos < 1
// clamp without needing an adversary strong enough to push j outside the
// honest range.
func TestDecideVertexEdges(t *testing.T) {
	path := []tree.VertexID{10, 11, 12, 13, 14} // k = 5
	for _, tc := range []struct {
		name     string
		j        float64
		want     tree.VertexID
		fellBack bool
	}{
		{"interior", 3.0, 12, false},
		{"rounds down", 3.49, 12, false},
		{"rounds up", 3.5, 13, false},
		{"last in range", 5.49, 14, false},
		{"just past the end", 5.5, 14, true},
		{"far past the end", 100, 14, true},
		{"first in range", 1.0, 10, false},
		{"below the range", 0.49, 10, false},
		{"far below the range", -7, 10, false},
	} {
		got, fellBack := pathaa.VertexAt(path, tc.j)
		if got != tc.want || fellBack != tc.fellBack {
			t.Errorf("%s: VertexAt(path, %v) = (%d, %v), want (%d, %v)",
				tc.name, tc.j, got, fellBack, tc.want, tc.fellBack)
		}
	}
}

// TestDecideVertexSingleVertexPath: on a one-vertex path every decode — in
// range, above, below — lands on that vertex and only overruns fall back.
func TestDecideVertexSingleVertexPath(t *testing.T) {
	path := []tree.VertexID{7}
	for _, tc := range []struct {
		j        float64
		fellBack bool
	}{{1.0, false}, {1.5, true}, {42, true}, {0.2, false}, {-1, false}} {
		got, fellBack := pathaa.VertexAt(path, tc.j)
		if got != 7 || fellBack != tc.fellBack {
			t.Errorf("VertexAt([v7], %v) = (%d, %v), want (7, %v)", tc.j, got, fellBack, tc.fellBack)
		}
	}
}
