package pathaa

import (
	"testing"

	"treeaa/internal/tree"
)

// TestVertexAtEdges drives the position decode directly with out-of-range
// RealAA outputs: values past either path end clamp to that end instead of
// indexing out of bounds, and only an overrun past v_k reports the Figure 5
// fallback.
func TestVertexAtEdges(t *testing.T) {
	path := []tree.VertexID{20, 21, 22, 23} // k = 4
	for _, tc := range []struct {
		name     string
		j        float64
		want     tree.VertexID
		fellBack bool
	}{
		{"interior", 2.0, 21, false},
		{"rounds up", 2.5, 22, false},
		{"rounds down", 2.49, 21, false},
		{"last in range", 4.49, 23, false},
		{"past the end", 4.5, 23, true},
		{"far past the end", 1e9, 23, true},
		{"below the range", 0.49, 20, false},
		{"far below the range", -3, 20, false},
	} {
		got, fellBack := VertexAt(path, tc.j)
		if got != tc.want || fellBack != tc.fellBack {
			t.Errorf("%s: VertexAt(path, %v) = (%d, %v), want (%d, %v)",
				tc.name, tc.j, got, fellBack, tc.want, tc.fellBack)
		}
	}
}

// TestVertexAtSingleVertexPath: a one-vertex path absorbs every decode, and
// only overruns fall back.
func TestVertexAtSingleVertexPath(t *testing.T) {
	for _, tc := range []struct {
		j        float64
		fellBack bool
	}{{1, false}, {0, false}, {-5, false}, {2, true}, {100, true}} {
		got, fellBack := VertexAt([]tree.VertexID{3}, tc.j)
		if got != 3 || fellBack != tc.fellBack {
			t.Errorf("VertexAt([v4], %v) = (%d, %v), want (3, %v)", tc.j, got, fellBack, tc.fellBack)
		}
	}
}
