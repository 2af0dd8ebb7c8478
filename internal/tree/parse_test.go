package tree

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestParseRoundTrip parses every tree back from its edge list. For the
// generated trees, which are built from VertexIDs, the label Builder that
// Parse runs is the reference: same labels, same neighbor lists.
func TestParseRoundTrip(t *testing.T) {
	for _, tc := range append([]namedTree{{"figure3", Figure3Tree()}}, generatedTrees()...) {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.tr
			text := orig.String()
			back, err := ParseString(text)
			if err != nil {
				t.Fatalf("ParseString: %v\ninput:\n%s", err, text)
			}
			if !orig.Equal(back) {
				t.Fatalf("round trip mismatch:\norig:\n%s\nback:\n%s", orig, back)
			}
			for v := VertexID(0); int(v) < orig.NumVertices(); v++ {
				if orig.Label(v) != back.Label(v) || !slices.Equal(orig.Neighbors(v), back.Neighbors(v)) {
					t.Fatalf("vertex %d: %s %v, parsed %s %v", v, orig.Label(v), orig.Neighbors(v), back.Label(v), back.Neighbors(v))
				}
			}
		})
	}
}

func TestParseComments(t *testing.T) {
	tr, err := ParseString("# a comment\n\n a - b \n# trailing\nb - c\n")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumVertices() != 3 {
		t.Errorf("vertices = %d, want 3", tr.NumVertices())
	}
}

func TestParseSingleVertex(t *testing.T) {
	tr, err := ParseString("solo\n")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumVertices() != 1 || tr.Label(0) != "solo" {
		t.Errorf("got %d vertices, label %q", tr.NumVertices(), tr.Label(0))
	}
	// Write side of the single-vertex special case.
	if got := tr.String(); got != "solo\n" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct{ name, in string }{
		{"three parts", "a - b - c\n"},
		{"empty side", "a - \n"},
		{"cycle", "a - b\nb - c\nc - a\n"},
		{"disconnected", "a - b\nc - d\n"},
		{"empty input", "# nothing\n"},
		{"duplicate edge", "a - b\nb - c\na - b\n"},
		{"reversed duplicate edge", "a - b\nb - c\nb - a\n"},
		{"self-loop", "a - a\na - b\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.in); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.in)
			}
		})
	}
}

// TestParseDuplicateEdgeMessage pins that a duplicated edge in the textual
// format reports ErrDuplicate naming the edge, not a misleading cycle error.
func TestParseDuplicateEdgeMessage(t *testing.T) {
	_, err := ParseString("a - b\nb - c\na - b\n")
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("error = %v, want ErrDuplicate", err)
	}
	if want := `tree: duplicate: edge "a"-"b"`; err.Error() != want {
		t.Fatalf("error message = %q, want %q", err.Error(), want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := NewSpider(3, 3)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(&back) {
		t.Errorf("JSON round trip mismatch")
	}
}

func TestJSONErrors(t *testing.T) {
	var tr Tree
	if err := json.Unmarshal([]byte(`{"vertices":["a"],"edges":[["a","zz"]]}`), &tr); err == nil {
		t.Error("undeclared edge endpoint should fail")
	}
	if err := json.Unmarshal([]byte(`not json`), &tr); err == nil {
		t.Error("garbage should fail")
	}
	if err := json.Unmarshal([]byte(`{"vertices":[],"edges":[]}`), &tr); err == nil {
		t.Error("empty tree should fail")
	}
}

func TestEqual(t *testing.T) {
	a := NewPath(5)
	if !a.Equal(NewPath(5)) {
		t.Error("identical trees unequal")
	}
	if a.Equal(NewPath(6)) {
		t.Error("different sizes equal")
	}
	if a.Equal(NewStar(5)) {
		t.Error("different shapes equal")
	}
}

func TestRender(t *testing.T) {
	tr := Figure3Tree()
	out := tr.Render(tr.Root(), map[VertexID]string{tr.MustVertex("v3"): "hull"})
	for _, want := range []string{"v1", "└── v2", "[hull]", "v8"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 8 {
		t.Errorf("render has %d lines, want 8:\n%s", lines, out)
	}
}

func TestRenderPath(t *testing.T) {
	tr := Figure3Tree()
	p := tr.Path(tr.MustVertex("v6"), tr.MustVertex("v1"))
	if got := tr.RenderPath(p); got != "v6 → v3 → v2 → v1" {
		t.Errorf("RenderPath = %q", got)
	}
}

func TestSortedLabels(t *testing.T) {
	tr := Figure3Tree()
	labels := tr.SortedLabels()
	if len(labels) != 8 || labels[0] != "v1" || labels[7] != "v8" {
		t.Errorf("SortedLabels = %v", labels)
	}
}

func TestWriteDOT(t *testing.T) {
	tr := Figure3Tree()
	var sb strings.Builder
	attrs := map[VertexID]string{tr.MustVertex("v3"): `fillcolor="gold", style=filled`}
	if err := tr.WriteDOT(&sb, "fig3", attrs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`graph "fig3" {`, `"v1" -- "v2";`, `"v3" [fillcolor="gold", style=filled];`, "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "--") != 7 {
		t.Errorf("DOT has %d edges, want 7", strings.Count(out, "--"))
	}
	// Invalid attribute id fails.
	if err := tr.WriteDOT(&sb, "x", map[VertexID]string{99: "x"}); err == nil {
		t.Error("invalid vertex in attrs should fail")
	}
	if got := tr.DOT(""); !strings.Contains(got, `graph "tree"`) {
		t.Errorf("DOT default name missing: %s", got)
	}
}
