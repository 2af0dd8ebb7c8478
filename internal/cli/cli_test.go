package cli

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseTreeSpec(t *testing.T) {
	tests := []struct {
		spec     string
		vertices int
		diameter int
	}{
		{"path:10", 10, 9},
		{"star:8", 8, 2},
		{"spider:3:4", 13, 8},
		{"caterpillar:4:2", 12, 5},
		{"kary:2:3", 15, 6},
		{"random:20", 20, -1}, // diameter varies
		{"figure3", 8, 4},
	}
	for _, tc := range tests {
		t.Run(tc.spec, func(t *testing.T) {
			tr, err := ParseTreeSpec(tc.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tr.NumVertices() != tc.vertices {
				t.Errorf("vertices = %d, want %d", tr.NumVertices(), tc.vertices)
			}
			if tc.diameter >= 0 {
				if d, _, _ := tr.Diameter(); d != tc.diameter {
					t.Errorf("diameter = %d, want %d", d, tc.diameter)
				}
			}
		})
	}
}

func TestParseTreeSpecDeterministicRandom(t *testing.T) {
	a, err := ParseTreeSpec("random:30", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseTreeSpec("random:30", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed should produce identical random trees")
	}
}

func TestParseTreeSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus", "path", "path:x", "path:0", "spider:3", "kary:2",
		"@/nonexistent/file",
	} {
		if _, err := ParseTreeSpec(spec, 1); err == nil {
			t.Errorf("ParseTreeSpec(%q) succeeded, want error", spec)
		}
	}
}

func TestParseTreeSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.txt")
	if err := os.WriteFile(path, []byte("a - b\nb - c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseTreeSpec("@"+path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumVertices() != 3 {
		t.Errorf("vertices = %d, want 3", tr.NumVertices())
	}
}

func TestSpreadInputs(t *testing.T) {
	sp, err := ParseSpaceSpec("path:10", 1)
	if err != nil {
		t.Fatal(err)
	}
	in := sp.SpreadInputs(4)
	if len(in) != 4 || in[0] != 0 || in[3] != 9 {
		t.Errorf("SpreadInputs = %v", in)
	}
	// Single party: no division by zero.
	if in := sp.SpreadInputs(1); len(in) != 1 || in[0] != 0 {
		t.Errorf("SpreadInputs(1) = %v", in)
	}
}
