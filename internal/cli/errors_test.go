package cli

import (
	"errors"
	"testing"

	"treeaa/internal/tree"
)

// The exact error strings are part of the CLI surface: cmd/treeaa prints
// them verbatim and the property checker's spec language documentation
// references them. These tables pin them.

func TestParseInputsErrors(t *testing.T) {
	sp, err := ParseSpaceSpec("path:5", 1)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name, spec string
		n          int
		wantErr    string
	}{
		{"too few", "v1,v2", 4, "got 2 inputs for n = 4"},
		{"too many", "v1,v2,v3,v4,v5", 4, "got 5 inputs for n = 4"},
		{"one for zero", "v1", 0, "got 1 inputs for n = 0"},
		{"unknown label", "v1,v2,v3,nope", 4, `tree: unknown vertex: "nope"`},
		{"bare id", "v1,v2,v3,7", 4, `tree: unknown vertex: "7"`},
		{"empty element", "v1,v2,v3,", 4, `tree: unknown vertex: ""`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sp.ParseInputs(tc.spec, tc.n)
			if err == nil {
				t.Fatalf("ParseInputs(%q, %d) succeeded, want error", tc.spec, tc.n)
			}
			if err.Error() != tc.wantErr {
				t.Errorf("ParseInputs(%q, %d) error = %q, want %q", tc.spec, tc.n, err, tc.wantErr)
			}
		})
	}

	t.Run("unknown label wraps sentinel", func(t *testing.T) {
		_, err := sp.ParseInputs("v1,v2,v3,nope", 4)
		if !errors.Is(err, tree.ErrUnknownVertex) {
			t.Errorf("error %v does not wrap tree.ErrUnknownVertex", err)
		}
	})

	t.Run("labels are trimmed", func(t *testing.T) {
		inputs, err := sp.ParseInputs(" v1 , v2 ,v3, v4 ", 4)
		if err != nil {
			t.Fatalf("whitespace around labels rejected: %v", err)
		}
		if len(inputs) != 4 {
			t.Fatalf("got %d inputs", len(inputs))
		}
	})
}

func TestBuildAdversaryErrors(t *testing.T) {
	tr, err := ParseTreeSpec("path:5", 1)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		adv     string
		wantErr string
	}{
		{"unknown name", "bogus", `unknown adversary "bogus"`},
		{"typo", "equivocater", `unknown adversary "equivocater"`},
		{"empty name", "", `unknown adversary ""`},
		{"registry name not exposed", "replay", `unknown adversary "replay"`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := buildAdversary(tc.adv, tr, 4, 1, 1)
			if err == nil {
				t.Fatalf("buildAdversary(%q) succeeded, want error", tc.adv)
			}
			if err.Error() != tc.wantErr {
				t.Errorf("buildAdversary(%q) error = %q, want %q", tc.adv, err, tc.wantErr)
			}
		})
	}

	t.Run("t=0 short-circuits before name check", func(t *testing.T) {
		adv, corrupt, err := buildAdversary("bogus", tr, 4, 0, 1)
		if err != nil || adv != nil || len(corrupt) != 0 {
			t.Errorf("buildAdversary(bogus, t=0) = (%v, %v, %v), want (nil, empty, nil)", adv, corrupt, err)
		}
	})

	t.Run("every advertised name builds", func(t *testing.T) {
		for _, name := range AdversaryNames() {
			if _, _, err := buildAdversary(name, tr, 7, 2, 1); err != nil {
				t.Errorf("buildAdversary(%q): %v", name, err)
			}
		}
	})
}
