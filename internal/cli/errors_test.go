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

// linkClauses gives each link fault the arguments it needs: a bare link
// name names no link.
var linkClauses = map[string]string{"lat": "lat(base=1ms)", "stall": "stall(from=0,rounds=1)",
	"drop": "drop(from=0,round=1)", "part": "part(a=0,b=1,rounds=1)"}

func TestBuildAdversaryErrors(t *testing.T) {
	sp, err := ParseSpaceSpec("path:5", 1)
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
		{"party clause argument typo", "splitvote(pre=2)", "adversary clause splitvote(pre=2): unknown argument pre"},
		{"crash takes rounds", "crash(round=2)", "adversary clause crash(round=2): unknown argument round"},
		{"modifier argument typo", "mutate(rates=1)", "adversary clause mutate(rates=1): unknown argument rates"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := sp.BuildAdversary(tc.adv, 4, 1, 1)
			if err == nil {
				t.Fatalf("BuildAdversary(%q) succeeded, want error", tc.adv)
			}
			if err.Error() != tc.wantErr {
				t.Errorf("BuildAdversary(%q) error = %q, want %q", tc.adv, err, tc.wantErr)
			}
		})
	}

	t.Run("replay builds", func(t *testing.T) {
		adv, corrupt, err := sp.BuildAdversary("replay", 4, 1, 1)
		if err != nil || adv == nil || !corrupt[3] {
			t.Errorf("BuildAdversary(replay) = (%v, %v, %v), want p3 replaying", adv, corrupt, err)
		}
	})

	t.Run("t=0 builds nothing but checks the spec", func(t *testing.T) {
		adv, corrupt, err := sp.BuildAdversary("splitvote(per=2)+omit", 4, 0, 1)
		if err != nil || adv != nil || len(corrupt) != 0 {
			t.Errorf("BuildAdversary(splitvote(per=2)+omit, t=0) = (%v, %v, %v), want (nil, empty, nil)", adv, corrupt, err)
		}
		for spec, want := range map[string]string{"bogus": `unknown adversary "bogus"`, "zzz(": `unknown adversary "zzz"`,
			"splitvote(per=1": `adversary clause "splitvote(per=1": unbalanced parentheses`} {
			if _, _, err := sp.BuildAdversary(spec, 4, 0, 1); err == nil || err.Error() != want {
				t.Errorf("BuildAdversary(%q, t=0) error = %v, want %q", spec, err, want)
			}
		}
	})

	t.Run("every advertised name refuses an unknown argument", func(t *testing.T) {
		for _, name := range AdversaryNames() {
			for tc := 0; tc <= 2; tc++ {
				spec := name + "(bogus=1)"
				want := "adversary clause " + spec + ": unknown argument bogus"
				if _, _, err := sp.BuildAdversary(spec, 7, tc, 1); err == nil || err.Error() != want {
					t.Errorf("BuildAdversary(%q, t=%d) error = %v, want %q", spec, tc, err, want)
				}
			}
		}
	})

	t.Run("every advertised name builds", func(t *testing.T) {
		for _, name := range append(AdversaryNames(), "none") {
			if link, ok := linkClauses[name]; ok {
				name = link
			}
			if _, _, err := sp.BuildAdversary(name, 7, 2, 1); err != nil {
				t.Errorf("BuildAdversary(%q): %v", name, err)
			}
		}
	})
}
