package check

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"treeaa/internal/core"
	"treeaa/internal/sim"
)

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"s=3;tree=caterpillar:4:2;n=7;t=2;in=spread;adv=noise(maxval=24)+splitvote(per=1)",
		"s=1;tree=path:5;n=4;t=1;in=0.3.4.2;adv=silent",
		"s=9;tree=figure3;n=6;t=0;in=spread",
		"s=2;tree=star:6;n=7;t=2;in=spread;adv=crash(rounds=2.5)",
		"s=0;tree=random:8;n=5;t=1;in=spread;adv=equivocator(hi=5000,lo=-10)+mutate(rate=100)",
		"s=4;tree=kary:2:2;n=9;t=2;in=spread;adv=halfburn+omit(drop=400,halves=1)",
		"s=7;tree=spider:2:3;n=4;t=1;in=1.1.1.1;adv=evil(val=1000000)",
	} {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := c.String(); got != spec {
			t.Errorf("round trip:\n in:  %s\n out: %s", spec, got)
		}
	}
}

func TestGeneratedSpecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		c := Generate(rng)
		c2, err := Parse(c.String())
		if err != nil {
			t.Fatalf("generated cell %s does not re-parse: %v", c, err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Errorf("re-parsed cell differs:\n gen:    %#v\n parsed: %#v", c, c2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"s=1",                            // missing fields
		"s=1;tree=path:5;n=4;t=1",        // missing in
		"s=1;tree=path:5;n=4;t=1;in=0.x", // bad vertex
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=splitvote(per)",  // malformed arg
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=splitvote(per=1", // unbalanced
		"s=1;tree=path:5;n=4;t=1;in=spread;bogus=3",             // unknown field
		"nonsense",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	for _, spec := range []string{
		"s=1;tree=path:5;n=4;t=2;in=spread",                       // 3t >= n
		"s=1;tree=nope:5;n=4;t=1;in=spread",                       // bad tree
		"s=1;tree=path:5;n=4;t=1;in=0.1;adv=silent",               // wrong input count
		"s=1;tree=path:5;n=4;t=1;in=0.1.2.9;adv=silent",           // vertex outside tree
		"s=1;tree=path:5;n=4;t=0;in=spread;adv=silent",            // clauses need t > 0
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=silent+omit",       // t too small to mix
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=bogus",             // unknown clause
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=crash(rounds=1.2)", // rounds/ids mismatch
	} {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if _, err := RunCell(c, Options{}); err == nil {
			t.Errorf("RunCell(%q) succeeded, want compile error", spec)
		}
	}
}

func TestIsSuspicionTag(t *testing.T) {
	for tag, want := range map[string]bool{
		"treeaa/pf/acc":   true,
		"treeaa/pf/acc2":  true,
		"treeaa/proj/acc": true,
		"treeaa/pf":       false,
		"treeaa/proj":     false,
		"treeaa/path":     false,
		"acc":             false,
		"x/accord":        false,
	} {
		if got := isSuspicionTag(tag); got != want {
			t.Errorf("isSuspicionTag(%q) = %v, want %v", tag, got, want)
		}
	}
}

// TestGeneratedCellsAreClean is the checker's own sanity anchor: a bounded
// random exploration must find no violations in the real protocol.
func TestGeneratedCellsAreClean(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		c := Generate(rng)
		res, err := RunCell(c, Options{})
		if err != nil {
			t.Fatalf("cell %d (%s): %v", i, c, err)
		}
		for _, v := range res.Violations {
			t.Errorf("cell %d: %s", i, v)
		}
	}
}

// TestDifferentialCells pins the sequential/concurrent differential on a
// fixed matrix of cells covering every clause family, including the
// delivery-seam tamperers. make prop runs this test under -race.
func TestDifferentialCells(t *testing.T) {
	for _, spec := range []string{
		"s=1;tree=path:8;n=7;t=2;in=spread;adv=splitvote(per=1)",
		"s=2;tree=figure3;n=7;t=2;in=spread;adv=halfburn+mutate(rate=300)",
		"s=3;tree=star:6;n=6;t=1;in=spread;adv=noise(maxval=12)",
		"s=4;tree=caterpillar:3:1;n=7;t=2;in=spread;adv=equivocator(hi=1000,lo=-100)+omit(drop=500)",
		"s=5;tree=spider:2:2;n=5;t=1;in=spread;adv=crash(rounds=3)",
		"s=6;tree=random:7;n=4;t=1;in=spread;adv=replay(delay=2)+mutate(rate=500)",
		"s=7;tree=kary:2:2;n=9;t=2;in=spread;adv=frame(fake=5)",
		"s=8;tree=path:6;n=4;t=0;in=spread",
	} {
		res, err := RunCell(MustParse(spec), Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
	}
}

// TestTCPDifferential runs the TCP comparison on one compatible cell.
func TestTCPDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	res, err := RunCell(MustParse("s=1;tree=path:8;n=4;t=1;in=spread;adv=splitvote(per=1)"), Options{TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TCPChecked {
		t.Fatal("TCP differential did not run on a compatible cell")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// evilSpec is the known-bad injection: the delivery-seam tamperer rewrites
// every value gradecast consistently (so the burn rule never fires) to a
// position far outside the tree, dragging honest outputs out of the honest
// hull. Inputs are concentrated on one leaf so the hull is a single vertex.
const evilSpec = "s=1;tree=star:6;n=9;t=2;in=1.1.1.1.1.1.1.1.1;adv=splitvote(per=1)+evil(val=1000000)"

// TestEvilIsCaught: the checker must detect the out-of-model tamperer as a
// validity violation, deterministically across repeated runs.
func TestEvilIsCaught(t *testing.T) {
	c := MustParse(evilSpec)
	first, err := RunCell(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hasValidity := false
	for _, v := range first.Violations {
		if v.Invariant == "validity" {
			hasValidity = true
		}
	}
	if !hasValidity {
		t.Fatalf("evil cell produced no validity violation: %v", first.Violations)
	}
	again, err := RunCell(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("evil cell is not deterministic:\n 1st: %+v\n 2nd: %+v", first, again)
	}
}

// TestEvilShrinks: the shrinker must reduce the known-bad cell to a minimal
// spec — the decoy splitvote clause dropped, the corruption budget collapsed
// (evil needs no corrupted parties at all) and the tree reduced — that still
// reproduces the violation.
func TestEvilShrinks(t *testing.T) {
	c := MustParse(evilSpec)
	shrunk, runs := Shrink(c, Options{}, 300)
	if runs == 0 {
		t.Fatal("shrinker spent no runs")
	}
	if !Violates(shrunk, Options{}) {
		t.Fatalf("shrunk cell %s no longer violates", shrunk)
	}
	if shrunk.T > 0 {
		t.Errorf("shrunk cell kept t = %d; evil needs no corrupted parties", shrunk.T)
	}
	if len(shrunk.Clauses) != 1 || shrunk.Clauses[0].Name != "evil" {
		t.Errorf("shrunk cell kept clauses %v, want only evil", shrunk.Clauses)
	}
	if shrunk.N >= c.N {
		t.Errorf("shrunk cell kept n = %d, want < %d", shrunk.N, c.N)
	}
	if !strings.HasPrefix(shrunk.TreeSpec, "star:") {
		t.Fatalf("shrunk tree spec %q changed shape", shrunk.TreeSpec)
	}
	var k int
	if _, err := sscanTreeArg(shrunk.TreeSpec, &k); err != nil {
		t.Fatal(err)
	}
	if k >= 6 {
		t.Errorf("shrunk tree %s not smaller than star:6", shrunk.TreeSpec)
	}
	t.Logf("shrunk: %s (%d runs)", shrunk, runs)
}

func sscanTreeArg(spec string, k *int) (int, error) {
	parts := strings.SplitN(spec, ":", 2)
	v, err := parseInt(parts[1])
	*k = v
	return v, err
}

func parseInt(s string) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}

// TestCollapseInvariantBites: checkCollapse must flag a t <= 1 execution
// whose honest decisions are 1-close but not equal (what the t >= 2 guarantee
// alone would allow), stay silent on the real run, on t >= 2 and on trivial
// spaces. The disagreeing decision is borrowed from a second run of the same
// cell shape with every input moved to the far end of the path.
func TestCollapseInvariantBites(t *testing.T) {
	run := func(spec string) (*compiled, []*core.Machine) {
		t.Helper()
		cr, err := compile(MustParse(spec))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := cr.config()
		if err != nil {
			t.Fatal(err)
		}
		ms, cores, _, err := cr.machines(false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(cfg, ms); err != nil {
			t.Fatal(err)
		}
		return cr, cores
	}
	cr, cores := run("s=1;tree=path:8;n=4;t=1;in=0.1.0.1;adv=splitvote(per=1)")
	honest := cr.honestParties()
	if got := cr.checkCollapse(honest, cores); len(got) != 0 {
		t.Fatalf("clean t = 1 run flagged: %v", got)
	}
	_, other := run("s=1;tree=path:8;n=4;t=1;in=1.2.1.2;adv=splitvote(per=1)")
	mixed := append([]*core.Machine{other[0]}, cores[1:]...)
	got := cr.checkCollapse(honest, mixed)
	if len(got) == 0 || got[0].Invariant != "collapse" {
		t.Fatalf("disagreeing honest decisions not flagged: %v", got)
	}
	cr.cell.T = 2
	if got := cr.checkCollapse(honest, mixed); len(got) != 0 {
		t.Errorf("t = 2 is not bound by the collapse: %v", got)
	}
	trivial, tcores := run("s=1;tree=path:2;n=4;t=1;in=0.1.0.1")
	if got := trivial.checkCollapse(trivial.honestParties(), tcores); len(got) != 0 {
		t.Errorf("trivial space flagged: %v", got)
	}
}
