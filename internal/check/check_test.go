package check

import (
	"fmt"
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
		"s=1;tree=path:5;n=4;t=2;in=spread",                          // 3t >= n
		"s=1;tree=nope:5;n=4;t=1;in=spread",                          // bad tree
		"s=1;tree=path:5;n=4;t=1;in=0.1;adv=silent",                  // wrong input count
		"s=1;tree=path:5;n=4;t=1;in=0.1.2.9;adv=silent",              // vertex outside tree
		"s=1;tree=path:5;n=4;t=0;in=spread;adv=silent",               // clauses need t > 0
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=silent+omit",          // t too small to mix
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=bogus",                // unknown clause
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=crash(rounds=1.2)",    // rounds/ids mismatch
		"s=1;tree=path:5;n=4;t=0;in=spread;adv=drop(from=4,round=1)", // link fault out of range
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=lat(jitter=1ms)",      // link fault without base
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
// fixed matrix of cells covering every clause family, including mutate.
// make prop runs this test under -race.
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

// TestMutateLeavesCrashAlone: mutate rewrites only what the Byzantine share
// sends. A crashing party's sends before its crash round are honest, and it
// sends nothing after, so a crash cell runs the same with or without
// mutate.
func TestMutateLeavesCrashAlone(t *testing.T) {
	run := func(spec string) viewRun {
		cr, err := compile(MustParse(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		cfg, err := cr.config()
		if err != nil {
			t.Fatal(err)
		}
		ms, _, _, err := cr.machines(false)
		if err != nil {
			t.Fatal(err)
		}
		return runViewForm(t, cfg, ms, false)
	}
	for _, space := range []string{"spider:3:3", "figure3", "graph:cliquechain:3:4"} {
		for seed := int64(1); seed <= 3; seed++ {
			crash := fmt.Sprintf("s=%d;tree=%s;n=7;t=2;in=spread;adv=crash(rounds=%d.%d)", seed, space, 2+seed, 7+seed)
			if got, want := run(crash+"+mutate(rate=400)"), run(crash); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: mutate changed a crash-only execution:\n got %+v\nwant %+v", crash, got, want)
			}
		}
	}
}

// TestTCPDifferential runs the TCP comparison on compatible cells: a
// Byzantine one, the same under mutate (the adversary host sends the
// mutated bytes), and omission beside a Byzantine clause (the omission seat
// filters its own sends, beside the adversary host).
func TestTCPDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	for _, spec := range []string{
		"s=1;tree=path:8;n=4;t=1;in=spread;adv=splitvote(per=1)",
		"s=1;tree=path:8;n=4;t=1;in=spread;adv=splitvote(per=1)+mutate(rate=300)",
		"s=1;tree=path:16;n=7;t=2;in=spread;adv=omit(halves=1)+splitvote",
	} {
		res, err := RunCell(MustParse(spec), Options{TCP: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.TCPChecked {
			t.Fatalf("TCP differential did not run on compatible cell %s", spec)
		}
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
	}
}

// TestTCPRunsUnderLinkFaults: the TCP differential injects the cell's link
// clauses under its links — a lat clause delays frames, a drop cuts one
// connection the transport then repairs — and the Result still equals the
// sequential run's; a cell without link clauses injects nothing. The test
// fails if RunCell's TCP run leaves the link clauses out.
func TestTCPRunsUnderLinkFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	for spec, want := range map[string]int64{
		"s=1;tree=path:8;n=4;t=1;in=spread;adv=splitvote(per=1)":                                    0,
		"s=1;tree=path:8;n=4;t=1;in=spread;adv=splitvote(per=1)+lat(base=100us,jitter=100us)":       50,
		"s=1;tree=path:8;n=4;t=0;in=spread;adv=drop(from=0,to=2,round=2)":                           1,
		"s=1;tree=path:16;n=7;t=2;in=spread;adv=splitvote+stop(rounds=2)+drop(from=0,to=2,round=2)": 1,
	} {
		res, err := RunCell(MustParse(spec), Options{TCP: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.TCPChecked {
			t.Fatalf("TCP differential did not run on %s", spec)
		}
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
		if (want == 0) != (res.LinkFaults == 0) || res.LinkFaults < want {
			t.Errorf("%s: %d link faults injected, want at least %d (and none without link clauses)", spec, res.LinkFaults, want)
		}
	}
}

// TestAddLinkFaultsCompiles: the link clauses drawn for TCP cells always
// build, come one or two of distinct kinds, and depend on the cell's seed
// alone.
func TestAddLinkFaultsCompiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		c := Generate(rng)
		before := len(c.Clauses)
		AddLinkFaults(c)
		added := c.Clauses[before:]
		if len(added) < 1 || len(added) > 2 || (len(added) == 2 && added[0].Name == added[1].Name) {
			t.Fatalf("%s: added %v, want one or two link clauses of distinct kinds", c, added)
		}
		if _, err := compile(c); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		again := MustParse(c.String())
		again.Clauses = again.Clauses[:before]
		if AddLinkFaults(again); again.String() != c.String() {
			t.Fatalf("link clauses differ across draws: %s vs %s", again, c)
		}
	}
}

// TestShrinkDropsLinkFaultsFirst: a violating cell's first candidates are
// the cell without each of its link clauses, and the shrunk cell keeps none
// of them (the planted evil bug needs no link fault to fire).
func TestShrinkDropsLinkFaultsFirst(t *testing.T) {
	c := MustParse(evilSpec + "+lat(base=1ms)+drop(from=0,round=2)")
	cands := candidates(c)
	for i, drop := range []string{"lat", "drop"} {
		for _, cl := range cands[i].Clauses {
			if cl.Name == drop {
				t.Errorf("candidate %d is %s, want the cell without %s", i, cands[i], drop)
			}
		}
		if len(cands[i].Clauses) != len(c.Clauses)-1 {
			t.Errorf("candidate %d is %s, want one clause dropped", i, cands[i])
		}
	}
	shrunk, _ := Shrink(c, Options{}, 300)
	if len(shrunk.Clauses) != 1 || shrunk.Clauses[0].Name != "evil" {
		t.Errorf("shrunk cell kept clauses %v, want only evil", shrunk.Clauses)
	}
}

// evilSpec is the known-bad injection: the planted evil machine bug sets
// every honest gradecast value consistently (so the burn rule never fires)
// to a position far outside the tree, dragging honest outputs out of the
// honest hull. Inputs are concentrated on one leaf so the hull is a single
// vertex.
const evilSpec = "s=1;tree=star:6;n=9;t=2;in=1.1.1.1.1.1.1.1.1;adv=splitvote(per=1)+evil(val=1000000)"

// TestEvilIsCaught: the checker must detect the out-of-model evil bug as a
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
	if !strings.HasPrefix(shrunk.Tree, "star:") {
		t.Fatalf("shrunk tree spec %q changed shape", shrunk.Tree)
	}
	var k int
	if _, err := sscanTreeArg(shrunk.Tree, &k); err != nil {
		t.Fatal(err)
	}
	if k >= 6 {
		t.Errorf("shrunk tree %s not smaller than star:6", shrunk.Tree)
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
