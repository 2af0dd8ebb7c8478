package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{0, 0}, {9, 0}, {99, 0}, // 99 samples leave 9.9 beyond p90: median only
		{100, 0.90}, {999, 0.90},
		{1000, 0.99}, {9999, 0.99},
		{10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := highestPercentile(c.samples); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestQuietEnd(t *testing.T) {
	// 1..101: the 2nd percentile sits two steps in from the quiet end,
	// whichever end that is.
	var xs []float64
	for i := 101; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := quiet(xs, "lower"); got != 3 {
		t.Errorf("quiet(lower) = %v, want 3", got)
	}
	if got := quiet(xs, "higher"); got != 99 {
		t.Errorf("quiet(higher) = %v, want 99", got)
	}
	if got := quiet(nil, "lower"); got != 0 {
		t.Errorf("quiet of nothing = %v, want 0", got)
	}
}

func TestRotation(t *testing.T) {
	var r rotation
	// Untraced stretches carry on where the last one stopped …
	if got := r.begin(nil); got != 0 {
		t.Fatalf("first stretch begins at %d", got)
	}
	r.advance(3)
	if got := r.begin(nil); got != 3 {
		t.Errorf("second untraced stretch begins at %d, want 3", got)
	}
	r.advance(2)
	// … a traced one starts the pool over, so its first operation is the
	// pool's first whatever ran before.
	if got := r.begin(newTracer()); got != 0 {
		t.Errorf("traced stretch begins at %d, want 0", got)
	}
	r.advance(4)
	if got := r.begin(nil); got != 4 {
		t.Errorf("stretch after the traced one begins at %d, want 4", got)
	}
}

// fakeClock only moves when someone sleeps or an operation takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopPacing(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := schedule{start: clk.now.Add(10 * time.Millisecond), interval: 10 * time.Millisecond}
	// Issuing costs 1 ms, except operation 2 whose issue stalls for 35 ms.
	var issuedAt []time.Time
	late := s.pace(clk, 6, func(i int) {
		issuedAt = append(issuedAt, clk.Now())
		cost := time.Millisecond
		if i == 2 {
			cost = 35 * time.Millisecond
		}
		clk.Sleep(cost)
	})
	// Operations 0..2 go out on time; the stall makes 3, 4 and 5 late by
	// 25, 16 and 7 ms; nothing is ever issued early.
	wantLate := []time.Duration{0, 0, 0, 25 * time.Millisecond, 16 * time.Millisecond, 7 * time.Millisecond}
	if !reflect.DeepEqual(late, wantLate) {
		t.Errorf("lateness = %v, want %v", late, wantLate)
	}
	for i, at := range issuedAt {
		if at.Before(s.due(i)) {
			t.Errorf("operation %d issued %v before it was due", i, s.due(i).Sub(at))
		}
		// The due time never moves: a completion 2 ms after issue is
		// charged the generator's lateness too.
		done := at.Add(2 * time.Millisecond)
		if got, want := done.Sub(s.due(i)), late[i]+2*time.Millisecond; got != want {
			t.Errorf("operation %d: latency from due time = %v, want %v", i, got, want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Req: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Req: 0, Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Req: 0, Start: 30, End: 70},    // overlaps a: union is [10,70)
		{ID: 4, Parent: 1, Name: "c", Req: 0, Start: 90, End: 130},   // sticks out: clipped to [90,100)
		{ID: 5, Parent: 2, Name: "leaf", Req: 0, Start: 20, End: 25}, // grandchild: only a's business
		{ID: 6, Name: "op", Req: 1, Start: 200, End: 260},
		{ID: 7, Parent: 6, Name: "a", Req: 1, Start: 200, End: 220},
		{ID: 8, Parent: 6, Name: "a", Req: 1, Start: 230, End: 240}, // two a's in one operation add up
	}
	self := selfTimes(spans)
	want := []float64{100 - 60 - 10, 40 - 5, 40, 40, 5, 60 - 30, 20, 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	med := layerMedians(spans)
	if med["op"] != 30 || med["a"] != (35+30)/2.0 {
		t.Errorf("layer medians = %v, want op 30 and a 32.5", med)
	}
}

func TestTracerNilAndAdopt(t *testing.T) {
	var none *tracer
	ran := false
	none.in(0, 0, "x", func() { ran = true }) // a nil tracer records nothing, runs the call, and must not panic
	if !ran {
		t.Error("nil tracer did not run the traced call")
	}
	tr := newTracer()
	root := tr.start(0, 7, "op")
	tr.end(root)
	fork := tr.fork()
	r := fork.start(0, 0, "replay")
	fork.in(r, 0, "wire.encode", func() {})
	fork.end(r)
	tr.adopt(fork)
	if len(tr.spans) != 3 || tr.spans[2].Parent != tr.spans[1].ID || tr.spans[1].Parent != 0 {
		t.Errorf("adopted spans lost their parents: %+v", tr.spans)
	}
}

func TestSpecStreamDeterminism(t *testing.T) {
	a, err := specStream(7, openMix, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := specStream(7, openMix, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different streams")
	}
	c, _ := specStream(8, openMix, 300)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same stream")
	}
	kinds := map[string]int{}
	coldSeeds := map[int64]bool{}
	for _, op := range a {
		kinds[op.Space]++
		if op.Space == coldSpace {
			coldSeeds[op.Seed] = true
		} else if op.Seed != hotSeed {
			t.Errorf("hot spec %s carries seed %d, want the fixed %d", op.Space, op.Seed, hotSeed)
		}
		// The program is handed generated inputs only, never the name of
		// the workload that generated them.
		for _, w := range workloads {
			for _, field := range []string{op.Space, op.Inputs, op.Adversary} {
				if strings.Contains(field, w.Name) {
					t.Errorf("spec %+v names workload %s", op, w.Name)
				}
			}
		}
	}
	if len(kinds) != 3 || kinds[hotSpace] < kinds[coldSpace] || kinds[coldSpace] < kinds[graphSpace] {
		t.Errorf("mix off its 60/25/15 weights: %v", kinds)
	}
	if len(coldSeeds) != kinds[coldSpace] {
		t.Errorf("%d cold specs share %d seeds; every cold spec needs its own", kinds[coldSpace], len(coldSeeds))
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p2_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s_p98", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, []float64{101, 100, 99, 102, 100}, verdictOK},
		{"slower latency", lower, steady, []float64{120, 121, 119, 120, 122}, verdictRegressed},
		{"faster latency", lower, steady, []float64{80, 81, 79, 80, 82}, verdictImproved},
		{"less throughput", higher, steady, []float64{80, 81, 79, 80, 82}, verdictRegressed},
		{"more throughput", higher, steady, []float64{120, 121, 119, 120, 122}, verdictImproved},
		{"noisy, overlapping", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 130}, verdictUnresolved},
		{"noisy, yet every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, verdictImproved},
		{"noisy, yet every run worse", lower, []float64{80, 100, 120, 90, 110}, []float64{160, 200, 240, 180, 220}, verdictRegressed},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogWithinContract pins the limits BENCHMARK.json must stay inside
// and that the committed file is the one the tables generate.
func TestCatalogWithinContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the allowed form", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	gated := 0
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
		if w.Ungated == "" {
			gated++
		}
	}
	if gated < 2 || gated > 8 {
		t.Errorf("%d gated workloads, want 2..8", gated)
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside the allowed form", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
		if m.Layer == "" || m.Moves == "" {
			t.Errorf("%s: no layer or no end-to-end metric it should move", m.Name)
		}
	}

	fresh := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := writeBenchmarkFile(fresh); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(fresh)
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("committed BENCHMARK.json: %v", err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -write BENCHMARK.json`")
	}
}
