package metrics

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 3 {
		t.Errorf("mean = %v, want 3", s.Mean)
	}
	if s.P50 != 3 {
		t.Errorf("p50 = %v, want 3", s.P50)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("stddev = %v, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.P99 != 7 || s.StdDev != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

// TestSummarizeLargeMagnitude is the regression test for the variance
// computation: the old one-pass sumSq/n − mean² identity loses every
// significant digit when the mean is ~1e9 and the spread is ~1 (float64
// keeps ~15-16 digits; x² needs ~19), collapsing the variance to 0 (after
// clamping). The two-pass form is exact here: variance of {x, x+1, x+2} is
// 2/3 regardless of x.
func TestSummarizeLargeMagnitude(t *testing.T) {
	s := Summarize([]float64{1e9, 1e9 + 1, 1e9 + 2})
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.StdDev-want) > 1e-9 {
		t.Errorf("stddev of {1e9, 1e9+1, 1e9+2} = %v, want %v", s.StdDev, want)
	}
	if s.Mean != 1e9+1 {
		t.Errorf("mean = %v, want 1e9+1", s.Mean)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(sorted, 0.9); q != 9 {
		t.Errorf("p90 = %v, want 9", q)
	}
	if q := quantile(sorted, 0.01); q != 1 {
		t.Errorf("p1 = %v, want 1", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile(nil) = %v", q)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "rounds", "ratio")
	tab.AddRow("treeaa", 12, 1.5)
	tab.AddRow("baseline", 7, 2.0)
	out := tab.String()
	for _, want := range []string{"name", "rounds", "treeaa", "1.500", "baseline", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{3, "3"}, {3.25, "3.250"}, {-2, "-2"}, {math.Inf(1), "+Inf"},
	}
	for _, tc := range tests {
		if got := formatFloat(tc.in); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRenderASCII(t *testing.T) {
	var a, b Series
	a.Name = "up"
	b.Name = "down"
	for i := 0; i < 10; i++ {
		a.Add(float64(i), float64(i))
		b.Add(float64(i), float64(10-i))
	}
	out := RenderASCII(30, 10, a, b)
	if !strings.Contains(out, "*=up") || !strings.Contains(out, "+=down") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("markers missing:\n%s", out)
	}
}

// TestRenderASCIICollision: two series landing on the same cell render the
// dedicated collision marker instead of the later series overwriting the
// earlier one, and the legend explains it.
func TestRenderASCIICollision(t *testing.T) {
	var a, b Series
	a.Name = "a"
	b.Name = "b"
	// Identical midpoints collide; distinct endpoints keep both series visible.
	a.Add(0, 0)
	a.Add(5, 5)
	a.Add(10, 0)
	b.Add(0, 10)
	b.Add(5, 5)
	b.Add(10, 10)
	out := RenderASCII(21, 11, a, b)
	if !strings.ContainsRune(out, rune(collisionMarker)) {
		t.Errorf("no collision marker in:\n%s", out)
	}
	if !strings.Contains(out, "%=overlap") {
		t.Errorf("legend missing overlap entry:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("series markers missing:\n%s", out)
	}
}

// TestRenderASCIISameSeriesNoCollision: a series overwriting its own marker
// is not a collision.
func TestRenderASCIISameSeriesNoCollision(t *testing.T) {
	var a Series
	a.Name = "a"
	a.Add(0, 0)
	a.Add(0, 0)
	a.Add(10, 10)
	if out := RenderASCII(20, 8, a); strings.ContainsRune(out, rune(collisionMarker)) {
		t.Errorf("self-overlap rendered as collision:\n%s", out)
	}
}

func TestChaosStats(t *testing.T) {
	var c ChaosStats
	c.Delays.Add(3)
	c.Reconnects.Add(1)
	c.AddRoundLatency(2e6)
	c.AddRoundLatency(4e6)
	if lat := c.RoundLatency(); lat.N != 2 || lat.P50 != 2e6 {
		t.Errorf("round latency summary = %+v", lat)
	}
	s := c.String()
	for _, want := range []string{"3 delays", "1 reconnects", "p50"} {
		if !strings.Contains(s, want) {
			t.Errorf("ChaosStats.String() missing %q: %s", want, s)
		}
	}
}

// TestLatencySampleBounded pins the bounded latency sample behind every
// stats type: up to the cap its summary is Summarize over every duration,
// past it the most recent cap durations; a million adds keep the heap flat.
func TestLatencySampleBounded(t *testing.T) {
	var s sample
	var all []float64
	for i := 0; i < sampleCap; i++ {
		d := time.Duration((i*7919)%10007 + 1)
		s.add(d)
		all = append(all, float64(d))
	}
	if got, want := s.summary(), Summarize(all); got != want {
		t.Fatalf("summary below the cap = %+v, want %+v", got, want)
	}
	for i := 0; i < 10; i++ {
		s.add(time.Duration(1e9 + i))
		all = append(all, float64(1e9+i))
	}
	if got, want := s.summary(), Summarize(all[len(all)-sampleCap:]); got != want {
		t.Fatalf("summary past the cap = %+v, want the most recent %d: %+v", got, sampleCap, want)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var stats ServeStats
	for i := 0; i < 1_000_000; i++ {
		stats.AddSessionLatency(time.Duration(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4*8*sampleCap {
		t.Errorf("10^6 session latencies grew the heap by %d bytes, want <= %d", grew, 4*8*sampleCap)
	}
	if n := stats.SessionLatency().N; n != sampleCap {
		t.Errorf("retained %d latencies, want %d", n, sampleCap)
	}
	runtime.KeepAlive(&stats)
}

func TestRenderASCIIEmpty(t *testing.T) {
	if out := RenderASCII(20, 5); !strings.Contains(out, "no data") {
		t.Errorf("empty render = %q", out)
	}
}

func TestRenderASCIIDegenerate(t *testing.T) {
	var s Series
	s.Name = "flat"
	s.Add(1, 5)
	out := RenderASCII(4, 2, s) // forces width/height clamps
	if !strings.Contains(out, "flat") {
		t.Errorf("degenerate render:\n%s", out)
	}
}
