// Package metrics provides the result plumbing shared by the benchmark
// harness, the cmd/ tools and the experiment catalog: traffic and chaos
// counters, small statistics helpers, labeled series with ASCII figures,
// and fixed-width table rendering. It exists so that every experiment
// prints its rows the same way the paper's tables would.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// WireStats counts transport-level traffic: every frame the TCP substrate
// puts on (or takes off) a socket, including protocol payload frames and
// the handshake / mirror / end-of-round control frames that sim.Result's
// Messages and Bytes deliberately exclude. The difference between
// BytesSent and a run's Result.Bytes is therefore the substrate's framing
// overhead — the number the guesswork-era DefaultPayloadSize accounting
// could never produce. All counters are atomic; one WireStats may be
// shared by every connection of a node.
type WireStats struct {
	FramesSent atomic.Int64
	BytesSent  atomic.Int64
	FramesRecv atomic.Int64
	BytesRecv  atomic.Int64
}

// AddSent records one sent frame of the given encoded size.
func (w *WireStats) AddSent(bytes int) {
	w.FramesSent.Add(1)
	w.BytesSent.Add(int64(bytes))
}

// AddRecv records one received frame of the given encoded size.
func (w *WireStats) AddRecv(bytes int) {
	w.FramesRecv.Add(1)
	w.BytesRecv.Add(int64(bytes))
}

// String renders the counters for logs and the cmd/node summary line.
func (w *WireStats) String() string {
	return fmt.Sprintf("sent %d frames / %d bytes, recv %d frames / %d bytes",
		w.FramesSent.Load(), w.BytesSent.Load(), w.FramesRecv.Load(), w.BytesRecv.Load())
}

// ChaosStats counts what the chaos layer did to a run and what the
// transport did to survive it: injected faults on one side (delays, stalls,
// drops, partition holds), recovery work on the other (reconnects, resent
// frames), plus a per-round latency sample for p50/p99 reporting. Every
// field is safe for concurrent use, so one ChaosStats may be shared by every
// endpoint, sender and chaos conn of a cluster.
type ChaosStats struct {
	// Injected faults (recorded by internal/chaos at the net.Conn boundary).
	Delays     atomic.Int64 // frames delayed by per-link latency/jitter
	Stalls     atomic.Int64 // frames held by a stall clause
	Drops      atomic.Int64 // connections torn down by a drop clause
	Partitions atomic.Int64 // frames held across an active partition cut
	// FaultedRounds counts the (ordered link, round) pairs some clause
	// acted on. A frame resent after a drop repeats a pair already counted,
	// so unlike the per-frame counts above it is fixed by the plan and the
	// rounds the run sends, not by timing.
	FaultedRounds atomic.Int64

	// Recovery work (recorded by internal/transport's reconnect path).
	Reconnects   atomic.Int64 // link generations after a party's first, each resumed by a count exchange
	FramesResent atomic.Int64
	BytesResent  atomic.Int64

	roundLat sample // per completed round, across parties
}

// AddRoundLatency records one party's wall-clock duration for one round.
func (c *ChaosStats) AddRoundLatency(d time.Duration) { c.roundLat.add(d) }

// RoundLatency summarizes the recorded per-round durations (nanoseconds).
func (c *ChaosStats) RoundLatency() Summary { return c.roundLat.summary() }

// String renders the counters for logs and cmd/node's chaos line.
func (c *ChaosStats) String() string {
	lat := c.RoundLatency()
	return fmt.Sprintf("injected %d delays / %d stalls / %d drops / %d partition holds; "+
		"recovered with %d reconnects, %d frames resent (%d bytes); "+
		"round latency p50 %v p99 %v",
		c.Delays.Load(), c.Stalls.Load(), c.Drops.Load(), c.Partitions.Load(),
		c.Reconnects.Load(), c.FramesResent.Load(), c.BytesResent.Load(),
		time.Duration(lat.P50), time.Duration(lat.P99))
}

// sampleCap bounds a sample: it keeps the most recent sampleCap durations.
const sampleCap = 4096

// sample is a bounded, mutex-guarded sample of durations, so a long-lived
// daemon holds a fixed amount of memory and a summary costs a fixed sort,
// however many durations it has seen. Up to sampleCap durations its summary
// is Summarize over all of them; past that, over the most recent sampleCap.
// The zero sample is empty and ready to use.
type sample struct {
	mu   sync.Mutex
	ns   []float64 // nanoseconds; a ring once full
	next int       // the oldest entry once full
}

// add records one duration.
func (s *sample) add(d time.Duration) {
	s.mu.Lock()
	if len(s.ns) < sampleCap {
		s.ns = append(s.ns, float64(d.Nanoseconds()))
	} else {
		s.ns[s.next] = float64(d.Nanoseconds())
		s.next = (s.next + 1) % sampleCap
	}
	s.mu.Unlock()
}

// summary summarizes the retained durations (nanoseconds).
func (s *sample) summary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Summarize(s.ns)
}

// Summary holds order statistics of a sample.
type Summary struct {
	N              int
	Min, Max, Mean float64
	P50, P90, P99  float64
	StdDev         float64
}

// Summarize computes order statistics. An empty sample yields a zero
// Summary. Variance is computed in two passes (sum of squared deviations
// from the mean) rather than the one-pass sumSq/n − mean² identity: the
// one-pass form cancels catastrophically when the mean dwarfs the spread —
// e.g. nanosecond-scale latency timestamps around 1e9 with unit jitter —
// and can even go negative. TestSummarizeLargeMagnitude pins this.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	n := float64(len(s))
	mean := sum / n
	variance := 0.0
	for _, x := range s {
		d := x - mean
		variance += d * d
	}
	variance /= n
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		P50:    quantile(s, 0.50),
		P90:    quantile(s, 0.90),
		P99:    quantile(s, 0.99),
		StdDev: math.Sqrt(variance),
	}
}

// quantile returns the q-quantile of a sorted sample (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with %g.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 0) || math.IsNaN(v):
		return fmt.Sprintf("%v", v)
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var total int64
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
		n, err := io.WriteString(w, sb.String())
		total += int64(n)
		return err
	}
	if err := writeRow(t.headers); err != nil {
		return total, err
	}
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(rule); err != nil {
		return total, err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the aligned table.
func (t *Table) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		return fmt.Sprintf("<table: %v>", err)
	}
	return sb.String()
}

// Series is a labeled (x, y) sequence for figure-style outputs.
type Series struct {
	Name   string
	Points []Point
}

// Point is one (x, y) sample.
type Point struct {
	X, Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// RenderASCII draws one or more series as a coarse ASCII scatter plot —
// enough to eyeball the shape (who wins, where curves cross) in a terminal.
func RenderASCII(width, height int, series ...Series) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if minX > maxX {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', '+', 'o', 'x', '#', '@'}
	for si, s := range series {
		m := markers[si%len(markers)]
		for _, p := range s.Points {
			col := int((p.X - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((p.Y-minY)/(maxY-minY)*float64(height-1))
			// A cell already claimed by a *different* series becomes the
			// collision marker, so crossing curves stay visible instead of
			// the later series silently overwriting the earlier one.
			switch cur := grid[row][col]; {
			case cur == ' ' || cur == m:
				grid[row][col] = m
			default:
				grid[row][col] = collisionMarker
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "y: [%s, %s]\n", formatFloat(minY), formatFloat(maxY))
	for _, line := range grid {
		sb.WriteString("| ")
		sb.Write(line)
		sb.WriteByte('\n')
	}
	sb.WriteString("+" + strings.Repeat("-", width+1) + "\n")
	fmt.Fprintf(&sb, "x: [%s, %s]   ", formatFloat(minX), formatFloat(maxX))
	for si, s := range series {
		if si > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%c=%s", markers[si%len(markers)], s.Name)
	}
	for _, line := range grid {
		if bytes.ContainsRune(line, rune(collisionMarker)) {
			fmt.Fprintf(&sb, "  %c=overlap", collisionMarker)
			break
		}
	}
	sb.WriteByte('\n')
	return sb.String()
}

// collisionMarker flags a plot cell claimed by more than one series. It is
// deliberately outside the series marker alphabet.
const collisionMarker byte = '%'
