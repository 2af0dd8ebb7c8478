package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program is instrumented). Spans of one operation
// share Req; Parent is the id of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code with no span work.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// fork returns an empty tracer on the same time base, for spans that must
// not mix into t's per-layer medians (isolated replays) but belong in the
// same trace file; adopt appends them.
func (t *tracer) fork() *tracer { return &tracer{epoch: t.epoch} }

func (t *tracer) adopt(other *tracer) {
	off := len(t.spans)
	for _, s := range other.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(parent, req int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// in times fn as a child span.
func (t *tracer) in(parent, req int, name string, fn func()) {
	id := t.start(parent, req, name)
	fn()
	t.end(id)
}

// selfTimes returns every span's self time in nanoseconds, in span order:
// its duration minus the part of its interval that child spans cover.
// Children may overlap one another (parallel calls) and may stick out of the
// parent; only the union of their intervals, clipped to the parent, counts.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = float64(s.End - s.Start - covered)
	}
	return out
}

// layerMedians is the per-layer figure the traced pass reports: for each span
// name, the self time it took within one operation (summed over the
// operation's spans of that name), as the median over operations, in
// nanoseconds.
func (t *tracer) layerMedians() map[string]float64 { return layerMedians(t.spans) }

func layerMedians(spans []span) map[string]float64 {
	type key struct {
		name string
		req  int
	}
	perOp := make(map[key]float64)
	for i, self := range selfTimes(spans) {
		perOp[key{spans[i].Name, spans[i].Req}] += self
	}
	byName := make(map[string][]float64)
	for k, v := range perOp {
		byName[k.name] = append(byName[k.name], v)
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
