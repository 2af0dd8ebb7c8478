package session

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Workload is the session mix every serving harness drives — the cmd/serve
// smokes, the chaos serve soak and the kill-restart drill: one space, its
// inputs rotated per session, and the check applied to every decided
// Result. Sync sessions are pinned to the sequential oracle byte for byte.
// Async decisions depend on delivery order, so there is no reference
// schedule: those sessions are judged by the paper's properties instead —
// validity (outputs inside the input hull) and the space's agreement
// guarantee.
type Workload struct {
	sp      *cli.Space
	n, t    int
	seed    int64
	ttl     time.Duration
	oracles map[string]*sim.Result // sync only: the oracle per rotation, keyed by Inputs
}

// NewWorkload prepares the mix of one space spec for an n-daemon cluster
// and, unless async, computes the oracle of each of the first rotations
// input rotations (they repeat after NumVertices) before any daemon spins
// up. The spec is read as a served session reads it, so a file spec is
// refused before anything is opened.
func NewWorkload(spec string, seed int64, n, t int, ttl time.Duration, rotations int, async bool) (*Workload, error) {
	ps, err := parseSpec(Spec{Tree: spec, Seed: seed, T: t}, n, ttl)
	if err != nil {
		return nil, err
	}
	w := &Workload{sp: ps.space, n: n, t: t, seed: seed, ttl: ttl}
	if async {
		return w, nil
	}
	w.oracles = make(map[string]*sim.Result)
	for i := 0; i < w.sp.NumVertices() && i < rotations; i++ {
		s := w.Spec(i)
		want, err := Oracle(n, s)
		if err != nil {
			return nil, fmt.Errorf("session: workload oracle %d: %w", i, err)
		}
		w.oracles[s.Inputs] = want
	}
	return w, nil
}

// Spec is the i-th session of the mix.
func (w *Workload) Spec(i int) Spec {
	return Spec{Tree: w.sp.Spec, Seed: w.seed, T: w.t,
		Inputs: w.sp.RotateInputs(w.n, i), TTL: w.ttl}
}

// Drive runs the first sessions sessions of the mix at once, each on its own
// client dialed at addr(i), submitted and awaited. decided counts those that
// reached a decided Result; failures holds one line, in completion order, for
// every session that did not both decide and pass Verify.
func (w *Workload) Drive(addr func(i int) string, sessions int, dialTimeout time.Duration) (decided int, failures []string) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := w.Spec(i)
			var msg string
			got, err := driveOne(addr(i), s, dialTimeout)
			if err != nil {
				msg = err.Error()
			} else {
				msg = w.Verify(s, got)
			}
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				decided++
			}
			if msg != "" {
				failures = append(failures, fmt.Sprintf("session %d: %s", i, msg))
			}
		}(i)
	}
	wg.Wait()
	return decided, failures
}

// driveOne submits one session over a fresh client and waits it out.
func driveOne(addr string, s Spec, dialTimeout time.Duration) (*sim.Result, error) {
	cl, err := DialClient(addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()
	resp, err := cl.Submit(s, 0, true)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	return resp.SimResult()
}

// Verify returns why a decided Result fails the workload's check, or "".
func (w *Workload) Verify(s Spec, got *sim.Result) string {
	if w.oracles != nil {
		if !reflect.DeepEqual(got, w.oracles[s.Inputs]) {
			return "ORACLE MISMATCH: served Result diverges from sim.Run"
		}
		return ""
	}
	inputs, err := w.sp.ParseInputs(s.Inputs, w.n)
	if err != nil {
		return err.Error()
	}
	outputs := make(map[sim.PartyID]tree.VertexID, len(got.Outputs))
	for p, raw := range got.Outputs {
		v, ok := raw.(tree.VertexID)
		if !ok {
			return fmt.Sprintf("party %d output is %T, not a vertex", p, raw)
		}
		outputs[p] = v
	}
	_, validity, agreement := w.sp.Judge(inputs, nil, outputs)
	if violations := append(validity, agreement...); len(violations) > 0 {
		return "PROPERTY VIOLATION: " + violations[0]
	}
	return ""
}
