package sim

import (
	"fmt"
	"sync"
)

// RunConcurrent executes machines under cfg with one goroutine per party and
// a per-round barrier, matching the synchronous model's "all clocks aligned"
// semantics. For deterministic machines it produces exactly the same
// execution as Run; it exists to exercise protocols under real concurrency
// (and under the race detector in tests).
//
// Goroutine lifecycle and allocation discipline: workers are started once
// and communicate through preallocated per-party request slots. Each round
// the driver fills the slots of the honest parties, signals each worker on
// its reusable start channel, and waits on a reusable WaitGroup barrier —
// no channels, request structs or reply channels are allocated per round.
// Workers are shut down by closing the start channels before RunConcurrent
// returns; a second WaitGroup guarantees none outlive the call.
func RunConcurrent(cfg Config, machines []Machine) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("sim: %d machines for N = %d", len(machines), cfg.N)
	}

	// slot is a preallocated request/reply cell for one party. The trailing
	// pad keeps neighboring slots from sharing a cache line, so concurrent
	// workers writing their replies do not false-share.
	type slot struct {
		m     Machine
		round int
		inbox []Message
		out   []Message
		_     [64]byte
	}
	slots := make([]slot, cfg.N)
	start := make([]chan struct{}, cfg.N)
	var workers, barrier sync.WaitGroup
	for p := 0; p < cfg.N; p++ {
		start[p] = make(chan struct{}, 1)
		workers.Add(1)
		go func(s *slot, in <-chan struct{}) {
			defer workers.Done()
			for range in {
				s.out = s.m.Step(s.round, s.inbox)
				barrier.Done()
			}
		}(&slots[p], start[p])
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
		workers.Wait()
	}()

	// Every party steps in its own goroutine through plain Step: the lane's
	// digest store is for one sequential reader after another (Lane).
	step := func(r int, e *engine, machines []Machine) {
		barrier.Add(len(e.honest))
		for _, p := range e.honest {
			slots[p].m, slots[p].round, slots[p].inbox = machines[p], r, e.inboxes[p]
			start[p] <- struct{}{}
		}
		barrier.Wait() // barrier: wait for every party
		for _, p := range e.honest {
			e.raw[p] = slots[p].out
		}
	}
	return run(cfg, machines, step)
}
