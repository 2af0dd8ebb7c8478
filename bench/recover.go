package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"treeaa/internal/session"
	"treeaa/internal/sim"
)

const (
	recoverFixed = 400 // decided sessions the recovery journal holds
	recoverRate  = 4   // kill→ready cycles per second of requested run time
)

// recoverEnv is a journaled service whose operation is not a session but a
// seat's death and return.
type recoverEnv struct {
	*serveEnv
	acked     []ackedSession // what the journal must still hold after any kill
	populated time.Duration
	next      rotation // over the seats
}

type ackedSession struct {
	sid    uint64
	origin int
	want   *sim.Result
}

func setupServeRecover(c *runCtx) (env, error) {
	e, err := startService(c, serveDurable)
	if err != nil {
		return nil, err
	}
	return &recoverEnv{serveEnv: e}, nil
}

// populate fills the journal with a fixed number of decided sessions, so
// every recovery on either side of a comparison replays the same log. It is
// the workload's starting state, built once and kept out of setup_s.
func (e *recoverEnv) populate() error {
	t0 := time.Now()
	for _, s := range e.closedLoop(func(issued int) bool { return issued < recoverFixed }, nil) {
		if !e.judge(s) {
			return fmt.Errorf("populating the journal: session %d (%v) did not decide correctly", s.idx, s.err)
		}
		e.acked = append(e.acked, ackedSession{s.resp.SID, s.client % serveN, e.oracles[s.idx%len(e.ops)]})
	}
	for _, cl := range e.clients { // their daemons are about to be killed
		cl.Close()
	}
	e.clients = nil
	e.populated = time.Since(t0)
	return nil
}

// phase kills seats round robin, abruptly, and restarts them. One operation
// is kill→ready. After each, every session the killed seat had acknowledged
// as decided is queried again and must still be decided and DeepEqual to its
// oracle: zero lost acked-decided sessions.
//
// A phase asked for dur makes dur × recoverRate cycles, at least one: the
// traced pass's quarter-length stretches make the same restarts on both
// sides of a comparison, and each 100 ms slice of an untraced pass makes one.
// That matters because every restart leaves another preallocated segment
// behind and the next recovery is a little slower for it (≈220 ms at the
// 60th restart, ≈320 ms at the 100th): a faster recovery fits more cycles
// into an untraced run, and the later ones are slower. latency_p2_ms reads
// the run's fastest — its earliest — cycles, the same ones on both sides.
func (e *recoverEnv) phase(dur time.Duration, tr *tracer) (*phaseResult, error) {
	if e.acked == nil {
		if err := e.populate(); err != nil {
			return nil, err
		}
	}
	ph := &phaseResult{counts: map[string]float64{}}
	var replayed []float64
	first := e.next.begin(tr)
	for cycles := max(1, int(dur.Seconds()*recoverRate)); ph.attempted < cycles; {
		req, seat := ph.attempted, (first+ph.attempted)%serveN
		ph.meter.resume()
		t0 := time.Now()
		root := tr.start(0, req, "op")
		var err error
		tr.in(root, req, "session.kill", func() { err = e.cluster.Kill(seat) })
		if err != nil {
			return nil, fmt.Errorf("kill seat %d: %w", seat, err)
		}
		tr.in(root, req, "session.start", func() { err = e.cluster.Start(seat) })
		tr.end(root)
		lat := time.Since(t0)
		ph.meter.pause()
		if err != nil {
			return nil, fmt.Errorf("restart seat %d: %w", seat, err)
		}
		ph.attempted++
		replayed = append(replayed, float64(e.jstats.Replayed.Load()))
		if lost := e.lostAfterRestart(seat); lost > 0 {
			logf("serve-recover: cycle %d: seat %d lost %d acked-decided sessions", req, seat, lost)
			ph.failed++
			continue
		}
		ph.latency = append(ph.latency, ms(lat))
	}
	e.next.advance(ph.attempted)
	ph.counts["journal_sessions"] = float64(len(e.acked))
	ph.counts["populate_s"] = e.populated.Seconds()
	ph.counts["replayed_per_recovery"] = median(replayed)
	return ph, nil
}

// lostAfterRestart re-queries every session seat acknowledged before its
// kill and counts those no longer decided or no longer equal to the oracle.
func (e *recoverEnv) lostAfterRestart(seat int) (lost int) {
	cl, err := session.DialClient(e.cluster.ClientAddr(seat), dialTimeout)
	if err != nil {
		logf("serve-recover: dial seat %d: %v", seat, err)
		return len(e.acked)
	}
	defer cl.Close()
	for _, a := range e.acked {
		if a.origin != seat {
			continue
		}
		resp, err := cl.Status(a.sid)
		if err != nil || !resp.Decided() {
			lost++
			continue
		}
		if got, err := resp.SimResult(); err != nil || !reflect.DeepEqual(got, a.want) {
			lost++
		}
	}
	return lost
}

func (e *recoverEnv) layers(_ *tracer, ph *phaseResult, m map[string]float64) error {
	m["journal.replayed_per_recovery"] = ph.counts["replayed_per_recovery"]
	records, took, err := replayJournal(filepath.Join(e.jdir, "daemon-0"))
	if err != nil {
		return err
	}
	m["journal.replay_us_per_record"] = ratio(us(took), float64(records))
	retained, err := dirBytes(e.jdir)
	if err != nil {
		return err
	}
	m["journal.retained_bytes"] = float64(retained)
	m["journal.depth_end"] = float64(e.jstats.Depth.Load())
	return nil
}
