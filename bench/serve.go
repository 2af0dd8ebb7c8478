package main

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"treeaa/internal/journal"
	"treeaa/internal/metrics"
	"treeaa/internal/session"
	"treeaa/internal/sim"
)

const (
	serveN   = 4 // daemons
	serveTTL = 2 * time.Minute

	openRate      = 200 // sessions/s on the fixed schedule
	openSLO       = 20 * time.Millisecond
	replaySample  = 24 // sessions replayed in isolation per traced pass
	apiSample     = 50 // sequential sessions per client-API comparison
	maxInFlight   = 1024
	dialTimeout   = 10 * time.Second
	hotSpace      = "spider:3:3"
	coldSpace     = "random:64"
	graphSpace    = "graph:cliquechain:3:4"
	closedPoolLen = 64
)

var (
	hotMix  = []mixEntry{{Weight: 1, Space: hotSpace, N: serveN, T: 1}}
	openMix = []mixEntry{
		{Weight: 60, Space: hotSpace, N: serveN, T: 1},
		{Weight: 25, Space: coldSpace, N: serveN, T: 1, Cold: true},
		{Weight: 15, Space: graphSpace, N: serveN, T: 1},
	}
)

type serveKind int

const (
	serveClosed serveKind = iota
	serveOpen
	serveDurable // closed loop, write-ahead journal on
)

// serveEnv is a live 4-daemon loopback service with its load generator's
// connections: at most nproc of them, as many goroutines.
type serveEnv struct {
	c       *runCtx
	kind    serveKind
	cluster *session.Cluster
	stats   *metrics.ServeStats
	jstats  *journal.Stats
	jdir    string
	clients []*session.Client

	ops     []opSpec
	oracles []*sim.Result
	cursor  int // open loop: next unused operation, so no cold spec repeats
}

func setupServeClosed(c *runCtx) (env, error)  { return setupServe(c, serveClosed) }
func setupServeOpen(c *runCtx) (env, error)    { return setupServe(c, serveOpen) }
func setupServeDurable(c *runCtx) (env, error) { return setupServe(c, serveDurable) }

func setupServe(c *runCtx, kind serveKind) (env, error) {
	e, err := startService(c, kind)
	if err != nil {
		return nil, err
	}
	return e, nil
}

func startService(c *runCtx, kind serveKind) (_ *serveEnv, err error) {
	e := &serveEnv{c: c, kind: kind, stats: &metrics.ServeStats{}, jstats: &journal.Stats{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	opts := session.Options{MaxSessions: maxInFlight, Stats: e.stats, JournalStats: e.jstats}
	if kind == serveDurable {
		if e.jdir, err = os.MkdirTemp(c.tmp, "journal-*"); err != nil {
			return nil, err
		}
		opts.JournalDir = e.jdir
	}
	if e.cluster, err = session.StartCluster(serveN, opts); err != nil {
		return nil, err
	}
	conns := c.nproc
	if kind == serveOpen {
		conns = 2 // one submits on the timetable, one collects decisions
	}
	for w := 0; w < conns; w++ {
		seat := w % serveN
		if kind == serveOpen {
			seat = 0 // a session is waited for on the daemon it was submitted to
		}
		cl, err := session.DialClient(e.cluster.ClientAddr(seat), dialTimeout)
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

func (e *serveEnv) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.cluster != nil {
		if err := e.cluster.Stop(); err != nil {
			logf("serve: cluster stop: %v", err)
		}
	}
	if e.jdir != "" {
		os.RemoveAll(e.jdir)
	}
}

func sessionSpec(op opSpec) session.Spec {
	return session.Spec{Tree: op.Space, Seed: op.Seed, T: op.T, Inputs: op.Inputs, TTL: serveTTL}
}

func (e *serveEnv) prepare() (err error) {
	mix, count := hotMix, closedPoolLen
	if e.kind == serveOpen {
		// Enough for the warm-up and the longest timed stretch with no
		// operation reused, so a cold spec is cold every time it is sent.
		mix, count = openMix, int(float64(openRate)*e.c.seconds*1.15)+16
	}
	if e.ops, err = specStream(e.c.seed, mix, count); err != nil {
		return err
	}
	memo := make(map[opSpec]*sim.Result)
	for _, op := range e.ops {
		want, ok := memo[op]
		if !ok {
			if want, err = session.Oracle(op.N, sessionSpec(op)); err != nil {
				return fmt.Errorf("oracle %+v: %w", op, err)
			}
			memo[op] = want
		}
		e.oracles = append(e.oracles, want)
	}
	return nil
}

// served is one session as a client saw it.
type served struct {
	idx     int // operation index
	client  int
	resp    *session.Response
	err     error
	latency time.Duration
}

// judge is the correctness gate of every served session: decided, and the
// Result DeepEqual to the sequential oracle of its spec.
func (e *serveEnv) judge(s served) bool {
	if s.err != nil || s.resp == nil || !s.resp.Decided() {
		return false
	}
	got, err := s.resp.SimResult()
	return err == nil && reflect.DeepEqual(got, e.oracles[s.idx%len(e.ops)])
}

// closedLoop drives every client connection back to back — submit, wait for
// the decision, submit the next — while more(issued) allows another session.
func (e *serveEnv) closedLoop(more func(issued int) bool, tr *tracer) []served {
	var (
		wg     sync.WaitGroup
		issued atomic.Int64
		out    = make([][]served, len(e.clients))
	)
	for w, cl := range e.clients {
		wg.Add(1)
		go func(w int, cl *session.Client) {
			defer wg.Done()
			for {
				i := int(issued.Add(1)) - 1
				if !more(i) {
					return
				}
				spec := sessionSpec(e.ops[i%len(e.ops)])
				t0 := time.Now()
				root := tr.start(0, i, "client.submit")
				resp, err := cl.Submit(spec, 0, true)
				tr.end(root)
				out[w] = append(out[w], served{idx: i, client: w, resp: resp, err: err, latency: time.Since(t0)})
				if err != nil && resp == nil {
					logf("serve: client %d: %v", w, err)
				}
			}
		}(w, cl)
	}
	wg.Wait()
	var all []served
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// counters snapshots the service's exported counters.
func (e *serveEnv) counters() map[string]float64 {
	return map[string]float64{
		"batch_frames": float64(e.stats.BatchFrames.Load()), "batches": float64(e.stats.Batches.Load()),
		"batch_bytes": float64(e.stats.BatchBytes.Load()), "client_bytes": float64(e.stats.ClientBytes.Load()),
		"journal_appends": float64(e.jstats.Appends.Load()), "journal_bytes": float64(e.jstats.AppendBytes.Load()),
		"journal_syncs": float64(e.jstats.Syncs.Load()),
	}
}

func (e *serveEnv) phase(dur time.Duration, tr *tracer) (*phaseResult, error) {
	ph := &phaseResult{counts: map[string]float64{}, meter: meter{allocs: tr != nil}}
	before := e.counters()
	if e.kind == serveOpen {
		e.openPhase(dur, tr, ph)
	} else {
		start := time.Now()
		ph.meter.resume()
		done := e.closedLoop(func(int) bool { return time.Since(start) < dur }, tr)
		ph.meter.pause()
		for _, s := range done {
			ph.attempted++
			ph.ops = append(ph.ops, e.ops[s.idx%len(e.ops)])
			if !e.judge(s) {
				logf("serve: session %d: not decided or oracle mismatch (%v)", s.idx, s.err)
				ph.failed++
				continue
			}
			ph.latency = append(ph.latency, ms(s.latency))
		}
		ph.counts["clients"] = float64(len(e.clients))
	}
	for k, v := range e.counters() {
		ph.counts[k] = v - before[k]
	}
	ph.counts["journal_depth_end"] = float64(e.jstats.Depth.Load())
	return ph, nil
}

// openPhase sends sessions on a fixed timetable whatever the service is
// doing: one connection submits without waiting at each due time, the other
// collects decisions in submit order. Latency runs from the due time.
func (e *serveEnv) openPhase(dur time.Duration, tr *tracer, ph *phaseResult) {
	count := int(dur.Seconds() * openRate)
	if rest := len(e.ops) - e.cursor; count > rest {
		count = rest
	}
	base := e.cursor
	e.cursor += count
	submitter, waiter := e.clients[0], e.clients[1]

	type ticket struct {
		i     int
		sid   uint64
		ackAt time.Time
		root  int
	}
	var (
		tickets   = make(chan ticket, count) // never blocks the timetable
		collected atomic.Int64
		backlog   int64
		refused   int
		results   = make([]served, 0, count)
		skew      []float64
		sched     = schedule{interval: time.Second / openRate}
		wg        sync.WaitGroup
	)
	ph.meter.resume()
	sched.start = time.Now().Add(sched.interval)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for t := range tickets {
			resp, err := waiter.Wait(t.sid)
			doneAt := time.Now()
			tr.end(t.root)
			collected.Add(1)
			results = append(results, served{idx: t.i, resp: resp, err: err, latency: doneAt.Sub(sched.due(t.i - base))})
			if err == nil {
				// Head-of-line skew: decisions are collected in submit order,
				// so one slow session delays the observation of later ones.
				skew = append(skew, ms(doneAt.Sub(t.ackAt.Add(time.Duration(resp.LatencyNS)))))
			}
		}
	}()
	var submitted int64
	late := sched.pace(realClock{}, count, func(k int) {
		i := base + k
		root := tr.start(0, i, "client.submit")
		resp, err := submitter.Submit(sessionSpec(e.ops[i]), 0, false)
		if err != nil {
			tr.end(root)
			logf("serve-open: session %d refused: %v", i, err)
			refused++
			return
		}
		submitted++
		tickets <- ticket{i, resp.SID, time.Now(), root}
	})
	backlog = submitted - collected.Load()
	close(tickets)
	wg.Wait()
	ph.meter.pause()

	ph.attempted, ph.failed = count, refused
	within := 0
	for _, s := range results {
		ph.ops = append(ph.ops, e.ops[s.idx])
		if !e.judge(s) {
			logf("serve-open: session %d: not decided or oracle mismatch (%v)", s.idx, s.err)
			ph.failed++
			continue
		}
		ph.latency = append(ph.latency, ms(s.latency))
		if s.latency <= openSLO {
			within++
		}
	}
	lateMS := make([]float64, len(late))
	for i, d := range late {
		lateMS[i] = ms(d)
	}
	ph.counts["rate_per_s"] = openRate
	ph.counts["slo_ok_ratio"] = ratio(float64(within), float64(count))
	ph.counts["generator_late_p99_ms"] = quantile(sortedCopy(lateMS), 0.99)
	ph.counts["backlog_end"] = float64(backlog)
	ph.counts["hol_skew_p99_ms"] = quantile(sortedCopy(skew), 0.99)
	// A generator later than the latency limit itself, or a backlog worth
	// more than a quarter second of arrivals, means the timetable was not
	// held: the latency figures describe the generator, not the service.
	if ph.counts["generator_late_p99_ms"] > ms(openSLO) || backlog > openRate/4 {
		ph.counts["invalid"] = 1
		logf("serve-open: run invalid: generator late p99 %.2f ms, backlog %d at schedule end",
			ph.counts["generator_late_p99_ms"], backlog)
	}
}

func (e *serveEnv) layers(tr *tracer, ph *phaseResult, m map[string]float64) error {
	sessions := float64(ph.attempted)
	cpuPerOp := ratio(us(ph.meter.cpu), float64(ph.ok()))
	m["session.frames_per_session"] = ratio(ph.counts["batch_frames"], sessions)
	m["session.frames_per_batch"] = ratio(ph.counts["batch_frames"], ph.counts["batches"])
	m["session.bytes_per_session"] = ratio(ph.counts["batch_bytes"]+ph.counts["client_bytes"], sessions)
	m["session.allocs_per_session"] = ratio(float64(ph.meter.mallocs), sessions)
	m["journal.appends_per_session"] = ratio(ph.counts["journal_appends"], sessions)
	m["journal.bytes_per_session"] = ratio(ph.counts["journal_bytes"], sessions)
	m["journal.syncs_per_session"] = ratio(ph.counts["journal_syncs"], sessions)
	m["journal.depth_end"] = ph.counts["journal_depth_end"]
	for _, k := range []string{"slo_ok_ratio", "generator_late_p99_ms", "backlog_end", "hol_skew_p99_ms"} {
		m["client."+k] = ph.counts[k]
	}

	// The client API's share: the same session submitted in process through
	// the Manager and over TCP through a client, one at a time.
	spec := sessionSpec(e.ops[0])
	mgr := e.cluster.Daemon(0).Manager()
	var inProc, overTCP []float64
	for i := 0; i < apiSample; i++ {
		t0 := time.Now()
		sid, err := mgr.Submit(spec, 0)
		if err != nil {
			return fmt.Errorf("manager submit: %w", err)
		}
		ch, err := mgr.Wait(sid)
		if err != nil {
			return fmt.Errorf("manager wait: %w", err)
		}
		if out := <-ch; out.State != session.StateDecided {
			return fmt.Errorf("manager session %d: %v %s", sid, out.State, out.Err)
		}
		inProc = append(inProc, us(time.Since(t0)))
		t0 = time.Now()
		if _, err := e.clients[0].Submit(spec, 0, true); err != nil {
			return fmt.Errorf("client submit: %w", err)
		}
		overTCP = append(overTCP, us(time.Since(t0)))
	}
	m["session.manager_us_p50"] = median(inProc)
	m["session.client_api_us"] = median(overTCP) - median(inProc)

	// Each sampled session's layer work, replayed in isolation after the
	// timed calls are over so it never perturbs them.
	opts := replayOpts{parses: serveN, session: true}
	var own string
	if e.kind == serveDurable {
		var err error
		if own, err = os.MkdirTemp(e.c.tmp, "replay-journal-*"); err != nil {
			return err
		}
		defer os.RemoveAll(own)
		if opts.journal, err = journal.Open(journal.Options{Dir: own}); err != nil {
			return err
		}
	}
	rtr := tr.fork()
	var frames, bytes []float64
	for i, op := range sampleOps(ph.ops, replaySample) {
		rp, err := replayWarm(rtr, i, op, opts)
		if err != nil {
			return err
		}
		frames, bytes = append(frames, float64(rp.frames)), append(bytes, float64(rp.wireBytes))
		if i == 0 {
			m["core.rounds"] = float64(rp.run.res.Rounds)
			m["core.msgs_per_op"] = float64(rp.run.res.Messages)
			m["core.bytes_per_op"] = float64(rp.run.res.Bytes)
		}
	}
	if opts.journal != nil {
		if err := opts.journal.Close(); err != nil {
			return err
		}
		records, took, err := replayJournal(own)
		if err != nil {
			return err
		}
		m["journal.replay_us_per_record"] = ratio(us(took), float64(records))
		retained, err := dirBytes(e.jdir)
		if err != nil {
			return err
		}
		m["journal.retained_bytes"] = float64(retained)
	}
	replay := rtr.layerMedians()
	tr.adopt(rtr)
	m["cli.parse_us_per_session"] = replay["cli.parse"] / 1e3
	m["core.machines_us_per_op"] = replay["core.machines"] / 1e3
	m["core.step_us_per_op"] = replay["sim.run"] / 1e3
	m["wire.encode_us_per_session"] = replay["wire.encode"] / 1e3
	m["wire.decode_us_per_session"] = replay["wire.decode"] / 1e3
	m["wire.frames_per_session"] = median(frames)
	m["wire.bytes_per_session"] = median(bytes)
	m["transport.frame_us_per_session"] = replay["transport.frame"] / 1e3
	m["journal.append_us_per_session"] = replay["journal.append"] / 1e3
	m["journal.commit_ms_p50"] = replay["journal.commit"] / 1e6

	// What no exported function isolates — mux, shards, engines, client
	// API, syscalls, scheduling — is the session's CPU minus the layers
	// measured above. By construction the table sums to cpu_ms_per_op.
	measured := m["cli.parse_us_per_session"] + m["core.machines_us_per_op"] + m["core.step_us_per_op"] +
		m["wire.encode_us_per_session"] + m["wire.decode_us_per_session"] +
		m["transport.frame_us_per_session"] + m["journal.append_us_per_session"]
	m["session.residual_cpu_us_per_session"] = cpuPerOp - measured
	m["session.residual_share"] = ratio(cpuPerOp-measured, cpuPerOp)
	return nil
}
