package chaos

import (
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
)

// Injector materializes a plan's network faults at the net.Conn boundary.
// It plugs into transport.Options.WrapConn (and session.Options.WrapConn):
// each end of a duplex peer link wraps its own writes with itself as from,
// so the injector sits on the write path of all of an ordered link's (from,
// to) traffic whichever end dialed — initial links and reconnects alike,
// with per-link fault state (PRNG stream, fired drops) surviving connection
// replacement.
//
// Latency, stalls and partition holds are sleeps before a frame's write:
// they preserve per-connection FIFO order and lose nothing, which is why a
// run that stays under the transport's timeout budget remains
// byte-identical to the sim.Run oracle. A drop closes the connection
// instead — both directions of the pair, since they share it — forcing the
// transport through its redial-and-resume path.
type Injector struct {
	plan  *Plan
	seed  int64
	stats *metrics.ChaosStats
	sleep func(time.Duration) // every hold; a test records instead

	mu    sync.Mutex
	links map[linkKey]*linkChaos
	parts []*partitionGate
}

type linkKey struct {
	from, to sim.PartyID
}

// linkChaos is the persistent fault state of one ordered link.
type linkChaos struct {
	in       *Injector
	from, to sim.PartyID

	mu      sync.Mutex
	rng     *rand.Rand
	dropped []bool       // per plan.Drops clause: already fired on this link
	faulted map[int]bool // rounds some clause acted on, counted in FaultedRounds
}

// partitionGate is the runtime state of one partition clause: the heal
// deadline, set when the first in-window frame hits the cut.
type partitionGate struct {
	p  Partition
	mu sync.Mutex
	at time.Time // zero until triggered
}

// NewInjector builds the injector for one run. The same (plan, seed) pair
// always produces the same fault schedule; stats receives the
// injected-fault counters (nil gets a private sink).
func NewInjector(plan *Plan, seed int64, stats *metrics.ChaosStats) *Injector {
	if stats == nil {
		stats = &metrics.ChaosStats{}
	}
	in := &Injector{plan: plan, seed: seed, stats: stats, sleep: time.Sleep,
		links: make(map[linkKey]*linkChaos)}
	for _, part := range plan.Partitions {
		in.parts = append(in.parts, &partitionGate{p: part})
	}
	return in
}

// WrapConn is the transport.Options.WrapConn hook.
func (in *Injector) WrapConn(from, to sim.PartyID, conn net.Conn) net.Conn {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := linkKey{from, to}
	l := in.links[key]
	if l == nil {
		l = &linkChaos{in: in, from: from, to: to,
			rng:     linkRNG(in.seed, from, to),
			dropped: make([]bool, len(in.plan.Drops)),
			faulted: make(map[int]bool)}
		in.links[key] = l
	}
	return &chaosConn{Conn: conn, link: l}
}

// Apply installs the injector into transport options: the conn wrapper, the
// stats sink, and the recovery mode the plan requires.
func (in *Injector) Apply(opts transport.Options) transport.Options {
	opts.WrapConn = in.WrapConn
	opts.Chaos = in.stats
	if in.plan.NeedsReconnect() {
		opts.Reconnect = true
	}
	return opts
}

// chaosConn wraps one end's connection of a link. Only Write is
// intercepted: a link writes batches, and each frame of one is written after
// its own faults, as if alone — its round keys its windows, its latency is
// its own draw, and a drop cuts the connection under it.
type chaosConn struct {
	net.Conn
	link *linkChaos
}

func (c *chaosConn) Write(b []byte) (int, error) {
	sent := 0
	for sent < len(b) {
		// Control frames (and anything unrecognizable) pass untouched: chaos
		// windows are round-scoped.
		round, control, size := transport.FrameInfo(b[sent:])
		if size == 0 {
			size = len(b) - sent
		} else if !control && c.link.hold(round) {
			c.Conn.Close() // the write fails; the transport's resume restores the link
		}
		n, err := c.Conn.Write(b[sent : sent+size])
		if sent += n; err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// hold applies one frame's faults: its latency draw, then every stall
// window and healing partition its round falls in, as sleeps; and reports
// whether a drop clause fires on it. The frame's round counts in
// FaultedRounds the first time a clause acts on it on this link.
func (l *linkChaos) hold(round int) (drop bool) {
	in := l.in
	l.mu.Lock()
	var delay time.Duration
	acted := false
	for i := range in.plan.Latencies {
		if lat := &in.plan.Latencies[i]; lat.From == AllLinks || lat.From == l.from {
			delay += delayFor(lat, l.rng)
			acted = true
		}
	}
	for i, d := range in.plan.Drops {
		if l.dropped[i] || d.From != l.from || d.Round != round || d.To != AllLinks && d.To != l.to {
			continue
		}
		l.dropped[i] = true
		drop = true
	}
	l.mu.Unlock()

	if delay > 0 {
		in.stats.Delays.Add(1)
		in.sleep(delay)
	}
	for _, s := range in.plan.Stalls {
		if s.Party == l.from && s.FromRound <= round && round <= s.ToRound {
			acted = true
			in.stats.Stalls.Add(1)
			in.sleep(s.Dur)
		}
	}
	for _, g := range in.parts {
		if g.p.FromRound <= round && round <= g.p.ToRound && g.cuts(l.from, l.to) {
			acted = true
			if hold := g.trigger(); hold > 0 {
				in.stats.Partitions.Add(1)
				in.sleep(hold)
			}
		}
	}
	if drop {
		in.stats.Drops.Add(1)
	}
	if acted || drop {
		l.mu.Lock()
		first := !l.faulted[round]
		l.faulted[round] = true
		l.mu.Unlock()
		if first {
			in.stats.FaultedRounds.Add(1)
		}
	}
	return drop
}

// cuts reports whether the ordered link crosses the partition's cut.
func (g *partitionGate) cuts(from, to sim.PartyID) bool {
	return (slices.Contains(g.p.SideA, from) && slices.Contains(g.p.SideB, to)) ||
		(slices.Contains(g.p.SideB, from) && slices.Contains(g.p.SideA, to))
}

// trigger arms the heal deadline on first contact and returns how long the
// calling frame must be held.
func (g *partitionGate) trigger() time.Duration {
	g.mu.Lock()
	if g.at.IsZero() {
		g.at = time.Now().Add(g.p.Heal)
	}
	hold := time.Until(g.at)
	g.mu.Unlock()
	return hold
}
