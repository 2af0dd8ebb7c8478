// Package chaos is a seeded, fully deterministic fault-injection subsystem
// for the TCP substrate: the plan of an adversary spec's link clauses (lat,
// stall, drop, part), a net.Conn injector that materializes it at the
// transport's connection boundary, and a printer of the schedule a plan
// materializes for one seed. The link clauses are rows of internal/cli's
// adversary table, which declares their arguments; cli.ParseAdversary
// checks the keys and cli.Reader reads the values, so this package holds
// only what a plan means. The harnesses that run under the injector live
// with the code they check: cmd/treeaa's and check.RunCell's loopback
// runs, the async mesh cells in this package's tests, and the serving soak
// in internal/session's.
//
// The injectable faults are deliberately limited to what a lock-step
// synchronous protocol survives by specification: latency, stalls and
// partitions are pure delays (per-connection FIFO order is preserved and no
// frame is lost, so a run that stays under the transport's timeout budget
// produces a Result byte-identical to the sequential sim.Run oracle), and
// drops destroy connections but the transport's reconnect-with-resume
// restores every lost frame exactly once. Every fault here is a link fault:
// a party that crashes is the adversary's stop clause. Everything
// randomized is drawn from PRNGs derived from (seed, link), so identical
// seeds and specs reproduce identical fault schedules.
package chaos

import (
	"slices"
	"strings"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/sim"
)

// AllLinks as a Drop target means every outgoing link of the party.
const AllLinks = sim.PartyID(-1)

// Default fault magnitudes for clauses that omit their optional duration.
const (
	defaultStall = 25 * time.Millisecond
	defaultHeal  = 50 * time.Millisecond
)

// Latency delays every protocol frame on matching links by Base ± Jitter,
// the jitter drawn per frame from the link's seeded PRNG. From scopes the
// clause to the links *originating* at one party (AllLinks = every link) —
// the lever for heterogeneous-network soaks, where some parties' outbound
// links are slow and the rest of the mesh is quick.
type Latency struct {
	Base, Jitter time.Duration
	From         sim.PartyID // AllLinks, or the party whose outbound links this scopes to
}

// Stall holds every outgoing frame of one party for Dur during a round
// window — a slow process, not a dead one.
type Stall struct {
	Party     sim.PartyID
	FromRound int
	ToRound   int
	Dur       time.Duration
}

// Drop tears down one connection (From → To, or every outgoing connection
// of From when To is AllLinks) the first time it carries a frame of the
// given round. The transport's reconnect path must repair the link and
// retransmit the lost frame.
type Drop struct {
	From, To sim.PartyID
	Round    int
}

// Partition holds every frame crossing the cut between SideA and SideB
// (both directions) during a round window. The partition heals Heal after
// the first in-window frame hits the cut; held frames are then released in
// their original per-link order.
type Partition struct {
	SideA, SideB []sim.PartyID
	FromRound    int
	ToRound      int
	Heal         time.Duration
}

// Plan is the link faults of one adversary spec.
type Plan struct {
	Spec       string // the spec's link clauses, canonical and '+'-joined
	Latencies  []Latency
	Stalls     []Stall
	Drops      []Drop
	Partitions []Partition
}

// NewPlan builds the plan of an adversary spec's link clauses for n parties.
// cli's table declares every clause's arguments and ParseAdversary checks
// them; the other clauses are the adversary's, BuildAdversary's to build:
//
//	lat(base=D,jitter=D,from=P)      per-link latency Base ± Jitter, from
//	                                 optionally scoping it to P's outbound links
//	stall(from=P,rounds=A.B,dur=D)   P's sends stall D (25ms) in rounds A..B
//	drop(from=P,to=Q,round=R)        cut the P→Q connection (every one of P's
//	                                 without to) at round R
//	part(a=P.P,b=Q.Q,rounds=A.B,heal=D)  hold the frames crossing the cut
//	                                 between sides a and b until D (50ms)
//	                                 after the first one
//
// Durations take Go syntax (5ms, 500us); a one-round window is rounds=A. A
// spec without link clauses ("none" among them) is the empty plan.
//
//	splitvote+lat(base=5ms,jitter=3ms)+drop(from=2,round=3)
func NewPlan(spec string, n int) (*Plan, error) {
	clauses, err := cli.ParseAdversary(spec)
	if err != nil {
		return nil, err
	}
	p := &Plan{}
	var links []string
	for _, cl := range clauses {
		if !cli.IsLinkFault(cl.Name) {
			continue
		}
		a := &cli.Reader{Clause: cl, N: n}
		switch cl.Name {
		case "lat":
			l := Latency{Base: a.Duration("base", 0), Jitter: a.Duration("jitter", 0), From: a.Party("from", AllLinks)}
			if l.Jitter > l.Base {
				a.Fail("jitter %v exceeds base %v (delays must stay non-negative)", l.Jitter, l.Base)
			}
			for _, prev := range p.Latencies {
				if prev.From == l.From {
					a.Fail("duplicate lat clause for the same scope")
				}
			}
			p.Latencies = append(p.Latencies, l)
		case "stall":
			s := Stall{Party: a.Party("from", AllLinks), Dur: a.Duration("dur", defaultStall)}
			s.FromRound, s.ToRound = a.Window("rounds")
			p.Stalls = append(p.Stalls, s)
		case "drop":
			d := Drop{From: a.Party("from", AllLinks), To: a.Party("to", AllLinks), Round: a.Int("round", 0)}
			if d.From == d.To {
				a.Fail("link %d→%d is not a connection", d.From, d.To)
			}
			if d.Round < 1 {
				a.Fail("round=%d: rounds start at 1", d.Round)
			}
			p.Drops = append(p.Drops, d)
		case "part":
			part := Partition{SideA: a.Parties("a"), SideB: a.Parties("b"), Heal: a.Duration("heal", defaultHeal)}
			part.FromRound, part.ToRound = a.Window("rounds")
			for _, x := range part.SideA {
				if slices.Contains(part.SideB, x) {
					a.Fail("party %d on both sides of the cut", x)
				}
			}
			p.Partitions = append(p.Partitions, part)
		}
		if a.Err != nil {
			return nil, a.Err
		}
		links = append(links, cl.String())
	}
	p.Spec = strings.Join(links, "+")
	return p, nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return len(p.Latencies)+len(p.Stalls)+len(p.Drops)+len(p.Partitions) == 0
}

// NeedsReconnect reports whether the plan destroys connections, requiring
// the transport's recovery path.
func (p *Plan) NeedsReconnect() bool {
	return len(p.Drops) > 0
}
