// Package chaos is a seeded, fully deterministic fault-injection subsystem
// for the TCP substrate: the plan of an adversary spec's link clauses (lat,
// stall, drop, part), a net.Conn injector that materializes it at the
// transport's connection boundary, and a printer of the schedule a plan
// materializes for one seed. The harnesses that run under the injector
// live with the code they check: check.RunCell's TCP differential, the
// async mesh cells in this package's tests, and the serving soak in
// internal/session's.
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
	"fmt"
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

// NewPlan builds the plan of an adversary spec's link clauses for n parties
// (the other clauses are the adversary's, and BuildAdversary's to judge,
// bar an unknown name):
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
			// Unknown names are refused here too: BuildAdversary judges
			// nothing at t = 0.
			if cl.Name != "none" && !slices.Contains(cli.AdversaryNames(), cl.Name) {
				return nil, fmt.Errorf("chaos: unknown clause %q", cl.Name)
			}
			continue
		}
		a := &linkArgs{cl: cl, n: n}
		switch cl.Name {
		case "lat":
			a.keys([]string{"base"}, "jitter", "from")
			l := Latency{Base: a.dur("base", 0), Jitter: a.dur("jitter", 0), From: a.party("from")}
			if a.err == nil && l.Jitter > l.Base {
				a.fail("jitter %v exceeds base %v (delays must stay non-negative)", l.Jitter, l.Base)
			}
			for _, prev := range p.Latencies {
				if prev.From == l.From {
					a.fail("duplicate lat clause for the same scope")
				}
			}
			p.Latencies = append(p.Latencies, l)
		case "stall":
			a.keys([]string{"from", "rounds"}, "dur")
			s := Stall{Party: a.party("from"), Dur: a.dur("dur", defaultStall)}
			s.FromRound, s.ToRound = a.rounds()
			p.Stalls = append(p.Stalls, s)
		case "drop":
			a.keys([]string{"from", "round"}, "to")
			d := Drop{From: a.party("from"), To: a.party("to"), Round: a.int("round")}
			if a.err == nil && d.From == d.To {
				a.fail("link %d→%d is not a connection", d.From, d.To)
			}
			if a.err == nil && d.Round < 1 {
				a.fail("round=%d: rounds start at 1", d.Round)
			}
			p.Drops = append(p.Drops, d)
		case "part":
			a.keys([]string{"a", "b", "rounds"}, "heal")
			part := Partition{SideA: a.side("a"), SideB: a.side("b"), Heal: a.dur("heal", defaultHeal)}
			part.FromRound, part.ToRound = a.rounds()
			for _, x := range part.SideA {
				if slices.Contains(part.SideB, x) {
					a.fail("party %d on both sides of the cut", x)
				}
			}
			p.Partitions = append(p.Partitions, part)
		}
		if a.err != nil {
			return nil, a.err
		}
		links = append(links, cl.String())
	}
	p.Spec = strings.Join(links, "+")
	return p, nil
}

// linkArgs reads one link clause's arguments for n parties, keeping the
// first error so each clause builds in one expression.
type linkArgs struct {
	cl  cli.Clause
	n   int
	err error
}

func (a *linkArgs) keep(err error) {
	if a.err == nil {
		a.err = err
	}
}

func (a *linkArgs) fail(format string, args ...any) {
	a.keep(fmt.Errorf("chaos: clause %s: %s", a.cl, fmt.Sprintf(format, args...)))
}

// keys refuses a missing argument the clause needs and one it does not
// take.
func (a *linkArgs) keys(need []string, may ...string) {
	for _, k := range need {
		if _, ok := a.cl.Args[k]; !ok {
			a.fail("want %s=", k)
		}
	}
	for k := range a.cl.Args {
		if !slices.Contains(need, k) && !slices.Contains(may, k) {
			a.fail("unknown argument %s", k)
		}
	}
}

func (a *linkArgs) dur(key string, def time.Duration) time.Duration {
	d, err := a.cl.Duration(key, def)
	a.keep(err)
	return d
}

func (a *linkArgs) int(key string) int {
	v, err := a.cl.Int(key, 0)
	a.keep(err)
	return v
}

// party is a party id in [0, n), or AllLinks when the argument is absent.
func (a *linkArgs) party(key string) sim.PartyID {
	if _, ok := a.cl.Args[key]; !ok {
		return AllLinks
	}
	id := sim.PartyID(a.int(key))
	a.inRange(id)
	return id
}

func (a *linkArgs) inRange(id sim.PartyID) {
	if a.err == nil && (id < 0 || int(id) >= a.n) {
		a.fail("party %d out of range [0, %d)", id, a.n)
	}
}

// side is one side of a cut: a dot list of party ids.
func (a *linkArgs) side(key string) []sim.PartyID {
	ids, err := a.cl.IntList(key)
	a.keep(err)
	side := make([]sim.PartyID, len(ids))
	for i, id := range ids {
		side[i] = sim.PartyID(id)
		a.inRange(side[i])
	}
	return side
}

// rounds is the window rounds=A or rounds=A.B, with 1 ≤ A ≤ B.
func (a *linkArgs) rounds() (from, to int) {
	w, err := a.cl.IntList("rounds")
	switch {
	case err != nil:
		a.keep(err)
	case w == nil:
	case len(w) > 2 || w[0] < 1 || w[len(w)-1] < w[0]:
		a.fail("rounds=%s: want A or A.B with 1 ≤ A ≤ B", a.cl.Args["rounds"])
	default:
		return w[0], w[len(w)-1]
	}
	return 0, 0
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
