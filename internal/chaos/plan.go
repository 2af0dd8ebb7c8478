// Package chaos is a seeded, fully deterministic fault-injection subsystem
// for the TCP substrate: a compact plan language for network faults, a
// net.Conn injector that materializes them at the transport's connection
// boundary, and a soak harness that sweeps seeds × plans × adversaries over
// transport.LocalCluster and asserts the protocol's safety properties after
// every run.
//
// The injectable faults are deliberately limited to what a lock-step
// synchronous protocol survives by specification: latency, stalls and
// partitions are pure delays (per-connection FIFO order is preserved and no
// frame is lost, so a run that stays under the transport's timeout budget
// produces a Result byte-identical to the sequential sim.Run oracle), drops
// and crashes destroy connections and processes but the transport's
// reconnect-with-resume and crash-restart recovery restore every lost frame
// exactly once. Everything randomized is drawn from PRNGs derived from
// (seed, link), so identical seeds and specs reproduce identical fault
// schedules.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"treeaa/internal/sim"
)

// AllLinks as a Drop target means every outgoing link of the party.
const AllLinks = sim.PartyID(-1)

// Default fault magnitudes for clauses that omit their optional duration.
const (
	DefaultStall = 25 * time.Millisecond
	DefaultHeal  = 50 * time.Millisecond
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

// Plan is one parsed chaos specification.
type Plan struct {
	Spec       string
	Latencies  []Latency
	Stalls     []Stall
	Drops      []Drop
	Crashes    map[sim.PartyID]int // party → crash round (honest crash-restart)
	Partitions []Partition
}

// Parse decodes a compact chaos spec: comma-separated clauses
//
//	lat:BASE[±JIT][@pP]          per-link latency with jitter ("±" or "+-"),
//	                             optionally scoped to party P's outbound links
//	stall:pP@rA[-B][:DUR]        party P's sends stall DUR in rounds A..B
//	drop:pA-pB@rR                cut the A→B connection at round R
//	drop:pA@rR                   cut every outgoing connection of A at round R
//	crash:pP@rR                  crash honest party P at round R (restarted)
//	partition:{A-B|C-D}@rA[-B][:HEAL]  hold cross-cut frames until healed
//
// Durations use Go syntax (5ms, 1s). An empty spec parses to the empty
// plan — a chaos run with nothing injected.
//
//	lat:5ms±3ms,stall:p3@r2-4,crash:p5@r3,partition:{0-2|3-7}@r6-7
func Parse(spec string) (*Plan, error) {
	p := &Plan{Spec: spec, Crashes: map[sim.PartyID]int{}}
	if strings.TrimSpace(spec) == "" {
		p.Spec = ""
		return p, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		name, rest, found := strings.Cut(clause, ":")
		if !found {
			return nil, fmt.Errorf("chaos: clause %q: want name:args", clause)
		}
		var err error
		switch name {
		case "lat":
			err = p.parseLatency(rest)
		case "stall":
			err = p.parseStall(rest)
		case "drop":
			err = p.parseDrop(rest)
		case "crash":
			err = p.parseCrash(rest)
		case "partition":
			err = p.parsePartition(rest)
		default:
			err = fmt.Errorf("unknown clause %q", name)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: clause %q: %w", clause, err)
		}
	}
	return p, nil
}

// MustParse is Parse for compile-time-constant specs in tests and tables.
func MustParse(spec string) *Plan {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Plan) parseLatency(rest string) error {
	l := Latency{From: AllLinks}
	if body, scope, scoped := strings.Cut(rest, "@"); scoped {
		var err error
		if l.From, err = parseParty(scope); err != nil {
			return err
		}
		rest = body
	}
	for _, prev := range p.Latencies {
		if prev.From == l.From {
			return fmt.Errorf("duplicate lat clause for the same scope")
		}
	}
	base := rest
	jitter := ""
	for _, sep := range []string{"±", "+-"} {
		if b, j, found := strings.Cut(rest, sep); found {
			base, jitter = b, j
			break
		}
	}
	var err error
	if l.Base, err = parseDur(base); err != nil {
		return err
	}
	if jitter != "" {
		if l.Jitter, err = parseDur(jitter); err != nil {
			return err
		}
	}
	if l.Jitter > l.Base {
		return fmt.Errorf("jitter %v exceeds base %v (delays must stay non-negative)", l.Jitter, l.Base)
	}
	p.Latencies = append(p.Latencies, l)
	return nil
}

func (p *Plan) parseStall(rest string) error {
	rest, dur, err := optionalDur(rest, DefaultStall)
	if err != nil {
		return err
	}
	target, window, found := strings.Cut(rest, "@")
	if !found {
		return fmt.Errorf("want pP@rA-B")
	}
	party, err := parseParty(target)
	if err != nil {
		return err
	}
	from, to, err := parseRounds(window)
	if err != nil {
		return err
	}
	p.Stalls = append(p.Stalls, Stall{Party: party, FromRound: from, ToRound: to, Dur: dur})
	return nil
}

func (p *Plan) parseDrop(rest string) error {
	target, window, found := strings.Cut(rest, "@")
	if !found {
		return fmt.Errorf("want pA-pB@rR or pA@rR")
	}
	from, to, err := parseRounds(window)
	if err != nil {
		return err
	}
	if from != to {
		return fmt.Errorf("a drop is one event, not a window: want @rR")
	}
	d := Drop{To: AllLinks, Round: from}
	if a, b, linked := strings.Cut(target, "-"); linked {
		if d.From, err = parseParty(a); err != nil {
			return err
		}
		if d.To, err = parseParty(b); err != nil {
			return err
		}
		if d.From == d.To {
			return fmt.Errorf("link %d→%d is not a connection", d.From, d.To)
		}
	} else if d.From, err = parseParty(target); err != nil {
		return err
	}
	p.Drops = append(p.Drops, d)
	return nil
}

func (p *Plan) parseCrash(rest string) error {
	target, window, found := strings.Cut(rest, "@")
	if !found {
		return fmt.Errorf("want pP@rR")
	}
	party, err := parseParty(target)
	if err != nil {
		return err
	}
	from, to, err := parseRounds(window)
	if err != nil {
		return err
	}
	if from != to {
		return fmt.Errorf("a crash is one event, not a window: want @rR")
	}
	if _, dup := p.Crashes[party]; dup {
		return fmt.Errorf("party %d already has a crash", party)
	}
	p.Crashes[party] = from
	return nil
}

func (p *Plan) parsePartition(rest string) error {
	rest, heal, err := optionalDur(rest, DefaultHeal)
	if err != nil {
		return err
	}
	cut, window, found := strings.Cut(rest, "@")
	if !found {
		return fmt.Errorf("want {A|B}@rA-B")
	}
	if len(cut) < 2 || cut[0] != '{' || cut[len(cut)-1] != '}' {
		return fmt.Errorf("cut %q: want {A|B}", cut)
	}
	a, b, found := strings.Cut(cut[1:len(cut)-1], "|")
	if !found {
		return fmt.Errorf("cut %q: want two sides split by |", cut)
	}
	part := Partition{Heal: heal}
	if part.SideA, err = parseSide(a); err != nil {
		return err
	}
	if part.SideB, err = parseSide(b); err != nil {
		return err
	}
	for _, x := range part.SideA {
		for _, y := range part.SideB {
			if x == y {
				return fmt.Errorf("party %d on both sides of the cut", x)
			}
		}
	}
	if part.FromRound, part.ToRound, err = parseRounds(window); err != nil {
		return err
	}
	p.Partitions = append(p.Partitions, part)
	return nil
}

// Validate checks the plan against a concrete party count.
func (p *Plan) Validate(n int) error {
	check := func(id sim.PartyID) error {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("chaos: party %d out of range [0, %d)", id, n)
		}
		return nil
	}
	for _, l := range p.Latencies {
		if l.From != AllLinks {
			if err := check(l.From); err != nil {
				return err
			}
		}
	}
	for _, s := range p.Stalls {
		if err := check(s.Party); err != nil {
			return err
		}
	}
	for _, d := range p.Drops {
		if err := check(d.From); err != nil {
			return err
		}
		if d.To != AllLinks {
			if err := check(d.To); err != nil {
				return err
			}
		}
	}
	for c := range p.Crashes {
		if err := check(c); err != nil {
			return err
		}
	}
	for _, part := range p.Partitions {
		for _, id := range part.SideA {
			if err := check(id); err != nil {
				return err
			}
		}
		for _, id := range part.SideB {
			if err := check(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return len(p.Kinds()) == 0
}

// NeedsReconnect reports whether the plan destroys connections, requiring
// the transport's recovery path.
func (p *Plan) NeedsReconnect() bool {
	return len(p.Drops) > 0 || len(p.Crashes) > 0
}

// ClauseKind identifies one fault family of the plan language. Execution
// modes differ in which families they can inject — see Restrict.
type ClauseKind int

// The five clause families, in plan-language order.
const (
	ClauseLatency ClauseKind = iota
	ClauseStall
	ClauseDrop
	ClauseCrash
	ClausePartition
)

// String returns the clause's plan-language name.
func (k ClauseKind) String() string {
	switch k {
	case ClauseLatency:
		return "lat"
	case ClauseStall:
		return "stall"
	case ClauseDrop:
		return "drop"
	case ClauseCrash:
		return "crash"
	case ClausePartition:
		return "partition"
	}
	return fmt.Sprintf("ClauseKind(%d)", int(k))
}

// Kinds returns the fault families present in the plan, in plan-language
// order.
func (p *Plan) Kinds() []ClauseKind {
	var kinds []ClauseKind
	if len(p.Latencies) > 0 {
		kinds = append(kinds, ClauseLatency)
	}
	if len(p.Stalls) > 0 {
		kinds = append(kinds, ClauseStall)
	}
	if len(p.Drops) > 0 {
		kinds = append(kinds, ClauseDrop)
	}
	if len(p.Crashes) > 0 {
		kinds = append(kinds, ClauseCrash)
	}
	if len(p.Partitions) > 0 {
		kinds = append(kinds, ClausePartition)
	}
	return kinds
}

// Restrict checks the plan against one execution mode's injectable fault
// surface: mode names the flag combination doing the rejecting ("-overlay",
// "-mode async"), allowed lists the clause families it supports, and reason
// says why the rest cannot be injected there. The returned error names the
// mode, the offending clause family and the reason — a chaos spec that a
// mode cannot honor must fail loudly, never silently inject less.
func (p *Plan) Restrict(mode, reason string, allowed ...ClauseKind) error {
	for _, k := range p.Kinds() {
		ok := false
		for _, a := range allowed {
			if a == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("chaos: %s cannot inject the %s clauses of plan %q: %s", mode, k, p.Spec, reason)
		}
	}
	return nil
}

// parseParty decodes "p3" (the p is mandatory — it keeps parties and rounds
// visually distinct inside a clause).
func parseParty(s string) (sim.PartyID, error) {
	num, found := strings.CutPrefix(s, "p")
	if !found {
		return 0, fmt.Errorf("party %q: want pN", s)
	}
	v, err := strconv.Atoi(num)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("party %q: want pN", s)
	}
	return sim.PartyID(v), nil
}

// parseRounds decodes "r2-4" (window) or "r3" (single round).
func parseRounds(s string) (from, to int, err error) {
	num, found := strings.CutPrefix(s, "r")
	if !found {
		return 0, 0, fmt.Errorf("rounds %q: want rA or rA-B", s)
	}
	a, b, window := strings.Cut(num, "-")
	if from, err = strconv.Atoi(a); err != nil || from < 1 {
		return 0, 0, fmt.Errorf("rounds %q: want rA or rA-B with A ≥ 1", s)
	}
	to = from
	if window {
		if to, err = strconv.Atoi(b); err != nil || to < from {
			return 0, 0, fmt.Errorf("rounds %q: want B ≥ A", s)
		}
	}
	return from, to, nil
}

// parseSide decodes one side of a partition cut: "0-2" (id range) or "4".
func parseSide(s string) ([]sim.PartyID, error) {
	a, b, isRange := strings.Cut(s, "-")
	lo, err := strconv.Atoi(a)
	if err != nil || lo < 0 {
		return nil, fmt.Errorf("side %q: want N or A-B", s)
	}
	hi := lo
	if isRange {
		if hi, err = strconv.Atoi(b); err != nil || hi < lo {
			return nil, fmt.Errorf("side %q: want B ≥ A", s)
		}
	}
	side := make([]sim.PartyID, 0, hi-lo+1)
	for id := lo; id <= hi; id++ {
		side = append(side, sim.PartyID(id))
	}
	return side, nil
}

// optionalDur splits a trailing ":DUR" off a clause body, if present.
func optionalDur(s string, def time.Duration) (string, time.Duration, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return s, def, nil
	}
	d, err := parseDur(s[i+1:])
	if err != nil {
		return "", 0, err
	}
	return s[:i], d, nil
}

func parseDur(s string) (time.Duration, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return d, nil
}
