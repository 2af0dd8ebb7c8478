package cli

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"treeaa/internal/adversary"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// The adversary language (DESIGN §9): a spec is "none" or clauses
// name(key=value,...) joined by '+', e.g. "splitvote(per=2)+noise" or
// "equivocator(hi=1000,lo=-100)+omit(drop=500)"; integer lists inside an
// argument are dot-separated (crash(rounds=2.5.9)) and durations take Go's
// syntax (lat(base=2ms,jitter=500us)).

// Clause is one adversary component: a strategy name plus its arguments.
type Clause struct {
	Name string
	Args map[string]string
}

// String renders the clause canonically (args sorted by key).
func (cl Clause) String() string {
	if len(cl.Args) == 0 {
		return cl.Name
	}
	keys := make([]string, 0, len(cl.Args))
	for k := range cl.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	args := make([]string, len(keys))
	for i, k := range keys {
		args[i] = k + "=" + cl.Args[k]
	}
	return cl.Name + "(" + strings.Join(args, ",") + ")"
}

// ParseAdversary splits an adversary spec into its clauses and checks each
// against the table: a known name, no argument it does not take and every
// argument it needs. The values are read where the clause is built.
func ParseAdversary(spec string) ([]Clause, error) {
	var out []Clause
	for _, s := range strings.Split(spec, "+") {
		cl, err := parseClause(s)
		if err != nil {
			return nil, err
		}
		out = append(out, cl)
	}
	return out, nil
}

func parseClause(s string) (Clause, error) {
	name, rest, hasArgs := strings.Cut(s, "(")
	cl := Clause{Name: name}
	st, ok := strategies[name]
	if !ok {
		return cl, fmt.Errorf("unknown adversary %q", name)
	}
	body, ok := strings.CutSuffix(rest, ")")
	if hasArgs && !ok {
		return cl, fmt.Errorf("adversary clause %q: unbalanced parentheses", s)
	}
	for _, arg := range strings.Split(body, ",") {
		if body == "" {
			break
		}
		k, v, found := strings.Cut(arg, "=")
		if !found || k == "" || v == "" {
			return cl, fmt.Errorf("adversary clause %q: arg %q: want key=value", s, arg)
		}
		if !slices.Contains(st.need, k) && !slices.Contains(st.may, k) {
			return cl, fmt.Errorf("adversary clause %s: unknown argument %s", s, k)
		}
		if cl.Args == nil {
			cl.Args = map[string]string{}
		}
		cl.Args[k] = v
	}
	for _, k := range st.need {
		if _, ok := cl.Args[k]; !ok {
			return cl, fmt.Errorf("adversary clause %s: want %s=", s, k)
		}
	}
	return cl, nil
}

// Reader reads one clause's arguments, keeping the first bad one in Err
// so a clause builds in one expression. ParseAdversary has checked the keys
// against the table; Reader checks the values. The unexported fields are
// what BuildAdversary builds a party clause against.
type Reader struct {
	Clause Clause
	N      int   // party ids are read in [0, N)
	Err    error // the first bad argument

	ids   []sim.PartyID // the clause's share of the corrupted set
	t     int
	seed  int64
	tr    *tree.Tree
	phase core.PhaseTag // the attacked phase of a phased strategy
	k     int           // phase index
	pos   int           // clause position in the spec
}

// Fail keeps the first error: the clause, then what is wrong with it.
func (a *Reader) Fail(format string, args ...any) {
	if a.Err == nil {
		a.Err = fmt.Errorf("adversary clause %s: %s", a.Clause, fmt.Sprintf(format, args...))
	}
}

// Int reads an integer argument, def when absent.
func (a *Reader) Int(key string, def int) int {
	s, ok := a.Clause.Args[key]
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		a.Fail("%s=%s: want an integer", key, s)
	}
	return v
}

// Ints reads a dot-separated integer list, nil when absent.
func (a *Reader) Ints(key string) []int {
	s, ok := a.Clause.Args[key]
	if !ok {
		return nil
	}
	var out []int
	for _, p := range strings.Split(s, ".") {
		v, err := strconv.Atoi(p)
		if err != nil {
			a.Fail("%s=%s: want dot-separated integers", key, s)
			return nil
		}
		out = append(out, v)
	}
	return out
}

// Duration reads a non-negative duration in Go's syntax, def when absent.
func (a *Reader) Duration(key string, def time.Duration) time.Duration {
	s, ok := a.Clause.Args[key]
	if !ok {
		return def
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		a.Fail("%s=%s: want a non-negative duration", key, s)
	}
	return d
}

// Party reads a party id in [0, N), def when absent.
func (a *Reader) Party(key string, def sim.PartyID) sim.PartyID {
	if _, ok := a.Clause.Args[key]; !ok {
		return def
	}
	return a.party(a.Int(key, 0))
}

// Parties reads a dot list of party ids in [0, N).
func (a *Reader) Parties(key string) []sim.PartyID {
	var ids []sim.PartyID
	for _, v := range a.Ints(key) {
		ids = append(ids, a.party(v))
	}
	return ids
}

func (a *Reader) party(v int) sim.PartyID {
	if v < 0 || v >= a.N {
		a.Fail("party %d out of range [0, %d)", v, a.N)
	}
	return sim.PartyID(v)
}

// Window reads a round window A or A.B with 1 ≤ A ≤ B, (0, 0) when absent.
func (a *Reader) Window(key string) (from, to int) {
	w := a.Ints(key)
	if len(w) == 0 {
		return 0, 0
	}
	if len(w) > 2 || w[0] < 1 || w[len(w)-1] < w[0] {
		a.Fail("%s=%s: want A or A.B with 1 ≤ A ≤ B", key, a.Clause.Args[key])
		return 0, 0
	}
	return w[0], w[len(w)-1]
}

// role is the member of the clause's share at the index the named argument
// gives (def when absent).
func (a *Reader) role(key string, def int) sim.PartyID {
	i := a.Int(key, def)
	if i < 0 || i >= len(a.ids) {
		a.Fail("%s=%d outside the %d-party share", key, i, len(a.ids))
		return a.ids[0]
	}
	return a.ids[i]
}

// crashRounds is crash's and stop's schedule: rounds=R1.R2… (one per
// party), or drawn from the seed over the run's rounds when absent.
func (a *Reader) crashRounds() []int {
	rounds := a.Ints("rounds")
	if _, ok := a.Clause.Args["rounds"]; !ok {
		rng := rand.New(rand.NewSource(a.seed))
		for range a.ids {
			rounds = append(rounds, 1+rng.Intn(core.Rounds(a.tr, a.t)+1))
		}
	} else if len(rounds) != len(a.ids) {
		a.Fail("%d rounds for %d parties", len(rounds), len(a.ids))
	}
	return rounds
}

// Kind is what a clause adds to a run. The strategies table declares it per
// row; a row that declares none is Byzantine.
type Kind int

const (
	// KindByzantine builds a strategy for the Byzantine share of the
	// corrupted set.
	KindByzantine Kind = iota
	// KindNone adds nothing: "none".
	KindNone
	// KindOmission builds a strategy for the omission share: omit, stop.
	KindOmission
	// KindModifier claims no parties and wraps the composed adversary:
	// mutate.
	KindModifier
	// KindLink claims no parties and is the identity here: internal/chaos
	// injects it under the TCP links of a run (lat, stall, drop, part).
	KindLink
	// KindPlanted is "evil", the property checker's planted machine bug:
	// internal/check replaces it with none before it builds, and
	// BuildAdversary refuses it (DESIGN §9).
	KindPlanted
)

// strategies is the one table of the adversary language: every clause name,
// its kind, the argument keys it needs and may take, and what it builds (a
// Byzantine or omission row) or wraps (a modifier).
var strategies = map[string]struct {
	kind      Kind
	need, may []string // argument keys: required, optional
	phased    bool     // one instance per TreeAA phase, composed
	adaptive  bool     // corrupts mid-run (crash): no TCP fabric hosts it
	build     func(a *Reader) sim.Adversary
	wrap      func(a *Reader, inner sim.OutboxFilter) sim.OutboxFilter
}{
	"none":   {kind: KindNone},
	"evil":   {kind: KindPlanted, may: []string{"val"}},
	"silent": {build: func(a *Reader) sim.Adversary { return &adversary.Silent{IDs: a.ids} }},
	"crash": {may: []string{"rounds"}, adaptive: true, build: func(a *Reader) sim.Adversary {
		return &adversary.CrashAt{IDs: a.ids, Rounds: a.crashRounds()}
	}},
	"equivocator": {may: []string{"lo", "hi"}, phased: true, build: func(a *Reader) sim.Adversary {
		return &adversary.GradecastEquivocator{IDs: a.ids, N: a.N, Tag: a.phase.Tag, StartRound: a.phase.StartRound,
			Lo: float64(a.Int("lo", -100)), Hi: float64(a.Int("hi", 1e6))}
	}},
	"splitvote": {may: []string{"per"}, phased: true, build: func(a *Reader) sim.Adversary {
		return &adversary.SplitVote{IDs: a.ids, N: a.N, T: a.t, Tag: a.phase.Tag, StartRound: a.phase.StartRound,
			PerIteration: a.Int("per", 1)}
	}},
	"halfburn": {phased: true, build: func(a *Reader) sim.Adversary {
		return &adversary.HalfBurn{IDs: a.ids, N: a.N, T: a.t, Tag: a.phase.Tag, StartRound: a.phase.StartRound}
	}},
	"noise": {may: []string{"maxval"}, phased: true, build: func(a *Reader) sim.Adversary {
		return &adversary.RandomNoise{IDs: a.ids, N: a.N, Tag: a.phase.Tag, StartRound: a.phase.StartRound,
			Seed: a.seed + int64(1000*a.k+37*a.pos), MaxVal: a.Int("maxval", 2*a.tr.NumVertices())}
	}},
	"exclusionsplit": {may: []string{"x", "s", "iter"}, phased: true, build: func(a *Reader) sim.Adversary {
		return &adversary.ExclusionSplit{IDs: a.ids, X: a.role("x", 0), S: a.role("s", len(a.ids)-1),
			N: a.N, T: a.t, Tag: a.phase.Tag, StartRound: a.phase.StartRound, StartIteration: a.Int("iter", 1)}
	}},
	"replay": {may: []string{"delay"}, build: func(a *Reader) sim.Adversary {
		return &adversary.Replay{IDs: a.ids, Delay: a.Int("delay", 3)}
	}},
	"frame": {may: []string{"fake"}, phased: true, build: func(a *Reader) sim.Adversary {
		return &adversary.FrameHonest{IDs: a.ids, N: a.N, Tag: a.phase.Tag, Fake: float64(a.Int("fake", 7))}
	}},
	"omit": {kind: KindOmission, may: []string{"drop", "halves"}, build: func(a *Reader) sim.Adversary {
		return &adversary.SendOmitter{IDs: a.ids, N: a.N, Drop: float64(a.Int("drop", 500)) / 1000,
			Halves: a.Int("halves", 0) != 0, Seed: a.seed}
	}},
	"stop": {kind: KindOmission, may: []string{"rounds"}, build: func(a *Reader) sim.Adversary {
		return &adversary.Stop{IDs: a.ids, N: a.N, Rounds: a.crashRounds()}
	}},
	"mutate": {kind: KindModifier, may: []string{"rate"}, wrap: func(a *Reader, inner sim.OutboxFilter) sim.OutboxFilter {
		return &adversary.Mutate{OutboxFilter: inner, N: a.N, Rate: a.Int("rate", 200), Seed: a.seed}
	}},
	"lat":   {kind: KindLink, need: []string{"base"}, may: []string{"jitter", "from"}},
	"stall": {kind: KindLink, need: []string{"from", "rounds"}, may: []string{"dur"}},
	"drop":  {kind: KindLink, need: []string{"from", "round"}, may: []string{"to"}},
	"part":  {kind: KindLink, need: []string{"a", "b", "rounds"}, may: []string{"heal"}},
}

// KindOf returns the kind the table declares for a clause name; an unknown
// name adds nothing.
func KindOf(name string) Kind {
	if st, ok := strategies[name]; ok {
		return st.kind
	}
	return KindNone
}

// ClauseNames lists every clause name of the table, sorted.
func ClauseNames() []string {
	names := make([]string, 0, len(strategies))
	for name := range strategies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// IsLinkFault reports whether a clause name is a link fault: it claims no
// party and counts in no budget, and only internal/chaos acts on it.
func IsLinkFault(name string) bool { return KindOf(name) == KindLink }

// IsAdaptive reports whether a clause corrupts mid-run (crash), which no
// TCP fabric hosts: a message on the wire cannot be retracted.
func IsAdaptive(name string) bool { return strategies[name].adaptive }

// AdversaryNames lists the clause names that attack a run, sorted: the
// table less none and evil.
func AdversaryNames() []string {
	return slices.DeleteFunc(ClauseNames(), func(name string) bool {
		k := KindOf(name)
		return k == KindNone || k == KindPlanted
	})
}

// BuildAdversary compiles an adversary spec against this space's protocol
// tree (phase tags and round budgets follow the block-cut tree for graph
// spaces). It returns the adversary — nil for "none" or t = 0, where the
// spec is still parsed and checked against the table — and every
// faulty party, Byzantine and omission alike. The faulty parties are the
// canonical tail FirstParties(n, t): all Byzantine, or all omission, or —
// with both kinds of clause — the lower t/2 omission and the rest
// Byzantine. Every Byzantine clause acts for the whole Byzantine share, a
// modifier (mutate) wraps what the other clauses compose, and a "none"
// clause or a link fault keeps a position (which seeds noise) but adds
// nothing.
func (s *Space) BuildAdversary(spec string, n, t int, seed int64) (sim.Adversary, map[sim.PartyID]bool, error) {
	clauses, err := ParseAdversary(spec)
	if err != nil {
		return nil, nil, err
	}
	corrupt := map[sim.PartyID]bool{}
	hasByz, hasOmit := false, false
	for _, cl := range clauses {
		switch KindOf(cl.Name) {
		case KindPlanted:
			return nil, nil, fmt.Errorf("adversary clause %s: the property checker's planted bug, not an adversary", cl.Name)
		case KindOmission:
			hasOmit = true
		case KindByzantine:
			hasByz = true
		}
	}
	if t == 0 {
		return nil, corrupt, nil
	}
	ids := adversary.FirstParties(n, t)
	byzIDs, omitIDs := ids, ids
	if hasByz && hasOmit {
		if t/2 == 0 {
			return nil, nil, fmt.Errorf("adversary %q: t = %d too small to mix omission and Byzantine clauses", spec, t)
		}
		omitIDs, byzIDs = ids[:t/2], ids[t/2:]
	}
	tr := s.ProtocolTree()
	var parts []sim.Adversary
	var mods []*Reader
	for pos, cl := range clauses {
		st := strategies[cl.Name]
		if st.build == nil && st.wrap == nil {
			continue
		}
		a := &Reader{Clause: cl, N: n, ids: byzIDs, t: t, seed: seed, tr: tr, pos: pos}
		if st.wrap != nil {
			mods = append(mods, a)
			continue
		}
		if st.kind == KindOmission {
			a.ids = omitIDs
		}
		phases := []core.PhaseTag{{}}
		if st.phased {
			phases = core.PhaseTags(tr, t)
		}
		for k, phase := range phases {
			a.phase, a.k = phase, k
			parts = append(parts, st.build(a))
		}
		if a.Err != nil {
			return nil, nil, a.Err
		}
		for _, id := range a.ids {
			corrupt[id] = true
		}
	}
	var adv sim.OutboxFilter = &adversary.Compose{Strategies: parts}
	for _, a := range mods {
		if adv = strategies[a.Clause.Name].wrap(a, adv); a.Err != nil {
			return nil, nil, a.Err
		}
	}
	if len(parts) == 0 {
		return nil, corrupt, nil
	}
	return adv, corrupt, nil
}
