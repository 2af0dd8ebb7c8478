package cli

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"treeaa/internal/adversary"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// The adversary language (DESIGN §9): a spec is "none" or clauses
// name(key=value,...) joined by '+', e.g. "splitvote(per=2)+noise" or
// "equivocator(hi=1000,lo=-100)+omit(drop=500)"; integer lists inside an
// argument are dot-separated (crash(rounds=2.5.9)).

// Clause is one adversary component: a strategy name plus its arguments.
type Clause struct {
	Name string
	Args map[string]string
}

// Int returns the named integer argument, or def when absent.
func (cl Clause) Int(key string, def int) (int, error) {
	s, ok := cl.Args[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("adversary clause %s: arg %s=%q: want integer", cl.Name, key, s)
	}
	return v, nil
}

// IntList returns the named dot-separated integer list argument, or nil
// when absent.
func (cl Clause) IntList(key string) ([]int, error) {
	s, ok := cl.Args[key]
	if !ok {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("adversary clause %s: arg %s=%q: want dot-separated integers", cl.Name, key, s)
		}
		out[i] = v
	}
	return out, nil
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

// ParseAdversary splits an adversary spec into its clauses. Names are not
// checked here; BuildAdversary rejects the ones the table lacks.
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
	if !hasArgs {
		return cl, nil
	}
	body, ok := strings.CutSuffix(rest, ")")
	if !ok {
		return cl, fmt.Errorf("adversary clause %q: unbalanced parentheses", s)
	}
	cl.Args = map[string]string{}
	if body == "" {
		return cl, nil
	}
	for _, arg := range strings.Split(body, ",") {
		k, v, found := strings.Cut(arg, "=")
		if !found || k == "" || v == "" {
			return cl, fmt.Errorf("adversary clause %q: arg %q: want key=value", s, arg)
		}
		cl.Args[k] = v
	}
	return cl, nil
}

// clauseArgs is what one strategy instance is built from: the clause, its
// share of the corrupted set and the execution it attacks. The first bad
// argument is kept in err, so the table's builders stay one expression.
type clauseArgs struct {
	cl    Clause
	ids   []sim.PartyID
	n, t  int
	seed  int64
	tr    *tree.Tree
	phase core.PhaseTag // the attacked phase of a phased strategy
	k     int           // phase index
	pos   int           // clause position in the spec
	err   error
}

func (a *clauseArgs) int(key string, def int) int {
	v, err := a.cl.Int(key, def)
	if a.err == nil {
		a.err = err
	}
	return v
}

// role is the member of the clause's share at the index the named argument
// gives (def when absent).
func (a *clauseArgs) role(key string, def int) sim.PartyID {
	i := a.int(key, def)
	if i < 0 || i >= len(a.ids) {
		if a.err == nil {
			a.err = fmt.Errorf("adversary clause %s: %s=%d outside the %d-party share", a.cl.Name, key, i, len(a.ids))
		}
		return a.ids[0]
	}
	return a.ids[i]
}

// crashRounds is crash's and stop's schedule: rounds=R1.R2… (one per
// party), or drawn from the seed over the run's rounds when absent.
func (a *clauseArgs) crashRounds() []int {
	rounds, err := a.cl.IntList("rounds")
	switch {
	case err != nil:
		a.err = err
	case rounds == nil:
		rng := rand.New(rand.NewSource(a.seed))
		for range a.ids {
			rounds = append(rounds, 1+rng.Intn(core.Rounds(a.tr, a.t)+1))
		}
	case len(rounds) != len(a.ids):
		a.err = fmt.Errorf("adversary clause %s: %d rounds for %d parties", a.cl.Name, len(rounds), len(a.ids))
	}
	return rounds
}

// strategies is the one table from clause name to strategy. A modifier
// (wrap set, build nil) claims no parties: it wraps the composed adversary.
var strategies = map[string]struct {
	phased   bool // one instance per TreeAA phase, composed
	omission bool // takes the omission share of the corrupted set
	build    func(a *clauseArgs) sim.Adversary
	wrap     func(a *clauseArgs, inner sim.OutboxFilter) sim.OutboxFilter
}{
	"silent": {build: func(a *clauseArgs) sim.Adversary { return &adversary.Silent{IDs: a.ids} }},
	"crash":  {build: func(a *clauseArgs) sim.Adversary { return &adversary.CrashAt{IDs: a.ids, Rounds: a.crashRounds()} }},
	"equivocator": {phased: true, build: func(a *clauseArgs) sim.Adversary {
		return &adversary.GradecastEquivocator{IDs: a.ids, N: a.n, Tag: a.phase.Tag, StartRound: a.phase.StartRound,
			Lo: float64(a.int("lo", -100)), Hi: float64(a.int("hi", 1e6))}
	}},
	"splitvote": {phased: true, build: func(a *clauseArgs) sim.Adversary {
		return &adversary.SplitVote{IDs: a.ids, N: a.n, T: a.t, Tag: a.phase.Tag, StartRound: a.phase.StartRound,
			PerIteration: a.int("per", 1)}
	}},
	"halfburn": {phased: true, build: func(a *clauseArgs) sim.Adversary {
		return &adversary.HalfBurn{IDs: a.ids, N: a.n, T: a.t, Tag: a.phase.Tag, StartRound: a.phase.StartRound}
	}},
	"noise": {phased: true, build: func(a *clauseArgs) sim.Adversary {
		return &adversary.RandomNoise{IDs: a.ids, N: a.n, Tag: a.phase.Tag, StartRound: a.phase.StartRound,
			Seed: a.seed + int64(1000*a.k+37*a.pos), MaxVal: a.int("maxval", 2*a.tr.NumVertices())}
	}},
	"exclusionsplit": {phased: true, build: func(a *clauseArgs) sim.Adversary {
		return &adversary.ExclusionSplit{IDs: a.ids, X: a.role("x", 0), S: a.role("s", len(a.ids)-1),
			N: a.n, T: a.t, Tag: a.phase.Tag, StartRound: a.phase.StartRound, StartIteration: a.int("iter", 1)}
	}},
	"replay": {build: func(a *clauseArgs) sim.Adversary { return &adversary.Replay{IDs: a.ids, Delay: a.int("delay", 3)} }},
	"frame": {phased: true, build: func(a *clauseArgs) sim.Adversary {
		return &adversary.FrameHonest{IDs: a.ids, N: a.n, Tag: a.phase.Tag, Fake: float64(a.int("fake", 7))}
	}},
	"omit": {omission: true, build: func(a *clauseArgs) sim.Adversary {
		return &adversary.SendOmitter{IDs: a.ids, N: a.n, Drop: float64(a.int("drop", 500)) / 1000,
			Halves: a.int("halves", 0) != 0, Seed: a.seed}
	}},
	"stop": {omission: true, build: func(a *clauseArgs) sim.Adversary {
		return &adversary.Stop{IDs: a.ids, N: a.n, Rounds: a.crashRounds()}
	}},
	"mutate": {wrap: func(a *clauseArgs, inner sim.OutboxFilter) sim.OutboxFilter {
		return &adversary.Mutate{OutboxFilter: inner, N: a.n, Rate: a.int("rate", 200), Seed: a.seed}
	}},
}

// AdversaryNames lists the clause names the table knows, sorted.
func AdversaryNames() []string {
	names := make([]string, 0, len(strategies))
	for name := range strategies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BuildAdversary compiles an adversary spec against this space's protocol
// tree (phase tags and round budgets follow the block-cut tree for graph
// spaces). It returns the adversary — nil for "none" or t = 0 — and every
// faulty party, Byzantine and omission alike. The faulty parties are the
// canonical tail FirstParties(n, t): all Byzantine, or all omission, or —
// with both kinds of clause — the lower t/2 omission and the rest
// Byzantine. Every Byzantine clause acts for the whole Byzantine share, a
// modifier (mutate) wraps what the other clauses compose, and a "none"
// clause keeps a position (which seeds noise) but adds nothing.
func (s *Space) BuildAdversary(spec string, n, t int, seed int64) (sim.Adversary, map[sim.PartyID]bool, error) {
	corrupt := map[sim.PartyID]bool{}
	if t == 0 {
		return nil, corrupt, nil
	}
	clauses, err := ParseAdversary(spec)
	if err != nil {
		return nil, nil, err
	}
	hasByz, hasOmit := false, false
	for _, cl := range clauses {
		st, ok := strategies[cl.Name]
		switch {
		case cl.Name == "none" || st.wrap != nil:
		case !ok:
			return nil, nil, fmt.Errorf("unknown adversary %q", cl.Name)
		case st.omission:
			hasOmit = true
		default:
			hasByz = true
		}
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
	var mods []*clauseArgs
	for pos, cl := range clauses {
		st, ok := strategies[cl.Name]
		if !ok {
			continue
		}
		a := &clauseArgs{cl: cl, ids: byzIDs, n: n, t: t, seed: seed, tr: tr, pos: pos}
		if st.wrap != nil {
			mods = append(mods, a)
			continue
		}
		if st.omission {
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
		if a.err != nil {
			return nil, nil, a.err
		}
		for _, id := range a.ids {
			corrupt[id] = true
		}
	}
	var adv sim.OutboxFilter = &adversary.Compose{Strategies: parts}
	for _, a := range mods {
		if adv = strategies[a.cl.Name].wrap(a, adv); a.err != nil {
			return nil, nil, a.err
		}
	}
	if len(parts) == 0 {
		return nil, corrupt, nil
	}
	return adv, corrupt, nil
}
