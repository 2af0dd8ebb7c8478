package check

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"treeaa/internal/adversary"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// tamperClauses are the delivery-seam clauses, applied via sim.Config.Tamper
// rather than the adversary interface.
func isTamperClause(name string) bool { return name == "mutate" || name == "evil" }

// compiled is a cell materialized against concrete protocol objects. The
// adversary, tamper hook and machines are built fresh per run (strategies
// and machines hold state), so compiled only fixes the static facts: the
// input space, the inputs and the corrupted-set partition.
type compiled struct {
	cell  *Cell
	space *cli.Space
	// tr is the protocol tree: the input space itself for tree cells, the
	// graph's block-cut tree for graph cells. Round budgets, adversary phase
	// schedules, PathsFinder paths and every core probe surface live here;
	// input-space semantics (validity hulls, agreement distance) go through
	// space instead.
	tr     *tree.Tree
	inputs []tree.VertexID

	byzIDs  []sim.PartyID // Byzantine clauses' shared corrupted set
	omitIDs []sim.PartyID // omission clause's set, disjoint from byzIDs
	corrupt map[sim.PartyID]bool

	adaptive   bool // a crash clause corrupts adaptively
	hasEvil    bool
	hasMutate  bool
	evilVal    float64
	mutateRate int // per-mille
}

// compile validates the cell and fixes its static facts. The corrupted-set
// partition rule: the canonical tail FirstParties(n, t) goes entirely to the
// Byzantine clauses, or entirely to the omission clause, or — when both are
// present — the lower t/2 ids become omission-faulty and the rest Byzantine
// (requiring t >= 2).
func compile(c *Cell) (*compiled, error) {
	spec := c.TreeSpec
	if c.Space != "" {
		if c.TreeSpec != "" {
			return nil, fmt.Errorf("check: cell sets both tree=%q and space=%q", c.TreeSpec, c.Space)
		}
		if !strings.HasPrefix(c.Space, cli.GraphPrefix) {
			return nil, fmt.Errorf("check: space=%q: want %q prefix (trees go in tree=)", c.Space, cli.GraphPrefix)
		}
		spec = c.Space
	}
	space, err := cli.ParseSpaceSpec(spec, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if c.N < 1 {
		return nil, fmt.Errorf("check: n = %d, want >= 1", c.N)
	}
	if c.T < 0 || 3*c.T >= c.N {
		return nil, fmt.Errorf("check: t = %d, want 0 <= 3t < n = %d", c.T, c.N)
	}
	cr := &compiled{cell: c, space: space, tr: space.ProtocolTree(), corrupt: map[sim.PartyID]bool{}}
	if c.Inputs == nil {
		cr.inputs = space.SpreadInputs(c.N)
	} else {
		if len(c.Inputs) != c.N {
			return nil, fmt.Errorf("check: %d inputs for n = %d", len(c.Inputs), c.N)
		}
		for _, v := range c.Inputs {
			if !space.Valid(v) {
				return nil, fmt.Errorf("check: input vertex %d outside space %s", int(v), spec)
			}
		}
		cr.inputs = c.Inputs
	}

	hasByz, hasOmit := false, false
	for _, cl := range c.Clauses {
		switch {
		case cl.Name == "omit":
			hasOmit = true
		case cl.Name == "evil":
			cr.hasEvil = true
			val, err := cl.Int("val", 1000000)
			if err != nil {
				return nil, err
			}
			cr.evilVal = float64(val)
		case cl.Name == "mutate":
			cr.hasMutate = true
			if cr.mutateRate, err = cl.Int("rate", 200); err != nil {
				return nil, err
			}
		case cl.Name == "crash":
			hasByz, cr.adaptive = true, true
		default:
			hasByz = true
		}
	}
	if (hasByz || hasOmit) && c.T == 0 {
		return nil, fmt.Errorf("check: adversary clauses with t = 0 (only evil/mutate may stand alone)")
	}
	ids := adversary.FirstParties(c.N, c.T)
	switch {
	case hasByz && hasOmit:
		nOmit := c.T / 2
		if nOmit == 0 {
			return nil, fmt.Errorf("check: t = %d too small to mix omission and Byzantine clauses", c.T)
		}
		cr.omitIDs, cr.byzIDs = ids[:nOmit], ids[nOmit:]
	case hasOmit:
		cr.omitIDs = ids
	case hasByz:
		cr.byzIDs = ids
	}
	for _, id := range append(append([]sim.PartyID{}, cr.byzIDs...), cr.omitIDs...) {
		cr.corrupt[id] = true
	}
	return cr, nil
}

// adversary builds a fresh adversary instance for one run (strategies hold
// per-iteration state, so every driver needs its own). nil means no
// adversary.
func (cr *compiled) adversary() (sim.Adversary, error) {
	var parts []sim.Adversary
	hasFilter := false
	phases := core.PhaseTags(cr.tr, cr.cell.T)
	for k, cl := range cr.cell.Clauses {
		if isTamperClause(cl.Name) {
			continue
		}
		base := adversary.Params{IDs: cr.byzIDs, N: cr.cell.N, T: cr.cell.T, Seed: cr.cell.Seed}
		switch cl.Name {
		case "silent":
			p, err := adversary.Build("silent", base)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		case "replay":
			delay, err := cl.Int("delay", 3)
			if err != nil {
				return nil, err
			}
			base.Delay = delay
			p, err := adversary.Build("replay", base)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		case "crash":
			rounds, err := cl.IntList("rounds")
			if err != nil {
				return nil, err
			}
			base.Rounds = rounds
			p, err := adversary.Build("crash", base)
			if err != nil {
				return nil, fmt.Errorf("check: %w", err)
			}
			parts = append(parts, p)
		case "omit":
			drop, err := cl.Int("drop", 500)
			if err != nil {
				return nil, err
			}
			halves, err := cl.Int("halves", 0)
			if err != nil {
				return nil, err
			}
			base.IDs = cr.omitIDs
			base.Drop = float64(drop) / 1000
			base.Halves = halves != 0
			p, err := adversary.Build("omit", base)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
			hasFilter = true
		case "equivocator", "splitvote", "halfburn", "noise", "frame":
			for pi, phase := range phases {
				pp := base
				pp.Tag, pp.StartRound = phase.Tag, phase.StartRound
				var err error
				switch cl.Name {
				case "equivocator":
					if lo, e := cl.Int("lo", -100); e != nil {
						err = e
					} else {
						pp.Lo = float64(lo)
					}
					if hi, e := cl.Int("hi", 1000); e != nil {
						err = e
					} else {
						pp.Hi = float64(hi)
					}
				case "splitvote":
					pp.PerIteration, err = cl.Int("per", 1)
				case "noise":
					pp.MaxVal, err = cl.Int("maxval", 2*cr.tr.NumVertices())
					pp.Seed = cr.cell.Seed + int64(1000*pi+37*k)
				case "frame":
					var fake int
					fake, err = cl.Int("fake", 7)
					pp.Fake = float64(fake)
				}
				if err != nil {
					return nil, err
				}
				p, err := adversary.Build(cl.Name, pp)
				if err != nil {
					return nil, err
				}
				parts = append(parts, p)
			}
		default:
			return nil, fmt.Errorf("check: unknown clause %q", cl.Name)
		}
	}
	if len(parts) == 0 {
		return nil, nil
	}
	if hasFilter {
		return &adversary.ComposeOmission{Compose: adversary.Compose{Strategies: parts}}, nil
	}
	return &adversary.Compose{Strategies: parts}, nil
}

// tamper builds a fresh delivery-seam hook for one run, or nil. The mutate
// clause byte-mutates corrupted senders' payloads (model-sound: a Byzantine
// party may put any bytes on its authenticated links; mutations that no
// longer decode are dropped, modeling the receiving codec's rejection).
// Mutation decisions are keyed per message — a hash of the seed, round,
// addressing and encoded bytes — never drawn from a shared sequential
// stream, so they are independent of delivery order and a reordered but
// equal message stream tampers identically. The evil clause rewrites every
// value gradecast send — honest senders included — to one fixed value;
// because the rewrite is consistent across recipients no equivocation is
// ever observed and the burn rule stays silent, which is exactly the
// out-of-model violation the shrinker demo needs.
func (cr *compiled) tamper() func(int, sim.Message) (sim.Message, bool) {
	if !cr.hasEvil && !cr.hasMutate {
		return nil
	}
	byz := make(map[sim.PartyID]bool, len(cr.byzIDs))
	for _, id := range cr.byzIDs {
		byz[id] = true
	}
	evilVal, rate := cr.evilVal, cr.mutateRate
	hasEvil, hasMutate := cr.hasEvil, cr.hasMutate
	seed := cr.cell.Seed ^ 0x6d757461
	return func(r int, m sim.Message) (sim.Message, bool) {
		if hasMutate && byz[m.From] {
			if b, err := wire.Encode(m.Payload); err == nil {
				rng := rand.New(rand.NewSource(msgKey(seed, r, m, b)))
				if rng.Intn(1000) < rate {
					b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
					p, err := wire.Decode(b)
					if err != nil {
						return m, false
					}
					m.Payload = p
				}
			}
		}
		if hasEvil {
			if s, ok := m.Payload.(gradecast.SendMsg); ok && !isSuspicionTag(s.Tag) {
				s.Val = evilVal
				m.Payload = s
			}
		}
		return m, true
	}
}

// msgKey hashes one message's identity — run seed, delivery round,
// addressing and encoded payload — into a deterministic per-message rng
// seed (FNV-1a).
func msgKey(seed int64, r int, m sim.Message, encoded []byte) int64 {
	h := fnv.New64a()
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(seed))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(r))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m.From))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(m.To))
	h.Write(hdr[:])
	h.Write(encoded)
	return int64(h.Sum64())
}

// isSuspicionTag reports whether tag is a RealAA suspicion-mask instance
// ("<tag>/acc" or "<tag>/accN"): the evil tamperer leaves those alone so the
// violation it plants is purely a value-level one.
func isSuspicionTag(tag string) bool {
	i := len(tag) - 1
	for i >= 0 && tag[i] >= '0' && tag[i] <= '9' {
		i--
	}
	return i >= 3 && tag[i-3:i+1] == "/acc"
}

// machines builds fresh machines for one run (TreeAA machines for tree
// cells, graph machines delegating to their inner TreeAA instance for graph
// cells); when probe is set they are wrapped in per-round invariant probes.
// cores always holds the underlying core machines for post-run inspection.
func (cr *compiled) machines(probe bool) (ms []sim.Machine, cores []*core.Machine, probes []*probeMachine, err error) {
	ms = make([]sim.Machine, cr.cell.N)
	cores = make([]*core.Machine, cr.cell.N)
	for i := 0; i < cr.cell.N; i++ {
		m, cm, err := cr.space.NewMachine(cr.cell.N, cr.cell.T, sim.PartyID(i), cr.inputs[i])
		if err != nil {
			return nil, nil, nil, fmt.Errorf("check: %w", err)
		}
		cores[i] = cm
		if probe {
			p := &probeMachine{m: m, inner: cm}
			probes = append(probes, p)
			ms[i] = p
		} else {
			ms[i] = m
		}
	}
	return ms, cores, probes, nil
}

// budget is the cell's round budget: the schedule of its own fault budget
// (not the ceiling over all t) plus the two processing rounds, so a t <= 1
// cell that overran the collapsed schedule is a violation.
func (cr *compiled) budget() int { return core.Rounds(cr.tr, cr.cell.T) + 2 }

// config assembles the sim.Config for one run with fresh adversary and
// tamper instances.
func (cr *compiled) config() (sim.Config, error) {
	adv, err := cr.adversary()
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		N: cr.cell.N, MaxCorrupt: cr.cell.T,
		MaxRounds: cr.budget(),
		Adversary: adv, Tamper: cr.tamper(),
	}, nil
}

// tcpCompatible reports whether the cell can run unchanged on the TCP
// transport: no delivery-seam tamper, no omission filtering, no adaptive
// corruption, and (when an adversary exists) at least one initial
// corruption.
func (cr *compiled) tcpCompatible() bool {
	if cr.hasEvil || cr.hasMutate || len(cr.omitIDs) > 0 || cr.adaptive {
		return false
	}
	return true
}
