package check

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// isTamperClause reports the delivery-seam clauses, applied via
// sim.Config.Tamper rather than the adversary language.
func isTamperClause(name string) bool { return name == "mutate" || name == "evil" }

// compiled is a cell materialized against concrete protocol objects. The
// adversary, tamper hook and machines are built fresh per run (strategies
// and machines hold state), so compiled only fixes the static facts: the
// input space, the inputs and the corrupted-set partition.
type compiled struct {
	cell  *Cell
	space *cli.Space
	// tr is the protocol tree: the input space itself for tree cells, the
	// graph's block-cut tree for graph cells. Round budgets, PathsFinder
	// paths and every core probe surface live here; input-space semantics
	// (validity hulls, agreement distance) go through space instead.
	tr     *tree.Tree
	inputs []tree.VertexID

	// advSpec is the cell's adversary in the cli language: its clauses with
	// every tamper clause replaced by "none", so each keeps its position.
	advSpec  string
	corrupt  map[sim.PartyID]bool // every faulty party, Byzantine and omission
	byz      map[sim.PartyID]bool // the Byzantine share (mutate's senders)
	adaptive bool                 // a crash clause corrupts mid-run

	hasEvil    bool
	hasMutate  bool
	evilVal    float64
	mutateRate int // per-mille
}

// compile validates the cell and fixes its static facts; the corrupted set
// and its omission/Byzantine split are the adversary language's.
func compile(c *Cell) (*compiled, error) {
	space, err := cli.ParseSpaceSpec(c.Tree, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if c.N < 1 {
		return nil, fmt.Errorf("check: n = %d, want >= 1", c.N)
	}
	if c.T < 0 || 3*c.T >= c.N {
		return nil, fmt.Errorf("check: t = %d, want 0 <= 3t < n = %d", c.T, c.N)
	}
	cr := &compiled{cell: c, space: space, tr: space.ProtocolTree(), byz: map[sim.PartyID]bool{}}
	if c.Inputs == nil {
		cr.inputs = space.SpreadInputs(c.N)
	} else {
		if len(c.Inputs) != c.N {
			return nil, fmt.Errorf("check: %d inputs for n = %d", len(c.Inputs), c.N)
		}
		for _, v := range c.Inputs {
			if !space.Valid(v) {
				return nil, fmt.Errorf("check: input vertex %d outside space %s", int(v), c.Tree)
			}
		}
		cr.inputs = c.Inputs
	}

	advs := make([]string, len(c.Clauses))
	for i, cl := range c.Clauses {
		advs[i] = "none"
		switch cl.Name {
		case "evil":
			cr.hasEvil = true
			val, err := cl.Int("val", 1000000)
			if err != nil {
				return nil, err
			}
			cr.evilVal = float64(val)
		case "mutate":
			cr.hasMutate = true
			if cr.mutateRate, err = cl.Int("rate", 200); err != nil {
				return nil, err
			}
		default:
			if c.T == 0 {
				return nil, fmt.Errorf("check: adversary clauses with t = 0 (only evil/mutate may stand alone)")
			}
			advs[i] = cl.String()
			cr.adaptive = cr.adaptive || cl.Name == "crash"
		}
	}
	cr.advSpec = "none"
	if len(advs) > 0 {
		cr.advSpec = strings.Join(advs, "+")
	}
	adv, corrupt, err := space.BuildAdversary(cr.advSpec, c.N, c.T, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	cr.corrupt = corrupt
	for p := range corrupt {
		cr.byz[p] = true
	}
	if f, ok := adv.(sim.OutboxFilter); ok {
		for _, p := range f.OmissionParties() {
			delete(cr.byz, p)
		}
	}
	return cr, nil
}

// adversary builds a fresh adversary instance for one run (strategies hold
// per-iteration state, so every driver needs its own). nil means no
// adversary.
func (cr *compiled) adversary() (sim.Adversary, error) {
	adv, _, err := cr.space.BuildAdversary(cr.advSpec, cr.cell.N, cr.cell.T, cr.cell.Seed)
	return adv, err
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
	byz, evilVal, rate := cr.byz, cr.evilVal, cr.mutateRate
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
// transport: no delivery-seam tamper and no adaptive corruption. Omission
// cells run there too — each omission seat filters its own sends.
func (cr *compiled) tcpCompatible() bool {
	return !cr.hasEvil && !cr.hasMutate && !cr.adaptive
}
