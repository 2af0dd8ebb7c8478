// Package cli holds small helpers shared by the cmd/ binaries: the tree
// specification mini-language, input spreading and parsing, and adversary
// construction from its flag name.
package cli

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"treeaa/internal/adversary"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// ParseTreeSpec builds a tree from a compact spec:
//
//	path:K            path with K vertices
//	star:K            star with K vertices
//	spider:LEGS:LEN   spider with LEGS legs of length LEN
//	caterpillar:S:L   caterpillar with spine S and L legs per spine vertex
//	kary:K:DEPTH      complete K-ary tree of the given depth
//	random:K          uniform random labeled tree on K vertices (uses seed)
//	figure3           the paper's Figure 3 tree
//	@FILE             edge-list file ("a - b" per line)
func ParseTreeSpec(spec string, seed int64) (*tree.Tree, error) {
	if strings.HasPrefix(spec, "@") {
		f, err := os.Open(spec[1:])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return tree.Parse(f)
	}
	parts := strings.Split(spec, ":")
	argInt := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("tree spec %q: missing argument %d", spec, i)
		}
		v, err := strconv.Atoi(parts[i])
		if err != nil || v < 1 {
			return 0, fmt.Errorf("tree spec %q: bad argument %q", spec, parts[i])
		}
		return v, nil
	}
	switch parts[0] {
	case "path":
		k, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return tree.NewPath(k), nil
	case "star":
		k, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return tree.NewStar(k), nil
	case "spider":
		legs, err := argInt(1)
		if err != nil {
			return nil, err
		}
		length, err := argInt(2)
		if err != nil {
			return nil, err
		}
		return tree.NewSpider(legs, length), nil
	case "caterpillar":
		s, err := argInt(1)
		if err != nil {
			return nil, err
		}
		l, err := argInt(2)
		if err != nil {
			return nil, err
		}
		return tree.NewCaterpillar(s, l), nil
	case "kary":
		k, err := argInt(1)
		if err != nil {
			return nil, err
		}
		depth, err := argInt(2)
		if err != nil {
			return nil, err
		}
		return tree.NewCompleteKAry(k, depth), nil
	case "random":
		k, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return tree.RandomPruefer(k, rand.New(rand.NewSource(seed))), nil
	case "figure3":
		return tree.Figure3Tree(), nil
	default:
		return nil, fmt.Errorf("unknown tree spec %q", spec)
	}
}

// AdversaryNames lists the -adversary flag values for help text.
func AdversaryNames() []string {
	return []string{"none", "silent", "crash", "equivocator", "splitvote", "halfburn", "noise"}
}

// buildAdversary constructs the named adversary over the canonical
// corrupted set FirstParties(n, t), phase-composed for TreeAA's gradecast
// tags where the strategy is tag-scoped. It returns the adversary (nil for
// "none" or t = 0) and the corrupted-party map.
func buildAdversary(name string, tr *tree.Tree, n, t int, seed int64) (sim.Adversary, map[sim.PartyID]bool, error) {
	if name == "none" || t == 0 {
		return nil, map[sim.PartyID]bool{}, nil
	}
	ids := adversary.FirstParties(n, t)
	corrupt := make(map[sim.PartyID]bool, len(ids))
	for _, id := range ids {
		corrupt[id] = true
	}
	phases := core.PhaseTags(tr, t)
	perPhase := func(strategy string, mk func(p core.PhaseTag, k int) adversary.Params) (sim.Adversary, error) {
		var parts []sim.Adversary
		for k, p := range phases {
			part, err := adversary.Build(strategy, mk(p, k))
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
		}
		return &adversary.Compose{Strategies: parts}, nil
	}
	base := adversary.Params{IDs: ids, N: n, T: t, Seed: seed}
	var adv sim.Adversary
	var err error
	switch name {
	case "silent":
		adv, err = adversary.Build("silent", base)
	case "crash":
		rounds := make([]int, len(ids))
		rng := rand.New(rand.NewSource(seed))
		for i := range rounds {
			rounds[i] = 1 + rng.Intn(core.Rounds(tr, t)+1)
		}
		crash := base
		crash.Rounds = rounds
		adv, err = adversary.Build("crash", crash)
	case "equivocator":
		adv, err = perPhase("equivocator", func(p core.PhaseTag, _ int) adversary.Params {
			eq := base
			eq.Tag, eq.StartRound, eq.Lo, eq.Hi = p.Tag, p.StartRound, -100, 1e6
			return eq
		})
	case "splitvote":
		adv, err = perPhase("splitvote", func(p core.PhaseTag, _ int) adversary.Params {
			sv := base
			sv.Tag, sv.StartRound, sv.PerIteration = p.Tag, p.StartRound, 1
			return sv
		})
	case "halfburn":
		adv, err = perPhase("halfburn", func(p core.PhaseTag, _ int) adversary.Params {
			hb := base
			hb.Tag, hb.StartRound = p.Tag, p.StartRound
			return hb
		})
	case "noise":
		adv, err = perPhase("noise", func(p core.PhaseTag, k int) adversary.Params {
			no := base
			no.Tag, no.StartRound = p.Tag, p.StartRound
			no.Seed, no.MaxVal = seed+int64(1000*k), 2*tr.NumVertices()
			return no
		})
	default:
		return nil, nil, fmt.Errorf("unknown adversary %q", name)
	}
	if err != nil {
		return nil, nil, err
	}
	return adv, corrupt, nil
}
