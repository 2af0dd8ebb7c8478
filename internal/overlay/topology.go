package overlay

import (
	"fmt"
	"math"

	"treeaa/internal/sim"
)

// Layout is the deterministic three-level communication tree over parties
// 0..n−1: party 0 is the root, parties 1..Subleaders are sub-leaders (all
// children of the root), and every higher id is a leaf assigned to a
// sub-leader round-robin. Determinism matters: every node derives the same
// tree, and the same failover ring, from (n, branching) alone, with no
// coordination.
type Layout struct {
	N          int
	Branching  int // requested branching factor (sub-leader count)
	Subleaders int // actual sub-leader count, min(Branching, N−1)
}

// NewLayout builds the tree for n parties. branching 0 picks ≈ √(n−1),
// which balances the root's degree (branching) against each sub-leader's
// (≈ (n−1)/branching).
func NewLayout(n, branching int) (Layout, error) {
	if n < 1 {
		return Layout{}, fmt.Errorf("overlay: n = %d, want ≥ 1", n)
	}
	if branching < 0 {
		return Layout{}, fmt.Errorf("overlay: branching = %d, want ≥ 0", branching)
	}
	if branching == 0 {
		branching = int(math.Ceil(math.Sqrt(float64(n - 1))))
		if branching < 1 {
			branching = 1
		}
	}
	s := branching
	if s > n-1 {
		s = n - 1
	}
	return Layout{N: n, Branching: branching, Subleaders: s}, nil
}

// Root is the tree's root party.
const Root sim.PartyID = 0

// IsSubleader reports whether p is an interior node directly under the root.
func (l Layout) IsSubleader(p sim.PartyID) bool {
	return int(p) >= 1 && int(p) <= l.Subleaders
}

// Interior reports whether p accepts child connections (root or sub-leader).
func (l Layout) Interior(p sim.PartyID) bool {
	return p == Root || l.IsSubleader(p)
}

// Parent returns p's parent in the tree, or −1 for the root.
func (l Layout) Parent(p sim.PartyID) sim.PartyID {
	switch {
	case p == Root:
		return -1
	case l.IsSubleader(p):
		return Root
	default:
		return sim.PartyID(1 + (int(p)-l.Subleaders-1)%l.Subleaders)
	}
}

// Children returns p's children in ascending order.
func (l Layout) Children(p sim.PartyID) []sim.PartyID {
	var out []sim.PartyID
	if p == Root {
		for s := 1; s <= l.Subleaders; s++ {
			out = append(out, sim.PartyID(s))
		}
		return out
	}
	if !l.IsSubleader(p) {
		return nil
	}
	for q := l.Subleaders + 1; q < l.N; q++ {
		if l.Parent(sim.PartyID(q)) == p {
			out = append(out, sim.PartyID(q))
		}
	}
	return out
}

// Depth is the number of populated levels: 1 for a lone root, 2 with
// sub-leaders only, 3 once leaves exist.
func (l Layout) Depth() int {
	switch {
	case l.N == 1:
		return 1
	case l.N-1 <= l.Subleaders:
		return 2
	default:
		return 3
	}
}

// MaxDegree is the largest link count any node holds: the root's fan-out,
// or a sub-leader's leaf count plus its root link.
func (l Layout) MaxDegree() int {
	if l.N == 1 {
		return 0
	}
	leaves := l.N - 1 - l.Subleaders
	perSub := 0
	if l.Subleaders > 0 {
		perSub = (leaves + l.Subleaders - 1) / l.Subleaders
	}
	if d := perSub + 1; d > l.Subleaders {
		return d
	}
	return l.Subleaders
}

// Failover returns p's parent candidates after `failed` died, in preference
// order: for a leaf, the other sub-leaders starting after the failed one in
// ring order, then the root as last resort; for a sub-leader (or a leaf
// whose last resort died), just the root again — redialing it is the only
// move. The caller cycles the list until its timeout budget runs out.
func (l Layout) Failover(p, failed sim.PartyID) []sim.PartyID {
	if p == Root {
		return nil
	}
	if !l.IsSubleader(failed) {
		return []sim.PartyID{Root}
	}
	var out []sim.PartyID
	for i := 1; i < l.Subleaders; i++ {
		s := (int(failed)-1+i)%l.Subleaders + 1
		if sim.PartyID(s) != p {
			out = append(out, sim.PartyID(s))
		}
	}
	return append(out, Root)
}
