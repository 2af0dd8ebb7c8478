package realaa

import (
	"math"

	"treeaa/internal/sim"
)

// RangeAtIteration returns the spread (max - min) of the honest parties'
// values after the given 0-based iteration, from the per-party histories
// returned by RunReal or Machine.History. Parties whose history is shorter
// are skipped; an empty sample yields 0.
func RangeAtIteration(histories map[sim.PartyID][]float64, iter int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, h := range histories {
		if iter < len(h) {
			lo = math.Min(lo, h[iter])
			hi = math.Max(hi, h[iter])
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// Iterations recorded across all histories (the longest).
func maxIterations(histories map[sim.PartyID][]float64) int {
	iters := 0
	for _, h := range histories {
		if len(h) > iters {
			iters = len(h)
		}
	}
	return iters
}

// ConvergenceRound returns the first communication round by whose end the
// honest values were within eps of each other, given roundsPerIter (3 for
// RealAA, 1 for DLPSW). If the histories never reach eps it returns the
// last recorded round. This is the oracle's view of convergence; a party
// can only decide on what it sees itself (the Config.Eps rules).
func ConvergenceRound(histories map[sim.PartyID][]float64, eps float64, roundsPerIter int) int {
	iters := maxIterations(histories)
	for it := 0; it < iters; it++ {
		if RangeAtIteration(histories, it) <= eps {
			return (it + 1) * roundsPerIter
		}
	}
	return iters * roundsPerIter
}

// DivergentIterations counts iterations whose honest value spread exceeded
// tol — the quantity Theorem 1 bounds by the adversary's budget t for the
// SplitVote-style attacks.
func DivergentIterations(histories map[sim.PartyID][]float64, tol float64) int {
	count := 0
	for it := 0; it < maxIterations(histories); it++ {
		if RangeAtIteration(histories, it) > tol {
			count++
		}
	}
	return count
}
