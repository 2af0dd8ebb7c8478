package main

import (
	"fmt"
	"math/rand"

	"treeaa/internal/cli"
)

// opSpec is everything the program under test is handed for one operation:
// generated inputs only — no workload name, no benchmark seed.
type opSpec struct {
	Space     string // cli.ParseSpaceSpec spec ("path:1024", "graph:cliquechain:8:6")
	Seed      int64  // space seed (random shapes)
	N, T      int
	Inputs    string // comma-separated input labels, rotated per operation
	Adversary string // "" = all honest
}

// hotSeed is the space seed of every operation that is not cold. It is fixed
// so that the benchmark seed rotates inputs and reseeds cold specs without
// changing the size of the hot shapes: random:4096 has a different diameter,
// hence a different round count, under every seed, and runs at different
// seeds would not be runs of the same workload.
const hotSeed int64 = 1

// mixEntry is one kind of operation in a workload's traffic mix.
type mixEntry struct {
	Weight    int
	Space     string
	N, T      int
	Adversary string
	// Cold gives every operation a fresh space seed, so nothing the program
	// built for an earlier operation (parsed spec, tree, tables) is reusable.
	Cold bool
}

// specStream generates count operations from a seeded mix. The same seed
// gives the same stream; the stream is the only thing that depends on it.
func specStream(seed int64, mix []mixEntry, count int) ([]opSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("spec stream: mix has no weight")
	}
	hot := make([]*cli.Space, len(mix)) // the generator's own parsed copies
	out := make([]opSpec, 0, count)
	for len(out) < count {
		k, pick := 0, rng.Intn(total)
		for pick >= mix[k].Weight {
			pick -= mix[k].Weight
			k++
		}
		m := mix[k]
		spaceSeed, space := hotSeed, hot[k]
		if m.Cold {
			spaceSeed, space = rng.Int63(), nil
		}
		if space == nil {
			var err error
			if space, err = cli.ParseSpaceSpec(m.Space, spaceSeed); err != nil {
				return nil, fmt.Errorf("spec stream: %s: %w", m.Space, err)
			}
			if !m.Cold {
				hot[k] = space
			}
		}
		out = append(out, opSpec{
			Space: m.Space, Seed: spaceSeed, N: m.N, T: m.T, Adversary: m.Adversary,
			Inputs: space.RotateInputs(m.N, rng.Intn(space.NumVertices())),
		})
	}
	return out, nil
}
