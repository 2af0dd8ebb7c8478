// Robot gathering on a tree-shaped map — the motivating application the
// paper inherits from the robot-gathering literature [2, 34]: robots spread
// over a corridor map (a tree) must meet, but some robots' controllers are
// compromised. Approximate Agreement on trees gets every honest robot to
// vertices at distance <= 1 of each other — i.e. within mutual sensor range
// — without trusting the compromised ones, and never outside the region
// spanned by the honest robots' own positions.
//
//	go run ./examples/robotgathering
package main

import (
	"fmt"
	"log"

	"treeaa/internal/adversary"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

func main() {
	// A warehouse: a central spine of junctions with aisles branching off.
	var b tree.Builder
	edges := [][2]string{
		{"dock", "hall1"}, {"hall1", "hall2"}, {"hall2", "hall3"}, {"hall3", "hall4"},
		{"hall1", "aisleA1"}, {"aisleA1", "aisleA2"}, {"aisleA2", "aisleA3"},
		{"hall2", "aisleB1"}, {"aisleB1", "aisleB2"},
		{"hall3", "aisleC1"}, {"aisleC1", "aisleC2"}, {"aisleC2", "aisleC3"},
		{"hall4", "aisleD1"}, {"aisleD1", "aisleD2"},
		{"hall4", "exit"},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	warehouse, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Seven robots report their positions; robots 5 and 6 are compromised
	// and try to split the fleet by equivocating in both protocol phases.
	n, t := 7, 2
	positions := []string{"aisleA3", "aisleC2", "hall2", "aisleB2", "dock", "exit", "exit"}
	inputs := make([]tree.VertexID, n)
	for i, p := range positions {
		inputs[i] = warehouse.MustVertex(p)
	}
	ids := adversary.FirstParties(n, t) // robots 5, 6
	adv := &adversary.Compose{Strategies: []sim.Adversary{
		&adversary.SplitVote{IDs: ids, N: n, T: t, Tag: core.TagPathsFinder, PerIteration: 1},
		&adversary.SplitVote{IDs: ids, N: n, T: t, Tag: core.TagProjection,
			StartRound: core.PathsFinderRounds(warehouse, t) + 1, PerIteration: 1},
	}}

	res, err := core.Run(warehouse, n, t, inputs, adv)
	if err != nil {
		log.Fatal(err)
	}

	honest := inputs[:n-t]
	hull := warehouse.ConvexHull(honest)
	marks := map[tree.VertexID]string{}
	for i, v := range inputs[:n-t] {
		tag := fmt.Sprintf("robot %d", i)
		if prev, ok := marks[v]; ok {
			tag = prev + ", " + tag
		}
		marks[v] = tag
	}
	for p, v := range res.Outputs {
		tag := fmt.Sprintf("→ meet(p%d)", p)
		if prev, ok := marks[v]; ok {
			tag = prev + " " + tag
		}
		marks[v] = tag
	}
	fmt.Println("warehouse map (honest robot positions and chosen meeting vertices):")
	fmt.Print(warehouse.Render(warehouse.Root(), marks))

	fmt.Printf("\nhonest region (convex hull): %v\n", warehouse.Labels(hull))
	fmt.Printf("rounds: %d  messages: %d\n\n", res.Rounds, res.Messages)

	inHull := make(map[tree.VertexID]bool)
	for _, v := range hull {
		inHull[v] = true
	}
	var outs []tree.VertexID
	for p := sim.PartyID(0); int(p) < n-t; p++ {
		v := res.Outputs[p]
		outs = append(outs, v)
		fmt.Printf("robot %d gathers at %-8s (inside honest region: %v)\n",
			p, warehouse.Label(v), inHull[v])
	}
	maxDist := 0
	for i := range outs {
		for j := i + 1; j < len(outs); j++ {
			if d := warehouse.Dist(outs[i], outs[j]); d > maxDist {
				maxDist = d
			}
		}
	}
	fmt.Printf("\nall honest meeting points within distance %d of each other (sensor range: 1)\n", maxDist)
	if maxDist > 1 {
		log.Fatal("gathering failed: 1-agreement violated")
	}
}
