// Configuration rollout on a version hierarchy: replicas of a service each
// observe a "known good" node in the release tree (trunk releases with
// hotfix branches). A few replicas are compromised and report garbage. The
// fleet uses Approximate Agreement on the version tree to converge on
// adjacent tree nodes — so every honest replica runs either the same
// release or its immediate parent/hotfix, and never a release outside the
// span of what honest replicas actually vetted (Validity).
//
//	go run ./examples/configtree
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
	// The release tree: trunk 1.0 → 2.0 → 3.0 → 4.0 with hotfix branches.
	var b tree.Builder
	for _, e := range [][2]string{
		{"1.0", "2.0"}, {"2.0", "3.0"}, {"3.0", "4.0"},
		{"1.0", "1.0.1"}, {"1.0.1", "1.0.2"},
		{"2.0", "2.0.1"},
		{"3.0", "3.0.1"}, {"3.0.1", "3.0.2"}, {"3.0.2", "3.0.3"},
		{"4.0", "4.0.1"},
	} {
		b.AddEdge(e[0], e[1])
	}
	releases, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Ten replicas; replicas 7-9 are compromised. Honest replicas have
	// vetted versions between 2.0 and the 3.0.x hotfix line.
	n, t := 10, 3
	vetted := []string{"2.0", "3.0.1", "3.0", "3.0.2", "2.0.1", "3.0.3", "3.0"}
	inputs := make([]tree.VertexID, n)
	for i := 0; i < n-t; i++ {
		inputs[i] = releases.MustVertex(vetted[i])
	}
	for i := n - t; i < n; i++ {
		inputs[i] = releases.MustVertex("4.0.1") // compromised claim
	}
	ids := adversary.FirstParties(n, t)
	adv := &adversary.Compose{Strategies: []sim.Adversary{
		&adversary.GradecastEquivocator{IDs: ids, N: n, Tag: core.TagPathsFinder, Lo: -50, Hi: 500},
		&adversary.RandomNoise{IDs: ids, N: n, Tag: core.TagProjection,
			StartRound: core.PathsFinderRounds(releases, t) + 1, Seed: 7, MaxVal: 40},
	}}

	res, err := core.Run(releases, n, t, inputs, adv)
	if err != nil {
		log.Fatal(err)
	}

	honest := inputs[:n-t]
	hull := releases.ConvexHull(honest)
	marks := map[tree.VertexID]string{}
	for _, v := range hull {
		marks[v] = "vetted span"
	}
	for p, v := range res.Outputs {
		tag := fmt.Sprintf("→ p%d", p)
		if prev, ok := marks[v]; ok {
			tag = prev + " " + tag
		}
		marks[v] = tag
	}
	fmt.Println("release tree (vetted span and chosen versions):")
	fmt.Print(releases.Render(releases.Root(), marks))
	fmt.Printf("\nrounds: %d, messages: %d\n\n", res.Rounds, res.Messages)

	inHull := make(map[tree.VertexID]bool)
	for _, v := range hull {
		inHull[v] = true
	}
	counts := map[tree.VertexID]int{}
	for p := sim.PartyID(0); int(p) < n-t; p++ {
		v := res.Outputs[p]
		counts[v]++
		fmt.Printf("replica %d deploys %-6s (within vetted span: %v)\n",
			p, releases.Label(v), inHull[v])
		if !inHull[v] {
			log.Fatal("validity violated: deployed an unvetted release")
		}
	}
	fmt.Println()
	for v, c := range counts {
		fmt.Printf("%d replica(s) on %s\n", c, releases.Label(v))
	}
	fmt.Println("every honest replica runs the same release or an adjacent one — safe to serve traffic")
}
