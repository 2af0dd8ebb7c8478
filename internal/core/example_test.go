package core_test

import (
	"fmt"
	"sort"

	"treeaa/internal/core"
	"treeaa/internal/tree"
)

// ExampleRun executes TreeAA on the paper's Figure 3 tree with no faults:
// with identical views the parties reach exact agreement inside the hull.
func ExampleRun() {
	tr := tree.Figure3Tree()
	inputs := []tree.VertexID{
		tr.MustVertex("v3"), tr.MustVertex("v6"), tr.MustVertex("v5"), tr.MustVertex("v6"),
	}
	res, err := core.Run(tr, 4, 1, inputs, nil)
	if err != nil {
		panic(err)
	}
	labels := make([]string, 0, len(res.Outputs))
	for _, v := range res.Outputs {
		labels = append(labels, tr.Label(v))
	}
	sort.Strings(labels)
	fmt.Println(labels)
	// Output: [v6 v6 v6 v6]
}

// ExampleRounds shows the protocol's fixed round budget: constant in |V|
// while the fault budget is at most 1 (the one-fault collapse), growing in
// |V| from t = 2 on — sublogarithmically while Theorem 4's count is the
// longer, as log2 D once the DLPSW halving count is.
func ExampleRounds() {
	for _, size := range []int{64, 1024} {
		tr := tree.NewPath(size)
		fmt.Printf("|V|=%d: %d / %d / %d rounds at t = 0 / 1 / 2\n", size,
			core.Rounds(tr, 0), core.Rounds(tr, 1), core.Rounds(tr, 2))
	}
	// Output:
	// |V|=64: 3 / 6 / 24 rounds at t = 0 / 1 / 2
	// |V|=1024: 3 / 6 / 30 rounds at t = 0 / 1 / 2
}
