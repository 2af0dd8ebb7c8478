package session

// Graph-space serving tests: a "graph:"-prefixed Spec.Tree rides the
// SessionOpen wire payload verbatim between daemons, every seat rebuilds
// the same graph machine, and the served Result is byte-identical to
// sim.Run on the same spec (the Oracle).

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/tree"
)

// TestServeGraphMatchesSim pins oracle byte-identity for graph sessions
// across graph shapes and origin daemons.
func TestServeGraphMatchesSim(t *testing.T) {
	cases := []struct {
		n    int
		spec Spec
	}{
		{4, Spec{Tree: "graph:cliquechain:3:4"}},
		{4, Spec{Tree: "graph:cycle:9"}},
		{4, Spec{Tree: "graph:cactus:3:4"}},
		{5, Spec{Tree: "graph:randomblock:12", Seed: 7}},
		{4, Spec{Tree: "graph:clique:5", T: 1}},
	}
	for i, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s_n%d", strings.ReplaceAll(tc.spec.Tree, ":", "_"), tc.n), func(t *testing.T) {
			t.Parallel()
			c := startTestCluster(t, tc.n, Options{})
			want, err := Oracle(tc.n, tc.spec)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			origin := i % tc.n
			resp := submitAndWait(t, c, origin, tc.spec)
			got, err := resp.SimResult()
			if err != nil {
				t.Fatalf("session result: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("served result diverges from sim.Run:\n got %+v\nwant %+v", got, want)
			}
			// The outputs must satisfy the graph guarantees, not just match
			// the oracle: validity on the geodesic hull plus agreement.
			sp, err := cli.ParseSpaceSpec(tc.spec.Tree, tc.spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			g := sp.Graph
			var outs []tree.VertexID
			for _, raw := range got.Outputs {
				outs = append(outs, raw.(tree.VertexID))
			}
			for _, u := range outs {
				for _, v := range outs {
					if !g.AgreementOK(u, v) {
						t.Fatalf("outputs %s/%s violate agreement", g.Label(u), g.Label(v))
					}
					if g.IsBlockGraph() && g.Dist(u, v) > 1 {
						t.Fatalf("block graph outputs %s/%s at distance %d", g.Label(u), g.Label(v), g.Dist(u, v))
					}
				}
			}
		})
	}
}

// TestGraphSpecRejections pins admission-time rejections: malformed graph
// specs and bad graph input labels.
func TestGraphSpecRejections(t *testing.T) {
	t.Parallel()
	if _, err := parseSpec(Spec{Tree: "graph:nope:4"}, 4, time.Minute); err == nil {
		t.Fatal("bad graph spec accepted")
	}
	if _, err := parseSpec(Spec{Tree: "graph:cycle:9", Inputs: "zz,v2,v3,v4"}, 4, time.Minute); err == nil {
		t.Fatal("unknown graph label accepted")
	}
	if _, err := parseSpec(Spec{Tree: "graph:cycle:9", Inputs: "v1,v3,v5,v7"}, 4, time.Minute); err != nil {
		t.Fatalf("valid graph labels rejected: %v", err)
	}
}
