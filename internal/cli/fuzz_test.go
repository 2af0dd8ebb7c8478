package cli

import (
	"reflect"
	"strings"
	"testing"

	"treeaa/internal/tree"
)

// FuzzParseAdversary checks that the adversary language's parser never
// panics, that every spec it accepts re-renders through Clause.String and
// '+' to the same clauses, and that building an accepted spec does not
// panic either.
func FuzzParseAdversary(f *testing.F) {
	for _, spec := range []string{
		// chaos.TestParseRejections
		"lat(base=1ms", "jam(dur=5ms)", "lat(base=fast)", "lat(base=-2ms)", "lat(base=1ms,jitter=2ms)",
		"lat(base=1ms)+lat(base=2ms)", "stall(from=1)", "stall(from=p1,rounds=2)", "stall(from=1,rounds=r2)",
		"stall(from=1,rounds=0)", "stall(from=1,rounds=5.3)", "stall(from=1,rounds=2.3.4)",
		"stall(party=1,rounds=2)", "drop(from=1,to=1,round=2)", "drop(from=1,to=2,round=2.4)",
		"drop(from=1,round=0)", "crash(rounds=2.3)", "part(a=0.1|2.3,b=4,rounds=2)",
		"part(a=0.1.2.3,b=2.3.4.5,rounds=2)", "part(a=0.1,rounds=2)", "part(a=0.1,b=2.3,rounds=2,heal=x)",
		"part(a=b.1,b=2.3,rounds=2)",
		// DESIGN §8 and §9
		"none", "splitvote(per=1)+mutate(rate=300)", "splitvote(per=2)+noise",
		"equivocator(hi=1000,lo=-100)+omit(drop=500)", "crash(rounds=2.5.9)", "lat(base=2ms,jitter=500us)",
		"omit(drop=250,halves=1)+none+noise", "exclusionsplit(x=0,s=1,iter=2)", "splitvote+stop(rounds=2)",
		"splitvote+lat(base=5ms,jitter=3ms)+drop(from=2,round=3)", "evil(val=3)", "replay(delay=6)+frame(fake=3)",
	} {
		f.Add(spec)
	}
	sp := &Space{Tree: tree.NewPath(8)}
	f.Fuzz(func(t *testing.T, spec string) {
		clauses, err := ParseAdversary(spec)
		if err != nil {
			return
		}
		parts := make([]string, len(clauses))
		for i, cl := range clauses {
			parts[i] = cl.String()
		}
		again, err := ParseAdversary(strings.Join(parts, "+"))
		if err != nil || !reflect.DeepEqual(again, clauses) {
			t.Fatalf("%q parsed to %v, re-rendered as %q: %v, %v", spec, clauses, strings.Join(parts, "+"), again, err)
		}
		sp.BuildAdversary(spec, 7, 2, 1)
	})
}
