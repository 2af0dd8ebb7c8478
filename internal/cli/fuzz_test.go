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

// FuzzParseSpaceSpec checks that the space language's parser never panics,
// and that every spec it accepts is the canonical string of its row and
// arguments and re-parses to an equal space. File specs are refused through
// ReadsFile, the predicate the served path asks, so no path is opened; a
// shape too large to build in a fuzz iteration is skipped before it is built.
func FuzzParseSpaceSpec(f *testing.F) {
	for i := range shapes {
		row := &shapes[i]
		a := make([]int, len(row.args))
		for k, arg := range row.args {
			a[k] = arg.min
		}
		f.Add(specOf(row, a), int64(1))
	}
	for _, spec := range []string{
		// README, DESIGN and the cmd/ package docs
		"path:16", "path:40", "spider:3:3", "caterpillar:4:2", "kary:2:3", "random:20", "figure3", "@map.txt",
		"graph:cliquechain:3:4", "graph:cycle:9", "graph:cactus:3:4", "graph:randomblock:12", "graph:clique:5",
		"graph:@FILE",
		// refused
		"path:8:9", "star:4:", "figure3:5", "path:08", "path:+8", "graph:clique:4:x", "graph:", "cycle:6",
	} {
		f.Add(spec, int64(7))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		if ReadsFile(spec) {
			return
		}
		row, rest, err := lookupShape(spec)
		if err != nil {
			if _, err := ParseSpaceSpec(spec, seed); err == nil {
				t.Fatalf("%q accepted with no row", spec)
			}
			return
		}
		a, err := row.readArgs(spec, rest)
		if err == nil && tooBig(row, a) {
			return
		}
		sp, err := ParseSpaceSpec(spec, seed)
		if err != nil {
			return
		}
		if canon := specOf(row, a); canon != spec {
			t.Fatalf("%q accepted, canonical string %q", spec, canon)
		}
		again, err := ParseSpaceSpec(spec, seed)
		if err != nil || !sameSpace(sp, again) {
			t.Fatalf("%q re-parsed to a different space: %v", spec, err)
		}
	})
}

// tooBig bounds a shape before it is built: no argument above 32, and a
// kary tree of at most 4,096 leaves.
func tooBig(row *shape, a []int) bool {
	for _, v := range a {
		if v > 32 {
			return true
		}
	}
	if row.name == "kary" {
		leaves := 1
		for d := 0; d < a[1]; d++ {
			if leaves *= a[0]; leaves > 4096 {
				return true
			}
		}
	}
	return false
}
