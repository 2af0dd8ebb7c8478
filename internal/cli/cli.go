// Package cli holds the spec languages shared by the cmd/ binaries and the
// property checker: the space language (its one table of tree and graph
// shapes and its one parser), input spreading and parsing, the adversary
// language (its one table, argument reader and party-clause compiler), and
// the peers file.
package cli

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"

	"treeaa/internal/graph"
	"treeaa/internal/tree"
)

// shape is one row of the space language: a shape's name, the arguments
// it takes, and the constructor it calls. A graph shape's name carries the
// "graph:" prefix. A file row reads an "a - b" edge-list file and takes the
// rest of the spec as its path.
type shape struct {
	name  string
	args  []arg // all required, in order
	file  bool
	tree  func(a []int, seed int64) *tree.Tree
	graph func(a []int, seed int64) *graph.Graph
}

// arg is one integer argument of a shape: its name in the grammar and the
// least value the shape's constructor takes.
type arg struct {
	name string
	min  int
}

// shapes is the one table of the space language. Its two file rows are the
// only specs that touch the file system, and ReadsFile is how a served
// session asks.
var shapes = []shape{
	{name: "path", args: []arg{{"K", 1}}, tree: func(a []int, _ int64) *tree.Tree { return tree.NewPath(a[0]) }},
	{name: "star", args: []arg{{"K", 1}}, tree: func(a []int, _ int64) *tree.Tree { return tree.NewStar(a[0]) }},
	{name: "spider", args: []arg{{"LEGS", 1}, {"LEN", 1}}, tree: func(a []int, _ int64) *tree.Tree { return tree.NewSpider(a[0], a[1]) }},
	{name: "caterpillar", args: []arg{{"SPINE", 1}, {"LEGS", 1}}, tree: func(a []int, _ int64) *tree.Tree { return tree.NewCaterpillar(a[0], a[1]) }},
	{name: "kary", args: []arg{{"K", 1}, {"DEPTH", 1}}, tree: func(a []int, _ int64) *tree.Tree { return tree.NewCompleteKAry(a[0], a[1]) }},
	{name: "random", args: []arg{{"K", 1}}, tree: func(a []int, seed int64) *tree.Tree {
		return tree.RandomPruefer(a[0], rand.New(rand.NewSource(seed)))
	}},
	{name: "figure3", tree: func([]int, int64) *tree.Tree { return tree.Figure3Tree() }},
	{name: "@", file: true},
	{name: "graph:cycle", args: []arg{{"K", 3}}, graph: func(a []int, _ int64) *graph.Graph { return graph.NewCycle(a[0]) }},
	{name: "graph:clique", args: []arg{{"K", 1}}, graph: func(a []int, _ int64) *graph.Graph { return graph.NewClique(a[0]) }},
	{name: "graph:cliquechain", args: []arg{{"B", 1}, {"S", 2}}, graph: func(a []int, _ int64) *graph.Graph { return graph.NewCliqueChain(a[0], a[1]) }},
	{name: "graph:cactus", args: []arg{{"B", 1}, {"L", 3}}, graph: func(a []int, _ int64) *graph.Graph { return graph.NewCactusChain(a[0], a[1]) }},
	{name: "graph:randomblock", args: []arg{{"K", 1}}, graph: func(a []int, seed int64) *graph.Graph {
		return graph.NewRandomBlock(a[0], rand.New(rand.NewSource(seed)))
	}},
	{name: "graph:@", file: true},
}

// SpaceShapes lists every row of the table as the grammar writes it, in
// table order: "path:K", "spider:LEGS:LEN", ..., "@FILE", "graph:cycle:K",
// ..., "graph:@FILE".
func SpaceShapes() []string {
	out := make([]string, len(shapes))
	for i, row := range shapes {
		out[i] = row.name
		if row.file {
			out[i] += "FILE"
		}
		for _, a := range row.args {
			out[i] += ":" + a.name
		}
	}
	return out
}

// lookupShape finds spec's row and returns what follows the row's name in
// spec: a file row's path, or a shape's arguments with the ':' before them.
func lookupShape(spec string) (*shape, string, error) {
	body := strings.TrimPrefix(spec, GraphPrefix)
	name := "@"
	if !strings.HasPrefix(body, name) {
		name, _, _ = strings.Cut(body, ":")
	}
	name = spec[:len(spec)-len(body)] + name
	for i := range shapes {
		if shapes[i].name == name {
			return &shapes[i], spec[len(name):], nil
		}
	}
	return nil, "", fmt.Errorf("space spec %q: unknown shape %q, want one of %s", spec, name, strings.Join(SpaceShapes(), " "))
}

// readArgs reads a shape's arguments from what follows its name: exactly
// the arguments the row declares, each the canonical decimal form of a
// value no less than its minimum, so one space has one spec string.
func (s *shape) readArgs(spec, rest string) ([]int, error) {
	var fields []string
	if rest != "" {
		fields = strings.Split(rest[1:], ":")
	}
	if len(fields) != len(s.args) {
		return nil, fmt.Errorf("space spec %q: %s takes %d arguments", spec, s.name, len(s.args))
	}
	a := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil || strconv.Itoa(v) != f || v < s.args[i].min {
			return nil, fmt.Errorf("space spec %q: %s = %q, want an integer >= %d", spec, s.args[i].name, f, s.args[i].min)
		}
		a[i] = v
	}
	return a, nil
}

// ReadsFile reports whether a space spec reads a local edge-list file
// (@FILE or graph:@FILE). Such specs are input for the local tools only: a
// served session refuses them before anything is opened.
func ReadsFile(spec string) bool {
	row, _, err := lookupShape(spec)
	return err == nil && row.file
}

// ParseSpaceSpec parses a space spec: a shape of the table with its
// arguments ("spider:3:3", "graph:cliquechain:3:4"), or an edge-list file
// ("@FILE" is a tree, "graph:@FILE" a graph).
func ParseSpaceSpec(spec string, seed int64) (*Space, error) {
	row, rest, err := lookupShape(spec)
	if err != nil {
		return nil, err
	}
	sp := &Space{Spec: spec}
	if row.file {
		f, err := os.Open(rest)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if row.name == "@" {
			sp.Tree, err = tree.Parse(f)
		} else {
			sp.Graph, err = graph.Parse(f)
		}
		if err != nil {
			return nil, err
		}
		return sp, nil
	}
	a, err := row.readArgs(spec, rest)
	if err != nil {
		return nil, err
	}
	if row.tree != nil {
		sp.Tree = row.tree(a, seed)
	} else {
		sp.Graph = row.graph(a, seed)
	}
	return sp, nil
}

// ReadPeers parses a peers file: one host:port per line, ignoring blank
// lines and #-comments; line i is party i's listen address.
func ReadPeers(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var addrs []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if _, _, err := net.SplitHostPort(line); err != nil {
			return nil, fmt.Errorf("%s: bad peer address %q: %w", path, line, err)
		}
		addrs = append(addrs, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(addrs) < 2 {
		return nil, fmt.Errorf("%s: need at least 2 peers, got %d", path, len(addrs))
	}
	return addrs, nil
}
