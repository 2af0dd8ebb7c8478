// Package cli holds the spec languages shared by the cmd/ binaries and the
// property checker: the tree and input-space grammar, input spreading and
// parsing, the adversary language (its one table, argument reader and
// party-clause compiler), and the peers file.
package cli

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"

	"treeaa/internal/tree"
)

// ParseTreeSpec builds a tree from a compact spec:
//
//	path:K            path with K vertices
//	star:K            star with K vertices
//	spider:LEGS:LEN   spider with LEGS legs of length LEN
//	caterpillar:S:L   caterpillar with spine S and L legs per spine vertex
//	kary:K:DEPTH      complete K-ary tree of the given depth
//	random:K          uniform random labeled tree on K vertices (uses seed)
//	figure3           the paper's Figure 3 tree
//	@FILE             edge-list file ("a - b" per line)
func ParseTreeSpec(spec string, seed int64) (*tree.Tree, error) {
	if strings.HasPrefix(spec, "@") {
		f, err := os.Open(spec[1:])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return tree.Parse(f)
	}
	parts := strings.Split(spec, ":")
	argInt := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("tree spec %q: missing argument %d", spec, i)
		}
		v, err := strconv.Atoi(parts[i])
		if err != nil || v < 1 {
			return 0, fmt.Errorf("tree spec %q: bad argument %q", spec, parts[i])
		}
		return v, nil
	}
	switch parts[0] {
	case "path":
		k, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return tree.NewPath(k), nil
	case "star":
		k, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return tree.NewStar(k), nil
	case "spider":
		legs, err := argInt(1)
		if err != nil {
			return nil, err
		}
		length, err := argInt(2)
		if err != nil {
			return nil, err
		}
		return tree.NewSpider(legs, length), nil
	case "caterpillar":
		s, err := argInt(1)
		if err != nil {
			return nil, err
		}
		l, err := argInt(2)
		if err != nil {
			return nil, err
		}
		return tree.NewCaterpillar(s, l), nil
	case "kary":
		k, err := argInt(1)
		if err != nil {
			return nil, err
		}
		depth, err := argInt(2)
		if err != nil {
			return nil, err
		}
		return tree.NewCompleteKAry(k, depth), nil
	case "random":
		k, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return tree.RandomPruefer(k, rand.New(rand.NewSource(seed))), nil
	case "figure3":
		return tree.Figure3Tree(), nil
	default:
		return nil, fmt.Errorf("unknown tree spec %q", spec)
	}
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
