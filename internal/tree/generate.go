package tree

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// LabelWidth returns the number of decimal digits of n (1 for n < 10): the
// zero-pad width at which the numbers up to n, after a common prefix, sort
// as labels in numeric order.
func LabelWidth(n int) int {
	w := 1
	for p := 10; p <= n; p *= 10 {
		w++
	}
	return w
}

// NumberedLabels appends to dst the count labels prefix+num(k), k = 0, 1,
// …, count-1, each num(k) >= 0 zero-padded to width digits: the label
// convention of every generated space ("v007", and the "b…"/"c…" nodes of a
// block-cut tree). All of them are cut from one string. Labels sharing a
// prefix and a width sort as their numbers do, so a generator that labels
// vertex i as v<i+1> knows that label is VertexID(i) without sorting.
func NumberedLabels(dst []string, prefix string, width, count int, num func(k int) int) []string {
	var sb strings.Builder
	sb.Grow(count * (len(prefix) + width))
	var digits [20]byte
	for k := 0; k < count; k++ {
		d := strconv.AppendInt(digits[:0], int64(num(k)), 10)
		sb.WriteString(prefix)
		for i := len(d); i < width; i++ {
			sb.WriteByte('0')
		}
		sb.Write(d)
	}
	s := sb.String()
	dst = slices.Grow(dst, count)
	for k, at := 0, 0; k < count; k++ {
		end := at + len(prefix) + max(width, LabelWidth(num(k)))
		dst = append(dst, s[at:end])
		at = end
	}
	return dst
}

// generated builds the tree labeled v1, …, vn (zero-padded, so label v<i>
// is VertexID(i-1)) from edges given as VertexIDs. n < 1 yields the
// one-vertex tree v1.
func generated(n int, edges [][2]VertexID) *Tree {
	n = max(n, 1)
	labels := NumberedLabels(nil, "v", LabelWidth(n), n, func(k int) int { return k + 1 })
	t, err := build(labels, edges)
	if err != nil {
		panic(fmt.Sprintf("tree: generator produced invalid tree: %v", err))
	}
	return t
}

// NewPath returns the labeled path with n >= 1 vertices v1-v2-...-vn
// (zero-padded labels). Its diameter is n-1.
func NewPath(n int) *Tree {
	edges := make([][2]VertexID, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		edges = append(edges, [2]VertexID{VertexID(i - 1), VertexID(i)})
	}
	return generated(n, edges)
}

// NewStar returns the star with one center and n-1 leaves (n >= 1 vertices).
// Its diameter is min(2, n-1).
func NewStar(n int) *Tree {
	edges := make([][2]VertexID, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		edges = append(edges, [2]VertexID{0, VertexID(i)})
	}
	return generated(n, edges)
}

// NewSpider returns a spider: legs paths of length legLen joined at a hub.
// It has legs*legLen + 1 vertices and diameter 2*legLen (for legs >= 2).
func NewSpider(legs, legLen int) *Tree {
	n := legs*legLen + 1
	edges := make([][2]VertexID, 0, max(n-1, 0))
	next := VertexID(1)
	for leg := 0; leg < legs; leg++ {
		prev := VertexID(0)
		for j := 0; j < legLen; j++ {
			edges = append(edges, [2]VertexID{prev, next})
			prev = next
			next++
		}
	}
	return generated(n, edges)
}

// NewCaterpillar returns a caterpillar: a spine path of spineLen vertices
// with legsPer leaf legs attached to each spine vertex.
func NewCaterpillar(spineLen, legsPer int) *Tree {
	n := spineLen * (1 + legsPer)
	edges := make([][2]VertexID, 0, max(n-1, 0))
	for i := 1; i < spineLen; i++ {
		edges = append(edges, [2]VertexID{VertexID(i - 1), VertexID(i)})
	}
	next := VertexID(spineLen)
	for i := 0; i < spineLen; i++ {
		for j := 0; j < legsPer; j++ {
			edges = append(edges, [2]VertexID{VertexID(i), next})
			next++
		}
	}
	return generated(n, edges)
}

// NewCompleteKAry returns the complete k-ary tree of the given depth
// (depth 0 is a single root). For k >= 2 its diameter is 2*depth while
// |V| = (k^(depth+1)-1)/(k-1), making it the canonical low-diameter family.
// Vertices are numbered level by level, so the parent of vertex i > 0 is
// (i-1)/k.
func NewCompleteKAry(k, depth int) *Tree {
	if k < 1 {
		panic("tree: NewCompleteKAry requires k >= 1")
	}
	n := 1
	width := 1
	for d := 0; d < depth; d++ {
		width *= k
		n += width
	}
	edges := make([][2]VertexID, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]VertexID{VertexID((i - 1) / k), VertexID(i)})
	}
	return generated(n, edges)
}

// NewRandom returns a random tree on n vertices drawn by uniform random
// attachment: vertex i attaches to a uniformly random earlier vertex. The
// rng makes generation reproducible.
func NewRandom(n int, rng *rand.Rand) *Tree {
	edges := make([][2]VertexID, 0, max(n-1, 0))
	for i := 1; i < n; i++ {
		edges = append(edges, [2]VertexID{VertexID(rng.Intn(i)), VertexID(i)})
	}
	return generated(n, edges)
}

// FromPruefer decodes a Prüfer sequence into the unique labeled tree on
// n = len(seq)+2 vertices with zero-padded numeric labels; entries must be in
// [1, n]. Prüfer decoding is the classic bijection between sequences and
// labeled trees, which the tests use to sample trees uniformly at random.
func FromPruefer(seq []int) (*Tree, error) {
	n := len(seq) + 2
	degree := make([]int, n+1)
	for i := 1; i <= n; i++ {
		degree[i] = 1
	}
	for _, s := range seq {
		if s < 1 || s > n {
			return nil, fmt.Errorf("tree: prüfer entry %d out of range [1,%d]", s, n)
		}
		degree[s]++
	}
	edges := make([][2]VertexID, 0, n-1)
	// ptr/leaf scan gives O(n) decoding.
	ptr := 1
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, s := range seq {
		edges = append(edges, [2]VertexID{VertexID(leaf - 1), VertexID(s - 1)})
		degree[s]--
		if degree[s] == 1 && s < ptr {
			leaf = s
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// Two leaves remain; the larger is n.
	edges = append(edges, [2]VertexID{VertexID(leaf - 1), VertexID(n - 1)})
	return generated(n, edges), nil
}

// RandomPruefer returns a uniformly random labeled tree on n >= 2 vertices.
func RandomPruefer(n int, rng *rand.Rand) *Tree {
	if n == 1 {
		return generated(1, nil)
	}
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = rng.Intn(n) + 1
	}
	t, err := FromPruefer(seq)
	if err != nil {
		panic(err) // unreachable: entries are in range by construction
	}
	return t
}

// Pruefer encodes the tree as its Prüfer sequence, assuming the vertex
// numbering implied by ascending label order (VertexID+1). It is the inverse
// of FromPruefer for trees with zero-padded numeric labels. It repeatedly
// removes the smallest-labeled leaf (min-heap), recording the leaf's
// neighbor, which is the textbook definition.
func (t *Tree) Pruefer() []int {
	n := t.NumVertices()
	if n <= 2 {
		return nil
	}
	degree := make([]int, n)
	leaves := &intHeap{}
	for v := 0; v < n; v++ {
		degree[v] = t.Degree(VertexID(v))
		if degree[v] == 1 {
			heap.Push(leaves, v)
		}
	}
	removed := make([]bool, n)
	seq := make([]int, 0, n-2)
	for len(seq) < n-2 {
		leaf := heap.Pop(leaves).(int)
		removed[leaf] = true
		var nb VertexID = None
		for _, w := range t.Neighbors(VertexID(leaf)) {
			if !removed[w] {
				nb = w
				break
			}
		}
		seq = append(seq, int(nb)+1)
		degree[nb]--
		if degree[nb] == 1 {
			heap.Push(leaves, int(nb))
		}
	}
	return seq
}

// intHeap is a min-heap of ints for Pruefer encoding.
type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Figure3Tree returns the 8-vertex tree of the paper's Figure 3, used across
// tests and examples: v1-v2, v2-{v3,v4,v5}, v3-{v6,v7}, v4-v8.
func Figure3Tree() *Tree {
	var b Builder
	for _, e := range [][2]string{
		{"v1", "v2"}, {"v2", "v3"}, {"v2", "v4"}, {"v2", "v5"},
		{"v3", "v6"}, {"v3", "v7"}, {"v4", "v8"},
	} {
		b.AddEdge(e[0], e[1])
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
