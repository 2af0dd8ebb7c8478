package tree

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Parse reads a tree from the plain-text edge-list format (see
// Builder.ReadEdges).
func Parse(r io.Reader) (*Tree, error) {
	var b Builder
	if err := b.ReadEdges(r); err != nil {
		return nil, err
	}
	return b.Build()
}

// ReadEdges adds the vertices and edges of the plain-text edge-list format
// to b, the one reader of that format for trees and graphs alike:
//
//	# comment lines and blank lines are ignored
//	a - b
//	b - c
//
// A single-vertex space is written as one line holding just the label.
// Whitespace around labels is trimmed; labels may not contain '-' or
// whitespace.
func (b *Builder) ReadEdges(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "-")
		switch len(parts) {
		case 1:
			b.AddVertex(strings.TrimSpace(parts[0]))
		case 2:
			u, v := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
			if u == "" || v == "" {
				return fmt.Errorf("edge list: line %d: empty label in edge %q", lineNo, line)
			}
			b.AddEdge(u, v)
		default:
			return fmt.Errorf("edge list: line %d: expected \"a - b\", got %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("edge list: reading input: %w", err)
	}
	return nil
}

// ParseString is Parse over an in-memory string.
func ParseString(s string) (*Tree, error) { return Parse(strings.NewReader(s)) }

// WriteTo writes the tree in the edge-list format understood by Parse.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	var total int64
	if t.NumVertices() == 1 {
		n, err := fmt.Fprintln(w, t.Label(0))
		return int64(n), err
	}
	for _, e := range t.Edges() {
		n, err := fmt.Fprintf(w, "%s - %s\n", t.Label(e[0]), t.Label(e[1]))
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the edge list as a single string.
func (t *Tree) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		return fmt.Sprintf("<tree: %v>", err)
	}
	return sb.String()
}

// treeJSON is the stable wire representation used by MarshalJSON.
type treeJSON struct {
	Vertices []string    `json:"vertices"`
	Edges    [][2]string `json:"edges"`
}

// MarshalJSON encodes the tree as {"vertices": [...], "edges": [[a,b],...]}.
func (t *Tree) MarshalJSON() ([]byte, error) {
	doc := treeJSON{Vertices: make([]string, t.NumVertices())}
	copy(doc.Vertices, t.labels)
	for _, e := range t.Edges() {
		doc.Edges = append(doc.Edges, [2]string{t.Label(e[0]), t.Label(e[1])})
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes the representation produced by MarshalJSON,
// validating tree-ness.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var doc treeJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("tree: decoding JSON: %w", err)
	}
	var b Builder
	for _, v := range doc.Vertices {
		b.AddVertex(v)
	}
	for _, e := range doc.Edges {
		u, okU := b.seen[e[0]]
		v, okV := b.seen[e[1]]
		if !okU || !okV {
			return fmt.Errorf("%w: edge %q-%q references undeclared vertex", ErrUnknownVertex, e[0], e[1])
		}
		b.edges = append(b.edges, [2]VertexID{u, v})
	}
	built, err := b.Build()
	if err != nil {
		return err
	}
	*t = *built
	return nil
}

// Equal reports whether two trees have identical labeled vertex and edge
// sets.
func (t *Tree) Equal(o *Tree) bool {
	if t.NumVertices() != o.NumVertices() {
		return false
	}
	for i, l := range t.labels {
		if o.labels[i] != l {
			return false
		}
	}
	te, oe := t.Edges(), o.Edges()
	if len(te) != len(oe) {
		return false
	}
	for i := range te {
		if te[i] != oe[i] {
			return false
		}
	}
	return true
}

// SortedLabels returns all labels in lexicographic order (a copy).
func (t *Tree) SortedLabels() []string { return slices.Clone(t.labels) }
