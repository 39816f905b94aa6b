// Package graph implements the weighted undirected graph that models the
// wireless network in the MSC problem (paper §III-A).
//
// Nodes are dense integer ids 0..N-1 (mobile devices); each undirected edge
// carries a non-negative length. Per the paper's formulation, the length of
// edge (i,j) is l_ij = -ln(1 - p_ij) where p_ij is the link failure
// probability, so shortest path length corresponds to the most reliable
// path (see internal/failprob for the conversion algebra).
//
// The Graph type is immutable once built (via Builder), which lets the
// solver precompute and share all-pairs distance tables across candidate
// shortcut placements without synchronization.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"msc/internal/geom"
)

// NodeID identifies a node; ids are dense in [0, N).
type NodeID = int32

// Edge is an undirected weighted edge. Canonical form has U < V.
type Edge struct {
	U, V   NodeID
	Length float64
}

// Canon returns e with endpoints ordered U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Arc is one direction of an undirected edge, as stored in adjacency lists.
type Arc struct {
	To     NodeID
	Length float64
}

// Graph is an immutable weighted undirected graph. Construct with Builder.
type Graph struct {
	adj    [][]Arc
	edges  []Edge // canonical, sorted (U, V)
	coords []geom.Point
	labels []string
}

// Errors returned by Builder.
var (
	ErrSelfLoop   = errors.New("graph: self loop")
	ErrBadLength  = errors.New("graph: edge length must be finite and non-negative")
	ErrNodeRange  = errors.New("graph: node id out of range")
	ErrCoordCount = errors.New("graph: coordinate count does not match node count")
	ErrLabelCount = errors.New("graph: label count does not match node count")
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges are merged keeping the minimum length (parallel physical
// links reduce to their most reliable member for shortest-path purposes);
// among equal minima the first one added wins.
type Builder struct {
	n      int
	edges  []builderEdge // in AddEdge order until Build sorts them
	coords []geom.Point
	labels []string
	err    error
}

// builderEdge is one AddEdge call: the canonical endpoints packed as
// U<<32|V, so that ordering keys orders edges by (U, V), and the call's
// sequence number, which breaks ties between duplicates.
type builderEdge struct {
	key    uint64
	length float64
	seq    int32
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records an undirected edge between u and v with the given length.
// Errors are sticky and reported by Build.
func (b *Builder) AddEdge(u, v NodeID, length float64) *Builder {
	if b.err != nil {
		return b
	}
	switch {
	case u == v:
		b.err = fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	case u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n:
		b.err = fmt.Errorf("%w: edge (%d,%d) with n=%d", ErrNodeRange, u, v, b.n)
	case math.IsNaN(length) || math.IsInf(length, 0) || length < 0:
		b.err = fmt.Errorf("%w: (%d,%d) length %v", ErrBadLength, u, v, length)
	default:
		if u > v {
			u, v = v, u
		}
		b.edges = append(b.edges, builderEdge{
			key: uint64(u)<<32 | uint64(v), length: length, seq: int32(len(b.edges)),
		})
	}
	return b
}

// SetCoords attaches 2-D positions (one per node). Optional; used by the
// geometric generators and the visualizer.
func (b *Builder) SetCoords(coords []geom.Point) *Builder {
	if b.err != nil {
		return b
	}
	if len(coords) != b.n {
		b.err = fmt.Errorf("%w: got %d, want %d", ErrCoordCount, len(coords), b.n)
		return b
	}
	b.coords = append([]geom.Point(nil), coords...)
	return b
}

// SetLabels attaches human-readable node labels (one per node). Optional.
func (b *Builder) SetLabels(labels []string) *Builder {
	if b.err != nil {
		return b
	}
	if len(labels) != b.n {
		b.err = fmt.Errorf("%w: got %d, want %d", ErrLabelCount, len(labels), b.n)
		return b
	}
	b.labels = append([]string(nil), labels...)
	return b
}

// Build finalizes the graph. It returns the first error recorded by the
// builder, if any.
//
// The edges are sorted by (U, V, AddEdge order), which costs one linear
// check when they were added in that order already, as a decoded instance
// file adds them. Runs of duplicates then merge to their first minimum,
// and the adjacency lists are cut from one backing array sized by a
// degree count. Each list comes out sorted by neighbor id.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	in := b.edges
	if !slices.IsSortedFunc(in, compareKey) {
		slices.SortFunc(in, func(x, y builderEdge) int {
			if c := compareKey(x, y); c != 0 {
				return c
			}
			return cmp.Compare(x.seq, y.seq)
		})
	}
	m := 0
	for i := range in {
		if i == 0 || in[i].key != in[i-1].key {
			m++
		}
	}
	g := &Graph{
		adj:    make([][]Arc, b.n),
		edges:  make([]Edge, 0, m),
		coords: b.coords,
		labels: b.labels,
	}
	degree := make([]int32, b.n)
	for i, e := range in {
		if i > 0 && e.key == in[i-1].key {
			if last := &g.edges[len(g.edges)-1]; e.length < last.Length {
				last.Length = e.length
			}
			continue
		}
		u, v := NodeID(e.key>>32), NodeID(uint32(e.key))
		g.edges = append(g.edges, Edge{U: u, V: v, Length: e.length})
		degree[u]++
		degree[v]++
	}
	arcs := make([]Arc, 2*m)
	for u, d := range degree {
		if d > 0 {
			g.adj[u], arcs = arcs[:0:d], arcs[d:]
		}
	}
	for _, e := range g.edges {
		g.adj[e.U] = append(g.adj[e.U], Arc{To: e.V, Length: e.Length})
		g.adj[e.V] = append(g.adj[e.V], Arc{To: e.U, Length: e.Length})
	}
	return g, nil
}

func compareKey(x, y builderEdge) int { return cmp.Compare(x.key, y.key) }

// MustBuild is Build but panics on error; for tests and static literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the canonical edge list. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the adjacency list of u. Callers must not modify it.
func (g *Graph) Neighbors(u NodeID) []Arc { return g.adj[u] }

// Degree returns the number of incident edges of u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// EdgeLength returns the length of edge (u,v) and whether it exists.
func (g *Graph) EdgeLength(u, v NodeID) (float64, bool) {
	if u == v {
		return 0, false
	}
	// Scan the shorter adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, a := range g.adj[u] {
		if a.To == v {
			return a.Length, true
		}
	}
	return 0, false
}

// HasEdge reports whether edge (u,v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeLength(u, v)
	return ok
}

// Coords returns the node positions, or nil if none were attached.
func (g *Graph) Coords() []geom.Point { return g.coords }

// Labels returns the node labels, or nil if none were attached.
func (g *Graph) Labels() []string { return g.labels }

// Label returns the label of u, falling back to "v<id>".
func (g *Graph) Label(u NodeID) string {
	if g.labels != nil && int(u) < len(g.labels) && g.labels[u] != "" {
		return g.labels[u]
	}
	return fmt.Sprintf("v%d", u)
}

// TotalLength returns the sum of all edge lengths.
func (g *Graph) TotalLength() float64 {
	total := 0.0
	for _, e := range g.edges {
		total += e.Length
	}
	return total
}
