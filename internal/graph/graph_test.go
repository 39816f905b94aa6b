package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"msc/internal/geom"
)

func TestBuilderBasics(t *testing.T) {
	g, err := NewBuilder(3).
		AddEdge(0, 1, 1.5).
		AddEdge(1, 2, 2.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if l, ok := g.EdgeLength(1, 0); !ok || l != 1.5 {
		t.Fatalf("EdgeLength(1,0) = %v, %v", l, ok)
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatal("degrees wrong")
	}
	if got := g.TotalLength(); got != 4 {
		t.Fatalf("TotalLength = %v", got)
	}
}

func TestBuilderDuplicateKeepsMin(t *testing.T) {
	g := NewBuilder(2).
		AddEdge(0, 1, 3).
		AddEdge(1, 0, 1). // reversed duplicate, smaller
		AddEdge(0, 1, 2).
		MustBuild()
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1", g.M())
	}
	if l, _ := g.EdgeLength(0, 1); l != 1 {
		t.Fatalf("merged length = %v, want 1", l)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		build func() (*Graph, error)
		want  error
	}{
		{func() (*Graph, error) { return NewBuilder(2).AddEdge(0, 0, 1).Build() }, ErrSelfLoop},
		{func() (*Graph, error) { return NewBuilder(2).AddEdge(0, 2, 1).Build() }, ErrNodeRange},
		{func() (*Graph, error) { return NewBuilder(2).AddEdge(-1, 1, 1).Build() }, ErrNodeRange},
		{func() (*Graph, error) { return NewBuilder(2).AddEdge(0, 1, -1).Build() }, ErrBadLength},
		{func() (*Graph, error) {
			return NewBuilder(2).SetCoords([]geom.Point{{X: 1}}).Build()
		}, ErrCoordCount},
		{func() (*Graph, error) {
			return NewBuilder(2).SetLabels([]string{"a"}).Build()
		}, ErrLabelCount},
	}
	for i, tc := range cases {
		if _, err := tc.build(); !errors.Is(err, tc.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, tc.want)
		}
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder(2).AddEdge(0, 0, 1) // error
	b.AddEdge(0, 1, 1)                  // valid but too late
	if _, err := b.Build(); err == nil {
		t.Fatal("sticky error lost")
	}
}

func TestEdgesCanonicalSorted(t *testing.T) {
	g := NewBuilder(4).
		AddEdge(3, 1, 1).
		AddEdge(2, 0, 1).
		AddEdge(1, 0, 1).
		MustBuild()
	edges := g.Edges()
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %d not canonical: %v", i, e)
		}
		if i > 0 {
			prev := edges[i-1]
			if prev.U > e.U || (prev.U == e.U && prev.V >= e.V) {
				t.Fatalf("edges not sorted at %d", i)
			}
		}
	}
}

func TestLabelsAndCoords(t *testing.T) {
	coords := []geom.Point{{X: 0}, {X: 1}}
	g := NewBuilder(2).
		SetCoords(coords).
		SetLabels([]string{"alpha", ""}).
		AddEdge(0, 1, 1).
		MustBuild()
	if g.Label(0) != "alpha" {
		t.Fatalf("Label(0) = %q", g.Label(0))
	}
	if g.Label(1) != "v1" {
		t.Fatalf("Label(1) = %q, want fallback", g.Label(1))
	}
	// Builder must copy the coords.
	coords[0].X = 99
	if g.Coords()[0].X == 99 {
		t.Fatal("builder aliased caller's coords")
	}
}

func TestComponents(t *testing.T) {
	g := NewBuilder(6).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 1).
		AddEdge(3, 4, 1).
		MustBuild()
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	largest := g.LargestComponent()
	if len(largest) != 3 || largest[0] != 0 {
		t.Fatalf("largest = %v", largest)
	}
}

func TestConnectedSingleAndEmpty(t *testing.T) {
	if !NewBuilder(0).MustBuild().Connected() {
		t.Fatal("empty graph should be connected")
	}
	if !NewBuilder(1).MustBuild().Connected() {
		t.Fatal("single node should be connected")
	}
}

func TestHopDistances(t *testing.T) {
	g := NewBuilder(5).
		AddEdge(0, 1, 9).
		AddEdge(1, 2, 9).
		AddEdge(0, 3, 9).
		MustBuild()
	d := g.HopDistances(0)
	want := []int{0, 1, 2, 1, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("hop[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := NewBuilder(5).
		SetCoords([]geom.Point{{X: 0}, {X: 1}, {X: 2}, {X: 3}, {X: 4}}).
		SetLabels([]string{"a", "b", "c", "d", "e"}).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(2, 3, 3).
		AddEdge(3, 4, 4).
		MustBuild()
	sub, mapping := g.InducedSubgraph([]NodeID{1, 2, 4})
	if sub.N() != 3 {
		t.Fatalf("sub n = %d", sub.N())
	}
	// Only edge (1,2) survives.
	if sub.M() != 1 {
		t.Fatalf("sub m = %d, want 1", sub.M())
	}
	if l, ok := sub.EdgeLength(0, 1); !ok || l != 2 {
		t.Fatalf("sub edge = %v, %v", l, ok)
	}
	if mapping[2] != 4 {
		t.Fatalf("mapping = %v", mapping)
	}
	if sub.Label(2) != "e" || sub.Coords()[2].X != 4 {
		t.Fatal("labels/coords not carried")
	}
}

func TestEdgeCanon(t *testing.T) {
	e := Edge{U: 5, V: 2, Length: 1}
	c := e.Canon()
	if c.U != 2 || c.V != 5 || c.Length != 1 {
		t.Fatalf("Canon = %v", c)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(1).AddEdge(0, 0, 1).MustBuild()
}

// refBuild is the map-based builder Build replaced, kept as the oracle:
// duplicates merge in a map keeping the first minimum, the edges are
// sorted by (U, V), and each adjacency list is filled in that order.
func refBuild(n int, calls []refEdge) (*Graph, error) {
	merged := make(map[[2]NodeID]float64)
	for _, c := range calls {
		u, v := c.U, c.V
		switch {
		case u == v:
			return nil, ErrSelfLoop
		case u < 0 || v < 0 || int(u) >= n || int(v) >= n:
			return nil, ErrNodeRange
		case math.IsNaN(c.Length) || math.IsInf(c.Length, 0) || c.Length < 0:
			return nil, ErrBadLength
		}
		if u > v {
			u, v = v, u
		}
		key := [2]NodeID{u, v}
		if old, ok := merged[key]; !ok || c.Length < old {
			merged[key] = c.Length
		}
	}
	g := &Graph{adj: make([][]Arc, n)}
	for key, length := range merged {
		g.edges = append(g.edges, Edge{U: key[0], V: key[1], Length: length})
	}
	sort.Slice(g.edges, func(i, j int) bool {
		if g.edges[i].U != g.edges[j].U {
			return g.edges[i].U < g.edges[j].U
		}
		return g.edges[i].V < g.edges[j].V
	})
	for _, e := range g.edges {
		g.adj[e.U] = append(g.adj[e.U], Arc{To: e.V, Length: e.Length})
		g.adj[e.V] = append(g.adj[e.V], Arc{To: e.U, Length: e.Length})
	}
	return g, nil
}

type refEdge Edge

// edgeMultiset is a random Builder input for testing/quick: a node count
// with isolated nodes to spare, and unsorted AddEdge calls over few
// endpoints and few lengths, so duplicates (reversed ones, ties between
// +0 and -0 included) are common. With probability 1/8 one call carries a
// self-loop, an out-of-range id or a bad length.
type edgeMultiset struct {
	n     int
	calls []refEdge
}

func (edgeMultiset) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(12)
	lengths := []float64{0, math.Copysign(0, -1), 0.5, 1, 1, 2.25}
	calls := make([]refEdge, r.Intn(4*size+1))
	for i := range calls {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		for n > 1 && u == v {
			v = NodeID(r.Intn(n))
		}
		calls[i] = refEdge{U: u, V: v, Length: lengths[r.Intn(len(lengths))]}
	}
	if len(calls) > 0 && r.Intn(8) == 0 {
		bad := &calls[r.Intn(len(calls))]
		switch r.Intn(4) {
		case 0:
			bad.V = bad.U
		case 1:
			bad.U = NodeID(n + r.Intn(3))
		case 2:
			bad.V = -1
		default:
			bad.Length = []float64{-1, math.NaN(), math.Inf(1)}[r.Intn(3)]
		}
	}
	return reflect.ValueOf(edgeMultiset{n: n, calls: calls})
}

// TestBuilderMatchesMapReference: for any AddEdge multiset, Build yields
// the reference's Edges() and every Neighbors(u) in the same order, with
// lengths bit-identical, or the same sticky error.
func TestBuilderMatchesMapReference(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	prop := func(in edgeMultiset) bool {
		b := NewBuilder(in.n)
		for _, c := range in.calls {
			b.AddEdge(c.U, c.V, c.Length)
		}
		got, err := b.Build()
		want, werr := refBuild(in.n, in.calls)
		if werr != nil || err != nil {
			return errors.Is(err, werr)
		}
		if got.N() != want.N() || len(got.Edges()) != len(want.Edges()) {
			return false
		}
		for i, e := range want.Edges() {
			if g := got.Edges()[i]; g.U != e.U || g.V != e.V || !same(g.Length, e.Length) {
				return false
			}
		}
		for u := 0; u < in.n; u++ {
			ga, wa := got.Neighbors(NodeID(u)), want.Neighbors(NodeID(u))
			if len(ga) != len(wa) || (wa == nil) != (ga == nil) {
				return false
			}
			for i := range wa {
				if ga[i].To != wa[i].To || !same(ga[i].Length, wa[i].Length) {
					return false
				}
			}
		}
		// A second Build of the same builder is the same graph.
		again, err := b.Build()
		return err == nil && reflect.DeepEqual(again, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
