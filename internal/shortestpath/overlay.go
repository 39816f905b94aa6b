package shortestpath

import (
	"math"

	"msc/internal/graph"
	"msc/internal/telemetry"
)

// Overlay answers shortest-path queries in the augmented graph G ∪ F, where
// F is a set of zero-length shortcut edges, using only the distance rows
// of G exposed by a DistanceSource. It reads exactly the rows of the query
// endpoints and of the shortcut endpoints — with a BoundedTable backend
// that sparse access pattern is what keeps σ evaluation independent of n.
//
// Correctness argument: a shortest u→w path in G ∪ F decomposes into maximal
// segments that stay inside G, separated by shortcut traversals. Each G
// segment between two "terminal" nodes a, b (shortcut endpoints, or u/w) has
// length exactly D[a][b]. So the augmented distance equals the shortest path
// in a small terminal graph whose nodes are the ≤2k shortcut endpoints, with
// base weights D[a][b] and weight 0 on shortcut pairs, entered from u and
// exited to w via D. Overlay runs Floyd–Warshall on that terminal graph once
// (O(k³)) and then answers each pair query in O(k²).
//
// This is what makes greedy σ-maximization tractable: evaluating σ(F ∪ {f})
// for all O(n²) candidate edges f touches only the small terminal graph, not
// the full network.
type Overlay struct {
	table DistanceSource
	// endpoints are the distinct shortcut endpoints, in first-seen order.
	endpoints []graph.NodeID
	// h[i][j] is the terminal-graph distance between endpoints[i] and
	// endpoints[j], allowing any number of shortcut traversals.
	h [][]float64
}

// NewOverlay builds the oracle for the given shortcut set. Shortcut edges
// are treated as length 0 regardless of their Length field (they are
// reliable links, §III-C). An empty shortcut set yields an oracle that
// simply forwards to the table.
func NewOverlay(table DistanceSource, shortcuts []graph.Edge) *Overlay {
	telemetry.Global().OverlayBuilds.Add(1)
	o := &Overlay{table: table}
	if len(shortcuts) == 0 {
		return o
	}
	index := make(map[graph.NodeID]int, 2*len(shortcuts))
	addEndpoint := func(v graph.NodeID) int {
		if i, ok := index[v]; ok {
			return i
		}
		i := len(o.endpoints)
		index[v] = i
		o.endpoints = append(o.endpoints, v)
		return i
	}
	type pair struct{ a, b int }
	zero := make([]pair, 0, len(shortcuts))
	for _, f := range shortcuts {
		zero = append(zero, pair{addEndpoint(f.U), addEndpoint(f.V)})
	}
	t := len(o.endpoints)
	o.h = make([][]float64, t)
	for i := 0; i < t; i++ {
		o.h[i] = make([]float64, t)
		for j := 0; j < t; j++ {
			if i == j {
				o.h[i][j] = 0
			} else {
				o.h[i][j] = table.Dist(o.endpoints[i], o.endpoints[j])
			}
		}
	}
	for _, p := range zero {
		o.h[p.a][p.b] = 0
		o.h[p.b][p.a] = 0
	}
	// Floyd–Warshall over the terminal graph.
	for k := 0; k < t; k++ {
		hk := o.h[k]
		for i := 0; i < t; i++ {
			hik := o.h[i][k]
			if math.IsInf(hik, 1) {
				continue
			}
			hi := o.h[i]
			for j := 0; j < t; j++ {
				if nd := hik + hk[j]; nd < hi[j] {
					hi[j] = nd
				}
			}
		}
	}
	return o
}

// Dist returns the shortest-path distance between u and w in G ∪ F.
func (o *Overlay) Dist(u, w graph.NodeID) float64 {
	telemetry.Global().OverlayQueries.Add(1)
	if ss, ok := o.table.(SparseSource); ok {
		return o.distSparse(ss, u, w)
	}
	// One Row call per endpoint: the base distance comes from u's row
	// directly.
	du := o.table.Row(u)
	best := du[w]
	t := len(o.endpoints)
	if t == 0 {
		return best
	}
	dw := o.table.Row(w)
	for i := 0; i < t; i++ {
		dui := du[o.endpoints[i]]
		if dui >= best {
			continue
		}
		hi := o.h[i]
		for j := 0; j < t; j++ {
			if d := dui + hi[j] + dw[o.endpoints[j]]; d < best {
				best = d
			}
		}
	}
	return best
}

// distSparse is Dist against a sparse backend: the same minimization over
// the same stored metric, but reading sparse rows so no dense row is ever
// materialized (a BoundedTable keeps dense rows forever). Bit-identical
// to the dense path — Row is defined as the scatter of SparseRow.
func (o *Overlay) distSparse(ss SparseSource, u, w graph.NodeID) float64 {
	du := ss.SparseRow(u)
	best := du.At(w)
	t := len(o.endpoints)
	if t == 0 {
		return best
	}
	dw := ss.SparseRow(w)
	for i := 0; i < t; i++ {
		dui := du.At(o.endpoints[i])
		if dui >= best {
			continue
		}
		hi := o.h[i]
		for j := 0; j < t; j++ {
			if d := dui + hi[j] + dw.At(o.endpoints[j]); d < best {
				best = d
			}
		}
	}
	return best
}

// Endpoints returns the distinct shortcut endpoints the oracle covers.
// Callers must not modify the returned slice.
func (o *Overlay) Endpoints() []graph.NodeID { return o.endpoints }

// DistRow fills out[x] with the augmented distance from u to every node x,
// in O(k² + n·k) — one pass over the terminal graph plus one pass over each
// terminal's base distance row. len(out) must equal the node count.
func (o *Overlay) DistRow(u graph.NodeID, out []float64) {
	telemetry.Global().OverlayRows.Add(1)
	if ss, ok := o.table.(SparseSource); ok {
		o.distRowSparse(ss, u, out)
		return
	}
	du := o.table.Row(u)
	if len(out) != len(du) {
		panic("shortestpath: DistRow output length mismatch")
	}
	copy(out, du)
	t := len(o.endpoints)
	if t == 0 {
		return
	}
	// c[i] = best distance from u to terminal i using any shortcuts:
	// min_j du[t_j] + h[j][i].
	c := make([]float64, t)
	for i := 0; i < t; i++ {
		best := du[o.endpoints[i]]
		for j := 0; j < t; j++ {
			if d := du[o.endpoints[j]] + o.h[j][i]; d < best {
				best = d
			}
		}
		c[i] = best
	}
	for i := 0; i < t; i++ {
		ci := c[i]
		if math.IsInf(ci, 1) {
			continue
		}
		ti := o.table.Row(o.endpoints[i])
		for x := range out {
			if d := ci + ti[x]; d < out[x] {
				out[x] = d
			}
		}
	}
}

// distRowSparse is DistRow against a sparse backend. The base row is an
// +Inf fill plus a scatter of u's ball, and each terminal contributes a
// scatter-min of its own ball — O(k² + k·ball) instead of O(k² + n·k),
// and no dense row is materialized. Values equal the dense path exactly.
func (o *Overlay) distRowSparse(ss SparseSource, u graph.NodeID, out []float64) {
	if len(out) != ss.N() {
		panic("shortestpath: DistRow output length mismatch")
	}
	inf := math.Inf(1)
	for x := range out {
		out[x] = inf
	}
	du := ss.SparseRow(u)
	for i := 0; i < du.Len(); i++ {
		id, d := du.Entry(i)
		out[id] = d
	}
	t := len(o.endpoints)
	if t == 0 {
		return
	}
	c := make([]float64, t)
	for i := 0; i < t; i++ {
		best := du.At(o.endpoints[i])
		for j := 0; j < t; j++ {
			if d := du.At(o.endpoints[j]) + o.h[j][i]; d < best {
				best = d
			}
		}
		c[i] = best
	}
	for i := 0; i < t; i++ {
		ci := c[i]
		if math.IsInf(ci, 1) {
			continue
		}
		ti := ss.SparseRow(o.endpoints[i])
		for k := 0; k < ti.Len(); k++ {
			id, d := ti.Entry(k)
			if nd := ci + d; nd < out[id] {
				out[id] = nd
			}
		}
	}
}

// AugmentedDistances is the naive reference implementation: it materializes
// G ∪ F and runs Dijkstra from src. Shortcut edges get length 0. Used by
// tests and the ablation benchmark to validate Overlay.
func AugmentedDistances(g *graph.Graph, shortcuts []graph.Edge, src graph.NodeID) []float64 {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Length)
	}
	for _, f := range shortcuts {
		b.AddEdge(f.U, f.V, 0)
	}
	aug, err := b.Build()
	if err != nil {
		// The inputs come from valid graphs, so this cannot happen.
		panic(err)
	}
	return Dijkstra(aug, src)
}
