package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/graphio"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
)

// instanceData is an instance as the output checker sees it: decoded
// straight from the generated file, sharing no state with any solver.
type instanceData struct {
	g  *graph.Graph
	ps *pairs.Set
	dt float64 // distance threshold d_t of p_t
	k  int
}

func loadInstance(path string) (*instanceData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := graphio.ReadJSON(f)
	if err != nil {
		return nil, err
	}
	g, err := doc.Graph()
	if err != nil {
		return nil, err
	}
	ps, err := doc.PairSet()
	if err != nil {
		return nil, err
	}
	if ps == nil {
		return nil, fmt.Errorf("%s carries no important pairs", path)
	}
	return &instanceData{g: g, ps: ps, dt: failprob.NewThreshold(doc.FailureThreshold).D, k: doc.Budget}, nil
}

// checkPlacement verifies a placement document against its instance:
// the shortcuts are a feasible selection (at most k distinct node pairs,
// every endpoint a node of the graph) and the reported maintained_pairs
// equals σ re-measured from scratch. It returns σ.
func checkPlacement(inst *instanceData, out []byte) (int, error) {
	var doc placeOutput
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&doc); err != nil {
		return 0, fmt.Errorf("placement does not decode: %w", err)
	}
	if doc.K != inst.k || doc.TotalPairs != inst.ps.Len() {
		return 0, fmt.Errorf("placement reports k=%d over %d pairs, instance has k=%d and %d pairs",
			doc.K, doc.TotalPairs, inst.k, inst.ps.Len())
	}
	if len(doc.Shortcuts) > inst.k {
		return 0, fmt.Errorf("%d shortcuts exceed the budget k=%d", len(doc.Shortcuts), inst.k)
	}
	n := int32(inst.g.N())
	seen := make(map[graph.Edge]bool, len(doc.Shortcuts))
	edges := make([]graph.Edge, 0, len(doc.Shortcuts))
	for _, s := range doc.Shortcuts {
		u, v := s[0], s[1]
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return 0, fmt.Errorf("shortcut (%d,%d) is not a pair of distinct nodes in [0,%d)", u, v, n)
		}
		if u > v {
			u, v = v, u
		}
		e := graph.Edge{U: u, V: v}
		if seen[e] {
			return 0, fmt.Errorf("shortcut (%d,%d) appears twice", u, v)
		}
		seen[e] = true
		edges = append(edges, e)
	}
	sigma, err := sigmaFromScratch(inst, edges)
	if err != nil {
		return 0, err
	}
	if sigma != doc.Sigma {
		return 0, fmt.Errorf("placement reports maintained_pairs=%d, re-measured σ=%d", doc.Sigma, sigma)
	}
	return sigma, nil
}

// sigmaFromScratch counts the pairs within d_t of each other on G ∪ F.
// It builds the augmented graph as shortestpath.AugmentedDistances does
// (every shortcut a zero-length edge) and runs one Dijkstra per pair, but
// builds the graph once per placement and bounds each Dijkstra at d_t:
// AugmentedDistances rebuilds the 10⁵-node graph and runs a full Dijkstra
// per pair, about 1.5 s each, 96 s for one rgg100k-greedy placement.
// Within d_t the bounded search settles exactly the distances the full
// one does.
func sigmaFromScratch(inst *instanceData, shortcuts []graph.Edge) (int, error) {
	b := graph.NewBuilder(inst.g.N())
	for _, e := range inst.g.Edges() {
		b.AddEdge(e.U, e.V, e.Length)
	}
	for _, f := range shortcuts {
		b.AddEdge(f.U, f.V, 0)
	}
	aug, err := b.Build()
	if err != nil {
		return 0, err
	}
	sigma := 0
	for _, p := range inst.ps.Pairs() {
		if shortestpath.BoundedDijkstra(aug, p.U, inst.dt)[p.W] <= inst.dt {
			sigma++
		}
	}
	return sigma, nil
}
