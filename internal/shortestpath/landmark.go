package shortestpath

import (
	"math"

	"msc/internal/graph"
)

// Landmarks is an ALT-style lower-bound oracle: a small set of landmark
// nodes with precomputed full distance rows ("potentials"). For any pair
// (u,v) the triangle inequality gives d(u,v) ≥ |d(L,u) − d(L,v)| for
// every landmark L, so the best such difference is a certified lower
// bound on the true distance.
//
// No solver path uses it: a bounded-reach row already answers every
// "farther than d_t" query the MSC objective asks. It stays only because
// the perfbench harness times NewLandmarks for its
// shortestpath.landmarks_s probe, and goes when that probe does.
//
// Potentials are stored as float32 to keep the layer at 4·n bytes per
// landmark; LowerBound subtracts the worst-case float32 rounding error
// so quantization can never inflate a bound past the true distance.
type Landmarks struct {
	nodes []graph.NodeID
	pot   [][]float32
}

// f32eps is one float32 ulp step (2⁻²³): the relative rounding error
// bound of float32 quantization. Edge-length sums stay far below
// MaxFloat32, so quantizing a finite float64 distance to float32
// perturbs it by at most a factor of (1 ± f32eps).
const f32eps = 1.0 / (1 << 23)

// NewLandmarks picks k landmarks by deterministic farthest-point
// traversal — node 0 first, then repeatedly the node maximizing the
// minimum distance to the chosen set (ties to the lowest id, with +Inf
// counting as farthest so every connected component receives a landmark
// early) — and computes one full Dijkstra row per landmark. It returns
// nil when k ≤ 0 or the graph is empty; k is capped at n.
func NewLandmarks(g *graph.Graph, k int) *Landmarks {
	n := g.N()
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	l := &Landmarks{
		nodes: make([]graph.NodeID, 0, k),
		pot:   make([][]float32, 0, k),
	}
	minDist := newDistSlice(n)
	chosen := make([]bool, n)
	next := graph.NodeID(0)
	for len(l.nodes) < k {
		chosen[next] = true
		d := Dijkstra(g, next)
		row := make([]float32, n)
		for v, dv := range d {
			row[v] = float32(dv)
			if dv < minDist[v] {
				minDist[v] = dv
			}
		}
		l.nodes = append(l.nodes, next)
		l.pot = append(l.pot, row)
		if len(l.nodes) == k {
			break
		}
		best := -1
		bestD := math.Inf(-1)
		for v := 0; v < n; v++ {
			if chosen[v] {
				continue
			}
			if minDist[v] > bestD {
				best, bestD = v, minDist[v]
			}
		}
		if best < 0 {
			break
		}
		next = graph.NodeID(best)
	}
	return l
}

// Count returns the number of landmarks.
func (l *Landmarks) Count() int { return len(l.nodes) }

// Nodes returns the landmark node ids in selection order. The slice is
// owned by the oracle and must not be modified.
func (l *Landmarks) Nodes() []graph.NodeID { return l.nodes }

// Bytes returns the resident potential payload: 4 bytes per node per
// landmark.
func (l *Landmarks) Bytes() int64 {
	if len(l.pot) == 0 {
		return 0
	}
	return int64(len(l.pot)) * int64(len(l.pot[0])) * 4
}

// LowerBound returns a certified lower bound on d(u,v): the best
// triangle-inequality difference over all landmarks, deflated by the
// float32 quantization error so the bound is conservative. A landmark
// reaching exactly one of u,v proves they sit in different components,
// which makes the bound exactly +Inf. With no usable landmark the bound
// is 0 (always sound: distances are non-negative).
func (l *Landmarks) LowerBound(u, v graph.NodeID) float64 {
	best := 0.0
	for _, row := range l.pot {
		a, b := float64(row[u]), float64(row[v])
		ai, bi := math.IsInf(a, 1), math.IsInf(b, 1)
		if ai || bi {
			if ai != bi {
				return Inf
			}
			continue
		}
		lb := a - b
		if lb < 0 {
			lb = -lb
		}
		// a and b each carry ≤ f32eps relative quantization error; the
		// deflation below absorbs the worst case, so lb ≤ true |Δ| ≤
		// d(u,v) holds for the exact distances too.
		lb -= (a + b) * f32eps
		if lb > best {
			best = lb
		}
	}
	return best
}
