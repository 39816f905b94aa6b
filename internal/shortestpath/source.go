package shortestpath

import "msc/internal/graph"

// DistanceSource abstracts read access to the all-pairs shortest-path
// metric of a fixed graph. Two implementations back solver instances:
//
//   - Table materializes every row eagerly (n Dijkstras, n² float64s) and
//     answers queries by plain indexing. Best on small networks and when
//     most rows will be touched (bound construction, common-node
//     coverage, experiments that sweep thresholds over one network).
//
//   - BoundedTable computes rows on demand with a Dijkstra bounded at a
//     reach and stores them sparsely (sorted (node, float64) pairs);
//     everything outside the reach-ball reads as +Inf. Per-row memory and
//     compute scale with the reach-ball instead of with n.
//
// Both compute the same float64 metric: a bounded Dijkstra settles every
// in-ball node through the same relaxations as a full one, so a
// BoundedTable distance within its reach is bit-identical to the Table
// distance. The only declared difference is that distances beyond the
// reach read +Inf. Consumers that only compare distances against a
// threshold ≤ reach — the entire MSC objective — cannot observe it.
// (LazyTable, a third implementation with full rows on demand, is kept
// only for the perfbench harness.)
//
// Implementations must be safe for concurrent readers, and every method
// must be deterministic: for the same graph, Dist and Row return
// bit-identical values no matter the call order or the number of
// goroutines calling. The solver's determinism contract (serial ==
// parallel placements) rests on that guarantee.
type DistanceSource interface {
	// N returns the number of nodes the source covers.
	N() int
	// Dist returns the shortest-path distance between u and v (+Inf if
	// disconnected).
	Dist(u, v graph.NodeID) float64
	// Row returns the full distance row of u. The returned slice is owned
	// by the source and must not be modified; it remains valid (and
	// immutable) for the caller's lifetime even if the source later
	// evicts the row from its cache.
	Row(u graph.NodeID) []float64
}

// SparseSource is the optional extension a DistanceSource implements when
// its rows are naturally sparse. Reach declares the truncation radius:
// SparseRow entries are the exact distances within Reach, and everything
// absent is certified > Reach or unreachable. Consumers use it to iterate
// only the ball instead of scanning n entries per row; a threshold
// comparison against d_t is exact only when d_t ≤ Reach.
type SparseSource interface {
	DistanceSource
	// Reach returns the truncation radius rows were computed at.
	Reach() float64
	// SparseRow returns u's row in sparse form. Like Row, the result is
	// immutable and stays valid for the caller's lifetime.
	SparseRow(u graph.NodeID) SparseRow
}

var (
	_ DistanceSource = (*Table)(nil)
	_ DistanceSource = (*LazyTable)(nil)
	_ DistanceSource = (*BoundedTable)(nil)
	_ SparseSource   = (*BoundedTable)(nil)
)
