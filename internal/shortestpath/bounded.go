package shortestpath

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"msc/internal/graph"
	"msc/internal/indexheap"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// rowBytesResident tracks the bytes of distance-row payload currently
// resident across every row cache in the process: BoundedTable sparse
// rows, dense rows materialized from them, and LazyTable dense rows
// (8·n per entry). It feeds the msc_row_bytes_resident gauge and the
// RunRecord field of the same name, turning the "row memory scales with
// the d_t-ball, not n" claim into an observable number.
var rowBytesResident atomic.Int64

// RowBytesResident reports the bytes of distance-row payload currently
// held by all row caches in the process.
func RowBytesResident() int64 { return rowBytesResident.Load() }

func init() {
	obs.NewGaugeFunc(obs.Default(), "msc_row_bytes_resident",
		"Bytes of distance-row payload resident across all row caches (lazy dense rows, bounded sparse rows, materialized dense rows).",
		func() float64 { return float64(rowBytesResident.Load()) })
}

// SparseRow is a compact distance row: the nodes inside a bounded-reach
// Dijkstra ball as parallel slices of node ids (sorted ascending) and
// float64 distances. Nodes absent from the row are beyond the reach or
// unreachable and read as +Inf. The stored distances are the exact values
// a full Dijkstra computes: every in-ball node is settled through the same
// du + length relaxations, so within the reach a sparse row is
// bit-identical to the dense Table row.
type SparseRow struct {
	ids  []int32
	dist []float64
}

// Len returns the number of in-ball entries.
func (r SparseRow) Len() int { return len(r.ids) }

// Entry returns the i-th (node, distance) pair in ascending node order.
func (r SparseRow) Entry(i int) (graph.NodeID, float64) {
	return graph.NodeID(r.ids[i]), r.dist[i]
}

// At returns the stored distance to v, or +Inf if v is outside the ball.
func (r SparseRow) At(v graph.NodeID) float64 {
	lo, hi := 0, len(r.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.ids[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.ids) && r.ids[lo] == int32(v) {
		return r.dist[lo]
	}
	return Inf
}

// Bytes returns the payload size of the row: 12 bytes per entry (int32
// id + float64 distance), excluding slice headers.
func (r SparseRow) Bytes() int64 { return int64(len(r.ids)) * 12 }

// BoundedOptions tune a BoundedTable.
type BoundedOptions struct {
	// Reach is the exploration bound: rows hold exactly the nodes within
	// Reach of the source. For the MSC objective Reach = d_t suffices —
	// every comparison the solver makes is against d_t, and any augmented
	// path of length ≤ d_t decomposes into graph segments each ≤ d_t, so
	// distances beyond the reach are interchangeable with +Inf. Must be
	// ≥ 0 and not NaN; +Inf degenerates to full (but still sparse) rows.
	Reach float64
}

// BoundedStats is a point-in-time snapshot of a BoundedTable's activity.
type BoundedStats struct {
	// Hits counts SparseRow calls that found the row entry already
	// cached, Misses those that created it, and Computes the bounded
	// Dijkstra runs — one per distinct row, however many goroutines race
	// for it.
	Hits     int64
	Misses   int64
	Computes int64
	// Cached is the number of sparse rows currently held.
	Cached int
	// RowBytes is the resident payload: sparse rows plus any dense rows
	// materialized through Row (8·n each).
	RowBytes int64
	// DenseRows counts rows materialized to dense []float64 form via Row;
	// those are kept for the table's lifetime.
	DenseRows int
}

// BoundedTable is a DistanceSource specialized for threshold objectives:
// rows are computed with a bounded Dijkstra at the configured reach and
// stored sparsely, so per-row memory scales with the size of the
// reach-ball instead of with n. Everything outside the ball reads as
// +Inf, which is indistinguishable from the true distance for any
// consumer that only compares distances against a threshold ≤ reach.
//
// The row cache is sharded and concurrency-safe, with one sync.Once per
// entry, and keeps every row it computes. Dijkstra scratch (heap,
// distance buffer, touched list) lives in a sync.Pool so warm rows
// allocate only their own sparse payload.
type BoundedTable struct {
	g      *graph.Graph
	n      int
	reach  float64
	shards []boundedShard

	scratch sync.Pool // *boundedScratch

	// dense holds rows materialized through Row (the DistanceSource
	// dense-row contract: valid and immutable for the caller's
	// lifetime). Bulk row consumers at scale use SparseRow instead.
	denseMu sync.Mutex
	dense   map[graph.NodeID][]float64

	hits     atomic.Int64
	misses   atomic.Int64
	computes atomic.Int64
	rowBytes atomic.Int64
}

type boundedShard struct {
	mu   sync.Mutex
	rows map[graph.NodeID]*boundedRow
}

// boundedRow is one cache entry. The Once both guarantees a single
// Dijkstra per row and publishes row: every reader goes through Do, which
// gives the read a happens-after edge on the write.
type boundedRow struct {
	once sync.Once
	row  SparseRow
}

// rowCacheShards is the BoundedTable shard count: enough to keep
// GOMAXPROCS-wide scans from serializing on one lock.
const rowCacheShards = 16

type boundedScratch struct {
	h *indexheap.Heap
	// dist is kept +Inf-filled between runs; each run resets exactly the
	// entries it touched.
	dist    []float64
	touched []int32
}

// NewBoundedTable wraps g in a bounded-reach sparse distance source. The
// graph must stay immutable for the table's lifetime. It rejects a NaN
// or negative reach: a NaN bound would silently degenerate to full
// exploration (every `d > NaN` comparison is false), which is exactly
// the cost profile this table exists to avoid.
func NewBoundedTable(g *graph.Graph, opts BoundedOptions) (*BoundedTable, error) {
	if math.IsNaN(opts.Reach) {
		return nil, fmt.Errorf("shortestpath: bounded table: reach must not be NaN")
	}
	if opts.Reach < 0 {
		return nil, fmt.Errorf("shortestpath: bounded table: reach must be ≥ 0, got %v", opts.Reach)
	}
	t := &BoundedTable{
		g:      g,
		n:      g.N(),
		reach:  opts.Reach,
		shards: make([]boundedShard, rowCacheShards),
		dense:  make(map[graph.NodeID][]float64),
	}
	for i := range t.shards {
		t.shards[i].rows = make(map[graph.NodeID]*boundedRow)
	}
	t.scratch.New = func() any {
		return &boundedScratch{
			h:    indexheap.New(t.n),
			dist: newDistSlice(t.n),
		}
	}
	return t, nil
}

// N returns the number of nodes the table covers.
func (t *BoundedTable) N() int { return t.n }

// Reach returns the exploration bound rows were computed at.
func (t *BoundedTable) Reach() float64 { return t.reach }

// Dist returns the stored distance between u and v: the true distance if
// v is within reach of u, +Inf otherwise.
func (t *BoundedTable) Dist(u, v graph.NodeID) float64 {
	return t.SparseRow(u).At(v)
}

// Row returns u's row in dense form, materialized from the sparse row on
// first use and kept for the table's lifetime (the DistanceSource row
// contract promises the slice stays valid and immutable). Out-of-ball
// nodes hold +Inf. Bulk consumers that can handle sparsity should prefer
// SparseRow — each dense row costs 8·n bytes forever.
func (t *BoundedTable) Row(u graph.NodeID) []float64 {
	t.denseMu.Lock()
	if d, ok := t.dense[u]; ok {
		t.denseMu.Unlock()
		return d
	}
	t.denseMu.Unlock()
	sr := t.SparseRow(u)
	d := newDistSlice(t.n)
	for i, id := range sr.ids {
		d[id] = sr.dist[i]
	}
	t.denseMu.Lock()
	if prev, ok := t.dense[u]; ok {
		// Another goroutine won the materialization race; use its row so
		// repeated calls keep returning the same slice.
		t.denseMu.Unlock()
		return prev
	}
	t.dense[u] = d
	t.denseMu.Unlock()
	b := int64(t.n) * 8
	t.rowBytes.Add(b)
	rowBytesResident.Add(b)
	return d
}

// SparseRow returns u's sparse bounded row, computing and caching it on
// first use. The row is immutable once published.
func (t *BoundedTable) SparseRow(u graph.NodeID) SparseRow {
	sh := &t.shards[int(u)%len(t.shards)]
	sh.mu.Lock()
	e, ok := sh.rows[u]
	if !ok {
		e = &boundedRow{}
		sh.rows[u] = e
	}
	sh.mu.Unlock()
	if ok {
		t.hits.Add(1)
		telemetry.Global().RowCacheHits.Add(1)
	} else {
		t.misses.Add(1)
		telemetry.Global().RowCacheMisses.Add(1)
	}
	// Outside the shard lock: concurrent requests for the same row block
	// here on the entry's Once, and requests for other rows proceed.
	e.once.Do(func() {
		t.computes.Add(1)
		telemetry.Global().RowCacheComputes.Add(1)
		if obs.Enabled() {
			start := time.Now()
			e.row = t.computeRow(u)
			obs.ObserveRowCompute(time.Since(start))
		} else {
			e.row = t.computeRow(u)
		}
		b := e.row.Bytes()
		t.rowBytes.Add(b)
		rowBytesResident.Add(b)
	})
	return e.row
}

// computeRow runs a bounded Dijkstra from src on pooled scratch and packs
// the settled ball into a SparseRow. Counter discipline matches
// dijkstraInto: one DijkstraRuns increment and one EdgeRelaxations flush
// per run, so per-run totals stay deterministic at every worker count.
func (t *BoundedTable) computeRow(src graph.NodeID) SparseRow {
	sc := t.scratch.Get().(*boundedScratch)
	relaxed := int64(0)
	h, dist := sc.h, sc.dist
	touched := sc.touched[:0]
	bound := t.reach
	g := t.g
	dist[src] = 0
	touched = append(touched, int32(src))
	h.Push(int(src), 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if du > bound {
			// Every remaining tentative distance is ≥ du > bound: heap
			// keys pop in non-decreasing order, and dist[] mirrors the
			// current keys. The ≤ bound filter below discards them, so
			// only the heap bookkeeping needs resetting.
			h.Reset()
			break
		}
		for _, a := range g.Neighbors(graph.NodeID(u)) {
			if nd := du + a.Length; nd < dist[a.To] {
				if math.IsInf(dist[a.To], 1) {
					touched = append(touched, int32(a.To))
				}
				dist[a.To] = nd
				relaxed++
				h.Push(int(a.To), nd)
			}
		}
	}
	ids := make([]int32, 0, len(touched))
	for _, v := range touched {
		if dist[v] <= bound {
			ids = append(ids, v)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ds := make([]float64, len(ids))
	for i, v := range ids {
		ds[i] = dist[v]
	}
	for _, v := range touched {
		dist[v] = Inf
	}
	sc.touched = touched[:0]
	t.scratch.Put(sc)
	c := telemetry.Global()
	c.DijkstraRuns.Add(1)
	c.EdgeRelaxations.Add(relaxed)
	return SparseRow{ids: ids, dist: ds}
}

// Stats snapshots the table's counters. Consistent at a quiescent point,
// which is how tests use it.
func (t *BoundedTable) Stats() BoundedStats {
	s := BoundedStats{
		Hits:     t.hits.Load(),
		Misses:   t.misses.Load(),
		Computes: t.computes.Load(),
		RowBytes: t.rowBytes.Load(),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		s.Cached += len(sh.rows)
		sh.mu.Unlock()
	}
	t.denseMu.Lock()
	s.DenseRows = len(t.dense)
	t.denseMu.Unlock()
	return s
}
