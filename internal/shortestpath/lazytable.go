package shortestpath

import (
	"sync"
	"sync/atomic"
	"time"

	"msc/internal/graph"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// LazyOptions tune a LazyTable. The zero value (unbounded cache, default
// shard count) is the right choice for almost every workload.
type LazyOptions struct {
	// MaxRows caps the number of cached non-pinned rows; 0 means
	// unbounded. The cap is distributed across the shards, so each shard
	// holds its share of MaxRows; pinned rows never count against it.
	// Evicted rows are recomputed on the next access — correctness never
	// depends on the cap, only the compute counters do.
	MaxRows int
	// Shards fixes the number of cache shards; 0 picks a default. More
	// shards reduce lock contention between concurrent readers.
	Shards int
}

// LazyStats is a point-in-time snapshot of a LazyTable's cache activity.
type LazyStats struct {
	// Hits counts Row/Dist calls that found the row entry already cached.
	Hits int64
	// Misses counts calls that had to create a new row entry.
	Misses int64
	// Computes counts Dijkstra runs. Without a row cap this equals the
	// number of distinct rows ever requested — each row is computed
	// exactly once no matter how many goroutines race for it.
	Computes int64
	// Evictions counts rows dropped to respect MaxRows.
	Evictions int64
	// Cached is the number of rows currently held (pinned included).
	Cached int
}

// LazyTable is a DistanceSource that computes full Dijkstra rows on demand
// and memoizes them in a sharded, concurrency-safe cache.
//
// No solver path builds one any more: core picks the dense Table below
// DefaultLazyThreshold nodes and a BoundedTable at and above it. LazyTable
// stays only because the perfbench harness replays mscgen's former lazy
// sampler arm against it, and goes when that replay does. It is safe for
// concurrent use; every row is computed exactly once per cache residency
// (a sync.Once per entry), so concurrent readers of the same row never
// duplicate work and never observe a torn row.
//
// Construction is O(1): where the dense Table pays n Dijkstras and n²
// float64s up front, a LazyTable pays one Dijkstra per distinct row the
// solver actually touches — for the overlay oracle that is the ≤2m
// social-pair endpoints plus the ≤2k shortcut endpoints per evaluated
// selection, independent of n.
type LazyTable struct {
	g      *graph.Graph
	n      int
	shards []lazyShard

	hits      atomic.Int64
	misses    atomic.Int64
	computes  atomic.Int64
	evictions atomic.Int64
}

type lazyShard struct {
	mu sync.Mutex
	// cap is the shard's share of MaxRows (non-pinned rows); -1 means
	// unbounded.
	cap    int
	rows   map[graph.NodeID]*lazyRow
	fifo   []graph.NodeID // insertion order of evictable (non-pinned) rows
	pinned map[graph.NodeID]bool
}

// lazyRow is one cache entry. The Once both guarantees a single Dijkstra
// per residency and publishes dist: every reader goes through Do, which
// gives the read a happens-after edge on the write.
type lazyRow struct {
	once sync.Once
	dist []float64
}

// NewLazyTable wraps g in an on-demand distance source. The graph must be
// immutable for the table's lifetime (the same contract NewTable has).
func NewLazyTable(g *graph.Graph, opts LazyOptions) *LazyTable {
	shards := opts.Shards
	if shards <= 0 {
		shards = rowCacheShards
	}
	if opts.MaxRows > 0 && shards > opts.MaxRows {
		// Never hand a shard a zero cap: with fewer shards than MaxRows
		// every shard can hold at least one row.
		shards = opts.MaxRows
	}
	t := &LazyTable{g: g, n: g.N(), shards: make([]lazyShard, shards)}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.rows = make(map[graph.NodeID]*lazyRow)
		if opts.MaxRows <= 0 {
			sh.cap = -1
			continue
		}
		sh.cap = opts.MaxRows / shards
		if i < opts.MaxRows%shards {
			sh.cap++
		}
	}
	return t
}

// Pin marks the given rows as never-evictable, deterministically exempting
// them from MaxRows. core.NewInstance pins the social-pair endpoint rows:
// they are re-read by every overlay the solver builds, so evicting them
// would turn the hottest rows into permanent cache misses. Pinning does
// not compute the rows — they are still filled on first use.
func (t *LazyTable) Pin(nodes []graph.NodeID) {
	for _, u := range nodes {
		sh := t.shard(u)
		sh.mu.Lock()
		if sh.pinned == nil {
			sh.pinned = make(map[graph.NodeID]bool)
		}
		if !sh.pinned[u] {
			sh.pinned[u] = true
			// If the row was already cached as evictable, promote it.
			for i, v := range sh.fifo {
				if v == u {
					sh.fifo = append(sh.fifo[:i], sh.fifo[i+1:]...)
					break
				}
			}
		}
		sh.mu.Unlock()
	}
}

// N returns the number of nodes the table covers.
func (t *LazyTable) N() int { return t.n }

// Dist returns the shortest-path distance between u and v (+Inf if
// disconnected), computing and caching u's row on first use.
func (t *LazyTable) Dist(u, v graph.NodeID) float64 { return t.Row(u)[v] }

// Row returns the distance row of u, computing it on first use. Callers
// must not modify the returned slice; it stays valid even if the cache
// later evicts the row (rows are immutable once published, so eviction
// only forgets them).
func (t *LazyTable) Row(u graph.NodeID) []float64 {
	sh := t.shard(u)
	sh.mu.Lock()
	e, ok := sh.rows[u]
	if ok {
		sh.mu.Unlock()
		t.hits.Add(1)
		telemetry.Global().RowCacheHits.Add(1)
	} else {
		e = &lazyRow{}
		sh.rows[u] = e
		// Byte accounting is per resident entry: a dense row is 8·n bytes
		// the moment its entry exists (the compute below fills it).
		rowBytesResident.Add(int64(t.n) * 8)
		if sh.pinned == nil || !sh.pinned[u] {
			sh.fifo = append(sh.fifo, u)
			for sh.cap >= 0 && len(sh.fifo) > sh.cap {
				victim := sh.fifo[0]
				sh.fifo = append(sh.fifo[:0], sh.fifo[1:]...)
				delete(sh.rows, victim)
				rowBytesResident.Add(int64(t.n) * -8)
				t.evictions.Add(1)
				telemetry.Global().RowCacheEvictions.Add(1)
			}
		}
		sh.mu.Unlock()
		t.misses.Add(1)
		telemetry.Global().RowCacheMisses.Add(1)
	}
	// Outside the shard lock: concurrent requests for the same row block
	// here on the entry's Once (not on the shard), and requests for other
	// rows in the shard proceed. Exactly one caller runs the Dijkstra.
	e.once.Do(func() {
		t.computes.Add(1)
		telemetry.Global().RowCacheComputes.Add(1)
		if obs.Enabled() {
			start := time.Now()
			e.dist = Dijkstra(t.g, u)
			obs.ObserveRowCompute(time.Since(start))
		} else {
			e.dist = Dijkstra(t.g, u)
		}
	})
	return e.dist
}

// Stats snapshots the cache counters. Consistent when taken at a quiescent
// point (no concurrent Row/Dist calls), which is how tests use it.
func (t *LazyTable) Stats() LazyStats {
	s := LazyStats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Computes:  t.computes.Load(),
		Evictions: t.evictions.Load(),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		s.Cached += len(sh.rows)
		sh.mu.Unlock()
	}
	return s
}

func (t *LazyTable) shard(u graph.NodeID) *lazyShard {
	return &t.shards[int(u)%len(t.shards)]
}
