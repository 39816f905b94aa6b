package core

import (
	"fmt"
	"math"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
)

// DistBackend selects the distance-source implementation backing an
// Instance (see shortestpath.DistanceSource).
type DistBackend string

const (
	// BackendAuto picks dense below DefaultLazyThreshold nodes, lazy from
	// there up to DefaultBoundedThreshold, and bounded at or above it.
	BackendAuto DistBackend = ""
	// BackendDense materializes the full n×n table eagerly (n Dijkstras
	// at construction). Right when most rows get read: bound coverage
	// construction, common-node coverage, threshold sweeps over one
	// network.
	BackendDense DistBackend = "dense"
	// BackendLazy computes Dijkstra rows on demand and memoizes them in a
	// sharded cache, with the social-pair endpoint rows pinned. Right when
	// only a sparse row set is touched — GreedySigma/EA/AEA/LocalSearch
	// read the rows of the 2m pair endpoints plus the shortcut endpoints
	// of evaluated selections, so construction cost stops scaling with n.
	BackendLazy DistBackend = "lazy"
	// BackendBounded computes rows with a Dijkstra bounded at the
	// threshold d_t and stores them sparsely; a node outside the d_t-ball
	// reads +Inf, which answers every "farther than d_t" query. The
	// objective only ever compares distances against d_t, so the
	// truncation is unobservable to the solvers; per-row memory and
	// per-row compute scale with the d_t-ball instead of with n, which is
	// what makes 10⁵–10⁶-node instances tractable. Distances carry
	// float32 quantization (≈1e-7 relative); the "length" cost model is
	// rejected (it needs full-range distances).
	BackendBounded DistBackend = "bounded"
)

// DefaultLazyThreshold is the node count at and above which BackendAuto
// selects the lazy backend. Below it the dense table is cheap enough that
// its O(1) row access wins; above it the n Dijkstras and n² float64s of
// the eager build dominate instance construction (see EXPERIMENTS.md,
// "Distance backends" for the measurements behind the value).
const DefaultLazyThreshold = 512

// DefaultBoundedThreshold is the node count at and above which
// BackendAuto selects the bounded backend. Around 10⁵ nodes even lazy
// rows hurt — each cached row is 8·n bytes and each row compute is a
// full-graph Dijkstra — while a d_t-ball holds a few dozen nodes on the
// paper's instance families (see EXPERIMENTS.md, "Scale recipe").
const DefaultBoundedThreshold = 100_000

// DefaultLandmarks is the ALT landmark count the perfbench harness builds
// for its shortestpath.landmarks_s probe (shortestpath.NewLandmarks). No
// solver path builds landmarks; the constant goes when that probe does.
const DefaultLandmarks = 16

// ParseDistBackend validates a -dist-backend flag value; "auto", "dense",
// "lazy", and "bounded" are accepted.
func ParseDistBackend(s string) (DistBackend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case string(BackendDense):
		return BackendDense, nil
	case string(BackendLazy):
		return BackendLazy, nil
	case string(BackendBounded):
		return BackendBounded, nil
	}
	return BackendAuto, fmt.Errorf("core: unknown distance backend %q (want auto, dense, lazy, or bounded)", s)
}

// resolveDistBackend applies the explicit-option → node-threshold
// resolution chain.
func resolveDistBackend(b DistBackend, n int) DistBackend {
	if b != BackendAuto {
		return b
	}
	switch {
	case n >= DefaultBoundedThreshold:
		return BackendBounded
	case n >= DefaultLazyThreshold:
		return BackendLazy
	default:
		return BackendDense
	}
}

// newDistanceSource builds the distance backend for an instance: the
// caller-supplied source if any, else a dense table (built with the
// option's worker budget), a lazy row cache, or a bounded sparse table
// at reach thr.D, the latter two with the social-pair endpoint rows
// pinned, per the resolved backend.
func newDistanceSource(g *graph.Graph, ps *pairs.Set, thr failprob.Threshold, opts *Options) (shortestpath.DistanceSource, error) {
	if opts != nil && opts.Table != nil {
		if opts.Table.N() != g.N() {
			return nil, fmt.Errorf("core: supplied table covers %d nodes, graph has %d", opts.Table.N(), g.N())
		}
		return opts.Table, nil
	}
	var backend DistBackend
	parallelism, lazyMaxRows := 0, 0
	if opts != nil {
		backend = opts.DistBackend
		parallelism = opts.Parallelism
		lazyMaxRows = opts.LazyMaxRows
	}
	switch b := resolveDistBackend(backend, g.N()); b {
	case BackendDense:
		return shortestpath.NewTable(g, ResolveParallelism(parallelism)), nil
	case BackendLazy:
		lt := shortestpath.NewLazyTable(g, shortestpath.LazyOptions{MaxRows: lazyMaxRows})
		// Deterministic pinning: pair-set node order is fixed by the pair
		// set, so the pinned row set never depends on solver scheduling.
		lt.Pin(ps.Nodes())
		return lt, nil
	case BackendBounded:
		// A NaN threshold would make every `d > reach` comparison false
		// and silently degenerate the bounded search into full
		// exploration — reject it as a structural input error instead.
		if math.IsNaN(thr.D) {
			return nil, &InputError{Param: "threshold", Reason: "bounded distance backend needs a non-NaN reach d_t"}
		}
		bt, err := shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{
			Reach:   thr.D,
			MaxRows: lazyMaxRows,
		})
		if err != nil {
			return nil, err
		}
		bt.Pin(ps.Nodes())
		return bt, nil
	default:
		return nil, fmt.Errorf("core: unknown distance backend %q (want auto, dense, lazy, or bounded)", b)
	}
}
