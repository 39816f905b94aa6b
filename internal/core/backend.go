package core

import (
	"fmt"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/shortestpath"
)

// DefaultLazyThreshold is the node count at and above which an instance
// gets a bounded sparse table instead of the dense one. Below it the
// dense table's n Dijkstras are cheap and its O(1) row access wins; above
// it the eager build and the n² float64s dominate, while bounded rows
// cost one d_t-ball each (see EXPERIMENTS.md, "Two backends, one
// metric"). The name predates the bounded backend taking over from the
// lazy row cache at this size.
const DefaultLazyThreshold = 512

// DefaultBoundedThreshold was the node count at which the former
// automatic selection switched from lazy to bounded rows. No solver path
// reads it; it stays exported only because the perfbench harness replays
// mscgen's former sampler arms against it, and goes when that replay does.
const DefaultBoundedThreshold = 100_000

// DefaultLandmarks is the ALT landmark count the perfbench harness builds
// for its shortestpath.landmarks_s probe (shortestpath.NewLandmarks). No
// solver path builds landmarks; the constant goes when that probe does.
const DefaultLandmarks = 16

// newDistanceSource builds the distance backend for an instance. The
// chain is: a supplied Options.Table is used as given (after checking it
// covers the graph and, if sparse, reaches d_t); the "length" cost model,
// which prices candidates by full-range distances, or a network below
// DefaultLazyThreshold nodes gets the dense Table (built with the
// option's worker budget); everything else gets a BoundedTable at reach
// d_t. The two backends compute the same float64 metric, so the choice
// changes speed and memory, never a placement.
func newDistanceSource(g *graph.Graph, thr failprob.Threshold, opts *Options) (shortestpath.DistanceSource, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Table != nil {
		if o.Table.N() != g.N() {
			return nil, fmt.Errorf("core: supplied table covers %d nodes, graph has %d", o.Table.N(), g.N())
		}
		if ss, ok := o.Table.(shortestpath.SparseSource); ok && !(ss.Reach() >= thr.D) {
			// Distances between the reach and d_t would read +Inf, so
			// pairs the true metric maintains would be counted as lost.
			return nil, &InputError{Param: "table", Reason: fmt.Sprintf(
				"supplied sparse table has reach %v, below the threshold d_t = %v", ss.Reach(), thr.D)}
		}
		return o.Table, nil
	}
	if o.CostModel == CostLength || g.N() < DefaultLazyThreshold {
		return shortestpath.NewTable(g, ResolveParallelism(o.Parallelism)), nil
	}
	return shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{Reach: thr.D})
}

// Backend names the kind of distance source behind the instance, as run
// records report it: "bounded" for a sparse source truncated at its
// reach, "dense" for a source with full rows.
func (inst *Instance) Backend() string {
	if _, ok := inst.table.(shortestpath.SparseSource); ok {
		return "bounded"
	}
	return "dense"
}
