package core

import (
	"errors"
	"math"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// pathInstance builds an instance over a path graph of n nodes with two
// far-apart pairs; cheap at any n, so backend selection can be tested at
// the 512-node threshold without paying a dense build.
func pathInstance(t *testing.T, n int, opts *Options) *Instance {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := pairs.MustNewSet(n, []pairs.Pair{
		{U: 0, W: graph.NodeID(n - 1)},
		{U: 1, W: graph.NodeID(n - 2)},
	})
	thr := failprob.Threshold{P: 1 - math.Exp(-2), D: 2}
	inst, err := NewInstance(g, ps, thr, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestBackendAutoSelection pins the resolution chain: supplied table →
// cost model → node threshold.
func TestBackendAutoSelection(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		opts Options
		want string
	}{
		{"below threshold", 32, Options{}, "dense"},
		{"one below threshold", DefaultLazyThreshold - 1, Options{}, "dense"},
		{"at threshold", DefaultLazyThreshold, Options{}, "bounded"},
		{"length cost model", DefaultLazyThreshold, Options{Budget: 2, CostModel: CostLength}, "dense"},
		{"unit cost model", DefaultLazyThreshold, Options{Budget: 2, CostModel: CostUnit}, "bounded"},
	} {
		tc.opts.AllowTrivial = true
		inst := pathInstance(t, tc.n, &tc.opts)
		if got := inst.Backend(); got != tc.want {
			t.Errorf("%s: Backend() = %q (%T), want %q", tc.name, got, inst.Table(), tc.want)
		}
		if _, bounded := inst.Table().(*shortestpath.BoundedTable); bounded != (tc.want == "bounded") {
			t.Errorf("%s: table is %T, want %s", tc.name, inst.Table(), tc.want)
		}
	}
	// The bounded table NewInstance builds reaches exactly d_t.
	inst := pathInstance(t, DefaultLazyThreshold, &Options{AllowTrivial: true})
	if got := inst.Table().(*shortestpath.BoundedTable).Reach(); got != inst.Threshold().D {
		t.Errorf("bounded reach = %v, want d_t = %v", got, inst.Threshold().D)
	}

	// A supplied table beats the node threshold either way.
	small := pathInstance(t, 32, &Options{AllowTrivial: true})
	bt, err := shortestpath.NewBoundedTable(small.Graph(), shortestpath.BoundedOptions{Reach: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := pathInstance(t, 32, &Options{AllowTrivial: true, Table: bt}); got.Table() != shortestpath.DistanceSource(bt) {
		t.Errorf("supplied bounded table below threshold: got %T", got.Table())
	}
}

// TestBackendOptionValidation covers the supplied-table path: the table
// must cover the graph, and a sparse table must reach at least d_t —
// distances between its reach and d_t would read +Inf and undercount σ.
func TestBackendOptionValidation(t *testing.T) {
	rng := xrand.New(9400)
	g := randomConnectedGraph(t, 12, 24, rng)
	table := shortestpath.NewTable(g, 0)
	ps, err := pairs.SampleViolating(table, 0.8, 4, rng)
	if err != nil {
		t.Skipf("could not sample pairs: %v", err)
	}
	thr := failprob.Threshold{P: 1 - math.Exp(-0.8), D: 0.8}

	inst, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: table})
	if err != nil {
		t.Fatalf("NewInstance with supplied table: %v", err)
	}
	if inst.Table() != shortestpath.DistanceSource(table) {
		t.Error("supplied table was not used verbatim")
	}

	other := randomConnectedGraph(t, 13, 26, rng)
	wrong := shortestpath.NewTable(other, 0)
	if _, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: wrong}); err == nil {
		t.Error("mismatched supplied table accepted, want error")
	}

	for _, tc := range []struct {
		reach float64
		ok    bool
	}{
		{0, false},
		{math.Nextafter(thr.D, 0), false},
		{thr.D, true},
		{2 * thr.D, true},
		{math.Inf(1), true},
	} {
		bt, err := shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{Reach: tc.reach})
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: bt})
		var ie *InputError
		switch {
		case tc.ok && err != nil:
			t.Errorf("reach %v ≥ d_t = %v rejected: %v", tc.reach, thr.D, err)
		case !tc.ok && !errors.As(err, &ie):
			t.Errorf("reach %v < d_t = %v: got %v, want *InputError", tc.reach, thr.D, err)
		}
	}
}

// TestBackendTieProbe is the exact-tie regression for the shared metric.
// On random graphs with arbitrary float64 edge lengths it sets d_t to the
// exact float64 sum d(a,u)+d(b,w) that the overlay forms for pair (a,b)
// through a shortcut (u,w), with d(a,b) > d_t, and requires σ({(u,w)}) to
// agree between the dense table and a bounded table at reach d_t. A
// bounded row that rounded its distances (float32 storage did) loses
// exactly these ties.
func TestBackendTieProbe(t *testing.T) {
	const n = 20
	usable := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := xrand.New(12_000 + seed)
		g := randomConnectedGraph(t, n, n, rng)
		dense := shortestpath.NewTable(g, 0)
		// The pair is the graph's farthest pair; the shortcut joins two
		// other random nodes.
		var a, b graph.NodeID
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if dense.Dist(graph.NodeID(x), graph.NodeID(y)) > dense.Dist(a, b) {
					a, b = graph.NodeID(x), graph.NodeID(y)
				}
			}
		}
		u, w := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == w || u == a || u == b || w == a || w == b {
			continue
		}
		dt := dense.Dist(a, u) + dense.Dist(b, w)
		if !(dense.Dist(a, b) > dt) {
			continue // the pair is maintained without the shortcut
		}
		usable++
		ps := pairs.MustNewSet(n, []pairs.Pair{pairs.New(a, b)})
		thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}
		dInst, err := NewInstance(g, ps, thr, 1, &Options{AllowTrivial: true, Table: dense})
		if err != nil {
			t.Fatal(err)
		}
		bInst, err := NewInstance(g, ps, thr, 1, &Options{AllowTrivial: true, Table: boundedSource(t, g, dt)})
		if err != nil {
			t.Fatal(err)
		}
		sel := []int{dInst.CandidateIndex(graph.Edge{U: u, V: w})}
		ds, bs := dInst.Sigma(sel), bInst.Sigma(sel)
		if ds != 1 {
			t.Fatalf("seed %d: dense σ = %d through a path of length exactly d_t, want 1", seed, ds)
		}
		if bs != ds {
			t.Errorf("seed %d: σ({(%d,%d)}) for pair (%d,%d) at d_t = %v: dense %d, bounded %d",
				seed, u, w, a, b, dt, ds, bs)
		}
	}
	if usable < 20 {
		t.Fatalf("only %d usable seeds; the probe needs more ties to mean anything", usable)
	}
	t.Logf("%d usable seeds", usable)
}
