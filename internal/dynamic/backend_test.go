package dynamic

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"msc/internal/core"
	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// backendSeries builds the same T-instance series twice — once on the dense
// backend, once on the bounded backend at reach d_t — from one RNG stream,
// so both series share graphs, pairs, and budgets exactly.
func backendSeries(t *testing.T, n, m, k, T int, dt float64, seed int64) (dense, bounded []*core.Instance) {
	t.Helper()
	rng := xrand.New(seed)
	for i := 0; i < T; i++ {
		b := graph.NewBuilder(n)
		perm := rng.Perm(n)
		for j := 1; j < n; j++ {
			b.AddEdge(graph.NodeID(perm[j]), graph.NodeID(perm[rng.Intn(j)]), 0.1+rng.Float64())
		}
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64())
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var ps []pairs.Pair
		seen := map[pairs.Pair]bool{}
		for len(ps) < m {
			p := pairs.New(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			if p.U == p.W || seen[p] {
				continue
			}
			seen[p] = true
			ps = append(ps, p)
		}
		pset, err := pairs.NewSet(n, ps)
		if err != nil {
			t.Fatal(err)
		}
		thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}
		di, err := core.NewInstance(g, pset, thr, k, &core.Options{AllowTrivial: true})
		if err != nil {
			t.Fatal(err)
		}
		bt, err := shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{Reach: dt})
		if err != nil {
			t.Fatal(err)
		}
		bi, err := core.NewInstance(g, pset, thr, k, &core.Options{AllowTrivial: true, Table: bt})
		if err != nil {
			t.Fatal(err)
		}
		dense = append(dense, di)
		bounded = append(bounded, bi)
	}
	return dense, bounded
}

// TestDynamicBackendDifferential runs the dynamic problem's solvers over
// dense- and bounded-backed instance series: identical placements, per-instance
// σ breakdowns, and sandwich bounds, serial and parallel.
func TestDynamicBackendDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			denseInsts, boundedInsts := backendSeries(t, 12, 5, 3, 3, 0.8, 9600+seed)
			dprob, err := NewProblem(denseInsts)
			if err != nil {
				t.Fatal(err)
			}
			bprob, err := NewProblem(boundedInsts)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 8} {
				dpl := core.GreedySigma(dprob, core.Parallelism(workers))
				bpl := core.GreedySigma(bprob, core.Parallelism(workers))
				if dpl.Sigma != bpl.Sigma || !reflect.DeepEqual(dpl.Selection, bpl.Selection) {
					t.Errorf("par %d: GreedySigma differs: dense (σ=%d, %v), bounded (σ=%d, %v)",
						workers, dpl.Sigma, dpl.Selection, bpl.Sigma, bpl.Selection)
				}
				if !reflect.DeepEqual(dprob.SigmaPerInstance(dpl.Selection), bprob.SigmaPerInstance(bpl.Selection)) {
					t.Errorf("par %d: per-instance σ breakdown differs", workers)
				}

				dres := core.Sandwich(dprob, core.Parallelism(workers))
				bres := core.Sandwich(bprob, core.Parallelism(workers))
				if dres.Best.Sigma != bres.Best.Sigma || !reflect.DeepEqual(dres.Best.Selection, bres.Best.Selection) {
					t.Errorf("par %d: Sandwich.Best differs", workers)
				}
				if dres.Ratio != bres.Ratio {
					t.Errorf("par %d: sandwich ratio differs: dense %v, bounded %v", workers, dres.Ratio, bres.Ratio)
				}
			}

			r := xrand.New(9700 + seed)
			for rep := 0; rep < 6; rep++ {
				sel := r.SampleDistinct(dprob.NumCandidates(), 1+r.Intn(3))
				if ds, bs := dprob.Sigma(sel), bprob.Sigma(sel); ds != bs {
					t.Fatalf("dynamic σ(%v): dense %d, bounded %d", sel, ds, bs)
				}
				if dm, bm := dprob.Mu(sel), bprob.Mu(sel); dm != bm {
					t.Fatalf("dynamic μ(%v): dense %v, bounded %v", sel, dm, bm)
				}
				if dn, bn := dprob.Nu(sel), bprob.Nu(sel); dn != bn {
					t.Fatalf("dynamic ν(%v): dense %v, bounded %v", sel, dn, bn)
				}
			}
		})
	}
}
