package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// This file is the backend-differential suite: for every placement
// algorithm, an instance built on the dense table and one built on the
// bounded sparse table must produce byte-identical placements, identical
// σ/μ/ν values, and identical work counters (modulo the Dijkstra/row-cache
// counters the backends are allowed to differ in —
// CounterSnapshot.BackendInvariant). The graphs carry arbitrary float64
// edge lengths: the two backends compute the same float64 metric, and the
// bounded one only truncates it beyond d_t, which the objective never
// observes. Run under -race it also certifies the bounded row cache
// against the solvers' concurrent row access.

// boundedPair builds a dense-backed and a bounded-backed instance over the
// same graph, pair set, threshold, and budget. The bounded table's reach
// is reachFactor·d_t: 1 is the table NewInstance builds itself, a larger
// factor a table shared across instances of smaller thresholds.
func boundedPair(t *testing.T, n, m, k int, dt float64, rng *xrand.Rand, reachFactor float64) (dense, bounded *Instance) {
	t.Helper()
	g := randomConnectedGraph(t, n, 2*n, rng)
	sampler := shortestpath.NewTable(g, 0)
	ps, err := pairs.SampleViolating(sampler, dt, m, rng)
	if err != nil {
		t.Skipf("could not sample %d violating pairs: %v", m, err)
	}
	thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}
	dense, err = NewInstance(g, ps, thr, k, &Options{AllowTrivial: true, Table: sampler})
	if err != nil {
		t.Fatalf("NewInstance(dense): %v", err)
	}
	bounded, err = NewInstance(g, ps, thr, k, &Options{AllowTrivial: true, Table: boundedSource(t, g, reachFactor*dt)})
	if err != nil {
		t.Fatalf("NewInstance(bounded): %v", err)
	}
	return dense, bounded
}

// boundedSource builds a bounded table at the given reach.
func boundedSource(t *testing.T, g *graph.Graph, reach float64) *shortestpath.BoundedTable {
	t.Helper()
	bt, err := shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{Reach: reach})
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// runCounted runs fn and returns the global-counter delta it caused, with
// the backend-variant counters zeroed for cross-backend comparison.
func runCounted(fn func()) telemetry.CounterSnapshot {
	before := telemetry.Global().Snapshot()
	fn()
	return telemetry.Global().Snapshot().Sub(before).BackendInvariant()
}

// TestBackendDifferentialSolvers runs the differential on bounded tables
// at reach d_t, the table NewInstance builds at and above
// DefaultLazyThreshold nodes.
func TestBackendDifferentialSolvers(t *testing.T) { differentialSolvers(t, 9100, 1) }

// TestBackendDifferentialBoundedSolvers runs it on bounded tables whose
// reach exceeds d_t, as when one table is shared across thresholds.
func TestBackendDifferentialBoundedSolvers(t *testing.T) { differentialSolvers(t, 9700, 1.5) }

// differentialSolvers runs every solver on dense and bounded instances
// across 24 seeds, serial and parallel, and requires identical placements
// and identical backend-invariant counters. For the bounded backend it
// additionally requires the CandidatesPruned total of each solver run to
// be identical at every worker count (the counter is accumulated serially
// while the near-candidate lists are built).
func differentialSolvers(t *testing.T, seedBase int64, reachFactor float64) {
	const seeds = 24
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := xrand.New(seedBase + seed)
			n := 13 + int(seed%5)
			dense, bounded := boundedPair(t, n, 6, 3, 0.8, rng, reachFactor)

			// prunedBy[solver][workers] collects the bounded backend's
			// CandidatesPruned delta per worker count.
			prunedBy := map[string]map[int]int64{}
			notePruned := func(solver string, workers int, v int64) {
				if prunedBy[solver] == nil {
					prunedBy[solver] = map[int]int64{}
				}
				prunedBy[solver][workers] = v
			}

			for _, workers := range []int{1, 8} {
				workers := workers
				t.Run(fmt.Sprintf("par%d", workers), func(t *testing.T) {
					t.Run("greedy_sigma", func(t *testing.T) {
						var dpl, bpl Placement
						dc := runCounted(func() { dpl = GreedySigma(dense, Parallelism(workers)) })
						before := telemetry.Global().Snapshot()
						bc := runCounted(func() { bpl = GreedySigma(bounded, Parallelism(workers)) })
						notePruned("greedy_sigma", workers, telemetry.Global().Snapshot().Sub(before).CandidatesPruned)
						comparePlacements(t, "GreedySigma", dpl, bpl)
						if dc != bc {
							t.Errorf("GreedySigma counters differ beyond backend-variant set:\ndense   %+v\nbounded %+v", dc, bc)
						}
					})

					t.Run("sandwich", func(t *testing.T) {
						var dres, bres SandwichResult
						dc := runCounted(func() { dres = Sandwich(dense, Parallelism(workers)) })
						bc := runCounted(func() { bres = Sandwich(bounded, Parallelism(workers)) })
						comparePlacements(t, "Sandwich.Best", dres.Best, bres.Best)
						comparePlacements(t, "Sandwich.FMu", dres.FMu, bres.FMu)
						comparePlacements(t, "Sandwich.FSigma", dres.FSigma, bres.FSigma)
						comparePlacements(t, "Sandwich.FNu", dres.FNu, bres.FNu)
						if dres.Ratio != bres.Ratio || dres.ApproxFactor != bres.ApproxFactor {
							t.Errorf("sandwich guarantee differs: dense (%v, %v), bounded (%v, %v)",
								dres.Ratio, dres.ApproxFactor, bres.Ratio, bres.ApproxFactor)
						}
						if dc != bc {
							t.Errorf("Sandwich counters differ beyond backend-variant set:\ndense   %+v\nbounded %+v", dc, bc)
						}
					})

					t.Run("ea", func(t *testing.T) {
						dres := EA(dense, EAOptions{Iterations: 30, Parallelism: workers}, xrand.New(seed))
						bres := EA(bounded, EAOptions{Iterations: 30, Parallelism: workers}, xrand.New(seed))
						comparePlacements(t, "EA.Best", dres.Best, bres.Best)
						if dres.Evaluations != bres.Evaluations {
							t.Errorf("EA evaluations differ: dense %d, bounded %d", dres.Evaluations, bres.Evaluations)
						}
					})

					t.Run("aea", func(t *testing.T) {
						opts := AEAOptions{Iterations: 30, PopSize: 5, Delta: 0.05, RecordTrace: true, Parallelism: workers}
						dres := AEA(dense, opts, xrand.New(seed))
						bres := AEA(bounded, opts, xrand.New(seed))
						comparePlacements(t, "AEA.Best", dres.Best, bres.Best)
						if !reflect.DeepEqual(dres.Trace, bres.Trace) {
							t.Errorf("AEA trace differs between backends")
						}
					})

					t.Run("random_placement", func(t *testing.T) {
						dpl, derr := RandomPlacement(dense, 25, xrand.New(seed), Parallelism(workers))
						bpl, berr := RandomPlacement(bounded, 25, xrand.New(seed), Parallelism(workers))
						if derr != nil || berr != nil {
							t.Fatalf("RandomPlacement: dense err %v, bounded err %v", derr, berr)
						}
						comparePlacements(t, "RandomPlacement", dpl, bpl)
					})

					t.Run("local_search", func(t *testing.T) {
						start := xrand.New(seed).SampleDistinct(dense.NumCandidates(), dense.K())
						dpl := LocalSearch(dense, start, LocalSearchOptions{Parallelism: workers})
						bpl := LocalSearch(bounded, start, LocalSearchOptions{Parallelism: workers})
						comparePlacements(t, "LocalSearch", dpl, bpl)
					})
				})
			}

			for solver, byWorkers := range prunedBy {
				if byWorkers[1] != byWorkers[8] {
					t.Errorf("%s: CandidatesPruned depends on worker count: par1 %d, par8 %d",
						solver, byWorkers[1], byWorkers[8])
				}
			}

			t.Run("sigma_mu_nu", func(t *testing.T) {
				r := xrand.New(seedBase + 100 + seed)
				for rep := 0; rep < 10; rep++ {
					sel := r.SampleDistinct(dense.NumCandidates(), 1+r.Intn(3))
					if ds, bs := dense.Sigma(sel), bounded.Sigma(sel); ds != bs {
						t.Fatalf("σ(%v): dense %d, bounded %d", sel, ds, bs)
					}
					if dm, bm := dense.Mu(sel), bounded.Mu(sel); dm != bm {
						t.Fatalf("μ(%v): dense %v, bounded %v", sel, dm, bm)
					}
					if dn, bn := dense.Nu(sel), bounded.Nu(sel); dn != bn {
						t.Fatalf("ν(%v): dense %v, bounded %v", sel, dn, bn)
					}
					for _, w := range []int{2, 8} {
						if ds, bs := dense.SigmaPar(sel, w), bounded.SigmaPar(sel, w); ds != bs {
							t.Fatalf("σ_par(%v, %d): dense %d, bounded %d", sel, w, ds, bs)
						}
					}
				}
			})
		})
	}
}

// TestBackendDifferentialCommonNode runs the MSC-CN reduction on dense
// and bounded (reach d_t) backends over common-node instances.
func TestBackendDifferentialCommonNode(t *testing.T) { differentialCommonNode(t, 9300, 1) }

// TestBackendDifferentialBoundedCommonNode repeats it with a bounded reach
// beyond d_t.
func TestBackendDifferentialBoundedCommonNode(t *testing.T) { differentialCommonNode(t, 9900, 1.5) }

func differentialCommonNode(t *testing.T, seedBase int64, reachFactor float64) {
	for seed := int64(0); seed < 8; seed++ {
		rng := xrand.New(seedBase + seed)
		n := 14 + int(seed%4)
		g := randomConnectedGraph(t, n, 2*n, rng)
		sampler := shortestpath.NewTable(g, 0)
		u := graph.NodeID(rng.Intn(n))
		ps, err := pairs.SampleViolatingWithCommonNode(sampler, 0.8, 5, u, rng)
		if err != nil {
			continue // this graph has too few violating pairs through u
		}
		thr := failprob.Threshold{P: 1 - math.Exp(-0.8), D: 0.8}
		dense, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: sampler})
		if err != nil {
			t.Fatalf("seed %d: NewInstance(dense): %v", seed, err)
		}
		bounded, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: boundedSource(t, g, reachFactor*thr.D)})
		if err != nil {
			t.Fatalf("seed %d: NewInstance(bounded): %v", seed, err)
		}
		dres, derr := SolveCommonNode(dense)
		bres, berr := SolveCommonNode(bounded)
		if derr != nil || berr != nil {
			t.Fatalf("seed %d: SolveCommonNode: dense err %v, bounded err %v", seed, derr, berr)
		}
		comparePlacements(t, "SolveCommonNode", dres.Placement, bres.Placement)
		if dres.Common != bres.Common || dres.Coverage != bres.Coverage {
			t.Errorf("seed %d: common/coverage differ: dense (%d, %d), bounded (%d, %d)",
				seed, dres.Common, dres.Coverage, bres.Common, bres.Coverage)
		}
	}
}

// TestBoundedQuickProperty is the testing/quick property of the shared
// metric: for random graphs and random thresholds, an instance on the
// bounded backend reports the same σ values and the same per-candidate
// gains arrays as one on the dense table.
func TestBoundedQuickProperty(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw uint8, dtRaw uint16) bool {
		rng := xrand.New(int64(7000) + seed)
		n := 8 + int(nRaw%10)
		m := 3 + int(mRaw%4)
		dt := 0.3 + float64(dtRaw%1024)/1024 // [0.3, 1.3): spans ball sizes from tiny to most-of-graph
		g := randomConnectedGraph(t, n, 2*n, rng)
		sampler := shortestpath.NewTable(g, 0)
		ps, err := pairs.SampleViolating(sampler, dt, m, rng)
		if err != nil {
			return true // too few violating pairs at this threshold — vacuous
		}
		thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}
		dense, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: sampler})
		if err != nil {
			t.Fatalf("NewInstance(dense): %v", err)
		}
		bounded, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: boundedSource(t, g, dt)})
		if err != nil {
			t.Fatalf("NewInstance(bounded): %v", err)
		}
		ds, bs := dense.NewSearch(nil), bounded.NewSearch(nil)
		for round := 0; ; round++ {
			dg := append([]int(nil), ds.GainsAdd()...)
			bg := bs.GainsAdd()
			if !reflect.DeepEqual(dg, bg) {
				t.Logf("gains diverge (n=%d m=%d dt=%v round=%d)", n, m, dt, round)
				return false
			}
			if ds.Sigma() != bs.Sigma() {
				t.Logf("σ diverges: dense %d, bounded %d", ds.Sigma(), bs.Sigma())
				return false
			}
			cand, gain := ds.BestAdd()
			bcand, bgain := bs.BestAdd()
			if cand != bcand || gain != bgain {
				t.Logf("BestAdd diverges: dense (%d,%d), bounded (%d,%d)", cand, gain, bcand, bgain)
				return false
			}
			if round == 2 || gain <= 0 {
				return true
			}
			ds.Add(cand)
			bs.Add(cand)
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseBestAddMatchesDense lowers sparseGainsThreshold so small
// instances take the sparse BestAdd aggregation, and differential-checks
// full GreedySigma runs (and the counter invariant) against the dense
// argmax path on the same bounded instance.
func TestSparseBestAddMatchesDense(t *testing.T) {
	old := sparseGainsThreshold
	defer func() { sparseGainsThreshold = old }()

	for seed := int64(0); seed < 10; seed++ {
		rng := xrand.New(8800 + seed)
		sparseGainsThreshold = 1 << 26 // dense argmax path first
		dense, bounded := boundedPair(t, 14+int(seed%4), 6, 3, 0.8, rng, 1)
		densePl := GreedySigma(dense, Parallelism(1))
		refPl := GreedySigma(bounded, Parallelism(1))

		sparseGainsThreshold = 1 // every search flips to bestAddSparse
		for _, workers := range []int{1, 8} {
			var pl Placement
			before := telemetry.Global().Snapshot()
			pl = GreedySigma(bounded, Parallelism(workers))
			delta := telemetry.Global().Snapshot().Sub(before)
			comparePlacements(t, "GreedySigma sparse-vs-dense-argmax", refPl, pl)
			comparePlacements(t, "GreedySigma sparse-vs-dense-backend", densePl, pl)
			if delta.CandidateEvals == 0 || delta.PairsRescanned == 0 {
				t.Errorf("seed %d: sparse BestAdd did not account its scan work: %+v", seed, delta)
			}
		}
	}
}

// TestBoundedRejectsNaNThreshold: a NaN or negative d_t is a typed input
// error at instance construction on every backend — as a bounded reach a
// NaN would otherwise silently degenerate into full-graph exploration.
func TestBoundedRejectsNaNThreshold(t *testing.T) {
	rng := xrand.New(41)
	g := randomConnectedGraph(t, 12, 24, rng)
	ps := pairs.MustNewSet(12, []pairs.Pair{{U: 0, W: 11}, {U: 1, W: 10}, {U: 2, W: 9}})
	for _, dt := range []float64{math.NaN(), -1} {
		thr := failprob.Threshold{P: 0.5, D: dt}
		_, err := NewInstance(g, ps, thr, 1, &Options{AllowTrivial: true})
		var ie *InputError
		if !errors.As(err, &ie) {
			t.Fatalf("threshold d_t = %v: got %v, want *InputError", dt, err)
		}
	}
}

// TestBoundedRejectsLengthCostModel: length prices need full-range
// distances, which the bounded metric deliberately truncates.
func TestBoundedRejectsLengthCostModel(t *testing.T) {
	rng := xrand.New(42)
	g := randomConnectedGraph(t, 12, 24, rng)
	ps := pairs.MustNewSet(12, []pairs.Pair{{U: 0, W: 11}, {U: 1, W: 10}, {U: 2, W: 9}})
	thr := failprob.Threshold{P: 1 - math.Exp(-0.8), D: 0.8}
	_, err := NewInstance(g, ps, thr, 1, &Options{
		AllowTrivial: true, Table: boundedSource(t, g, thr.D),
		Budget: 2, CostModel: CostLength,
	})
	var ie *InputError
	if !errors.As(err, &ie) {
		t.Fatalf("length cost on bounded backend: got %v, want *InputError", err)
	}
	// The same configuration on the dense backend stays valid.
	if _, err := NewInstance(g, ps, thr, 1, &Options{
		AllowTrivial: true,
		Budget:       2, CostModel: CostLength,
	}); err != nil {
		t.Fatalf("length cost on dense backend: %v", err)
	}
}
