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
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// evalSeries builds a T-instance series from one RNG stream.
func evalSeries(t *testing.T, n, m, k, T int, dt float64, seed int64) []*core.Instance {
	t.Helper()
	rng := xrand.New(seed)
	var insts []*core.Instance
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
		inst, err := core.NewInstance(g, pset, thr, k, &core.Options{AllowTrivial: true})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	return insts
}

// freshProblem is the rebuild reference for a dynamic problem: its
// searches replace their whole state with a fresh NewSearch of the new
// selection on every Add or RemoveAt, so no merged row or patched gains
// array ever survives a commit.
type freshProblem struct{ *Problem }

func (p freshProblem) NewSearch(sel []int) core.Search {
	return &freshSearch{Search: p.Problem.NewSearch(sel), p: p.Problem, workers: 1}
}

type freshSearch struct {
	core.Search
	p       *Problem
	workers int
}

func (s *freshSearch) reset(sel []int) {
	s.Search = s.p.NewSearch(sel)
	s.SetWorkers(s.workers)
}

func (s *freshSearch) Add(cand int) { s.reset(append(s.Selection(), cand)) }

func (s *freshSearch) RemoveAt(pos int) {
	sel := s.Selection()
	s.reset(append(sel[:pos], sel[pos+1:]...))
}

func (s *freshSearch) SetWorkers(n int) {
	s.workers = n
	s.Search.(core.ParallelSearch).SetWorkers(n)
}

func (s *freshSearch) SigmaDrops() []int { return s.Search.(core.ParallelSearch).SigmaDrops() }

var _ core.ParallelSearch = (*freshSearch)(nil)

// evalSink collects RoundEvents so the test can check the multi-instance
// EvalStats aggregation reaches the trace layer.
type evalSink struct{ rounds []telemetry.RoundEvent }

func (s *evalSink) Emit(e telemetry.Event) {
	if r, ok := e.(telemetry.RoundEvent); ok {
		s.rounds = append(s.rounds, r)
	}
}

// TestDynamicEvalDifferential runs the dynamic problem's solvers against
// the fresh-search reference (freshProblem): identical placements,
// per-instance σ breakdowns, and sandwich bounds, serial and parallel. A
// greedy walk also checks, after every Add, that the incremental search's
// σ and gains array equal those of a fresh NewSearch at the same
// selection. Finally the per-round eval stats summed over the
// per-instance sub-searches must reach GreedySigma's trace.
func TestDynamicEvalDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			insts := evalSeries(t, 12, 5, 3, 3, 0.8, 9850+seed)
			iprob, err := NewProblem(insts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewProblem(insts)
			if err != nil {
				t.Fatal(err)
			}
			rprob := freshProblem{ref}

			for _, workers := range []int{1, 8} {
				ipl := core.GreedySigma(iprob, core.Parallelism(workers))
				rpl := core.GreedySigma(rprob, core.Parallelism(workers))
				if ipl.Sigma != rpl.Sigma || !reflect.DeepEqual(ipl.Selection, rpl.Selection) {
					t.Errorf("par %d: GreedySigma differs: incremental (σ=%d, %v), fresh (σ=%d, %v)",
						workers, ipl.Sigma, ipl.Selection, rpl.Sigma, rpl.Selection)
				}
				if !reflect.DeepEqual(iprob.SigmaPerInstance(ipl.Selection), ref.SigmaPerInstance(rpl.Selection)) {
					t.Errorf("par %d: per-instance σ breakdown differs", workers)
				}

				ires := core.Sandwich(iprob, core.Parallelism(workers))
				rres := core.Sandwich(rprob, core.Parallelism(workers))
				if ires.Best.Sigma != rres.Best.Sigma || !reflect.DeepEqual(ires.Best.Selection, rres.Best.Selection) {
					t.Errorf("par %d: Sandwich.Best differs", workers)
				}
				if ires.Ratio != rres.Ratio {
					t.Errorf("par %d: sandwich ratio differs: incremental %v, fresh %v", workers, ires.Ratio, rres.Ratio)
				}

				s := iprob.NewSearch(nil)
				s.(core.ParallelSearch).SetWorkers(workers)
				for step := 1; step <= iprob.K(); step++ {
					cand, gain := s.BestAdd()
					if cand < 0 || gain <= 0 {
						break
					}
					s.Add(cand)
					fresh := iprob.NewSearch(s.Selection())
					if s.Sigma() != fresh.Sigma() {
						t.Fatalf("par %d step %d: σ %d, fresh search %d", workers, step, s.Sigma(), fresh.Sigma())
					}
					if got, want := s.GainsAdd(), fresh.GainsAdd(); !reflect.DeepEqual(got, want) {
						t.Fatalf("par %d step %d: patched gains differ from a fresh search\npatched %v\nfresh   %v", workers, step, got, want)
					}
				}
			}

			sink := &evalSink{}
			pl := core.GreedySigma(iprob, core.WithSink(sink))
			if len(pl.Selection) > 0 {
				var merged int64
				for _, ev := range sink.rounds {
					merged += ev.RowsMerged + ev.RowsUnchanged
				}
				if merged == 0 {
					t.Error("dynamic greedy rounds report no merged/unchanged rows despite incremental subs")
				}
			}
		})
	}
}
