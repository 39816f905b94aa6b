package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"msc/internal/core"
	"msc/internal/obs"
	"msc/internal/shortestpath"
)

var perLayer = []metricDef{
	{"gen.rgg_s", "s"},
	{"gen.social_s", "s"},
	{"pairs.sample_s", "s"},
	{"graphio.stream_write_s", "s"},
	{"graphio.in_mb", "MB"},
	{"graphio.read_s", "s"},
	{"graphio.validate_s", "s"},
	{"graph.build_s", "s"},
	{"core.instance_s", "s"},
	{"shortestpath.landmarks_s", "s"},
	{"shortestpath.row_bytes_resident", "bytes"},
	{"shortestpath.dijkstra_runs", "count"},
	{"shortestpath.edge_relaxations", "count"},
	{"shortestpath.row_cache_hit_ratio", "ratio"},
	{"core.solve_s", "s"},
	{"core.bounds_s", "s"},
	{"core.arm_mu_s", "s"},
	{"core.arm_sigma_s", "s"},
	{"core.arm_nu_s", "s"},
	{"core.scan_s", "s"},
	{"core.commit_s", "s"},
	{"core.candidate_evals", "count"},
	{"core.candidates_pruned", "count"},
	{"core.overlay_builds", "count"},
	{"core.rows_merged", "count"},
	{"core.pairs_rescanned", "count"},
	{"core.pairs_skip_ratio", "ratio"},
	{"core.sigma_evals", "count"},
	{"core.solve_par1_s", "s"},
	{"core.par_efficiency", "ratio"},
	{"graphio.write_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"trace.place_s", "s"},
	{"trace.overhead_s", "s"},
}

// Trace ids of the traced run.
const (
	traceGen   = "gen"
	tracePlace = "place.1" // the replay the per-layer metrics come from
	traceAgain = "place.2" // its repeat, for the counter-determinism check
	traceProbe = "probe"   // standalone measurements outside the replay
)

// traceLayers is the traced half of a --trace 1 run. It replays
// generation and placement of instance 0 in process with a span around
// each layer call, checks that the replay writes exactly the files the
// binaries wrote (binOut is mscplace's placement of instance 0), repeats
// the placement to check that its counters repeat exactly, and adds the
// standalone probes: one validation pass, the landmark build, the solve
// at parallelism 1, and a Search-driven greedy loop. It fills metrics
// with every per-layer metric and returns the placements it attempted
// and how many failed their checks.
func (b *bench) traceLayers(ctx context.Context, binOut []byte, placeMedian float64, metrics map[string]metric) (attempted, failed int, err error) {
	tr := newTracer()
	in := b.instancePath(0)

	tr.trace = traceGen
	genOut := filepath.Join(b.dir, "traced-instance.json")
	if err := generate(tr, b.wl.gen, b.seed, genOut); err != nil {
		return 0, 0, err
	}
	if !sameFile(genOut, in) {
		b.problem("in-process generation of seed %d differs from mscgen's instance", b.seed)
	}
	if err := os.Remove(genOut); err != nil {
		return 0, 0, err
	}

	out := filepath.Join(b.dir, "traced-placement.json")
	var p *placed
	for _, trace := range []string{tracePlace, traceAgain} {
		tr.trace = trace
		q, err := place(ctx, tr, b.wl, in, out)
		if err != nil {
			return 0, 0, err
		}
		attempted++
		if got, err := os.ReadFile(out); err != nil {
			return 0, 0, err
		} else if !bytes.Equal(got, binOut) {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: check failed: traced placement (%s) differs from mscplace's\n", trace)
		}
		if p == nil {
			p = q
		}
	}
	b.checkCounters(tr)
	if obs.Enabled() {
		b.problem("the traced replay turned on obs")
	}
	if b.wl.alg != "sandwich" {
		if c := tr.only(tracePlace, "core.solve").Counters; c.MuEvals != 0 || c.NuEvals != 0 {
			b.problem("%s solve evaluated the bounds (%d μ, %d ν evaluations)", b.wl.alg, c.MuEvals, c.NuEvals)
		}
	}

	tr.trace = traceProbe
	end := tr.begin("graphio.validate")
	err = p.doc.Validate()
	end()
	if err != nil {
		return 0, 0, err
	}
	if _, bounded := p.inst.Table().(*shortestpath.BoundedTable); bounded {
		end = tr.begin("shortestpath.landmarks")
		shortestpath.NewLandmarks(p.g, core.DefaultLandmarks)
		end()
	}
	if err := b.probeSolvePar1(ctx, tr, p); err != nil {
		return 0, 0, err
	}
	if p.sigmaArm != nil {
		if err := b.probeSearchLoop(tr, p); err != nil {
			return 0, 0, err
		}
	}

	tr.finish()
	if err := os.MkdirAll(b.spans, 0o755); err != nil {
		return 0, 0, err
	}
	spansPath := filepath.Join(b.spans, fmt.Sprintf("%s-seed%d.jsonl", b.wl.name, b.seed))
	if err := tr.write(spansPath); err != nil {
		return 0, 0, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", spansPath)

	inMB := 0.0
	if fi, err := os.Stat(in); err == nil {
		inMB = float64(fi.Size()) / 1e6
	}
	whole := tr.only(tracePlace, "place")
	solveSpan := tr.only(tracePlace, "core.solve")
	c, sc := whole.Counters, solveSpan.Counters
	par1 := tr.seconds(traceProbe, "core.solve_par1")
	values := map[string]float64{
		"gen.rgg_s":                        tr.seconds(traceGen, "gen.rgg"),
		"gen.social_s":                     tr.seconds(traceGen, "gen.social"),
		"pairs.sample_s":                   tr.seconds(traceGen, "pairs.sample"),
		"graphio.stream_write_s":           tr.seconds(traceGen, "graphio.stream_write"),
		"graphio.in_mb":                    inMB,
		"graphio.read_s":                   tr.seconds(tracePlace, "graphio.read"),
		"graphio.validate_s":               tr.seconds(traceProbe, "graphio.validate"),
		"graph.build_s":                    tr.seconds(tracePlace, "graph.build"),
		"core.instance_s":                  tr.seconds(tracePlace, "core.instance"),
		"shortestpath.landmarks_s":         tr.seconds(traceProbe, "shortestpath.landmarks"),
		"shortestpath.row_bytes_resident":  float64(p.rowBytes),
		"shortestpath.dijkstra_runs":       float64(c.DijkstraRuns),
		"shortestpath.edge_relaxations":    float64(c.EdgeRelaxations),
		"shortestpath.row_cache_hit_ratio": ratio(c.RowCacheHits, c.RowCacheHits+c.RowCacheMisses),
		"core.solve_s":                     solveSpan.seconds(),
		"core.bounds_s":                    tr.seconds(tracePlace, "core.bounds"),
		"core.arm_mu_s":                    tr.seconds(tracePlace, "core.arm_mu"),
		"core.arm_sigma_s":                 tr.seconds(tracePlace, "core.arm_sigma"),
		"core.arm_nu_s":                    tr.seconds(tracePlace, "core.arm_nu"),
		"core.scan_s":                      tr.seconds(traceProbe, "core.scan"),
		"core.commit_s":                    tr.seconds(traceProbe, "core.commit"),
		"core.candidate_evals":             float64(sc.CandidateEvals),
		"core.candidates_pruned":           float64(sc.CandidatesPruned),
		"core.overlay_builds":              float64(sc.OverlayBuilds),
		"core.rows_merged":                 float64(sc.RowsMerged),
		"core.pairs_rescanned":             float64(sc.PairsRescanned),
		"core.pairs_skip_ratio":            ratio(sc.PairsSkipped, sc.PairsRescanned+sc.PairsSkipped),
		"core.sigma_evals":                 float64(sc.SigmaEvals),
		"core.solve_par1_s":                par1,
		"core.par_efficiency":              par1 / (float64(runtime.GOMAXPROCS(0)) * solveSpan.seconds()),
		"graphio.write_s":                  tr.seconds(tracePlace, "graphio.write"),
		"runtime.alloc_mb":                 float64(whole.AllocBytes) / 1e6,
		"trace.place_s":                    whole.seconds(),
		"trace.overhead_s":                 whole.seconds() - placeMedian,
	}
	for _, d := range perLayer {
		metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return attempted, failed, nil
}

// checkCounters requires the two traced placements to have entered the
// same layers in the same order with bit-identical counter deltas.
func (b *bench) checkCounters(tr *tracer) {
	var first, again []span
	for _, s := range tr.spans {
		switch s.Trace {
		case tracePlace:
			first = append(first, s)
		case traceAgain:
			again = append(again, s)
		}
	}
	if len(first) != len(again) {
		b.problem("traced placements opened %d and %d spans", len(first), len(again))
		return
	}
	for i := range first {
		if first[i].Name != again[i].Name || first[i].Counters != again[i].Counters {
			b.problem("counters of %s differ between two traced placements: %+v vs %+v",
				first[i].Name, first[i].Counters, again[i].Counters)
		}
	}
}

// probeSolvePar1 repeats the solve at parallelism 1 on a fresh instance;
// it must return the same placement.
func (b *bench) probeSolvePar1(ctx context.Context, tr *tracer, p *placed) error {
	inst, err := newInstance(p)
	if err != nil {
		return err
	}
	end := tr.begin("core.solve_par1")
	pl, _, _ := solve(ctx, tr, b.wl, inst, 1)
	end()
	if pl.Sigma != p.pl.Sigma || !slices.Equal(pl.Selection, p.pl.Selection) {
		b.problem("solve at parallelism 1 placed %v (σ=%d), default parallelism %v (σ=%d)",
			pl.Selection, pl.Sigma, p.pl.Selection, p.pl.Sigma)
	}
	return nil
}

// probeSearchLoop drives GreedySigma's loop by hand on a fresh instance,
// timing each Search.BestAdd (span core.scan) and Search.Add (span
// core.commit). It must select exactly what GreedySigma selected.
func (b *bench) probeSearchLoop(tr *tracer, p *placed) error {
	inst, err := newInstance(p)
	if err != nil {
		return err
	}
	s := inst.NewSearch(nil)
	if ps, ok := s.(core.ParallelSearch); ok {
		ps.SetWorkers(0)
	}
	for s.Len() < inst.K() {
		end := tr.begin("core.scan")
		cand, gain := s.BestAdd()
		end()
		if cand < 0 || gain <= 0 {
			break
		}
		end = tr.begin("core.commit")
		s.Add(cand)
		end()
	}
	if sel := s.Selection(); !slices.Equal(sel, p.sigmaArm) {
		b.problem("Search-driven greedy selected %v, GreedySigma %v", sel, p.sigmaArm)
	}
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
