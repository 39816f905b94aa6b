package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"msc/internal/core"
	"msc/internal/failprob"
	"msc/internal/gen/rgg"
	"msc/internal/gen/social"
	"msc/internal/graph"
	"msc/internal/graphio"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// The functions in this file replay cmd/mscgen and cmd/mscplace in
// process, call for call, with a span around each call into a layer. The
// traced run checks that they write byte-for-byte the files the binaries
// write, so a change to either command that the replay misses fails the
// benchmark instead of silently timing a different program.

// generate writes the instance mscgen writes for spec and seed.
func generate(tr *tracer, spec genSpec, seed int64, path string) error {
	rng := xrand.New(seed)
	var g *graph.Graph
	switch spec.kind {
	case "rgg":
		end := tr.begin("gen.rgg")
		var err error
		g, err = rgg.Generate(rgg.Config{
			N:                spec.n,
			Radius:           1.6 * math.Sqrt(math.Log(float64(spec.n))/(math.Pi*float64(spec.n))),
			FailureAtRadius:  0.08,
			RequireConnected: true,
		}, rng)
		end()
		if err != nil {
			return err
		}
	case "social":
		end := tr.begin("gen.social")
		net, err := social.Generate(social.DefaultConfig(), rng)
		end()
		if err != nil {
			return err
		}
		g = net.Graph
	default:
		return fmt.Errorf("unknown instance kind %q", spec.kind)
	}

	end := tr.begin("pairs.sample")
	ps, err := samplePairs(g, failprob.NewThreshold(spec.pt), spec.m, rng)
	end()
	if err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	end = tr.begin("graphio.stream_write")
	err = graphio.WriteJSONStream(f, g, ps, spec.pt, spec.k)
	end()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// samplePairs picks the sampler and distance source by node count, as
// mscgen does.
func samplePairs(g *graph.Graph, thr failprob.Threshold, m int, rng *xrand.Rand) (*pairs.Set, error) {
	switch n := g.N(); {
	case n < core.DefaultLazyThreshold:
		return pairs.SampleViolating(shortestpath.NewTable(g, 0), thr.D, m, rng)
	case n < core.DefaultBoundedThreshold:
		return pairs.SampleViolatingRandom(shortestpath.NewLazyTable(g, shortestpath.LazyOptions{}), thr.D, m, rng, 0)
	default:
		table, err := shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{Reach: thr.D})
		if err != nil {
			return nil, err
		}
		return pairs.SampleViolatingRandom(table, thr.D, m, rng, 0)
	}
}

// placeOutput is the placement document mscplace writes with -out, for
// the fields its default (cardinality, fault-free) mode emits.
type placeOutput struct {
	Algorithm  string     `json:"algorithm"`
	K          int        `json:"k"`
	Pt         float64    `json:"p_t"`
	Sigma      int        `json:"maintained_pairs"`
	TotalPairs int        `json:"total_pairs"`
	Shortcuts  [][2]int32 `json:"shortcuts"`
	RatioBound float64    `json:"ratio_bound,omitempty"`
}

// placed is what one in-process placement leaves for the probes.
type placed struct {
	doc  graphio.Document
	g    *graph.Graph
	ps   *pairs.Set
	inst *core.Instance
	pl   core.Placement
	// sigmaArm is the selection of the GreedySigma call inside the solve:
	// the whole solve under greedy, the F_σ arm under sandwich, nil under
	// aea.
	sigmaArm []int
	// rowBytes is the growth of the process-wide resident row payload
	// over the placement.
	rowBytes int64
}

// place replays one mscplace run on the instance at in, writing the
// placement document to out. The whole run is the span "place".
func place(ctx context.Context, tr *tracer, wl workload, in, out string) (*placed, error) {
	rows0 := shortestpath.RowBytesResident()
	endPlace := tr.begin("place")
	defer endPlace()
	p := &placed{}

	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	end := tr.begin("graphio.read")
	p.doc, err = graphio.ReadJSON(f)
	end()
	f.Close()
	if err != nil {
		return nil, err
	}

	end = tr.begin("graph.build")
	p.g, err = p.doc.Graph()
	if err == nil {
		p.ps, err = p.doc.PairSet()
	}
	end()
	if err != nil {
		return nil, err
	}
	if p.ps == nil {
		return nil, fmt.Errorf("%s carries no important pairs", in)
	}

	end = tr.begin("core.instance")
	p.inst, err = newInstance(p)
	end()
	if err != nil {
		return nil, err
	}

	end = tr.begin("core.solve")
	var ratio float64
	p.pl, p.sigmaArm, ratio = solve(ctx, tr, wl, p.inst, 0)
	end()

	end = tr.begin("graphio.write")
	err = writePlacement(out, wl.alg, p, ratio)
	end()
	p.rowBytes = shortestpath.RowBytesResident() - rows0
	return p, err
}

// newInstance builds the instance mscplace builds from the decoded
// document: the instance's own k and p_t, every option at its default.
func newInstance(p *placed) (*core.Instance, error) {
	return core.NewInstance(p.g, p.ps, failprob.NewThreshold(p.doc.FailureThreshold), p.doc.Budget,
		&core.Options{AllowTrivial: true})
}

// solve runs the workload's algorithm as mscplace does. workers > 0 pins
// the solver's parallelism (core.Parallelism); 0 leaves the default. The
// sandwich algorithm runs as core.Sandwich composes it, arm by arm, so
// each arm gets its own span; the bound structures are built first, by
// the μ evaluation core.bounds, instead of inside the μ arm.
func solve(ctx context.Context, tr *tracer, wl workload, inst *core.Instance, workers int) (pl core.Placement, sigmaArm []int, ratio float64) {
	opts := []core.Option{core.WithContext(ctx), core.WithDeadline(0)}
	if workers > 0 {
		opts = append(opts, core.Parallelism(workers))
	}
	switch wl.alg {
	case "greedy":
		pl = core.GreedySigma(inst, opts...)
		return pl, pl.Selection, 0
	case "sandwich":
		end := tr.begin("core.bounds")
		inst.Mu(nil)
		end()
		end = tr.begin("core.arm_mu")
		fMu := core.GreedyMu(inst)
		end()
		end = tr.begin("core.arm_sigma")
		fSigma := core.GreedySigma(inst, opts...)
		end()
		end = tr.begin("core.arm_nu")
		fNu := core.GreedyNu(inst)
		end()
		pl = fMu
		if fSigma.Sigma > pl.Sigma {
			pl = fSigma
		}
		if fNu.Sigma > pl.Sigma {
			pl = fNu
		}
		ratio = 1 // ν ≥ σ ≥ 0, so ν = 0 forces σ = 0
		if nu := inst.Nu(fSigma.Selection); nu > 0 {
			ratio = float64(fSigma.Sigma) / nu
		}
		return pl, fSigma.Selection, ratio * (1 - 1/math.E)
	case "aea":
		o := core.DefaultAEAOptions()
		o.Iterations = wl.iters
		o.Context = ctx
		o.Parallelism = workers
		return core.AEA(inst, o, xrand.New(1)).Best, nil, 0
	default:
		panic("unknown algorithm " + wl.alg)
	}
}

// writePlacement encodes the placement document as mscplace -out does.
func writePlacement(path, alg string, p *placed, ratio float64) error {
	res := placeOutput{
		Algorithm:  alg,
		K:          p.doc.Budget,
		Pt:         p.doc.FailureThreshold,
		Sigma:      p.pl.Sigma,
		TotalPairs: p.ps.Len(),
		RatioBound: ratio,
	}
	for _, e := range p.pl.Edges {
		res.Shortcuts = append(res.Shortcuts, [2]int32{e.U, e.V})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
