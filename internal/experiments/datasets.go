package experiments

import (
	"fmt"

	"msc/internal/core"
	"msc/internal/gen/rgg"
	"msc/internal/gen/social"
	"msc/internal/graph"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// Config selects the experiment scale and seed.
type Config struct {
	// Seed drives every random draw; equal seeds reproduce runs exactly.
	Seed int64
	// Quick shrinks instance sizes and iteration counts so the whole
	// suite runs in seconds — used by tests; benchmarks and cmd/mscbench
	// use the paper-scale defaults.
	Quick bool
	// Sink, when non-nil, receives a telemetry RunRecord per solver run an
	// experiment performs (currently the Table I/II grid cells). Results
	// are identical with and without a sink.
	Sink telemetry.Sink
	// Options is the base of every instance an experiment builds (mscbench
	// fills it from its solver flags); each site sets AllowTrivial, its
	// distance table and its own fields on a copy. Its Parallelism is
	// also the worker count of every solver call.
	Options core.Options
}

// instOpts returns a copy of c.Options for an experiment instance over
// table; a nil table lets the instance build its own distance backend.
func (c Config) instOpts(table shortestpath.DistanceSource) *core.Options {
	o := c.Options
	o.AllowTrivial = true
	o.Table = table
	return &o
}

// par is the solver option carrying c.Options.Parallelism.
func (c Config) par() core.Option { return core.Parallelism(c.Options.Parallelism) }

func (c Config) rng(stream int64) *xrand.Rand {
	// Independent deterministic stream per use-site.
	return xrand.New(c.Seed*1_000_003 + stream)
}

// Paper-scale workload parameters (§VII-A), with the substitutions recorded
// in DESIGN.md. The failure coefficients are the calibration knobs that
// make the paper's p_t sweeps non-degenerate on our synthetic substrates.
const (
	rggRadius          = 0.18
	rggFailAtRadius    = 0.08
	socialFailAtRadius = 0.45
	mobilityRadius     = 700.0
	mobilityFailAtR    = 0.25
)

// dataset bundles a graph with its distance table so multiple thresholds
// reuse one APSP computation.
type dataset struct {
	name  string
	g     *graph.Graph
	table *shortestpath.Table
}

func (c Config) rggDataset() dataset {
	n := 100
	radius := rggRadius
	if c.Quick {
		// Smaller graphs need a larger radius to stay connected.
		n, radius = 40, 0.27
	}
	g, err := rgg.Generate(rgg.Config{
		N:                n,
		Radius:           radius,
		FailureAtRadius:  rggFailAtRadius,
		RequireConnected: true,
	}, c.rng(1))
	if err != nil {
		panic(fmt.Sprintf("experiments: rgg dataset: %v", err))
	}
	return dataset{name: "RG", g: g, table: shortestpath.NewTable(g, 0)}
}

func (c Config) socialDataset() dataset {
	cfg := social.DefaultConfig()
	cfg.FailureAtRadius = socialFailAtRadius
	if c.Quick {
		cfg.Users = 50
		cfg.Venues = 5
	}
	net, err := social.Generate(cfg, c.rng(2))
	if err != nil {
		panic(fmt.Sprintf("experiments: social dataset: %v", err))
	}
	return dataset{name: "Gowalla", g: net.Graph, table: shortestpath.NewTable(net.Graph, 0)}
}
