package cli

import (
	"errors"
	"flag"
	"fmt"
	"math"

	"msc/internal/core"
)

// SolverFlags carries the solver-option flags mscplace and mscbench share,
// as registered by AddSolverFlags. Options turns them into the one
// core.Options value a command hands to every instance it builds; Par is
// also the worker count it hands to every solver call.
type SolverFlags struct {
	Par       int
	EvalMode  string
	Survive   string
	CostModel string
	Budget    float64
	// CostTable is the path of mscplace's -cost-table flag, which the
	// command registers itself; a table prices shortcuts, so Options
	// treats it as a cost-model choice. Empty where no table is given.
	CostTable string
}

// AddSolverFlags registers -par, -eval, -survive, -cost-model and
// -budget on fs and returns the SolverFlags receiving their values after
// fs.Parse.
func AddSolverFlags(fs *flag.FlagSet) *SolverFlags {
	f := &SolverFlags{}
	fs.IntVar(&f.Par, "par", 0,
		"candidate-scan workers: 1 = serial, 0 = GOMAXPROCS (results are identical either way)")
	fs.StringVar(&f.EvalMode, "eval", "auto",
		"search evaluation mode: auto|incremental|rebuild (incremental = O(n) row merges and delta gains rescans on Add; rebuild = full recompute reference path; placements are identical either way)")
	fs.StringVar(&f.Survive, "survive", "auto",
		"survivability mode: auto|none|shortcut|node (shortcut/node optimize the worst-case σ⁻ over all single shortcut or node failures, breaking ties by fault-free σ)")
	fs.StringVar(&f.CostModel, "cost-model", "auto",
		"shortcut cost model for -budget runs: auto|unit|length|table (unit prices every shortcut at 1; length prices by bridged distance; table reads per-pair prices from -cost-table)")
	fs.Float64Var(&f.Budget, "budget", 0,
		"knapsack budget B replacing the cardinality budget k; shortcut prices come from -cost-model (0 = cardinality placement)")
	return f
}

// Options validates the flag values and returns the instance options they
// select. A budget must be finite and non-negative, and a cost model or
// cost table needs a positive budget.
func (f *SolverFlags) Options() (core.Options, error) {
	var o core.Options
	var err error
	if o.EvalMode, err = core.ParseEvalMode(f.EvalMode); err != nil {
		return core.Options{}, err
	}
	if o.Survive, err = core.ParseSurvivability(f.Survive); err != nil {
		return core.Options{}, err
	}
	if o.CostModel, err = core.ParseCostModel(f.CostModel); err != nil {
		return core.Options{}, err
	}
	if f.CostTable != "" {
		if o.CostModel != core.CostModelAuto && o.CostModel != core.CostTable {
			return core.Options{}, fmt.Errorf("-cost-table conflicts with -cost-model %s", o.CostModel)
		}
		o.CostModel = core.CostTable
	}
	if math.IsNaN(f.Budget) || math.IsInf(f.Budget, 0) || f.Budget < 0 {
		return core.Options{}, fmt.Errorf("-budget must be finite and non-negative, got %v", f.Budget)
	}
	if f.Budget == 0 && o.CostModel != core.CostModelAuto {
		// B = 0 admits only the empty placement, which nobody asking for
		// shortcut prices means.
		return core.Options{}, errors.New("-cost-model and -cost-table price shortcuts against a knapsack budget: set a positive -budget (-budget 0 is cardinality placement)")
	}
	o.Budget = f.Budget
	o.Parallelism = f.Par
	return o, nil
}
