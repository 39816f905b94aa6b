package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"msc/internal/core"
)

// parseSolverFlags registers the solver flags on a fresh flag set, parses
// args, and builds the options.
func parseSolverFlags(t *testing.T, args ...string) (*SolverFlags, core.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddSolverFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	o, err := f.Options()
	return f, o, err
}

func TestSolverFlagsDefaultsAreZeroOptions(t *testing.T) {
	_, o, err := parseSolverFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if o.Survive != core.SurviveAuto ||
		o.CostModel != core.CostModelAuto || o.Budget != 0 || o.Parallelism != 0 {
		t.Fatalf("default flags built %+v, want zero-valued solver options", o)
	}
}

func TestSolverFlagsBuildOptions(t *testing.T) {
	_, o, err := parseSolverFlags(t, "-par", "3",
		"-survive", "node", "-cost-model", "length", "-budget", "2.5")
	if err != nil {
		t.Fatal(err)
	}
	want := core.Options{Parallelism: 3,
		Survive: core.SurviveNode, CostModel: core.CostLength, Budget: 2.5}
	if o.Parallelism != want.Parallelism ||
		o.Survive != want.Survive || o.CostModel != want.CostModel || o.Budget != want.Budget {
		t.Fatalf("built %+v, want %+v", o, want)
	}
}

func TestSolverFlagsCostTable(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddSolverFlags(fs)
	if err := fs.Parse([]string{"-budget", "4"}); err != nil {
		t.Fatal(err)
	}
	f.CostTable = "prices.json"
	o, err := f.Options()
	if err != nil || o.CostModel != core.CostTable {
		t.Fatalf("-cost-table: model %q, err %v; want table", o.CostModel, err)
	}
	f.CostModel = "unit"
	if _, err := f.Options(); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("-cost-table with -cost-model unit: err %v, want a conflict", err)
	}
}

func TestSolverFlagsRejections(t *testing.T) {
	for _, args := range [][]string{
		{"-survive", "edge"},
		{"-cost-model", "free"},
		{"-budget", "-1"},
		{"-budget", "NaN"},
		{"-budget", "+Inf"},
		// A price needs a budget to charge it against.
		{"-cost-model", "unit"},
		{"-cost-model", "length", "-budget", "0"},
	} {
		if _, _, err := parseSolverFlags(t, args...); err == nil {
			t.Errorf("%v: accepted, want an error", args)
		}
	}
	// Searches have one evaluation path: the retired -eval flag is unknown.
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	AddSolverFlags(fs)
	if err := fs.Parse([]string{"-eval", "rebuild"}); err == nil || !strings.Contains(err.Error(), "-eval") {
		t.Errorf("-eval rebuild: parse error %v, want an unknown-flag error", err)
	}
	// auto is the unset cost model, so it needs no budget.
	if _, _, err := parseSolverFlags(t, "-cost-model", "auto"); err != nil {
		t.Errorf("-cost-model auto: %v", err)
	}
}
