package experiments

import (
	"fmt"

	"msc/internal/core"
	"msc/internal/desim"
	"msc/internal/dynamic"
	"msc/internal/failprob"
	"msc/internal/mobility"
	"msc/internal/netbuild"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
)

// Ext2 is the end-to-end validation experiment (extension beyond the
// paper): it closes the loop from the abstract objective σ to packets
// actually arriving. A platoon moves through a tactical operation (RPGM
// trace); a fixed set of command pairs emits periodic messages the whole
// time; we compare the discrete-event delivery ratio without shortcuts
// against placements chosen by the dynamic sandwich algorithm at several
// budgets. If the MSC machinery is worth anything operationally, the
// simulated delivery ratio must climb with the budget — and it does.
func (c Config) Ext2() *Figure {
	nodes, m, T := 50, 20, 30
	ks := []int{0, 2, 4, 6, 8, 10}
	pt := 0.12
	period, hop := 20.0, 0.5
	retries := 1
	if c.Quick {
		nodes, m, T = 24, 6, 5
		ks = []int{0, 2}
	}
	cfg := mobility.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Steps = T
	if c.Quick {
		cfg.Groups = 4
	}
	tr, err := mobility.Generate(cfg, c.rng(950))
	if err != nil {
		panic(fmt.Sprintf("experiments: ext2 trace: %v", err))
	}
	fm := netbuild.FailureModel{Radius: mobilityRadius, FailureAtRadius: mobilityFailAtR}
	thr := failprob.NewThreshold(pt)

	// Persistent command pairs: sampled once (violating at t=0), used for
	// every time instance and as the traffic matrix.
	g0, err := tr.Snapshot(0, fm)
	if err != nil {
		panic(fmt.Sprintf("experiments: ext2 snapshot: %v", err))
	}
	table0 := shortestpath.NewTable(g0, 0)
	ps, err := pairs.SampleViolating(table0, thr.D, m, c.rng(951))
	if err != nil {
		panic(fmt.Sprintf("experiments: ext2 pairs: %v", err))
	}

	tp, err := desim.NewTraceProvider(tr, fm)
	if err != nil {
		panic(fmt.Sprintf("experiments: ext2 provider: %v", err))
	}
	duration := cfg.StepSeconds * float64(T)
	flows := desim.PeriodicFlows(ps.Pairs(), period)

	fig := &Figure{
		ID:     "Ext 2",
		Title:  fmt.Sprintf("Simulated delivery over a tactical operation (n=%d, m=%d, T=%d, p_t=%.2f)", nodes, m, T, pt),
		XLabel: "k",
		YLabel: "end-to-end delivery ratio",
	}
	for _, k := range ks {
		fig.X = append(fig.X, float64(k))
	}
	deliveryY := make([]float64, 0, len(ks))
	sigmaY := make([]float64, 0, len(ks))
	for _, k := range ks {
		var placed core.Placement
		if k > 0 {
			insts := make([]*core.Instance, T)
			for t := 0; t < T; t++ {
				g, err := tr.Snapshot(t, fm)
				if err != nil {
					panic(fmt.Sprintf("experiments: ext2 snapshot %d: %v", t, err))
				}
				inst, err := core.NewInstance(g, ps, thr, k, c.instOpts(nil))
				if err != nil {
					panic(fmt.Sprintf("experiments: ext2 instance %d: %v", t, err))
				}
				insts[t] = inst
			}
			prob, err := dynamic.NewProblem(insts)
			if err != nil {
				panic(fmt.Sprintf("experiments: ext2 problem: %v", err))
			}
			placed = core.Sandwich(prob, c.par()).Best
		}
		res, err := desim.Run(desim.Config{
			Topology:        tp,
			Shortcuts:       placed.Edges,
			Flows:           flows,
			DurationSeconds: duration,
			HopSeconds:      hop,
			MaxRetries:      retries,
			Seed:            c.Seed*31 + int64(k),
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: ext2 run: %v", err))
		}
		deliveryY = append(deliveryY, res.DeliveryRatio)
		sigmaY = append(sigmaY, float64(placed.Sigma))
	}
	fig.Series = append(fig.Series,
		Series{Name: "delivery ratio", Y: deliveryY},
		Series{Name: "dynamic σ (Σ_i σ_i)", Y: sigmaY},
	)
	return fig
}
