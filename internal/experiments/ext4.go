package experiments

import (
	"fmt"

	"msc/internal/core"
	"msc/internal/failprob"
	"msc/internal/pairs"
)

// Ext4 evaluates the importance-weights extension (§VI notes that "the
// importance level of different social pairs may change over time"; the
// library supports integer importance levels per pair). On an RG instance
// where a few pairs are critical (weight 5) and the rest routine
// (weight 1), it compares the total maintained importance achieved by:
//
//   - weight-aware AA: the sandwich algorithm solving the weighted
//     objective directly;
//   - weight-blind AA: the same algorithm ignoring weights (the paper's
//     objective), graded under the weighted objective;
//   - random placement, graded the same way.
//
// The gap between aware and blind is the value of importance information.
func (c Config) Ext4() *Figure {
	ks := []int{2, 4, 6, 8, 10}
	m, critical, pt := 80, 10, 0.11
	trials := 500
	if c.Quick {
		ks = []int{2, 4}
		m, critical = 10, 3
		trials = 30
	}
	ds := c.rggDataset()
	thr := failprob.NewThreshold(pt)
	ps, err := pairs.SampleViolating(ds.table, thr.D, m, c.rng(980))
	if err != nil {
		panic(fmt.Sprintf("experiments: ext4 pairs: %v", err))
	}
	// The first `critical` sampled pairs carry weight 5.
	weights := make([]int, m)
	for i := range weights {
		if i < critical {
			weights[i] = 5
		} else {
			weights[i] = 1
		}
	}

	fig := &Figure{
		ID: "Ext 4",
		Title: fmt.Sprintf("Importance-aware placement on RG (m=%d, %d critical pairs ×5, p_t=%.2f)",
			m, critical, pt),
		XLabel: "k",
		YLabel: "total maintained importance (weighted σ)",
	}
	for _, k := range ks {
		fig.X = append(fig.X, float64(k))
	}
	awareY := make([]float64, 0, len(ks))
	blindY := make([]float64, 0, len(ks))
	rndY := make([]float64, 0, len(ks))
	for _, k := range ks {
		weightedOpts := c.instOpts(ds.table)
		weightedOpts.PairWeights = weights
		weighted, err := core.NewInstance(ds.g, ps, thr, k, weightedOpts)
		if err != nil {
			panic(fmt.Sprintf("experiments: ext4 weighted instance: %v", err))
		}
		unweighted, err := core.NewInstance(ds.g, ps, thr, k, c.instOpts(ds.table))
		if err != nil {
			panic(fmt.Sprintf("experiments: ext4 unweighted instance: %v", err))
		}
		aware := core.Sandwich(weighted, c.par()).Best
		awareY = append(awareY, float64(aware.Sigma))
		blind := core.Sandwich(unweighted, c.par()).Best
		blindY = append(blindY, float64(weighted.Sigma(blind.Selection)))
		rnd := c.mustRandom(weighted, trials, c.rng(985+int64(k)))
		rndY = append(rndY, float64(rnd.Sigma))
	}
	fig.Series = append(fig.Series,
		Series{Name: "weight-aware AA", Y: awareY},
		Series{Name: "weight-blind AA", Y: blindY},
		Series{Name: "Random", Y: rndY},
	)
	return fig
}
