package experiments

import (
	"fmt"

	"msc/internal/baselines"
	"msc/internal/core"
	"msc/internal/failprob"
	"msc/internal/pairs"
)

// Ext1 is an extension experiment beyond the paper's figures: it
// quantifies the paper's motivating claim (§I–II) that shortcut placement
// aimed at ALL node pairs — diameter minimization [7] or average-distance
// minimization [8], [17] — wastes budget when only the important pairs
// matter. For each k it reports the number of important pairs maintained
// by the MSC-aware sandwich algorithm vs the two all-pairs baselines and
// the random baseline, on both datasets.
func (c Config) Ext1() []*Figure {
	ks := []int{2, 4, 6, 8, 10}
	mRG, mGW := 80, 76
	ptRG, ptGW := 0.14, 0.23
	trials := 500
	sampleSize := 300
	if c.Quick {
		ks = []int{2, 4}
		mRG, mGW = 10, 10
		trials, sampleSize = 30, 60
	}
	figs := make([]*Figure, 0, 2)
	for di, ds := range []dataset{c.rggDataset(), c.socialDataset()} {
		m, pt := mRG, ptRG
		if di == 1 {
			m, pt = mGW, ptGW
		}
		thr := failprob.NewThreshold(pt)
		ps, err := pairs.SampleViolating(ds.table, thr.D, m, c.rng(900+int64(di)))
		if err != nil {
			panic(fmt.Sprintf("experiments: ext1 pairs: %v", err))
		}
		fig := &Figure{
			ID:     fmt.Sprintf("Ext 1(%c)", 'a'+di),
			Title:  fmt.Sprintf("MSC-aware vs all-pairs placement on %s (m=%d, p_t=%.2f)", ds.name, m, pt),
			XLabel: "k",
			YLabel: "maintained social connections (σ)",
		}
		for _, k := range ks {
			fig.X = append(fig.X, float64(k))
		}
		aaY := make([]float64, 0, len(ks))
		diamY := make([]float64, 0, len(ks))
		avgY := make([]float64, 0, len(ks))
		rndY := make([]float64, 0, len(ks))
		for _, k := range ks {
			inst, err := core.NewInstance(ds.g, ps, thr, k, c.instOpts(ds.table))
			if err != nil {
				panic(fmt.Sprintf("experiments: ext1 instance: %v", err))
			}
			aaY = append(aaY, float64(core.Sandwich(inst, c.par()).Best.Sigma))
			diam := baselines.FarthestPairs(ds.g, ds.table, k)
			diamY = append(diamY, float64(inst.SigmaEdges(diam)))
			avg := baselines.AvgDistanceGreedy(ds.g, ds.table, k, sampleSize, c.rng(910+int64(di)))
			avgY = append(avgY, float64(inst.SigmaEdges(avg)))
			rndY = append(rndY, float64(c.mustRandom(inst, trials, c.rng(920+int64(di))).Sigma))
		}
		fig.Series = append(fig.Series,
			Series{Name: "MSC (AA)", Y: aaY},
			Series{Name: "Diameter [7]", Y: diamY},
			Series{Name: "AvgDist [8]", Y: avgY},
			Series{Name: "Random", Y: rndY},
		)
		figs = append(figs, fig)
	}
	return figs
}
