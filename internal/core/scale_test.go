package core

import (
	"math"
	"os"
	"testing"
	"time"

	"msc/internal/failprob"
	"msc/internal/gen/rgg"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// TestScaleSmokeBounded is the CI scale-smoke gate: a 50 000-node RGG
// solved end to end on the bounded backend. It is too big for the default
// test run (a dense table alone would be 20 GB), so it only runs with
// MSC_SCALE_SMOKE=1; the CI job sets that under -race with a wall-clock
// budget. Beyond "it finishes", it checks the two properties the backend
// exists for: row memory scales with the d_t-ball (orders of magnitude
// below 8·n² dense bytes) and the solve never materializes dense rows.
func TestScaleSmokeBounded(t *testing.T) {
	if os.Getenv("MSC_SCALE_SMOKE") != "1" {
		t.Skip("set MSC_SCALE_SMOKE=1 to run the 50k-node scale smoke")
	}
	const (
		n  = 50_000
		m  = 64
		k  = 4
		dt = 0.8
	)
	rng := xrand.New(1)
	radius := 1.6 * math.Sqrt(math.Log(n)/(math.Pi*n))
	g, err := rgg.Generate(rgg.Config{N: n, Radius: radius, FailureAtRadius: 0.08}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Random distinct pairs; at this scale a uniform pair violates d_t
	// with near certainty, and NewInstance tolerates the exceptions.
	seen := map[pairs.Pair]bool{}
	var ps []pairs.Pair
	for len(ps) < m {
		p := pairs.New(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		if p.U == p.W || seen[p] {
			continue
		}
		seen[p] = true
		ps = append(ps, p)
	}
	set := pairs.MustNewSet(n, ps)
	thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}

	start := time.Now()
	inst, err := NewInstance(g, set, thr, k, &Options{AllowTrivial: true})
	if err != nil {
		t.Fatal(err)
	}
	buildWall := time.Since(start)
	bt, ok := inst.Table().(*shortestpath.BoundedTable)
	if !ok {
		t.Fatalf("instance table is %T, want *shortestpath.BoundedTable", inst.Table())
	}

	start = time.Now()
	pl := GreedySigma(inst)
	solveWall := time.Since(start)
	if len(pl.Selection) != k {
		t.Fatalf("placement has %d shortcuts, want %d", len(pl.Selection), k)
	}
	if pl.Sigma <= 0 {
		t.Fatalf("σ = %d after placing %d shortcuts across %d pairs", pl.Sigma, k, m)
	}

	st := bt.Stats()
	if st.DenseRows != 0 {
		t.Errorf("solve materialized %d dense rows; the bounded path must stay sparse", st.DenseRows)
	}
	denseBytes := int64(n) * int64(n) * 8
	if st.RowBytes*100 > denseBytes {
		t.Errorf("row memory %d bytes is within 100× of a dense table (%d bytes)", st.RowBytes, denseBytes)
	}
	rows := st.Computes
	t.Logf("n=%d m=%d k=%d dt=%v: build %v, solve %v, σ=%d", n, m, k, dt, buildWall, solveWall, pl.Sigma)
	t.Logf("rows computed %d (%.0f rows/sec), resident %d bytes (%.1f bytes/row avg, dense would be %d bytes/row)",
		rows, float64(rows)/(buildWall+solveWall).Seconds(), st.RowBytes, float64(st.RowBytes)/float64(rows), n*8)
}

// TestDiagBoundsIntractableSentinel pins the guard that keeps telemetry
// from sinking a large solve: past maxBoundCandidates, round events must
// carry the -1 μ/ν sentinel instead of materializing the O(n²) coverage
// bitsets (4 TB of pointers alone at n=10⁶ — the sets are a paper-scale
// structure, not a diagnostic).
func TestDiagBoundsIntractableSentinel(t *testing.T) {
	const (
		n = 4_200 // n(n-1)/2 ≈ 8.8M candidates, just past maxBoundCandidates
		m = 6
		k = 2
	)
	rng := xrand.New(7)
	radius := 1.6 * math.Sqrt(math.Log(n)/(math.Pi*n))
	g, err := rgg.Generate(rgg.Config{N: n, Radius: radius, FailureAtRadius: 0.08}, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[pairs.Pair]bool{}
	var ps []pairs.Pair
	for len(ps) < m {
		p := pairs.New(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		if p.U == p.W || seen[p] {
			continue
		}
		seen[p] = true
		ps = append(ps, p)
	}
	set := pairs.MustNewSet(n, ps)
	thr := failprob.NewThreshold(0.11)
	inst, err := NewInstance(g, set, thr, k, &Options{AllowTrivial: true})
	if err != nil {
		t.Fatal(err)
	}
	if inst.BoundsTractable() {
		t.Fatalf("BoundsTractable() = true with %d candidates, want false past %d",
			inst.NumCandidates(), maxBoundCandidates)
	}

	sink := &memSink{}
	pl := GreedySigma(inst, WithSink(sink))
	rounds := sink.rounds("greedy_sigma")
	if len(rounds) == 0 {
		t.Fatal("no greedy_sigma round events emitted")
	}
	for _, r := range rounds {
		if r.Mu != -1 || r.Nu != -1 {
			t.Fatalf("round %d carries μ=%v ν=%v, want the -1 sentinel on an intractable instance", r.Round, r.Mu, r.Nu)
		}
	}
	if inst.muSets != nil || inst.nuSets != nil {
		t.Fatal("emitting round events materialized the μ/ν coverage sets")
	}
	if pl.Sigma < 0 || len(pl.Selection) > k {
		t.Fatalf("placement invalid: σ=%d, %d shortcuts", pl.Sigma, len(pl.Selection))
	}

	// Contrast: at paper scale the bounds stay on and the events carry
	// real values (μ is a count, never negative).
	small := testInstance(t, 40, 8, 2, 1.5, xrand.New(8))
	if !small.BoundsTractable() {
		t.Fatal("BoundsTractable() = false on a 40-node instance")
	}
	smallSink := &memSink{}
	GreedySigma(small, WithSink(smallSink))
	for _, r := range smallSink.rounds("greedy_sigma") {
		if r.Mu < 0 || r.Nu < 0 {
			t.Fatalf("round %d on a tractable instance carries μ=%v ν=%v", r.Round, r.Mu, r.Nu)
		}
	}
}
