package shortestpath

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"msc/internal/graph"
	"msc/internal/xrand"
)

// TestShardPanicIsolation: a panic in one evaluator worker must drain the
// others, leak no goroutines, and surface as a typed *PanicError on the
// caller's goroutine with the failing shard's query range and stack.
func TestShardPanicIsolation(t *testing.T) {
	e := &Evaluator{workers: 4}
	before := runtime.NumGoroutine()
	var got *PanicError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			var ok bool
			got, ok = r.(*PanicError)
			if !ok {
				t.Fatalf("recovered %T, want *PanicError", r)
			}
		}()
		e.shard(100, func(shard, lo, hi int) {
			if shard == 3 {
				panic("bad query")
			}
		})
	}()
	if got.Shard != 3 || got.Value != "bad query" {
		t.Fatalf("wrong panic surfaced: %+v", got)
	}
	if got.Lo >= got.Hi || got.Hi > 100 {
		t.Fatalf("range [%d, %d) not a sub-range of [0, 100)", got.Lo, got.Hi)
	}
	if len(got.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !strings.Contains(got.Error(), "shard 3") {
		t.Fatalf("Error() = %q", got.Error())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// evalQueries builds a deterministic query list over the graph's nodes.
func evalQueries(n, q int, rng *xrand.Rand) (us, ws []graph.NodeID) {
	for i := 0; i < q; i++ {
		us = append(us, graph.NodeID(rng.Intn(n)))
		ws = append(ws, graph.NodeID(rng.Intn(n)))
	}
	return us, ws
}

// TestEvaluatorCountWithinMatchesSerial checks the determinism contract on
// both distance backends: weighted and unweighted counts are identical for
// every worker count.
func TestEvaluatorCountWithinMatchesSerial(t *testing.T) {
	rng := xrand.New(61)
	g := randomGraph(t, 40, 70, rng)
	for _, backend := range []struct {
		name string
		src  DistanceSource
	}{
		{"dense", NewTable(g, 0)},
		{"bounded", boundedOrFatal(t, g, 2.5)},
	} {
		t.Run(backend.name, func(t *testing.T) {
			ov := NewOverlay(backend.src, []graph.Edge{{U: 0, V: 20}, {U: 5, V: 35}})
			us, ws := evalQueries(g.N(), 200, xrand.New(62))
			weights := make([]int32, len(us))
			for i := range weights {
				weights[i] = int32(1 + i%3)
			}
			bound := 2.5
			serial := NewEvaluator(ov, 1).CountWithin(us, ws, nil, bound)
			serialW := NewEvaluator(ov, 0).CountWithin(us, ws, weights, bound)
			for _, workers := range []int{2, 4, 8} {
				e := NewEvaluator(ov, workers)
				if got := e.CountWithin(us, ws, nil, bound); got != serial {
					t.Errorf("workers=%d: CountWithin = %d, want %d", workers, got, serial)
				}
				if got := e.CountWithin(us, ws, weights, bound); got != serialW {
					t.Errorf("workers=%d weighted: CountWithin = %d, want %d", workers, got, serialW)
				}
			}
		})
	}
}

func TestEvaluatorCountWithinLengthMismatch(t *testing.T) {
	g := lineGraph(t, 4)
	e := NewEvaluator(NewOverlay(NewTable(g, 0), nil), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on query length mismatch")
		}
	}()
	e.CountWithin([]graph.NodeID{0, 1}, []graph.NodeID{2}, nil, 1)
}

// TestEvaluatorDistRowsMatchesSerial checks DistRows against the naive
// augmented-Dijkstra reference (serially) and against itself for every
// worker count, over a bounded backend of unlimited reach.
func TestEvaluatorDistRowsMatchesSerial(t *testing.T) {
	rng := xrand.New(67)
	g := randomGraph(t, 35, 60, rng)
	shortcuts := []graph.Edge{{U: 2, V: 30}, {U: 10, V: 25}}
	ov := NewOverlay(boundedOrFatal(t, g, math.Inf(1)), shortcuts)
	var srcs []graph.NodeID
	for u := 0; u < g.N(); u += 2 {
		srcs = append(srcs, graph.NodeID(u))
	}
	mkRows := func() [][]float64 {
		rows := make([][]float64, len(srcs))
		for i := range rows {
			rows[i] = make([]float64, g.N())
		}
		return rows
	}
	want := mkRows()
	NewEvaluator(ov, 1).DistRows(srcs, want)
	for i, src := range srcs {
		ref := AugmentedDistances(g, shortcuts, src)
		for v := range ref {
			if math.Abs(want[i][v]-ref[v]) > 1e-9 && !(math.IsInf(want[i][v], 1) && math.IsInf(ref[v], 1)) {
				t.Fatalf("serial DistRows src %d node %d = %v, want %v", src, v, want[i][v], ref[v])
			}
		}
	}
	for _, workers := range []int{2, 4, 8} {
		got := mkRows()
		NewEvaluator(ov, workers).DistRows(srcs, got)
		for i := range srcs {
			sameRow(t, got[i], want[i], "parallel DistRows")
		}
	}
}

func TestEvaluatorDistRowsLengthMismatch(t *testing.T) {
	g := lineGraph(t, 4)
	e := NewEvaluator(NewOverlay(NewTable(g, 0), nil), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rows length mismatch")
		}
	}()
	e.DistRows([]graph.NodeID{0, 1}, make([][]float64, 1))
}

func TestOverlayEndpointsDistinct(t *testing.T) {
	g := lineGraph(t, 6)
	ov := NewOverlay(NewTable(g, 0), []graph.Edge{{U: 0, V: 3}, {U: 3, V: 5}, {U: 0, V: 5}})
	eps := ov.Endpoints()
	if len(eps) != 3 {
		t.Fatalf("Endpoints() = %v, want the 3 distinct endpoints", eps)
	}
	seen := map[graph.NodeID]bool{}
	for _, v := range eps {
		if seen[v] {
			t.Fatalf("duplicate endpoint %d in %v", v, eps)
		}
		seen[v] = true
	}
	if !seen[0] || !seen[3] || !seen[5] {
		t.Fatalf("Endpoints() = %v, want {0,3,5}", eps)
	}
}

// boundedOrFatal builds a bounded table at the given reach.
func boundedOrFatal(t *testing.T, g *graph.Graph, reach float64) *BoundedTable {
	t.Helper()
	bt, err := NewBoundedTable(g, BoundedOptions{Reach: reach})
	if err != nil {
		t.Fatal(err)
	}
	return bt
}
