package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"msc/internal/graph"
	"msc/internal/shortestpath"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must honour.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// scaledDown shrinks a workload to a smoke-test size that keeps its
// instance kind and algorithm.
func scaledDown(w workload) workload {
	if w.gen.kind == "rgg" {
		w.gen.n, w.gen.m, w.gen.k = 200, 20, 4
	}
	if w.iters > 0 {
		w.iters = 100
	}
	w.instances = 2
	return w
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %d: %v", i, err)
		}
	}
}

// TestWorkloadSmoke runs every workload, scaled down, through both modes
// of the real binaries and checks that each run is correct and emits
// every metric BENCHMARK.json names, with its unit.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries")
	}
	bj := readBenchmarkJSON(t)
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "msc/cmd/mscgen", "msc/cmd/mscplace")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			work := t.TempDir()
			b := &bench{wl: scaledDown(w), seed: 3, bin: bin, dir: filepath.Join(work, "work"), spans: filepath.Join(work, "spans")}
			res, err := b.run(context.Background(), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minPlacements {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.name, traced, res.Correct, res.Attempted, res.Failed, b.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced {
				spans, err := os.ReadFile(filepath.Join(work, "spans", w.name+"-seed3.jsonl"))
				if err != nil || !strings.Contains(string(spans), `"name":"core.solve"`) {
					t.Errorf("%s: spans file missing or without a core.solve span: %v", w.name, err)
				}
			}
		}
	}
}

// placedInstance generates and places a small sandwich instance in
// process, returning the instance as the checker loads it and the
// placement document.
func placedInstance(t *testing.T) (*instanceData, []byte) {
	t.Helper()
	dir := t.TempDir()
	wl := scaledDown(workloads[1])
	in, out := filepath.Join(dir, "instance.json"), filepath.Join(dir, "placement.json")
	if err := generate(newTracer(), wl.gen, 5, in); err != nil {
		t.Fatal(err)
	}
	if _, err := place(context.Background(), newTracer(), wl, in, out); err != nil {
		t.Fatal(err)
	}
	inst, err := loadInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return inst, doc
}

// tamper decodes a placement document, edits it, and encodes it again.
func tamper(t *testing.T, doc []byte, edit func(*placeOutput)) []byte {
	t.Helper()
	var p placeOutput
	if err := json.Unmarshal(doc, &p); err != nil {
		t.Fatal(err)
	}
	edit(&p)
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckerFlagsBadPlacements(t *testing.T) {
	inst, doc := placedInstance(t)
	sigma, err := checkPlacement(inst, doc)
	if err != nil {
		t.Fatalf("genuine placement rejected: %v", err)
	}
	if sigma == 0 {
		t.Fatal("the test instance should maintain at least one pair")
	}
	bad := []struct {
		name, want string
		edit       func(*placeOutput)
	}{
		{"sigma inflated", "re-measured", func(p *placeOutput) { p.Sigma++ }},
		{"sigma deflated", "re-measured", func(p *placeOutput) { p.Sigma-- }},
		{"over budget", "exceed the budget", func(p *placeOutput) {
			p.Shortcuts = nil
			for i := int32(0); i <= int32(p.K); i++ {
				p.Shortcuts = append(p.Shortcuts, [2]int32{i, i + 1})
			}
		}},
		{"duplicate", "twice", func(p *placeOutput) { p.Shortcuts = append(p.Shortcuts[:1], p.Shortcuts[0]) }},
		{"reversed repeat", "twice", func(p *placeOutput) {
			p.Shortcuts = append(p.Shortcuts[:1], [2]int32{p.Shortcuts[0][1], p.Shortcuts[0][0]})
		}},
		{"endpoint past n", "distinct nodes", func(p *placeOutput) { p.Shortcuts[0][1] = int32(inst.g.N()) }},
		{"negative node", "distinct nodes", func(p *placeOutput) { p.Shortcuts[0][0] = -1 }},
		{"self loop", "distinct nodes", func(p *placeOutput) { p.Shortcuts[0][1] = p.Shortcuts[0][0] }},
		{"wrong k", "instance has", func(p *placeOutput) { p.K++ }},
	}
	for _, c := range bad {
		_, err := checkPlacement(inst, tamper(t, doc, c.edit))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: checker returned %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// TestSigmaFromScratchMatchesAugmentedDistances pins the checker's σ to
// the reference method: one AugmentedDistances Dijkstra per pair.
func TestSigmaFromScratchMatchesAugmentedDistances(t *testing.T) {
	inst, doc := placedInstance(t)
	var p placeOutput
	if err := json.Unmarshal(doc, &p); err != nil {
		t.Fatal(err)
	}
	var shortcuts []graph.Edge
	for _, s := range p.Shortcuts {
		shortcuts = append(shortcuts, graph.Edge{U: s[0], V: s[1]})
	}
	for _, f := range [][]graph.Edge{nil, shortcuts[:1], shortcuts} {
		want := 0
		for _, pr := range inst.ps.Pairs() {
			if shortestpath.AugmentedDistances(inst.g, f, pr.U)[pr.W] <= inst.dt {
				want++
			}
		}
		got, err := sigmaFromScratch(inst, f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%d shortcuts: sigmaFromScratch = %d, AugmentedDistances per pair = %d", len(f), got, want)
		}
	}
}
