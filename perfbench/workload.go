package main

import (
	"fmt"
	"strconv"
)

// genSpec holds the mscgen flags that define a workload's instances.
type genSpec struct {
	kind string  // rgg | social
	n    int     // node count; rgg only (social is the 134-user Gowalla-style network)
	m    int     // important social pairs
	pt   float64 // failure-probability threshold p_t
	k    int     // shortcut budget
}

// args renders the spec as mscgen flags, without -seed and -out.
func (s genSpec) args() []string {
	a := []string{"-kind", s.kind}
	if s.kind == "rgg" {
		a = append(a, "-n", strconv.Itoa(s.n))
	}
	return append(a, "-m", strconv.Itoa(s.m), "-pt", strconv.FormatFloat(s.pt, 'g', -1, 64), "-k", strconv.Itoa(s.k))
}

// workload is one benchmark input family: how its instances are generated,
// how they are placed, and how many distinct instances one run covers.
// README.md records why each workload exists.
type workload struct {
	name string
	gen  genSpec
	alg  string // mscplace -alg
	// iters is mscplace -iters (aea only); 0 leaves the binary's default.
	iters int
	// instances is the number of distinct instances (seeds) one run
	// generates and places in turn; their medians and means damp the
	// instance-to-instance spread of a single seed.
	instances int
}

var workloads = []workload{
	{name: "rgg100k-greedy", gen: genSpec{kind: "rgg", n: 100000, m: 64, pt: 0.11, k: 6}, alg: "greedy", instances: 1},
	{name: "rgg2k-sandwich", gen: genSpec{kind: "rgg", n: 2000, m: 100, pt: 0.11, k: 10}, alg: "sandwich", instances: 4},
	{name: "gowalla-aea", gen: genSpec{kind: "social", m: 63, pt: 0.23, k: 6}, alg: "aea", iters: 2000, instances: 8},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// placeArgs renders the mscplace flags for one placement: the instance,
// the algorithm and the output path, everything else at its default.
func (w workload) placeArgs(in, out string) []string {
	a := []string{"-in", in, "-alg", w.alg, "-out", out}
	if w.iters > 0 {
		a = append(a, "-iters", strconv.Itoa(w.iters))
	}
	return a
}

// instanceSeed is the mscgen seed of a run's i-th instance: the workload
// seed itself for i = 0, then seeds 2³² apart, so the instance sets of
// different workload seeds never overlap.
func instanceSeed(seed int64, i int) int64 { return seed + int64(i)<<32 }
