// Command perfbench is the repository benchmark: it times the real
// mscgen → mscplace path on one workload, checks every placement, and
// prints one JSON result line.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload rgg2k-sandwich --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured on the
// binaries with nothing traced. With --trace 1 it holds the per-layer
// metrics of one extra, traced, in-process replay of the same placement,
// and the spans go to .bench_build/spans/. README.md describes the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runTimeout bounds one whole run, child processes included, below the
// three minutes a run may take.
const runTimeout = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Int64("seed", 1, "workload seed; instance i is generated with mscgen -seed seed+i·2³²")
		seconds = flag.Int("seconds", 20, "minimum measured time of the placement loop")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced replay instead of end-to-end metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the mscgen and mscplace binaries")
		work    = flag.String("work", ".bench_build", "directory for generated instances, placements and spans")
	)
	flag.Parse()
	wl, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	b := &bench{
		wl:      wl,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		bin:     *bin,
		dir:     filepath.Join(*work, "work", wl.name),
		spans:   filepath.Join(*work, "spans"),
	}
	res, err := b.run(ctx, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
