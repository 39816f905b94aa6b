// Command mscsweep runs fleet-scale benchmark sweeps: it expands a
// declarative scenario matrix (graph family × n × m × k × solver ×
// eval-mode × parallelism × seeds) into runs, fans them across a bounded
// pool of worker processes (re-execing mscgen, mscplace, and mscbench
// with -jsonl), aggregates the schema-validated run records
// into a canonical BENCH_<host>.json trajectory (per-scenario medians and
// IQRs), and optionally diffs the result against a committed baseline
// with a noise-aware regression gate.
//
// Usage:
//
//	mscsweep -quick -tools bin -out BENCH_ci.json
//	mscsweep -matrix sweep.json -workers 8 -deadline 2m
//	mscsweep -quick -tools bin -baseline BENCH_ci.json -wall-threshold 0
//	mscsweep -diff BENCH_old.json BENCH_new.json
//	mscsweep -validate BENCH_ci.json
//	mscsweep -quick -list           # print the expanded scenarios and exit
//
// Exit status is 1 when any run fails or the regression gate trips; the
// gate's typed report names every flagged scenario and metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"msc/internal/cli"
	"msc/internal/sweep"
)

func main() { cli.Run("mscsweep", run) }

func run(ctx context.Context) error {
	var (
		quick       = flag.Bool("quick", false, "run the built-in quick smoke matrix")
		matrixPath  = flag.String("matrix", "", "JSON matrix spec (see internal/sweep.Matrix); mutually exclusive with -quick")
		list        = flag.Bool("list", false, "print the expanded scenario list and exit without running")
		workers     = flag.Int("workers", 0, "worker processes (0 = min(NumCPU, 4))")
		tools       = flag.String("tools", "", "directory holding the mscgen/mscplace/mscbench binaries (default: the directory of this executable, then $PATH)")
		outPath     = flag.String("out", "", "trajectory output path (default BENCH_<host>.json)")
		host        = flag.String("host", "", "host label recorded in the trajectory (default: sanitized hostname)")
		keep        = flag.String("keep", "", "keep per-run JSONL records and instances in this directory (default: a temp dir removed on success)")
		baseline    = flag.String("baseline", "", "diff the new trajectory against this baseline file and fail on regression")
		deadline    = flag.Duration("deadline", 2*time.Minute, "per-run wall-clock budget (0 = unbounded)")
		iters       = flag.Int("iters", 200, "iterations for ea/aea/random solvers")
		retries     = flag.Int("retries", 2, "max retries per run for transient child failures (signal-killed or unstartable children, torn record streams); solver errors never retry")
		wallPct     = flag.Float64("wall-threshold", 30, "wall-clock regression threshold in percent (0 disables wall gating — use for cross-host diffs)")
		counterPct  = flag.Float64("counter-threshold", 1, "deterministic-counter and σ regression threshold in percent")
		harvest     = flag.Bool("harvest-metrics", false, "run every child with its ops plane up (-ops 127.0.0.1:0) and harvest its /metrics exposition into the sweep results")
		diffMode    = flag.Bool("diff", false, "diff two trajectory files (args: baseline candidate) and exit")
		validatPath = flag.String("validate", "", "validate a trajectory file and exit")
		version     = flag.Bool("version", false, "print version and exit")
	)
	opsF := cli.AddOpsFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(cli.Version("mscsweep"))
		return nil
	}
	plane, err := opsF.Start("mscsweep")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := plane.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mscsweep: ops:", cerr)
		}
	}()
	defer plane.Recover()
	opts := sweep.DefaultDiffOptions()
	opts.WallPct = *wallPct
	opts.CounterPct = *counterPct

	if *validatPath != "" {
		t, err := sweep.ReadTrajectoryFile(*validatPath)
		if err != nil {
			return err
		}
		fmt.Printf("%s: OK (%d scenarios, host %q)\n", *validatPath, len(t.Scenarios), t.Host)
		return nil
	}
	if *diffMode {
		if flag.NArg() != 2 {
			return fmt.Errorf("-diff takes exactly two trajectory files, got %d args", flag.NArg())
		}
		return diffFiles(flag.Arg(0), flag.Arg(1), opts)
	}

	matrix, err := loadMatrix(*quick, *matrixPath)
	if err != nil {
		return err
	}
	scenarios, err := matrix.Expand()
	if err != nil {
		return err
	}
	if *list {
		for _, sc := range scenarios {
			fmt.Printf("%s seed=%d\n", sc.Key(), sc.Seed)
		}
		fmt.Printf("%d runs total\n", len(scenarios))
		return nil
	}

	hostLabel := *host
	if hostLabel == "" {
		hostLabel = defaultHost()
	}
	out := *outPath
	if out == "" {
		out = "BENCH_" + hostLabel + ".json"
	}

	workDir := *keep
	if workDir != "" {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return err
		}
	} else {
		tmp, err := os.MkdirTemp("", "mscsweep-*")
		if err != nil {
			return err
		}
		workDir = tmp
		defer os.RemoveAll(tmp)
	}

	procRunner := &sweep.ProcessRunner{
		WorkDir:  workDir,
		Deadline: *deadline,
		Iters:    *iters,
		Ops:      *harvest,
	}
	needBench := len(matrix.Experiments) > 0
	if procRunner.Mscgen, err = findTool(*tools, "mscgen"); err != nil {
		return err
	}
	if procRunner.Mscplace, err = findTool(*tools, "mscplace"); err != nil {
		return err
	}
	if needBench {
		if procRunner.Mscbench, err = findTool(*tools, "mscbench"); err != nil {
			return err
		}
	}
	// Transient infra failures (an OOM-killed child, a torn record file)
	// retry with backoff instead of scrapping the sweep; deterministic
	// solver errors still fail on the first attempt.
	var runner sweep.Runner = procRunner
	if *retries > 0 {
		runner = &sweep.Retrier{Runner: procRunner, Max: *retries}
	}

	poolSize := *workers
	if poolSize <= 0 {
		poolSize = runtime.NumCPU()
		if poolSize > 4 {
			poolSize = 4
		}
	}
	fmt.Printf("sweep: %d runs across %d workers (records in %s)\n", len(scenarios), poolSize, workDir)
	start := time.Now()
	var mu sync.Mutex
	done := 0
	results := sweep.RunAll(ctx, runner, scenarios, poolSize, func(res sweep.Result) {
		mu.Lock()
		defer mu.Unlock()
		done++
		status := "ok"
		if res.Err != nil {
			status = "FAILED"
		}
		extra := ""
		if res.Metrics != nil {
			extra = fmt.Sprintf(" metrics=%d", len(res.Metrics))
		}
		if res.Retries > 0 {
			extra += fmt.Sprintf(" retries=%d", res.Retries)
		}
		fmt.Printf("  [%d/%d] %s seed=%d %s (%.0f ms)%s\n", done, len(scenarios),
			res.Scenario.Key(), res.Scenario.Seed, status, res.Record.WallMS, extra)
	})
	var failures []error
	retried := 0
	for _, res := range results {
		if res.Err != nil {
			failures = append(failures, res.Err)
		}
		retried += res.Retries
	}
	if len(failures) > 0 {
		for _, err := range failures {
			fmt.Fprintln(os.Stderr, err)
		}
		return fmt.Errorf("%d of %d runs failed (records kept in %s)", len(failures), len(scenarios), workDir)
	}

	traj, err := sweep.Aggregate(hostLabel, results)
	if err != nil {
		return err
	}
	if err := sweep.WriteTrajectoryFile(out, traj); err != nil {
		return err
	}
	fmt.Printf("sweep: %d runs -> %d scenarios -> %s in %v\n",
		len(results), len(traj.Scenarios), out, time.Since(start).Round(time.Millisecond))
	if retried > 0 {
		// A sweep that only passes on retry is a flaky fleet; keep that
		// visible in the summary even though the runs succeeded.
		fmt.Printf("sweep: %d transient child failure(s) recovered by retry\n", retried)
	}
	if *harvest {
		var rounds, samples float64
		for _, res := range results {
			rounds += res.Metrics["msc_round_wall_seconds_count"]
			samples += float64(len(res.Metrics))
		}
		fmt.Printf("sweep: harvested %.0f metric samples (%.0f solver rounds observed)\n",
			samples, rounds)
	}

	if *baseline != "" {
		base, err := sweep.ReadTrajectoryFile(*baseline)
		if err != nil {
			return err
		}
		report, err := sweep.Diff(base, traj, opts)
		if err != nil {
			return err
		}
		fmt.Println(report.Format())
		return report.Gate()
	}
	return nil
}

func loadMatrix(quick bool, path string) (sweep.Matrix, error) {
	switch {
	case quick && path != "":
		return sweep.Matrix{}, fmt.Errorf("-quick and -matrix are mutually exclusive")
	case quick:
		return sweep.QuickMatrix(), nil
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return sweep.Matrix{}, err
		}
		defer f.Close()
		return sweep.ReadMatrix(f)
	default:
		return sweep.Matrix{}, fmt.Errorf("no sweep selected: pass -quick or -matrix spec.json")
	}
}

func diffFiles(basePath, candPath string, opts sweep.DiffOptions) error {
	base, err := sweep.ReadTrajectoryFile(basePath)
	if err != nil {
		return err
	}
	cand, err := sweep.ReadTrajectoryFile(candPath)
	if err != nil {
		return err
	}
	report, err := sweep.Diff(base, cand, opts)
	if err != nil {
		return err
	}
	fmt.Println(report.Format())
	return report.Gate()
}

// findTool resolves a helper binary: an explicit -tools dir wins, then
// the directory of the mscsweep executable itself (the `go build -o bin
// ./cmd/...` layout), then $PATH.
func findTool(toolsDir, name string) (string, error) {
	if toolsDir != "" {
		path := filepath.Join(toolsDir, name)
		if _, err := os.Stat(path); err != nil {
			return "", fmt.Errorf("tool %s not found in -tools %s: %w", name, toolsDir, err)
		}
		// Absolute, so exec never mistakes a separator-free relative path
		// (-tools . joins to a bare "mscgen") for a $PATH lookup.
		abs, err := filepath.Abs(path)
		if err != nil {
			return "", err
		}
		return abs, nil
	}
	if exe, err := os.Executable(); err == nil {
		path := filepath.Join(filepath.Dir(exe), name)
		if _, err := os.Stat(path); err == nil {
			return path, nil
		}
	}
	if path, err := exec.LookPath(name); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("tool %s not found next to mscsweep or on $PATH; build the helpers (go build -o bin ./cmd/...) and pass -tools bin", name)
}

// defaultHost is the hostname reduced to trajectory-safe characters.
func defaultHost() string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return "unknown"
	}
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	return b.String()
}
