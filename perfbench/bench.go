package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit. BENCHMARK.json lists
// the same names and units; the harness test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"place_s", "s"},
	{"place_cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sigma", "pairs"},
	{"ok_share", "share"},
}

// bench is one run of one workload.
type bench struct {
	wl      workload
	seed    int64
	seconds time.Duration
	bin     string // holds the mscgen and mscplace binaries
	dir     string // scratch for this workload's instances and placements
	spans   string // where the traced run writes its spans

	// problems lists failed self-checks; any makes the run incorrect.
	problems []string
}

// problem records a failed self-check.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	b.problems = append(b.problems, msg)
}

// procStats is what one binary run cost.
type procStats struct {
	wall, cpu time.Duration
	maxRSSKB  int64
}

// runTool runs one binary to completion with its stdout discarded.
func runTool(ctx context.Context, path string, args ...string) (procStats, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	st := procStats{wall: time.Since(start)}
	if err != nil {
		return st, fmt.Errorf("%s: %w: %s", filepath.Base(path), err, bytes.TrimSpace(stderr.Bytes()))
	}
	st.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		st.maxRSSKB = ru.Maxrss
	}
	return st, nil
}

func (b *bench) gen(ctx context.Context, seed int64, out string) (procStats, error) {
	args := append(b.wl.gen.args(), "-seed", fmt.Sprint(seed), "-out", out)
	return runTool(ctx, filepath.Join(b.bin, "mscgen"), args...)
}

func (b *bench) instancePath(i int) string {
	return filepath.Join(b.dir, fmt.Sprintf("instance-%d.json", i))
}

// placement is one closed-loop mscplace run.
type placement struct {
	instance int
	stats    procStats
	out      []byte
	err      error
}

// run measures the workload: set-up, the placement loop, the output
// checks, and — when traced — the per-layer replay.
func (b *bench) run(ctx context.Context, traced bool) (*result, error) {
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	if traced {
		// The replay places instance 0 only; the binary's placements of
		// it are the untraced reference the replay is checked and timed
		// against, so the other instances and the timed loop are skipped.
		b.wl.instances = 1
		b.seconds = 0
	}

	setup, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	runs, err := b.placeLoop(ctx)
	if err != nil {
		return nil, err
	}
	sigmas, failed, err := b.check(runs)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(runs), Failed: failed, Metrics: map[string]metric{}}

	if traced {
		var first []byte
		var wall []float64
		for _, r := range runs {
			if r.err == nil {
				if first == nil {
					first = r.out
				}
				wall = append(wall, r.stats.wall.Seconds())
			}
		}
		attempted, failed, err := b.traceLayers(ctx, first, median(wall), res.Metrics)
		if err != nil {
			return nil, err
		}
		res.Attempted += attempted
		res.Failed += failed
	} else {
		var wall, cpu, rss []float64
		for _, r := range runs {
			if r.err == nil {
				wall = append(wall, r.stats.wall.Seconds())
				cpu = append(cpu, r.stats.cpu.Seconds())
				rss = append(rss, float64(r.stats.maxRSSKB)*1024/1e6)
			}
		}
		values := map[string]float64{
			"place_s":     median(wall),
			"place_cpu_s": median(cpu),
			"setup_s":     median(setup),
			"peak_rss_mb": median(rss),
			"sigma":       mean(sigmas),
			"ok_share":    1 - float64(res.Failed)/float64(res.Attempted),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
	}
	res.Correct = res.Failed == 0 && len(b.problems) == 0
	return res, nil
}

// setup generates the run's instances with mscgen, then instance 0 once
// more to check that generation is deterministic. It returns the wall
// time of every mscgen run.
func (b *bench) setup(ctx context.Context) ([]float64, error) {
	var times []float64
	for i := 0; i < b.wl.instances; i++ {
		st, err := b.gen(ctx, instanceSeed(b.seed, i), b.instancePath(i))
		if err != nil {
			return nil, err
		}
		times = append(times, st.wall.Seconds())
	}
	again := filepath.Join(b.dir, "instance-0.again.json")
	st, err := b.gen(ctx, b.seed, again)
	if err != nil {
		return nil, err
	}
	times = append(times, st.wall.Seconds())
	if !sameFile(b.instancePath(0), again) {
		b.problem("mscgen -seed %d wrote two different instances", b.seed)
	}
	return times, os.Remove(again)
}

// minPlacements is the fewest placements a run makes, so that its median
// rests on at least three.
const minPlacements = 3

// placeLoop places the run's instances in turn, one mscplace at a time,
// until the measured time is up, every instance has been placed and the
// first one twice, and at least minPlacements placements were made.
func (b *bench) placeLoop(ctx context.Context) ([]placement, error) {
	out := filepath.Join(b.dir, "placement.json")
	least := max(b.wl.instances+1, minPlacements)
	var runs []placement
	start := time.Now()
	for j := 0; j < least || time.Since(start) < b.seconds; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := placement{instance: j % b.wl.instances}
		// A run that writes nothing must not pass off the previous file.
		os.Remove(out)
		r.stats, r.err = runTool(ctx, filepath.Join(b.bin, "mscplace"), b.wl.placeArgs(b.instancePath(r.instance), out)...)
		if r.err == nil {
			r.out, r.err = os.ReadFile(out)
		}
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: placement failed:", r.err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: placed instance %d in %.3fs wall, %.3fs cpu, %d KiB peak\n",
				r.instance, r.stats.wall.Seconds(), r.stats.cpu.Seconds(), r.stats.maxRSSKB)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// check verifies every placement outside the timed loop: the first
// placement of each instance against the instance itself, every later one
// by byte equality with the first. It returns the σ of each instance's
// first good placement and the number of failed placements.
func (b *bench) check(runs []placement) (sigmas []float64, failed int, err error) {
	first := make(map[int][]byte)
	for i := 0; i < b.wl.instances; i++ {
		inst, err := loadInstance(b.instancePath(i))
		if err != nil {
			return nil, 0, err
		}
		for j := range runs {
			r := &runs[j]
			if r.instance != i || r.err != nil {
				continue
			}
			if ref, ok := first[i]; ok {
				if !bytes.Equal(r.out, ref) {
					r.err = fmt.Errorf("instance %d placed twice with different results", i)
				}
			} else if sigma, cerr := checkPlacement(inst, r.out); cerr != nil {
				r.err = fmt.Errorf("instance %d: %w", i, cerr)
			} else {
				first[i] = r.out
				sigmas = append(sigmas, float64(sigma))
			}
			if r.err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: placement check failed:", r.err)
			}
		}
	}
	for _, r := range runs {
		if r.err != nil {
			failed++
		}
	}
	return sigmas, failed, nil
}

// sameFile reports whether two files hold the same bytes.
func sameFile(a, b string) bool {
	da, errA := fileDigest(a)
	db, errB := fileDigest(b)
	return errA == nil && errB == nil && da == db
}

func fileDigest(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}
