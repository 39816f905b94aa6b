package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"time"

	"msc/internal/telemetry"
)

// span is one timed call from the harness into a layer of the program,
// with the solver counters and heap activity taken around the same call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Trace  string `json:"trace"`  // shared by every span of one traced pipeline
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the tracer's creation; SelfNS is
	// the duration minus the child spans (children never overlap).
	StartNS    int64                     `json:"start_ns"`
	EndNS      int64                     `json:"end_ns"`
	SelfNS     int64                     `json:"self_ns"`
	Counters   telemetry.CounterSnapshot `json:"counters"`
	AllocBytes uint64                    `json:"alloc_bytes"`
	Mallocs    uint64                    `json:"mallocs"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory until the run ends. It is single-goroutine:
// spans nest strictly, and the harness opens them only around calls made
// from its own goroutine.
type tracer struct {
	epoch time.Time
	trace string // trace id given to spans opened from now on
	spans []span
	open  []int // indices of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns the function that closes it. The heap
// and counter reads sit outside the timed interval of the span itself,
// but inside that of its parent: that cost is the tracing overhead the
// run reports.
func (t *tracer) begin(name string) (end func()) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
	c0 := telemetry.Global().Snapshot()
	idx := len(t.spans)
	s := span{ID: idx + 1, Trace: t.trace, Name: name}
	if len(t.open) > 0 {
		s.Parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.open = append(t.open, idx)
	s.StartNS = time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, s)
	return func() {
		endNS := time.Since(t.epoch).Nanoseconds()
		c1 := telemetry.Global().Snapshot()
		runtime.ReadMemStats(&ms)
		sp := &t.spans[idx]
		sp.EndNS = endNS
		sp.Counters = c1.Sub(c0)
		sp.AllocBytes = ms.TotalAlloc - alloc0
		sp.Mallocs = ms.Mallocs - mallocs0
		t.open = t.open[:len(t.open)-1]
	}
}

// find returns the spans of one trace with the given name, in order.
func (t *tracer) find(trace, name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Trace == trace && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds sums the durations of the named spans of one trace; 0 when the
// layer was not entered.
func (t *tracer) seconds(trace, name string) float64 {
	total := 0.0
	for _, s := range t.find(trace, name) {
		total += s.seconds()
	}
	return total
}

// only returns the single named span of one trace, or a zero span when
// the layer was not entered.
func (t *tracer) only(trace, name string) span {
	if s := t.find(trace, name); len(s) > 0 {
		return s[0]
	}
	return span{}
}

// finish fills in every span's self time.
func (t *tracer) finish() {
	childNS := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNS = s.EndNS - s.StartNS - childNS[s.ID]
	}
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
