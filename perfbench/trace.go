package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Spans of one operation share op;
// parent indexes the enclosing span (-1 at the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Allocs uint64 `json:"allocs"` // heap objects allocated inside the span
}

// tracer records spans in memory for one goroutine at a time (the traced
// replays are serial, so process-wide allocation counters attribute
// cleanly to the open span). Spans are written out once, at the end.
type tracer struct {
	t0     time.Time
	spans  []span
	cur    int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span under the currently open one and returns its index.
func (t *tracer) begin(name string, op int) int {
	t.spans = append(t.spans, span{Name: name, Parent: t.cur, Op: op, Allocs: t.allocs(),
		Start: int64(time.Since(t.t0))})
	t.cur = len(t.spans) - 1
	return t.cur
}

// end closes span i (which must be the open one).
func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	s.Allocs = t.allocs() - s.Allocs
	t.cur = s.Parent
}

// do runs fn inside a span.
func (t *tracer) do(name string, op int, fn func()) {
	i := t.begin(name, op)
	fn()
	t.end(i)
}

// layerTotals aggregates, per span name, self time (duration minus the
// part covered by child spans), self allocations, and call count.
type layerTotals struct {
	self   map[string]time.Duration
	allocs map[string]uint64
	calls  map[string]int
}

func (t *tracer) totals() layerTotals {
	childDur := make([]int64, len(t.spans))
	childAllocs := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
		}
	}
	out := layerTotals{self: map[string]time.Duration{}, allocs: map[string]uint64{}, calls: map[string]int{}}
	for i, s := range t.spans {
		out.self[s.Name] += time.Duration(s.End - s.Start - childDur[i])
		if s.Allocs >= childAllocs[i] {
			out.allocs[s.Name] += s.Allocs - childAllocs[i]
		}
		out.calls[s.Name]++
	}
	return out
}

// selfOf sums self time over the named spans.
func (lt layerTotals) selfOf(names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		d += lt.self[n]
	}
	return d
}

func (lt layerTotals) allocsOf(names ...string) uint64 {
	var a uint64
	for _, n := range names {
		a += lt.allocs[n]
	}
	return a
}

// write dumps the spans as JSON lines to dir/spans-<name>.jsonl.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
