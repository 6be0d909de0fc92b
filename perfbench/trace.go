package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/runner"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one op share Op; Parent is the span
// that caused this one (0 for an op's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"startUS"`
	End    float64 `json:"endUS"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.End - s.Start) * float64(time.Microsecond))
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the traced code path at no cost
// beyond a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 {
	return float64(time.Since(t.t0)) / float64(time.Microsecond)
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

// spansOf returns a copy of op's spans.
func (t *tracer) spansOf(op int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of op's spans with the given name.
func (t *tracer) total(op int, name string) time.Duration {
	var d time.Duration
	for _, s := range t.spansOf(op) {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// experimentHooks records one span per experiment the executor runs,
// under parent. Experiments may run concurrently; the pool reports each
// id once per regeneration.
func (t *tracer) experimentHooks(op, parent int) runner.Hooks {
	if t == nil {
		return runner.Hooks{}
	}
	var (
		mu   sync.Mutex
		open = map[string]int{}
	)
	return runner.Hooks{
		Started: func(id string) {
			sid := t.begin(op, parent, "experiment."+id)
			mu.Lock()
			open[id] = sid
			mu.Unlock()
		},
		Finished: func(id string, _ time.Duration, _ error) {
			mu.Lock()
			sid := open[id]
			mu.Unlock()
			t.end(sid)
		},
	}
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerAcc collects per-op samples of per-layer metrics; each metric
// reports the median of its samples.
type layerAcc struct{ samples map[string][]float64 }

func newLayerAcc() *layerAcc { return &layerAcc{samples: map[string][]float64{}} }

func (a *layerAcc) add(name string, v float64) { a.samples[name] = append(a.samples[name], v) }

func (a *layerAcc) into(layers map[string]float64) {
	for name, xs := range a.samples {
		layers[name] = median(xs)
	}
}
