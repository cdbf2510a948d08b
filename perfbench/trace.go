package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the ID of the span that caused it (0 = none).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, which is how untraced passes run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartUS: t.since()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = t.since()
}

func (t *tracer) since() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// timed runs f inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent int, f func() error) (float64, error) {
	id := t.begin(name, parent)
	start := time.Now()
	err := f()
	d := time.Since(start).Seconds()
	t.end(id)
	return d, err
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// finishTrace reports the tracing overhead, the traced pass's wall time
// minus the untraced pass's, and writes the spans.
func (r *run) finishTrace(tr *tracer, workload string, traced, untraced float64) error {
	r.set("trace.overhead_s", traced-untraced, "s")
	note("tracing overhead: traced wall %.3fs - untraced wall %.3fs = %.3fs over %d spans", traced, untraced, traced-untraced, len(tr.spans))
	return tr.write(r.spansPath(workload))
}
