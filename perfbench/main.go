// Command perfbench is mobilebench's end-to-end and per-layer benchmark.
//
// Each workload drives one user-visible path of the system in its own
// process, and every layer is timed from outside, around calls into that
// layer's public functions:
//
//	paper-exact      exact collection of the 18 analysis units plus the
//	                 paper's analyses (sim, core, cluster, subset)
//	ff-checkpoint    fast-forwarded 3-run collection checkpointed to a
//	                 fresh snapshot file (sim, checkpoint.Writer)
//	mbserved-stream  in-process mbserved with streaming ingest, a cache
//	                 directory and one dist worker over loopback TCP
//	                 (cluster, checkpoint.Log, server, dist)
//
// Usage (run.sh builds the binary and passes -root):
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are the
// manifest's end-to-end metrics, which every workload measures on its own
// path; with -trace 1 the run repeats the workload with spans recorded,
// decomposes it layer by layer and reports the manifest's per-layer
// metrics plus the tracing overhead. A per-layer metric of a layer the
// workload's traced run does not measure reads 0, and the run names it.
// Lines before the result (prefixed "#") carry the accounting and sample
// counts behind the numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// setupReps is how many set-ups a run times; setup_s is their median.
const setupReps = 101

// defaultSeed is the simulator's own default root seed; the pinned output
// digests are recorded for it.
const defaultSeed = 888

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

// run carries one invocation's parameters and collects its outcome.
type run struct {
	seed    uint64
	seconds float64
	trace   bool
	root    string // build and output directory
	dir     string // scratch directory inside root, removed on exit

	res result
}

func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one operation; a false ok counts it failed and names why.
func (r *run) op(ok bool, what string) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		fmt.Printf("# FAILED: %s\n", what)
	}
}

// ops counts n operations of which failed did not succeed.
func (r *run) ops(n, failed int, what string) {
	r.res.Attempted += n
	r.res.Failed += failed
	if failed > 0 {
		fmt.Printf("# FAILED: %d of %d %s\n", failed, n, what)
	}
}

func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

var workloads = map[string]func(context.Context, *run) error{
	"paper-exact":     paperExact,
	"ff-checkpoint":   ffCheckpoint,
	"mbserved-stream": mbservedStream,
}

func main() {
	name := flag.String("workload", "", "workload: paper-exact, ff-checkpoint or mbserved-stream")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 5, "minimum measured seconds; the fixed work repeats until it is reached")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".bench_build", "directory for scratch files")
	manifestPath := flag.String("manifest", "BENCHMARK.json", "benchmark manifest naming the metrics to report")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload paper-exact|ff-checkpoint|mbserved-stream -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	want, err := loadManifest(*manifestPath, *trace == 1)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*root, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*root, "run-")
	if err != nil {
		fatal(err)
	}
	r := &run{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, root: *root, dir: dir,
		res: result{Correct: true, Metrics: map[string]metric{}}}
	err = fn(context.Background(), r)
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err == nil {
		err = r.conform(want)
	}
	if err != nil {
		fatal(err)
	}
	r.res.Correct = r.res.Failed == 0
	note("failed share: %d/%d operations", r.res.Failed, r.res.Attempted)
	out, err := json.Marshal(r.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// loadManifest reads the metric names and units a run must report: the
// end-to-end metrics, or with traced the per-layer ones.
func loadManifest(path string, traced bool) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type entry struct{ Name, Unit string }
	var m struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := m.EndToEnd
	if traced {
		list = m.PerLayer
	}
	want := make(map[string]string, len(list))
	for _, e := range list {
		want[e.Name] = e.Unit
	}
	return want, nil
}

// conform checks the run's metrics against the manifest's. Every
// end-to-end metric is measured on every workload, so a missing or
// non-finite one is an error. A per-layer metric the traced run did not
// measure (a layer off the workload's path or not decomposed on it, or a
// fold mode no ack took) reads 0 and is named in a note.
func (r *run) conform(want map[string]string) error {
	var unmeasured []string
	for name, m := range r.res.Metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %s is not in the manifest", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s in %s, manifest says %s", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			if !r.trace {
				return fmt.Errorf("metric %s is %v", name, m.Value)
			}
			delete(r.res.Metrics, name)
		}
	}
	for name, unit := range want {
		if _, ok := r.res.Metrics[name]; ok {
			continue
		}
		if !r.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", name)
		}
		r.set(name, 0, unit)
		unmeasured = append(unmeasured, name)
	}
	if len(unmeasured) > 0 {
		sort.Strings(unmeasured)
		note("not measured by this workload's traced run, reported as 0: %v", unmeasured)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// repeatUntil runs pass at least once and again until the measured passes
// together reach minSec, stopping at the first error.
func repeatUntil(minSec float64, pass func() error) error {
	start := time.Now()
	for {
		if err := pass(); err != nil {
			return err
		}
		if time.Since(start).Seconds() >= minSec {
			return nil
		}
	}
}

// medianTime runs f n times and returns its median duration in seconds,
// stopping at the first error. A collection runs before each call, so every
// call starts from a settled heap.
func medianTime(n int, f func() error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		runtime.GC()
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t).Seconds()
	}
	return median(ds), nil
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailPercentile returns the highest whole percentile of xs that leaves at
// least minBeyond samples strictly above it, with that count.
func tailPercentile(xs []float64, minBeyond int) (p, v float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p = 99; p >= 50; p-- {
		v = percentile(s, p)
		beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			return p, v, beyond
		}
	}
	return p, v, beyond
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// retainedHeapMB collects garbage and returns the live Go heap in MiB:
// what the caller still holds after its timed work, such as a pass's
// dataset and analyses or a running server's stream state. The peak live
// heap is not reported: a collection pass grows its heap steadily, so only
// about nine GC cycles sample it, and where the last one lands moved the
// peak by a fifth between runs of the same work.
func retainedHeapMB() float64 {
	// The second collection frees what sync.Pool caches survived the first.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// scratch returns a fresh path inside the run directory.
func (r *run) scratch(name string) string { return filepath.Join(r.dir, name) }

// spansPath is where a traced run writes its spans.
func (r *run) spansPath(workload string) string {
	return filepath.Join(r.root, "spans-"+workload+".jsonl")
}
