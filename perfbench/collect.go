package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"reflect"
	"sort"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/cluster"
	"mobilebench/internal/core"
	"mobilebench/internal/sim"
	"mobilebench/internal/subset"
)

// workers is the parallelism of every collection, analysis and stream
// sweep: at most two simulation workers on the two-CPU reference machine.
const workers = 2

// analyses are the paper outputs computed from a dataset.
type analyses struct {
	scores  []cluster.Scores
	tableVI []subset.Reduction
	fig7    map[string][]subset.CurvePoint
	obs     []core.Observation
}

// collectPass is one timed collection plus the paper's analyses.
type collectPass struct {
	ds                                  *core.Dataset
	an                                  analyses
	wall, collect, sweep, curves, obsSp float64
	heapMB                              float64
}

// collectAndAnalyze runs core.CollectContext (into a fresh snapshot file
// when the options checkpoint), then the Figure 4 sweep (k=2..9), Table VI
// with Figure 7, and the observations, each in its own span under a "pass"
// span.
func collectAndAnalyze(ctx context.Context, tr *tracer, opts core.Options) (collectPass, error) {
	var p collectPass
	if err := freshCheckpoint(opts); err != nil {
		return p, err
	}
	start := time.Now()
	root := tr.begin("pass", 0)
	var err error
	p.collect, err = tr.timed("core.CollectContext", root, func() (err error) {
		p.ds, err = core.CollectContext(ctx, opts)
		return err
	})
	if err == nil {
		p.sweep, err = tr.timed("cluster.Sweep", root, func() (err error) {
			p.an.scores, err = p.ds.Figure4Context(ctx, 2, 9)
			return err
		})
	}
	if err == nil {
		p.curves, err = tr.timed("subset.TableVI+Figure7", root, func() (err error) {
			if p.an.tableVI, err = p.ds.TableVI(); err != nil {
				return err
			}
			p.an.fig7, err = p.ds.Figure7Context(ctx)
			return err
		})
	}
	if err == nil {
		p.obsSp, err = tr.timed("core.Observations", root, func() (err error) {
			p.an.obs, err = p.ds.Observations()
			return err
		})
	}
	tr.end(root)
	p.wall = time.Since(start).Seconds()
	p.heapMB = retainedHeapMB()
	return p, err
}

// simSeconds is the simulated time a dataset covers (every run of every
// unit).
func simSeconds(ds *core.Dataset) float64 {
	return ds.TotalRuntimeSec() * float64(ds.Runs)
}

// pairsPerSec is a collection's operation rate: (unit, run) pairs
// simulated per second of core.CollectContext.
func pairsPerSec(p collectPass) float64 {
	return float64(len(p.ds.Units)*p.ds.Runs) / p.collect
}

// setSimLayer reports a traced pass's simulation rate, its fit error
// against the calibration targets and its analysis spans.
func setSimLayer(r *run, p collectPass) {
	r.set("sim.rate", simSeconds(p.ds)/p.collect, "sim_s/s")
	r.set("sim.target_err_pct", targetErrPct(p.ds), "%")
	r.set("cluster.sweep_ms", 1e3*p.sweep, "ms")
	r.set("subset.curves_ms", 1e3*p.curves, "ms")
	r.set("core.observations_ms", 1e3*p.obsSp, "ms")
}

// targetErrPct is the mean |relative error| of per-unit runtime,
// instruction count and IPC against the calibration targets, in percent.
func targetErrPct(ds *core.Dataset) float64 {
	var errs []float64
	rel := func(got, want float64) {
		if want != 0 {
			errs = append(errs, math.Abs(got-want)/math.Abs(want))
		}
	}
	for _, u := range ds.Units {
		t := u.Target
		rel(u.Agg.RuntimeSec, t.RuntimeSec)
		rel(u.Agg.InstrCount/1e9, t.ICBillions)
		rel(u.Agg.IPC, t.IPC)
	}
	if len(errs) == 0 {
		return math.NaN()
	}
	return 100 * sum(errs) / float64(len(errs))
}

// outputDigest hashes every unit's aggregates and every analysis output.
// %v prints floats in their shortest exact form and maps in key order, so
// equal outputs give equal digests.
func outputDigest(p collectPass) string {
	h := sha256.New()
	for _, u := range p.ds.Units {
		fmt.Fprintf(h, "%s %v\n", u.Workload.Name, u.Agg)
	}
	fmt.Fprintf(h, "%v\n%v\n%v\n%v\n", p.an.scores, p.an.tableVI, p.an.fig7, p.an.obs)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkPass counts the structural output checks every seed must pass and
// the pinned digest where one is recorded for the seed; name is the
// workload, pass labels the pass in failure messages.
func checkPass(r *run, name, pass string, p collectPass, runs int) {
	ds, what := p.ds, name+" "+pass
	r.op(len(ds.Units) == 18, fmt.Sprintf("%s: %d units, want 18", what, len(ds.Units)))
	r.op(!ds.Degraded(), what+": dataset degraded")
	r.op(ds.Runs == runs, fmt.Sprintf("%s: %d runs averaged, want %d", what, ds.Runs, runs))
	r.op(len(p.an.scores) == 3*8, fmt.Sprintf("%s: %d sweep cells, want 24", what, len(p.an.scores)))
	r.op(len(p.an.tableVI) == 3 && len(p.an.fig7) == 3, what+": Table VI / Figure 7 incomplete")
	r.op(len(p.an.obs) > 0, what+": no observations")
	checkPinned(r, name+"/outputs", outputDigest(p))
}

// checkPinned compares a digest with the one recorded for this seed, if any.
func checkPinned(r *run, key, got string) {
	want, ok := pinned[fmt.Sprintf("%s@%d", key, r.seed)]
	if !ok {
		note("%s digest %s (no pinned value for seed %d)", key, got, r.seed)
		return
	}
	r.op(got == want, fmt.Sprintf("%s digest %s, pinned %s", key, got, want))
}

// checkSnapshot reloads a collection's checkpoint snapshot and checks it
// against the collected dataset: one record per (unit, run), each unit's
// runs averaging to exactly the unit's aggregates, and the digest of the
// records in (unit, run) order (Put order follows worker scheduling, so
// the file's own record order is not stable) where one is pinned.
func checkSnapshot(r *run, path string, fingerprint uint64, ds *core.Dataset) (*checkpoint.Snapshot, error) {
	snap, err := checkpoint.Load(path, fingerprint)
	if err != nil {
		return nil, err
	}
	sorted := *snap
	sorted.Records = append([]checkpoint.RunRecord(nil), snap.Records...)
	sort.Slice(sorted.Records, func(i, j int) bool {
		a, b := sorted.Records[i], sorted.Records[j]
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		return a.Run < b.Run
	})
	byUnit := map[string][]*sim.Result{}
	for _, rec := range sorted.Records {
		if !rec.Failed {
			byUnit[rec.Unit] = append(byUnit[rec.Unit], rec.Result)
		}
	}
	r.op(len(snap.Records) == len(ds.Units)*ds.Runs, fmt.Sprintf("ff-checkpoint: snapshot holds %d records, want %d", len(snap.Records), len(ds.Units)*ds.Runs))
	same := 0
	for _, u := range ds.Units {
		avg, err := sim.AverageResults(u.Workload.Name, byUnit[u.Workload.Name])
		if err == nil && len(byUnit[u.Workload.Name]) == ds.Runs && reflect.DeepEqual(avg.Agg, u.Agg) {
			same++
		}
	}
	r.ops(len(ds.Units), len(ds.Units)-same, "units whose reloaded runs do not average to the collected aggregates")
	sumv := sha256.Sum256(checkpoint.Encode(&sorted))
	checkPinned(r, "ff-checkpoint/snapshot", hex.EncodeToString(sumv[:])[:16])
	return snap, nil
}

// engineSetup times building the simulation engine, the collection's
// set-up, as the median of several builds.
func engineSetup(cfg sim.Config) (float64, error) {
	return medianTime(setupReps, func() error {
		_, err := sim.New(cfg)
		return err
	})
}

// runCollect runs the untraced workload: passes of collectAndAnalyze until
// the run's measuring time is reached, the output checks on each, and the
// end-to-end metrics as medians over the passes. It returns the last pass;
// earlier passes are checked and dropped as they finish, so no pass's heap
// holds another's dataset.
func runCollect(ctx context.Context, r *run, name string, opts core.Options, setup float64) (collectPass, error) {
	var last collectPass
	var wall, heap, rate []float64
	err := repeatUntil(r.seconds, func() error {
		last = collectPass{}
		p, err := collectAndAnalyze(ctx, nil, opts)
		if err != nil {
			return err
		}
		checkPass(r, name, fmt.Sprintf("pass %d", len(wall)), p, opts.Runs)
		wall = append(wall, p.wall)
		heap = append(heap, p.heapMB)
		rate = append(rate, pairsPerSec(p))
		last = p
		return nil
	})
	if err != nil {
		return last, err
	}
	note("%s: %d pass(es); last: collect %.3fs, sweep %.1fms, Table VI+Figure 7 %.1fms, observations %.1fms; sim rate %.1f sim_s/s, target error %.3f%%",
		name, len(wall), last.collect, 1e3*last.sweep, 1e3*last.curves, 1e3*last.obsSp, simSeconds(last.ds)/last.collect, targetErrPct(last.ds))
	r.set("setup_s", setup, "s")
	r.set("wall_s", median(wall), "s")
	r.set("retained_heap_mb", median(heap), "MB")
	r.set("ops_per_s", median(rate), "1/s")
	return last, nil
}

// freshCheckpoint removes the collection's snapshot file, if it names one:
// every pass is a new checkpointed collection, not a resume.
func freshCheckpoint(opts core.Options) error {
	if opts.Checkpoint == "" {
		return nil
	}
	if err := os.Remove(opts.Checkpoint); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

func paperExact(ctx context.Context, r *run) error {
	cfg := sim.Config{Seed: r.seed}
	opts := core.Options{Sim: cfg, Runs: 1, Workers: workers}
	setup, err := engineSetup(cfg)
	if err != nil {
		return err
	}
	if r.trace {
		return paperExactTraced(ctx, r, opts)
	}
	_, err = runCollect(ctx, r, "paper-exact", opts, setup)
	return err
}

func ffCheckpoint(ctx context.Context, r *run) error {
	cfg := sim.Config{Seed: r.seed, FastForward: true}
	opts := core.Options{Sim: cfg, Runs: 3, Workers: workers, Checkpoint: r.scratch("collect.ckpt")}
	fp, err := opts.CheckpointFingerprint()
	if err != nil {
		return err
	}
	setup, err := engineSetup(cfg)
	if err != nil {
		return err
	}
	if r.trace {
		return ffCheckpointTraced(ctx, r, opts, fp)
	}
	last, err := runCollect(ctx, r, "ff-checkpoint", opts, setup)
	if err != nil {
		return err
	}
	_, err = checkSnapshot(r, opts.Checkpoint, fp, last.ds)
	return err
}
