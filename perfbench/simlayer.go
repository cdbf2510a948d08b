package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"mobilebench/internal/branch"
	"mobilebench/internal/cache"
	"mobilebench/internal/core"
	"mobilebench/internal/gpu"
	"mobilebench/internal/par"
	"mobilebench/internal/sim"
	"mobilebench/internal/soc"
	"mobilebench/internal/workload"
	"mobilebench/internal/xrand"
)

// paperExactTraced repeats the workload untraced and traced, then times
// the simulator layer by re-running every (unit, run) through
// sim.Engine.RunContext and the tick-loop kernels in isolation.
func paperExactTraced(ctx context.Context, r *run, opts core.Options) error {
	base, err := collectAndAnalyze(ctx, nil, opts)
	if err != nil {
		return err
	}
	checkPass(r, "paper-exact", "untraced pass", base, 1)
	tr := newTracer()
	p, err := collectAndAnalyze(ctx, tr, opts)
	if err != nil {
		return err
	}
	checkPass(r, "paper-exact", "traced pass", p, 1)

	eng, err := sim.New(opts.Sim)
	if err != nil {
		return err
	}
	units := p.ds.Units
	runs := make([]*sim.Result, len(units))
	durs := make([]float64, len(units))
	simSpan := tr.begin("sim.rerun", 0)
	err = par.ForEach(ctx, workers, len(units), func(ctx context.Context, i int) error {
		id := tr.begin("sim.Engine.RunContext "+units[i].Workload.Name, simSpan)
		t := time.Now()
		res, err := eng.RunContext(ctx, units[i].Workload, 0)
		durs[i] = time.Since(t).Seconds()
		tr.end(id)
		runs[i] = res
		return err
	})
	tr.end(simSpan)
	if err != nil {
		return err
	}
	same := 0
	for i, u := range units {
		if reflect.DeepEqual(runs[i].Agg, u.Agg) {
			same++
		}
	}
	r.ops(len(units), len(units)-same, "re-run aggregates differing from the collected dataset")

	busy := sum(durs)
	slowest := 0.0
	for _, d := range durs {
		slowest = max(slowest, d)
	}
	overhead := p.collect - busy/workers
	setSimLayer(r, p)
	r.set("sim.busy_s", busy, "s")
	r.set("sim.runs", float64(len(durs)), "count")
	r.set("sim.slowest_run_s", slowest, "s")
	r.set("core.collect_overhead_s", overhead, "s")
	note("paper-exact accounting: wall %.3fs = sim.busy %.3fs / %d workers + collect overhead %.3fs + sweep %.3fs + Table VI/Figure 7 %.3fs + observations %.3fs + unaccounted %.3fs",
		p.wall, busy, workers, overhead, p.sweep, p.curves, p.obsSp, p.wall-p.collect-p.sweep-p.curves-p.obsSp)

	if err := kernelTimings(r, eng, units, busy); err != nil {
		return err
	}
	return r.finishTrace(tr, "paper-exact", p.wall, base.wall)
}

// kernelCost accumulates one tick-loop kernel's predicted calls per
// (unit, run) and their measured cost.
type kernelCost struct {
	calls float64 // predicted calls over all units (one run each)
	ns    float64 // calls x measured ns per call
}

func (k kernelCost) nsPerCall() float64 { return k.ns / k.calls }

// kernelTimings times xrand.ZipfGen.Draw, cache.StreamGen.Batch against a
// cache.Hierarchy and branch.Stream.Measure on a tournament predictor with
// every CPU phase's own parameters, and predicts from each unit's trace how
// often the tick loop calls them: a cluster samples its miss profile when
// it is active on a refresh tick or on a phase change, driving
// Config.CacheSamples accesses and Config.BranchSamples branches. Calls
// times ns per call then predicts each kernel's share of sim.busy_s. The
// GPU texture stream, which draws gpuTexSamples addresses through the
// same generator on every tick a textured scene renders, is timed and
// counted too; the GPU's SLC pollution stream is not.
func kernelTimings(r *run, eng *sim.Engine, units []core.Unit, busy float64) error {
	cfg := eng.Config()
	plat := eng.Platform()
	// Batch, Measure and the texture stream include their own Zipf draws;
	// the *Draw costs split those out so the shares do not double count.
	var access, branches, tex, cacheDraw, branchDraw, texDraw kernelCost
	rng := xrand.New(r.seed).Split(0xbe4c)
	for _, u := range units {
		phaseCalls, phaseTicks, err := tickCounts(u, cfg)
		if err != nil {
			return err
		}
		for pi, ph := range u.Workload.Phases {
			if sc := ph.GPU; phaseTicks[pi] > 0 && sc.API != gpu.APINone && sc.WorkPerPixel > 0 && sc.Pixels() > 0 && sc.TextureWorkingSetMB > 0 {
				n := phaseTicks[pi] * gpuTexSamples
				ns, drawFrac, drawNS := timeTexture(plat.GPU, sc.TextureWorkingSetMB, rng.Split(uint64(pi)+2<<32))
				tex.calls += n
				tex.ns += n * ns
				texDraw.calls += n * drawFrac
				texDraw.ns += n * drawFrac * drawNS
			}
			calls := phaseCalls[pi]
			if calls == 0 {
				continue
			}
			cp := ph.CPU
			if cp.Mix.LoadStoreFrac > 0 && cfg.CacheSamples > 0 {
				n := calls * float64(cfg.CacheSamples)
				ns, drawFrac, drawNS, err := timeBatch(plat, cp.Access, cfg.CacheSamples, rng.Split(uint64(pi)))
				if err != nil {
					return err
				}
				access.calls += n
				access.ns += n * ns
				cacheDraw.calls += n * drawFrac
				cacheDraw.ns += n * drawFrac * drawNS
			}
			if cp.Mix.BranchFrac > 0 && cfg.BranchSamples > 0 {
				n := calls * float64(cfg.BranchSamples)
				ns, drawNS := timeMeasure(cp.Branches, cfg.BranchSamples, rng.Split(uint64(pi)+1<<32))
				branches.calls += n
				branches.ns += n * ns
				branchDraw.calls += n
				branchDraw.ns += n * drawNS
			}
		}
	}
	draw := kernelCost{calls: cacheDraw.calls + branchDraw.calls + texDraw.calls, ns: cacheDraw.ns + branchDraw.ns + texDraw.ns}
	perRun := float64(len(units))
	r.set("xrand.zipf_draw_ns", draw.nsPerCall(), "ns")
	r.set("cache.access_ns", access.nsPerCall(), "ns")
	r.set("branch.measure_ns", branches.nsPerCall(), "ns")
	r.set("xrand.draws_per_run", draw.calls/perRun, "count")
	r.set("cache.accesses_per_run", access.calls/perRun, "count")
	r.set("branch.branches_per_run", branches.calls/perRun, "count")
	share := func(ns float64) float64 { return 100 * ns / 1e9 / busy }
	note("kernel           ns/call  calls per (unit, run)  predicted share of sim.busy_s")
	note("ZipfGen.Draw     %7.1f  %21.0f  %5.1f%%", draw.nsPerCall(), draw.calls/perRun, share(draw.ns))
	note("StreamGen.Batch  %7.1f  %21.0f  %5.1f%% without its draws", access.nsPerCall(), access.calls/perRun, share(access.ns-cacheDraw.ns))
	note("Stream.Measure   %7.1f  %21.0f  %5.1f%% without its draws", branches.nsPerCall(), branches.calls/perRun, share(branches.ns-branchDraw.ns))
	note("GPU texture      %7.1f  %21.0f  %5.1f%% without its draws (StreamGen.Next + Cache.Access)", tex.nsPerCall(), tex.calls/perRun, share(tex.ns-texDraw.ns))
	return nil
}

// tickCounts predicts, per phase, how many miss-profile refreshes the tick
// loop performs over one run and how many ticks it spends there, from the
// unit's per-cluster utilization trace and its nominal phase boundaries.
func tickCounts(u core.Unit, cfg sim.Config) (refreshes, ticks []float64, err error) {
	if u.Trace == nil {
		return nil, nil, fmt.Errorf("unit %s has no trace", u.Workload.Name)
	}
	w := u.Workload
	calls := make([]float64, len(w.Phases))
	ticks = make([]float64, len(w.Phases))
	for t := 0; t < u.Trace.Samples; t++ {
		ticks[phaseAt(w, float64(t)/float64(u.Trace.Samples))]++
	}
	for _, k := range soc.Clusters() {
		s := u.Trace.Series(fmt.Sprintf("cpu.%s.util", clusterName(k)))
		if s == nil {
			continue
		}
		n := len(s.Values)
		prev := -1
		for t, v := range s.Values {
			ph := phaseAt(w, float64(t)/float64(n))
			if v > 1e-4 && (ph != prev || t%cfg.RefreshTicks == 0) {
				calls[ph]++
			}
			prev = ph
		}
	}
	return calls, ticks, nil
}

func clusterName(k soc.ClusterKind) string {
	switch k {
	case soc.Little:
		return "little"
	case soc.Mid:
		return "mid"
	default:
		return "big"
	}
}

// phaseAt maps a normalized time in [0, 1) to the phase index.
func phaseAt(w workload.Workload, frac float64) int {
	total := w.Duration()
	at := 0.0
	for i, p := range w.Phases {
		at += p.Duration
		if frac*total < at {
			return i
		}
	}
	return len(w.Phases) - 1
}

const kernelReps = 20

// timeBatch returns ns per access of StreamGen.Batch on the big cluster's
// hierarchy, the share of accesses that draw a Zipf rank, and ns per draw
// of the stream's own generators.
func timeBatch(plat *soc.Platform, pat cache.AccessPattern, n int, rng *xrand.Rand) (ns, drawFrac, drawNS float64, err error) {
	h, err := cache.NewHierarchy(plat.Clusters[soc.Big], cache.MustNew(plat.L3), cache.MustNew(plat.SLC))
	if err != nil {
		return 0, 0, 0, err
	}
	g := cache.NewStreamGen(pat, 1, rng.Split(1))
	g.Batch(h, n) // warm the hierarchy
	t := time.Now()
	for i := 0; i < kernelReps; i++ {
		g.Batch(h, n)
	}
	ns = float64(time.Since(t).Nanoseconds()) / float64(kernelReps*n)

	p := g.Pattern()
	reuse := 0.0
	if p.ReuseSkew > 0 {
		reuse = 1
	}
	hotShare := p.HotFrac
	drawFrac = hotShare + (1-hotShare)*(1-p.SequentialFrac)*reuse
	hot := xrand.NewZipfGen(int(p.HotBytes/64), 0.8)
	re := xrand.NewZipfGen(int(p.WorkingSetBytes/64), p.ReuseSkew)
	hotNS := timeDraws(&hot, rng.Split(2), n)
	reNS := timeDraws(&re, rng.Split(3), n)
	if drawFrac > 0 {
		drawNS = (hotShare*hotNS + (drawFrac-hotShare)*reNS) / drawFrac
	}
	return ns, drawFrac, drawNS, nil
}

// timeMeasure returns ns per branch of Stream.Measure on a tournament
// predictor and ns per draw of the stream's site generator.
func timeMeasure(prof branch.Profile, n int, rng *xrand.Rand) (ns, drawNS float64) {
	s := branch.NewStream(prof, rng.Split(1))
	pred := branch.NewTournament(14, 14)
	s.Measure(pred, n)
	t := time.Now()
	for i := 0; i < kernelReps; i++ {
		s.Measure(pred, n)
	}
	ns = float64(time.Since(t).Nanoseconds()) / float64(kernelReps*n)
	site := xrand.NewZipfGen(prof.Clamp().StaticBranches, 1.1)
	return ns, timeDraws(&site, rng.Split(2), n)
}

// gpuTexSamples is how many texture addresses the GPU model samples per
// tick.
const gpuTexSamples = 2048

// timeTexture returns ns per access of the GPU texture stream (address
// generation plus the L1 texture cache lookup), the share of accesses that
// draw a Zipf rank and ns per draw, with the GPU model's stream pattern.
func timeTexture(hw soc.GPU, workingSetMB float64, rng *xrand.Rand) (ns, drawFrac, drawNS float64) {
	c := cache.MustNew(soc.CacheGeometry{Name: "GPU L1 Tex", SizeBytes: hw.L1TexKB * 1024, LineBytes: 64, Ways: 4, LatencyCycles: 4})
	pat := cache.AccessPattern{WorkingSetBytes: uint64(workingSetMB * 1024 * 1024), SequentialFrac: 0.35, ReuseSkew: 0.9}
	g := cache.NewStreamGen(pat, 7, rng.Split(1))
	n := kernelReps * gpuTexSamples
	t := time.Now()
	for i := 0; i < n; i++ {
		addr, _ := g.Next()
		c.Access(addr)
	}
	ns = float64(time.Since(t).Nanoseconds()) / float64(n)
	p := g.Pattern()
	z := xrand.NewZipfGen(int(p.WorkingSetBytes/64), p.ReuseSkew)
	return ns, 1 - p.SequentialFrac, timeDraws(&z, rng.Split(2), gpuTexSamples)
}

// drawSink keeps the timed draws observable so they are not optimized out.
var drawSink int

func timeDraws(z *xrand.ZipfGen, rng *xrand.Rand, n int) float64 {
	acc := 0
	t := time.Now()
	for i := 0; i < kernelReps*n; i++ {
		acc += z.Draw(rng)
	}
	ns := float64(time.Since(t).Nanoseconds()) / float64(kernelReps*n)
	drawSink += acc
	return ns
}
