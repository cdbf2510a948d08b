package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/core"
	"mobilebench/internal/dist"
	"mobilebench/internal/server"
)

// mbservedStreamTraced repeats the session untraced and traced, then
// decomposes the ack and the report job from outside: the same records
// folded directly through core.StreamState.Ingest and appended with
// checkpoint.Log.Append, the report spec executed directly, and its
// dispatch frame and cache entry timed through the dist functions.
func mbservedStreamTraced(ctx context.Context, r *run, recs []core.StreamRecord, session func(*tracer) (streamPass, error)) error {
	base, err := session(nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	p, err := session(tr)
	if err != nil {
		return err
	}
	acked := ackedRecords(recs)

	// Fold: the engine the server runs, without HTTP, log or mutex.
	st := core.NewStreamState(core.StreamOptions{Workers: workers})
	folds := make([]float64, len(acked))
	modeCount := map[string]int{}
	modeTimes := map[string][]float64{}
	cells, warm := 0, 0
	sameModes := len(p.ackModes) == len(acked)
	foldSpan := tr.begin("core.StreamState.Ingest", 0)
	for i, rec := range acked {
		t := time.Now()
		d, err := st.Ingest(ctx, rec)
		folds[i] = time.Since(t).Seconds()
		if err != nil {
			return err
		}
		modeCount[d.Mode]++
		modeTimes[d.Mode] = append(modeTimes[d.Mode], folds[i])
		cells += d.Cells
		warm += d.WarmCells
		sameModes = sameModes && p.ackModes[i] == d.Mode
	}
	tr.end(foldSpan)
	r.op(sameModes, "direct fold modes differ from the server's acks")
	var direct bytes.Buffer
	if err := json.NewEncoder(&direct).Encode(st.Summary()); err != nil {
		return err
	}
	r.op(bytes.Equal(p.state, direct.Bytes()), "final /v1/stream/state differs from a direct core.StreamState fold of the acked records")

	// Append: the same payloads the server persists, on a scratch log.
	lg, err := checkpoint.OpenLog(r.scratch("append.log"))
	if err != nil {
		return err
	}
	appends := make([]float64, len(acked))
	logSpan := tr.begin("checkpoint.Log.Append", 0)
	for i, rec := range acked {
		payload, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		t := time.Now()
		err = lg.Append(payload)
		appends[i] = time.Since(t).Seconds()
		if err != nil {
			lg.Close()
			return err
		}
	}
	tr.end(logSpan)
	if err := lg.Close(); err != nil {
		return err
	}
	rest := make([]float64, len(acked))
	for i := range acked {
		rest[i] = p.acks[i] - folds[i] - appends[i]
	}

	for _, m := range []string{core.StreamModeAppend, core.StreamModeUpdate, core.StreamModeRebuild, core.StreamModeUnchanged} {
		r.set("stream.mode."+m, float64(modeCount[m]), "count")
		if m != core.StreamModeUnchanged {
			r.set("stream.fold_p50_ms."+m, 1e3*median(modeTimes[m]), "ms")
		}
	}
	pct, tail, beyond := tailPercentile(p.acks, 10)
	r.set("server.ack_p50_ms", 1e3*median(p.acks), "ms")
	r.set("server.ack_tail_ms", 1e3*tail, "ms")
	note("ack tail: p%.0f with %d of %d acks beyond it", pct, beyond, len(p.acks))
	r.set("cluster.warm_share", float64(warm)/float64(cells), "ratio")
	r.set("checkpoint.log_append_p50_us", 1e6*median(appends), "us")
	r.set("server.ack_overhead_ms", 1e3*median(rest), "ms")
	r.set("server.submit_ms", 1e3*median(p.submits), "ms")
	// Too unsteady between runs for an end-to-end bound, so reported here
	// from the traced session: the change-log reads' median (the reads land
	// on whichever fold holds the stream mutex) and the report jobs'
	// medians (a dozen samples each, dominated by fsyncs of the job record
	// and, cold, by a batch sweep that grows with the stream).
	r.set("server.tail_read_p50_ms", 1e3*median(p.reads), "ms")
	r.set("server.report_cold_p50_ms", 1e3*median(p.cold), "ms")
	r.set("server.report_cached_p50_ms", 1e3*median(p.cached), "ms")
	note("stream modes: %v; %d of %d refreshed cells warm", modeCount, warm, cells)
	note("ack p50 %.2fms = fold p50 %.2fms + Log.Append p50 %.3fms + server remainder p50 %.2fms (medians of per-ack values)",
		1e3*median(p.acks), 1e3*median(folds), 1e3*median(appends), 1e3*median(rest))

	if err := jobPath(ctx, r, tr, p, acked); err != nil {
		return err
	}
	return r.finishTrace(tr, "mbserved-stream", p.wall, base.wall)
}

// jobPath decomposes the report jobs: each report's spec executed
// directly (server.ExecuteSpec) and through core.StreamBatch, the last
// spec's dispatch frame encoded and parsed, its result stored in and read
// from a dist.Cache, and the persisted job record measured.
func jobPath(ctx context.Context, r *run, tr *tracer, p streamPass, acked []core.StreamRecord) error {
	if len(p.cold) == 0 {
		return fmt.Errorf("job path: no cold report completed")
	}
	var direct, batch, overhead []float64
	var spec server.Spec
	var result json.RawMessage
	same := len(p.coldBytes) == len(p.cold)
	for j := range p.cold {
		spec = server.Spec{Kind: "streamreport", StreamRecords: acked[:(j+1)*reportEvery], Workers: workers}
		d, err := tr.timed("server.ExecuteSpec", 0, func() (err error) {
			result, err = server.ExecuteSpec(ctx, spec, "")
			return err
		})
		if err != nil {
			return err
		}
		b, err := tr.timed("core.StreamBatch", 0, func() error {
			_, err := core.StreamBatch(ctx, spec.StreamRecords, core.StreamOptions{Workers: workers})
			return err
		})
		if err != nil {
			return err
		}
		direct = append(direct, d)
		batch = append(batch, b)
		overhead = append(overhead, p.cold[j]-d)
		same = same && bytes.Equal(bytes.TrimSpace(result), bytes.TrimSpace(p.coldBytes[j]))
	}
	r.op(same, "a dispatched report's bytes differ from a direct server.ExecuteSpec of its spec")

	raw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	frame := dist.Frame{Type: dist.TypeDispatch, Lease: "lease-000001", Job: "job-000001", Spec: raw,
		Checkpoint: filepath.Join(r.dir, "job-000001.ckpt")}
	var line []byte
	enc, err := medianTime(9, func() (err error) {
		line, err = dist.EncodeFrame(frame)
		return err
	})
	if err != nil {
		return err
	}
	parse, err := medianTime(9, func() error {
		_, err := dist.ParseFrame(line)
		return err
	})
	if err != nil {
		return err
	}
	c, err := dist.OpenCache(r.scratch("cache"))
	if err != nil {
		return err
	}
	key, err := spec.CacheKey("")
	if err != nil {
		return err
	}
	put, err := medianTime(9, func() error { return c.Put(key, result) })
	if err != nil {
		return err
	}
	get, err := medianTime(9, func() error {
		if _, ok := c.Get(key); !ok {
			return fmt.Errorf("cache miss on %s", key)
		}
		return nil
	})
	if err != nil {
		return err
	}

	last := p.coldJobs[len(p.coldJobs)-1]
	fi, err := os.Stat(filepath.Join(p.dir, "state", last+".json"))
	if err != nil {
		return err
	}
	r.set("server.job_record_kb", float64(fi.Size())/1024, "KB")
	r.set("dist.frame_kb", float64(len(line))/1024, "KB")
	r.set("dist.encode_ms", 1e3*enc, "ms")
	r.set("dist.parse_ms", 1e3*parse, "ms")
	r.set("dist.dispatch_overhead_ms", 1e3*median(overhead), "ms")
	r.set("dist.cache_get_ms", 1e3*get, "ms")
	r.set("dist.cache_put_ms", 1e3*put, "ms")
	r.set("core.stream_batch_ms", 1e3*median(batch), "ms")
	note("report cold p50 %.2fms = direct server.ExecuteSpec p50 %.2fms (core.StreamBatch p50 %.2fms) + dispatch overhead p50 %.2fms; last frame %.1f KB, job record %.1f KB",
		1e3*median(p.cold), 1e3*median(direct), 1e3*median(batch), 1e3*median(overhead), float64(len(line))/1024, float64(fi.Size())/1024)
	return nil
}
