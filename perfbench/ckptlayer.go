package main

import (
	"context"
	"crypto/sha256"
	"io"
	"os"
	"time"

	"mobilebench/internal/checkpoint"
	"mobilebench/internal/core"
)

// ffCheckpointTraced repeats the workload untraced and traced, runs the
// same collection without a checkpoint, and replays the final snapshot's
// records through a fresh checkpoint.Writer in collection order, timing
// each Put and, separately, the Encode inside it.
func ffCheckpointTraced(ctx context.Context, r *run, opts core.Options, fp uint64) error {
	base, err := collectAndAnalyze(ctx, nil, opts)
	if err != nil {
		return err
	}
	checkPass(r, "ff-checkpoint", "untraced pass", base, 3)
	tr := newTracer()
	p, err := collectAndAnalyze(ctx, tr, opts)
	if err != nil {
		return err
	}
	checkPass(r, "ff-checkpoint", "traced pass", p, 3)
	snap, err := checkSnapshot(r, opts.Checkpoint, fp, p.ds)
	if err != nil {
		return err
	}

	plain := opts
	plain.Checkpoint = ""
	var noCkpt collectPass
	_, err = tr.timed("core.CollectContext without checkpoint", 0, func() (err error) {
		noCkpt, err = collectAndAnalyze(ctx, nil, plain)
		return err
	})
	if err != nil {
		return err
	}

	// Replay: the snapshot keeps records in Put order, which is the
	// collection's completion order.
	replay := r.scratch("replay.ckpt")
	w := checkpoint.NewWriter(replay, fp, nil)
	replaySpan := tr.begin("checkpoint.replay", 0)
	puts := make([]float64, len(snap.Records))
	for i, rec := range snap.Records {
		id := tr.begin("checkpoint.Writer.Put", replaySpan)
		t := time.Now()
		err := w.Put(rec)
		puts[i] = time.Since(t).Seconds()
		tr.end(id)
		if err != nil {
			return err
		}
	}
	encode := make([]float64, len(snap.Records))
	written := 0
	for i := range snap.Records {
		prefix := &checkpoint.Snapshot{Fingerprint: fp, Records: snap.Records[:i+1]}
		id := tr.begin("checkpoint.Encode", replaySpan)
		t := time.Now()
		n := len(checkpoint.Encode(prefix))
		encode[i] = time.Since(t).Seconds()
		tr.end(id)
		written += n
	}
	tr.end(replaySpan)
	orig, final, err := fileSum(opts.Checkpoint)
	if err != nil {
		return err
	}
	again, _, err := fileSum(replay)
	if err != nil {
		return err
	}
	r.op(orig == again, "replayed snapshot differs from the collection's")

	busy := sum(puts)
	gap := p.wall - noCkpt.wall
	setSimLayer(r, p)
	r.set("checkpoint.puts", float64(len(puts)), "count")
	r.set("checkpoint.put_p50_ms", 1e3*median(puts), "ms")
	r.set("checkpoint.put_busy_s", busy, "s")
	r.set("checkpoint.written_mb", float64(written)/(1<<20), "MB")
	r.set("checkpoint.final_mb", float64(final)/(1<<20), "MB")
	r.set("checkpoint.encode_ms", 1e3*sum(encode), "ms")
	r.set("checkpoint.write_sync_ms", 1e3*(busy-sum(encode)), "ms")
	r.set("core.ff_collect_s", noCkpt.wall, "s")
	note("checkpoint: %d Puts, %.1f MB written, final %.1f MB; Put busy %.3fs = Encode %.3fs + write/fsync/rename %.3fs",
		len(puts), float64(written)/(1<<20), float64(final)/(1<<20), busy, sum(encode), busy-sum(encode))
	note("ff-checkpoint accounting: wall %.3fs - uncheckpointed wall %.3fs = gap %.3fs; Put busy %.3fs is %.0f%% of the gap and %.0f%% of the wall",
		p.wall, noCkpt.wall, gap, busy, 100*busy/gap, 100*busy/p.wall)
	if busy > gap {
		note("  Puts serialize under the writer's mutex while the other worker keeps simulating, so %.3fs of Put time overlaps simulation", busy-gap)
	} else {
		note("  unaccounted %.3fs", gap-busy)
	}
	return r.finishTrace(tr, "ff-checkpoint", p.wall, base.wall)
}

// fileSum returns a file's SHA-256 and size.
func fileSum(path string) ([sha256.Size]byte, int64, error) {
	var out [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return out, 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	copy(out[:], h.Sum(nil))
	return out, n, err
}
