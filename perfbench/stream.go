package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mobilebench/internal/core"
	"mobilebench/internal/dist"
	"mobilebench/internal/server"
)

const (
	// streamAcks is the ingest count: the 98th percentile then has 12
	// acks beyond it.
	streamAcks = 600
	// reportEvery is how many acks pass between report jobs.
	reportEvery = 50
	// readPeriod is the change-log reader's schedule.
	readPeriod = 100 * time.Millisecond
	// jobPoll is the job-completion poll interval.
	jobPoll = time.Millisecond
)

// stack is one in-process mbserved: HTTP API with streaming ingest and a
// result cache, a fleet coordinator, and one dist worker connected to it
// over loopback TCP.
type stack struct {
	dir     string
	srv     *server.Server
	coord   *dist.Coordinator
	worker  *dist.Worker
	httpSrv *http.Server
	base    string
	client  *http.Client

	workerDone chan error
	httpDone   chan error
}

// startStack brings a stack up and returns once /readyz answers 200, i.e.
// the server listens and the worker has joined the fleet.
func startStack(dir string) (*stack, error) {
	s := &stack{dir: dir, client: &http.Client{Timeout: 60 * time.Second}}
	s.coord = dist.NewCoordinator(dist.CoordinatorConfig{})
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go s.coord.Serve(cln)
	coord := s.coord
	s.srv, err = server.New(server.Config{
		StateDir: filepath.Join(dir, "state"),
		CacheDir: filepath.Join(dir, "cache"),
		Stream:   server.StreamConfig{Enabled: true, Workers: workers},
		Execute: func(ctx context.Context, id string, spec server.Spec, ckpt string) (json.RawMessage, error) {
			raw, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			return coord.Execute(ctx, id, raw, ckpt)
		},
		Ready: func() bool {
			n, _, _ := coord.Stats()
			return n > 0
		},
	})
	if err != nil {
		s.coord.Close()
		return nil, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + hln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	s.httpDone = make(chan error, 1)
	go func() { s.httpDone <- s.httpSrv.Serve(hln) }()

	s.worker, err = dist.NewWorker(dist.WorkerConfig{ID: "w1", Capacity: 1}, execSpec)
	if err != nil {
		s.close()
		return nil, err
	}
	s.workerDone = make(chan error, 1)
	go func() { s.workerDone <- s.worker.Run(context.Background(), cln.Addr().String()) }()

	// Wait for the worker in process with short sleeps. Spinning on
	// runtime.Gosched keeps a processor busy, and while both are busy the
	// runtime polls the network only every 10ms, so the worker's handshake
	// stalled whole runs of set-ups by 5-10ms.
	deadline := time.Now().Add(30 * time.Second)
	for n, _, _ := coord.Stats(); n == 0; n, _, _ = coord.Stats() {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("no worker joined within 30s")
		}
		time.Sleep(20 * time.Microsecond)
	}
	code, _, err := s.do("GET", "/readyz", nil)
	if err != nil || code != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("stack not ready: status %d, %v", code, err)
	}
	return s, nil
}

// execSpec is the worker's executor, as mbserved -worker runs it.
func execSpec(ctx context.Context, _ string, raw json.RawMessage, ckpt string) (json.RawMessage, error) {
	var sp server.Spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return server.ExecuteSpec(ctx, sp, ckpt)
}

// close drains the server, stops the fleet and the listener, and waits for
// every goroutine the stack started.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
	}
	if s.worker != nil {
		s.worker.Close()
		if err := <-s.workerDone; !errors.Is(err, context.Canceled) {
			errs = append(errs, err)
		}
	}
	s.coord.Close()
	if s.httpSrv != nil {
		errs = append(errs, s.httpSrv.Shutdown(ctx))
		if err := <-s.httpDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	s.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// do sends one request and returns the status and the whole body.
func (s *stack) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// streamPass is one timed stream session's observations.
type streamPass struct {
	dir                    string // the stack's directory
	wall                   float64
	heapMB                 float64
	acks                   []float64 // seconds, in ack order
	ackSeq                 []uint64
	ackModes               []string
	submits                []float64
	cold, cached           []float64
	coldBytes, cachedBytes [][]byte
	coldJobs               []string
	reads                  []float64
	readLateMax            float64
	state                  []byte
	failedReqs             int
	readFailed             int // written by the reader goroutine only
	requests               int
}

// reportJob submits POST /v1/stream/report and polls the job until it
// leaves the queue, returning submit and submit-to-done seconds, the job
// record and its result bytes.
func (s *stack) reportJob() (submit, done float64, job server.Job, ok bool, err error) {
	start := time.Now()
	code, body, err := s.do("POST", "/v1/stream/report", nil)
	if err != nil {
		return 0, 0, job, false, err
	}
	submit = time.Since(start).Seconds()
	if code != http.StatusAccepted {
		return submit, 0, job, false, nil
	}
	var acc struct{ ID string }
	if err := json.Unmarshal(body, &acc); err != nil {
		return submit, 0, job, false, err
	}
	// Poll in process: the check is a map lookup, so a 1 ms poll does
	// not load the server the way re-fetching the job document would.
	for {
		j, found := s.srv.Get(acc.ID)
		if !found {
			return submit, 0, job, false, fmt.Errorf("job %s vanished", acc.ID)
		}
		if j.Status == server.StatusDone || j.Status == server.StatusFailed {
			done = time.Since(start).Seconds()
			break
		}
		time.Sleep(jobPoll)
	}
	code, body, err = s.do("GET", "/jobs/"+acc.ID, nil)
	if err != nil {
		return submit, done, job, false, err
	}
	if err := json.Unmarshal(body, &job); err != nil {
		return submit, done, job, false, err
	}
	return submit, done, job, code == http.StatusOK && job.Status == server.StatusDone, nil
}

// runStream drives one session: a closed-loop ingest client that, every
// reportEvery acks, runs a cold report job and resubmits it unchanged
// (cached); beside it, a reader tails the change log on a fixed schedule,
// each read timed from when it was due.
func runStream(s *stack, recs []core.StreamRecord, tr *tracer) (streamPass, error) {
	p := streamPass{dir: s.dir}
	bodies := make([][]byte, len(recs))
	for i, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return p, err
		}
		bodies[i] = b
	}
	start := time.Now()
	root := tr.begin("stream.session", 0)

	stop := make(chan struct{})
	var rd sync.WaitGroup
	var readErr error
	rd.Add(1)
	go func() {
		defer rd.Done()
		readErr = p.tailReader(s, tr, root, start, stop)
	}()

	var err error
	for i, body := range bodies {
		id := tr.begin("server.ingest", root)
		t := time.Now()
		code, resp, rerr := s.do("POST", "/v1/stream", body)
		p.acks = append(p.acks, time.Since(t).Seconds())
		tr.end(id)
		p.requests++
		if rerr != nil {
			err = rerr
			break
		}
		var d core.StreamDelta
		if code != http.StatusAccepted || json.Unmarshal(resp, &d) != nil {
			p.failedReqs++
			continue
		}
		p.ackSeq = append(p.ackSeq, d.Seq)
		p.ackModes = append(p.ackModes, d.Mode)
		if (i+1)%reportEvery != 0 {
			continue
		}
		for _, cached := range []bool{false, true} {
			span := "job.report.cold"
			if cached {
				span = "job.report.cached"
			}
			id := tr.begin(span, root)
			submit, done, job, ok, jerr := s.reportJob()
			tr.end(id)
			p.requests++
			if jerr != nil {
				err = jerr
				break
			}
			if !ok || job.Cached != cached {
				p.failedReqs++
				continue
			}
			p.submits = append(p.submits, submit)
			if cached {
				p.cached = append(p.cached, done)
				p.cachedBytes = append(p.cachedBytes, job.Result)
			} else {
				p.cold = append(p.cold, done)
				p.coldBytes = append(p.coldBytes, job.Result)
				p.coldJobs = append(p.coldJobs, job.ID)
			}
		}
		if err != nil {
			break
		}
	}
	close(stop)
	rd.Wait()
	tr.end(root)
	p.wall = time.Since(start).Seconds()
	p.heapMB = retainedHeapMB()
	if err == nil {
		err = readErr
	}
	if err != nil {
		return p, err
	}
	code, state, err := s.do("GET", "/v1/stream/state", nil)
	if err != nil {
		return p, err
	}
	p.requests++
	if code != http.StatusOK {
		p.failedReqs++
	}
	p.state = state
	return p, nil
}

// tailReader polls GET /v1/stream/changes every readPeriod until stop,
// recording each read's latency from its due time.
func (p *streamPass) tailReader(s *stack, tr *tracer, parent int, start time.Time, stop <-chan struct{}) error {
	var since uint64
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * readPeriod)
		select {
		case <-stop:
			return nil
		case <-time.After(time.Until(due)):
		}
		if late := time.Since(due).Seconds(); late > p.readLateMax {
			p.readLateMax = late
		}
		id := tr.begin("server.changes", parent)
		code, body, err := s.do("GET", "/v1/stream/changes?since="+strconv.FormatUint(since, 10), nil)
		p.reads = append(p.reads, time.Since(due).Seconds())
		tr.end(id)
		if err != nil {
			return err
		}
		var ch struct {
			LastSeq uint64 `json:"last_seq"`
		}
		if code != http.StatusOK || json.Unmarshal(body, &ch) != nil {
			p.readFailed++
			continue
		}
		since = ch.LastSeq
	}
}

// streamChecks verifies a pass's outputs and counts its operations.
func streamChecks(ctx context.Context, r *run, p streamPass, recs []core.StreamRecord) error {
	r.ops(p.requests+len(p.reads), p.failedReqs+p.readFailed, "stream requests refused or malformed")
	contiguous := len(p.ackSeq) == len(recs)
	for i, seq := range p.ackSeq {
		contiguous = contiguous && seq == uint64(i+1)
	}
	r.op(contiguous, "acked sequence numbers are not 1..n")
	var got core.Summary
	if err := json.Unmarshal(p.state, &got); err != nil {
		return err
	}
	want, err := core.StreamBatch(ctx, ackedRecords(recs), core.StreamOptions{Workers: workers})
	if err != nil {
		return err
	}
	// The folded units, generation and sequence must match the batch
	// comparator exactly. The sweep (scores, best k, clusters, subset) is
	// bit-identical to it only while warm starts land where the cold search
	// does; cluster.SweepOptions documents that a cell swept past the
	// natural cluster count may settle elsewhere, so a drift there is
	// reported, not failed. The traced run checks the whole state against a
	// direct fold through the same incremental engine.
	r.op(jsonEqual(got.Units, want.Units) && got.Gen == want.Gen && got.LastSeq == want.LastSeq,
		"final /v1/stream/state units, gen or last_seq differ from core.StreamBatch over the acked records")
	if !jsonEqual(got, want) {
		drift := 0
		for i := range got.Scores {
			if i >= len(want.Scores) || got.Scores[i] != want.Scores[i] {
				drift++
			}
		}
		note("warm-start drift: final sweep differs from core.StreamBatch in %d of %d score cells (best k %d vs %d)",
			drift, len(want.Scores), got.BestK, want.BestK)
	}
	same := len(p.coldBytes) == streamAcks/reportEvery && len(p.cachedBytes) == len(p.coldBytes)
	for i, b := range p.cachedBytes {
		same = same && bytes.Equal(b, p.coldBytes[i])
	}
	r.op(same, "a cached report's bytes differ from its cold report's")
	return nil
}

func jsonEqual(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// ackedRecords numbers the records as the server does on ingest.
func ackedRecords(recs []core.StreamRecord) []core.StreamRecord {
	out := append([]core.StreamRecord(nil), recs...)
	for i := range out {
		out[i].Seq = uint64(i + 1)
	}
	return out
}

func mbservedStream(ctx context.Context, r *run) error {
	recs := streamRecords(r.seed, streamAcks)
	i := 0
	newDir := func() (string, error) {
		i++
		d := r.scratch(fmt.Sprintf("stack-%d", i))
		return d, os.MkdirAll(d, 0o755)
	}
	setup, err := medianTime(setupReps, func() error {
		d, err := newDir()
		if err != nil {
			return err
		}
		s, err := startStack(d)
		if err != nil {
			return err
		}
		return s.close()
	})
	if err != nil {
		return err
	}
	session := func(tr *tracer) (streamPass, error) {
		d, err := newDir()
		if err != nil {
			return streamPass{}, err
		}
		s, err := startStack(d)
		if err != nil {
			return streamPass{}, err
		}
		p, err := runStream(s, recs, tr)
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = streamChecks(ctx, r, p, recs)
		}
		return p, err
	}
	if r.trace {
		return mbservedStreamTraced(ctx, r, recs, session)
	}
	var passes []streamPass
	err = repeatUntil(r.seconds, func() error {
		p, err := session(nil)
		passes = append(passes, p)
		return err
	})
	if err != nil {
		return err
	}
	var wall, heap, rate []float64
	for _, p := range passes {
		pct, tail, beyond := tailPercentile(p.acks, 10)
		note("mbserved-stream: %d acks, p50 %.2fms, p%.0f %.2fms (%d acks beyond); %d cold reports, p50 %.2fms; %d cached, p50 %.2fms; %d reads, p50 %.2fms, generator at most %.1fms late",
			len(p.acks), 1e3*median(p.acks), pct, 1e3*tail, beyond, len(p.cold), 1e3*median(p.cold), len(p.cached), 1e3*median(p.cached), len(p.reads), 1e3*median(p.reads), 1e3*p.readLateMax)
		wall = append(wall, p.wall)
		heap = append(heap, p.heapMB)
		rate = append(rate, float64(len(p.acks))/sum(p.acks))
	}
	r.set("setup_s", setup, "s")
	r.set("wall_s", median(wall), "s")
	r.set("retained_heap_mb", median(heap), "MB")
	// The stream's operation rate: acks per second of ingest time, which
	// leaves out the report jobs that share the session's wall time.
	r.set("ops_per_s", median(rate), "1/s")
	return nil
}
