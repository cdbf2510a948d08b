//go:build linux

package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestStreamFailedAppendReackedAndReplayed: an append that fails after a
// partial write is answered 503 and leaves no bytes in stream.log, so the
// next ingest acks the same sequence number and a restart replays every
// acked record. The partial write is real: this process's file-size limit is lowered to a
// few bytes past the log's end, so the kernel writes the head of the
// record and refuses the rest with EFBIG (the Go runtime ignores
// SIGXFSZ).
func TestStreamFailedAppendReackedAndReplayed(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Stream: streamTestConfig()}
	recs := streamRecords(3)

	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	if _, resp := ingestRecord(t, ts, recs[0]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	logPath := filepath.Join(dir, "stream.log")
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}

	var orig syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &orig); err != nil {
		t.Fatal(err)
	}
	capped := orig
	capped.Cur = uint64(st.Size()) + 16
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_FSIZE, &orig) // if the ingest below fails the test
	_, resp := ingestRecord(t, ts, recs[1])
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &orig); err != nil {
		t.Fatalf("restoring the file-size limit: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest whose append hit the file-size limit answered %d, want 503 (a server-side failure)", resp.StatusCode)
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != st.Size() {
		t.Fatalf("failed append left stream.log at %d bytes, want the %d before it", after.Size(), st.Size())
	}

	for i, rec := range recs[1:] {
		delta, resp := ingestRecord(t, ts, rec)
		if resp.StatusCode != http.StatusAccepted || delta.Seq != uint64(i+2) {
			t.Fatalf("ingest after the failed append = status %d seq %d, want 202 seq %d", resp.StatusCode, delta.Seq, i+2)
		}
	}
	state := strings.TrimSpace(getBody(t, ts.URL+"/v1/stream/state"))
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if after := strings.TrimSpace(getBody(t, ts2.URL+"/v1/stream/state")); after != state {
		t.Fatalf("restart after a failed append diverges:\nbefore: %s\nafter:  %s", state, after)
	}
}
