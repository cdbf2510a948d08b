package cosim

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mobilebench/internal/checkpoint"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "replay.log")
}

// TestReplayLogRoundTrip: put, flush, reopen, get the same bytes back.
func TestReplayLogRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, err := OpenReplayLog(path)
	if err != nil {
		t.Fatalf("OpenReplayLog: %v", err)
	}
	l.Put(`{"q":1}`, []byte(`{"mem":{}}`))
	l.Put(`{"q":2}`, []byte(`{"io":{}}`))
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	re, err := OpenReplayLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened log has %d records, want 2", re.Len())
	}
	v, ok := re.Get(`{"q":1}`)
	if !ok || string(v) != `{"mem":{}}` {
		t.Fatalf("Get(q1) = %q, %v", v, ok)
	}
}

// TestReplayLogFirstWriteWins: a reply can never change under its key.
func TestReplayLogFirstWriteWins(t *testing.T) {
	l, err := OpenReplayLog(tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	l.Put("k", []byte("first"))
	l.Put("k", []byte("second"))
	if v, _ := l.Get("k"); string(v) != "first" {
		t.Fatalf("Get = %q, want the first write", v)
	}
}

// TestReplayLogNilSafe: a nil log (replay disabled) caches nothing and
// errors nowhere.
func TestReplayLogNilSafe(t *testing.T) {
	var l *ReplayLog
	if _, ok := l.Get("k"); ok {
		t.Fatal("nil log returned a hit")
	}
	l.Put("k", []byte("v"))
	if err := l.MaybeFlush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatal("nil log has length")
	}
}

// TestReplayLogMaybeFlushBatches: Put is pure in-memory; MaybeFlush is a
// no-op below the batching threshold and persists everything at it, so a
// crashed process still loses at most one batch's tail while no reader
// ever waits on the disk behind l.mu (the PR-8 stall class).
func TestReplayLogMaybeFlushBatches(t *testing.T) {
	path := tmpLog(t)
	l, err := OpenReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < replayFlushEvery-1; i++ {
		l.Put(fmt.Sprintf(`{"k":%d}`, i), []byte(`"v"`))
	}
	if err := l.MaybeFlush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("MaybeFlush wrote below the batching threshold")
	}
	l.Put(`{"k":"last"}`, []byte(`"v"`))
	if err := l.MaybeFlush(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenReplayLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Len() != replayFlushEvery {
		t.Fatalf("flushed log has %d records, want %d", re.Len(), replayFlushEvery)
	}
	// Nothing new since the durable flush: the next flushes are no-ops.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("Flush rewrote a clean log")
	}
}

// TestReplayLogFailedFlushStaysDirty: a failed write leaves the records
// dirty, so the next flush retries them instead of silently dropping the
// batch.
func TestReplayLogFailedFlushStaysDirty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "missing", "replay.log")
	l, err := OpenReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Put(`{"k":1}`, []byte(`"v"`))
	if err := l.Flush(); err == nil {
		t.Fatal("Flush into a missing directory succeeded")
	}
	if err := os.Mkdir(filepath.Join(dir, "missing"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("retried Flush: %v", err)
	}
	re, err := OpenReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("retried flush persisted %d records, want 1", re.Len())
	}
}

// TestReplayLogConcurrentFlush: Puts racing flushes lose nothing — every
// record lands in the log exactly once or stays dirty for the next flush.
func TestReplayLogConcurrentFlush(t *testing.T) {
	path := tmpLog(t)
	l, err := OpenReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Put(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i), []byte(`{}`))
				if err := l.MaybeFlush(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	payloads, _, err := checkpoint.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != writers*each {
		t.Fatalf("log holds %d records, want %d", len(payloads), writers*each)
	}
	re, err := OpenReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != writers*each {
		t.Fatalf("reopened log serves %d replies, want %d", re.Len(), writers*each)
	}
}

// TestReplayLogOrderIndependent: logs built from the same puts in
// different orders serve identical replies. (The file bytes follow put
// order; what a resume sees is the Get results.)
func TestReplayLogOrderIndependent(t *testing.T) {
	dir := t.TempDir()
	keys := []string{`{"k":"x"}`, `{"k":"y"}`, `{"k":"z"}`}
	write := func(name string, order []int) *ReplayLog {
		t.Helper()
		path := filepath.Join(dir, name)
		l, err := OpenReplayLog(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			l.Put(keys[i], []byte(fmt.Sprintf(`{"v":%d}`, i)))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenReplayLog(path)
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	a := write("a.log", []int{0, 1, 2})
	b := write("b.log", []int{2, 0, 1})
	if a.Len() != len(keys) || b.Len() != len(keys) {
		t.Fatalf("reopened logs hold %d and %d replies, want %d", a.Len(), b.Len(), len(keys))
	}
	for _, k := range keys {
		va, _ := a.Get(k)
		vb, _ := b.Get(k)
		if string(va) != string(vb) {
			t.Fatalf("Get(%s) = %s vs %s: replies depend on put order", k, va, vb)
		}
	}
}

// TestReplayLogTornFlushDropped: a crash mid-flush leaves a newline-less
// final record; reopening drops it, serves every earlier reply, and
// appends after the intact prefix.
func TestReplayLogTornFlushDropped(t *testing.T) {
	path := tmpLog(t)
	l, err := OpenReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Put(`{"k":1}`, []byte(`{"v":1}`))
	l.Put(`{"k":2}`, []byte(`{"v":2}`))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0badf00d {"q":{"k":3},"r":{"v`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenReplayLog(path)
	if err != nil {
		t.Fatalf("reopen after a torn flush: %v", err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened log holds %d replies, want the 2 flushed before the tear", re.Len())
	}
	if v, ok := re.Get(`{"k":2}`); !ok || string(v) != `{"v":2}` {
		t.Fatalf("Get(k2) = %q, %v", v, ok)
	}
	re.Put(`{"k":3}`, []byte(`{"v":3}`))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenReplayLog(path)
	if err != nil {
		t.Fatalf("reopen after appending past a torn tail: %v", err)
	}
	if v, ok := again.Get(`{"k":3}`); !ok || string(v) != `{"v":3}` {
		t.Fatalf("reply appended after the torn tail: Get(k3) = %q, %v", v, ok)
	}
}

// TestReplayLogRefusesDamage: corruption is loud — a damaged log fails the
// open instead of silently serving wrong replies, and so does a log in the
// MBRL format older builds wrote, which the record reader would otherwise
// take for one torn record and truncate to nothing.
func TestReplayLogRefusesDamage(t *testing.T) {
	path := tmpLog(t)
	l, err := OpenReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Put(`{"key":1}`, []byte(`{"value":1}`))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"flipped byte": func() []byte {
			d := append([]byte(nil), good...)
			d[len(d)/2] ^= 0xff
			return d
		}(),
		"not a reply record": []byte(fmt.Sprintf("%08x [1]\n", crc32.Checksum([]byte("[1]"), crc32.MakeTable(crc32.Castagnoli)))),
		"MBRL":               []byte("MBRL\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xde\xad\xbe\xef"),
	}
	for name, data := range damage {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenReplayLog(path)
		if err == nil {
			t.Errorf("%s: OpenReplayLog accepted a damaged file", name)
			continue
		}
		var le *LogError
		if !errors.As(err, &le) {
			t.Errorf("%s: error is %T, want *LogError", name, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
			t.Errorf("%s: the refused file was modified", name)
		}
	}
}
