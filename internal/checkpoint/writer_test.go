package checkpoint

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mobilebench/internal/profiler"
	"mobilebench/internal/sim"
)

// putAll writes recs through a fresh Writer seeded with existing.
func putAll(t testing.TB, path string, fingerprint uint64, recs []RunRecord, existing ...RunRecord) {
	t.Helper()
	w := NewWriter(path, fingerprint, existing)
	for _, rec := range recs {
		if err := w.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// readFile returns a file's bytes.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The file a Writer leaves depends only on the fingerprint, the existing
// records and the Put sequence: replaying a collection's records through a
// fresh Writer reproduces it byte for byte, and a resumed Writer writes the
// same bytes an uninterrupted one did.
func TestWriterFileIsPureFunctionOfPuts(t *testing.T) {
	dir := t.TempDir()
	recs := testSnapshot().Records
	a, b, c := filepath.Join(dir, "a"), filepath.Join(dir, "b"), filepath.Join(dir, "c")
	putAll(t, a, 9, recs)
	putAll(t, b, 9, recs)
	putAll(t, c, 9, recs[1:], recs[0])
	if !bytes.Equal(readFile(t, a), readFile(t, b)) || !bytes.Equal(readFile(t, a), readFile(t, c)) {
		t.Fatal("equal (fingerprint, existing, Put sequence) gave different files")
	}
	if got := strings.Count(string(readFile(t, a)), "\n"); got != 1+len(recs) {
		t.Fatalf("log holds %d lines, want a header plus %d records", got, len(recs))
	}
}

// A Writer opened on an MBCP snapshot leaves it untouched until the first
// Put, which replaces it with a log holding the restored records plus the
// new one.
func TestWriterReplacesSnapshotOnFirstPut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	snap := testSnapshot()
	old := Encode(&Snapshot{Fingerprint: snap.Fingerprint, Records: snap.Records[:2]})
	if err := WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(path, snap.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(path, snap.Fingerprint, restored.Records)
	defer w.Close()
	if !bytes.Equal(readFile(t, path), old) {
		t.Fatal("NewWriter touched the file before any Put")
	}
	if err := w.Put(snap.Records[2]); err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(readFile(t, path), magic[:]) {
		t.Fatal("the first Put left the MBCP snapshot in place")
	}
	got, err := Load(path, snap.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("the log written over a snapshot lost or reordered records")
	}
}

// A crash mid-append leaves a torn final record: at every byte offset
// inside it, Load returns exactly the records before it. A file torn
// inside its header holds nothing acked and is refused as corrupt.
func TestLoadLogDropsTornRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.ckpt")
	snap := testSnapshot()
	putAll(t, path, snap.Fingerprint, snap.Records)
	full := readFile(t, path)
	lines := strings.SplitAfter(string(full), "\n")
	start := len(full) - len(lines[len(lines)-2]) // the last record's first byte
	want := &Snapshot{Fingerprint: snap.Fingerprint, Records: snap.Records[:len(snap.Records)-1]}
	torn := filepath.Join(dir, "torn.ckpt")
	for cut := start; cut < len(full); cut++ {
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(torn, snap.Fingerprint)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: loaded %d records, want the %d acked", cut, len(got.Records), len(want.Records))
		}
	}
	for _, cut := range []int{0, 5, len(lines[0]) - 1} {
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, err := Load(torn, snap.Fingerprint); !errors.As(err, &ce) {
			t.Fatalf("cut at %d inside the header: err = %v, want *CorruptError", cut, err)
		}
	}
}

// Damage to an acked record — in the middle or the final one — is a
// *CorruptError wrapping the log's *CorruptLogError.
func TestLoadLogRefusesDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.ckpt")
	snap := testSnapshot()
	putAll(t, path, snap.Fingerprint, snap.Records)
	full := readFile(t, path)
	lines := strings.SplitAfter(string(full), "\n")
	for line := 2; line <= len(snap.Records)+1; line++ {
		off := len(strings.Join(lines[:line-1], "")) + len(lines[line-1])/2
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x01
		path := filepath.Join(dir, fmt.Sprintf("bad%d.ckpt", line))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path, snap.Fingerprint)
		var ce *CorruptError
		var le *CorruptLogError
		if !errors.As(err, &ce) || !errors.As(err, &le) || le.Line != line {
			t.Fatalf("flip in line %d: err = %v, want *CorruptError wrapping *CorruptLogError at that line", line, err)
		}
	}
}

// logFileOf frames a header and payloads as a collection log.
func logFileOf(header string, payloads ...[]byte) []byte {
	buf := appendFrame(nil, []byte(header))
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	return buf
}

// Hostile but CRC-valid logs fail with the typed error that names what is
// wrong: the header's version and fingerprint, its layout, and records
// that are not base64 or not one whole encoded record.
func TestLoadLogTypedErrors(t *testing.T) {
	var enc bytes.Buffer
	encodeRecord(&enc, &testSnapshot().Records[0])
	good := base64.StdEncoding.AppendEncode(nil, enc.Bytes())
	trailing := base64.StdEncoding.AppendEncode(nil, append(enc.Bytes(), 0, 0))
	truncated := base64.StdEncoding.AppendEncode(nil, enc.Bytes()[:enc.Len()/2])
	header := string(logHeader(0xfeed))
	var (
		ve *VersionError
		me *MismatchError
		ce *CorruptError
	)
	for _, tc := range []struct {
		name string
		data []byte
		want any
	}{
		{"empty file", nil, &ce},
		{"version skew", logFileOf(fmt.Sprintf("%s %d %016x", logMagic, Version+1, 0xfeed), good), &ve},
		{"future header layout", logFileOf(fmt.Sprintf("%s %d extra fields", logMagic, Version+1)), &ve},
		{"stale fingerprint", logFileOf(string(logHeader(0xbeef)), good), &me},
		{"bad magic", logFileOf("NOPE 1 000000000000feed", good), &ce},
		{"header missing fingerprint", logFileOf(fmt.Sprintf("%s %d", logMagic, Version)), &ce},
		{"bad fingerprint", logFileOf(fmt.Sprintf("%s %d zz", logMagic, Version)), &ce},
		{"bad version", logFileOf(logMagic + " -1 000000000000feed"), &ce},
		{"record not base64", logFileOf(header, []byte("!!not base64!!")), &ce},
		{"record with trailing bytes", logFileOf(header, trailing), &ce},
		{"truncated record", logFileOf(header, truncated), &ce},
	} {
		path := filepath.Join(t.TempDir(), "c.ckpt")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Load(path, 0xfeed)
		if s != nil || !errors.As(err, tc.want) {
			t.Fatalf("%s: Load = %v, %v; want %T", tc.name, s, err, tc.want)
		}
	}
	// Fingerprint 0 skips the check, as it does for snapshots.
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := os.WriteFile(path, logFileOf(string(logHeader(0xbeef)), good), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Load(path, 0); err != nil || s.Fingerprint != 0xbeef || len(s.Records) != 1 {
		t.Fatalf("Load(fingerprint 0) = %+v, %v", s, err)
	}
}

// Concurrent Puts, as the collection worker pool makes them, each land as
// one whole record: the log loads with every record intact.
func TestWriterConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w := NewWriter(path, 3, nil)
	const workers, each = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				unit := fmt.Sprintf("u%d", g)
				if err := w.Put(RunRecord{Unit: unit, Run: i, Attempts: 1, Result: testResult(unit, float64(i+1))}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != workers*each {
		t.Fatalf("loaded %d records, want %d", len(snap.Records), workers*each)
	}
	for g := 0; g < workers; g++ {
		for i := 0; i < each; i++ {
			unit := fmt.Sprintf("u%d", g)
			if rec := snap.Find(unit, i); rec == nil || !reflect.DeepEqual(rec.Result, testResult(unit, float64(i+1))) {
				t.Fatalf("record (%s, %d) missing or damaged", unit, i)
			}
		}
	}
}

// openFaultyWriter returns a Writer whose log file (created by a first Put
// of rec) fails on cue.
func openFaultyWriter(t *testing.T, path string, rec RunRecord) (*Writer, *faultyFile) {
	t.Helper()
	w := NewWriter(path, 5, nil)
	t.Cleanup(func() { w.Close() })
	if err := w.Put(rec); err != nil {
		t.Fatal(err)
	}
	ff := &faultyFile{File: w.log.f.(*os.File)}
	w.log.f = ff
	return w, ff
}

// A Put whose write or fsync fails returns the error and leaves the file
// as it was, so the next Put appends cleanly and the failed record (never
// acked) is simply absent.
func TestWriterFailedPutRollsBack(t *testing.T) {
	recs := testSnapshot().Records
	for _, tc := range []struct {
		name   string
		inject func(*faultyFile)
	}{
		{"half write", func(f *faultyFile) { f.halfWrite = true }},
		{"failed fsync", func(f *faultyFile) { f.failSync = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.ckpt")
			w, ff := openFaultyWriter(t, path, recs[0])
			tc.inject(ff)
			if err := w.Put(recs[1]); err == nil {
				t.Fatal("Put reported success through an injected fault")
			}
			if err := w.Put(recs[2]); err != nil {
				t.Fatalf("Put after a rolled-back failure: %v", err)
			}
			got, err := Load(path, 5)
			if err != nil {
				t.Fatal(err)
			}
			want := []RunRecord{recs[0], recs[2]}
			if !reflect.DeepEqual(got.Records, want) {
				t.Fatalf("loaded %d records, want the 2 acked ones", len(got.Records))
			}
		})
	}
}

// When the rollback fails too, the file may end in a partial record: every
// later Put returns the same error and writes nothing, and Load still
// returns the acked records.
func TestWriterFailedRollbackIsSticky(t *testing.T) {
	recs := testSnapshot().Records
	path := filepath.Join(t.TempDir(), "c.ckpt")
	w, ff := openFaultyWriter(t, path, recs[0])
	ff.halfWrite, ff.failTruncate = true, true
	first := w.Put(recs[1])
	if first == nil {
		t.Fatal("Put reported success through an injected fault")
	}
	ff.writes = 0
	if err := w.Put(recs[2]); err == nil || err.Error() != first.Error() {
		t.Fatalf("Put after a failed rollback = %v, want the sticky %v", err, first)
	}
	if ff.writes != 0 {
		t.Fatalf("a poisoned writer wrote %d more times", ff.writes)
	}
	got, err := Load(path, 5)
	if err != nil || !reflect.DeepEqual(got.Records, recs[:1]) {
		t.Fatalf("Load after a failed rollback = %v, %v; want the 1 acked record", got, err)
	}
}

// collectionRecord builds a record the size of one fast-forwarded
// collection pair (about 3 MB of encoded trace).
func collectionRecord() RunRecord {
	p := profiler.New(0.1)
	for tick := 0; tick < 12500; tick++ {
		for m := 0; m < 32; m++ {
			p.Sample(fmt.Sprintf("m%02d", m), float64(tick*m)/7)
		}
	}
	tr, err := p.Trace()
	if err != nil {
		panic(err)
	}
	return RunRecord{Unit: "bench", Attempts: 1, Result: &sim.Result{Workload: "bench", Trace: tr}}
}

// BenchmarkWriterPut measures one Put of a collection-sized record: encode,
// base64, one append and one fsync. Bytes/s counts the record's payload.
func BenchmarkWriterPut(b *testing.B) {
	rec := collectionRecord()
	b.SetBytes(int64(len(recordPayload(&rec))))
	b.ResetTimer()
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	var w *Writer
	for i := 0; i < b.N; i++ {
		if i%16 == 0 { // bound the file's size: start a fresh one
			b.StopTimer()
			if w != nil {
				w.Close()
			}
			if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				b.Fatal(err)
			}
			w = NewWriter(path, 1, nil)
			b.StartTimer()
		}
		rec.Run = i
		if err := w.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Close()
}
