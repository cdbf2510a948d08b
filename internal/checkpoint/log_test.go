package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeLogRecords(t *testing.T, path string, records ...string) {
	t.Helper()
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range records {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`, `{"seq":3}`)

	// Reopening appends, never truncates.
	writeLogRecords(t, path, `{"seq":4}`)

	got, valid, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || valid != st.Size() {
		t.Fatalf("valid prefix = %d, want the whole file", valid)
	}
	want := []string{`{"seq":1}`, `{"seq":2}`, `{"seq":3}`, `{"seq":4}`}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLogMissingFileIsEmpty(t *testing.T) {
	got, valid, err := ReadLog(filepath.Join(t.TempDir(), "absent.log"))
	if err != nil || got != nil || valid != 0 {
		t.Fatalf("ReadLog(absent) = %v, %d, %v; want nil, 0, nil", got, valid, err)
	}
}

func TestLogRejectsNewlinePayload(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "stream.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("two\nlines")); err == nil {
		t.Fatal("Append accepted a payload containing the record separator")
	}
}

// A torn final append — truncated at any byte boundary short of the
// newline — drops only the final record: everything acked before it reads
// back intact, and the valid prefix ends at the last acked record so
// recovery can truncate the torn bytes away. The torn record is dropped
// even when the cut lands after its full payload (cut == len(full)-1, CRC
// verifies): without the newline, Append never returned, so it was never
// acked.
func TestLogTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`, `{"seq":3}`)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(full), "\n")
	prefix := len(lines[0]) + len(lines[1])

	for cut := prefix + 1; cut < len(full); cut++ {
		torn := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, valid, err := ReadLog(torn)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(got) != 2 || string(got[0]) != `{"seq":1}` || string(got[1]) != `{"seq":2}` {
			t.Fatalf("cut at %d: read %d records, want the 2 acked ones", cut, len(got))
		}
		if valid != int64(prefix) {
			t.Fatalf("cut at %d: valid prefix %d, want %d", cut, valid, prefix)
		}
	}
}

// The crash-mid-append recovery sequence: a torn tail must be truncated
// before appending again — the log opens O_APPEND, so without the truncate
// the next record lands directly after the torn bytes and the merged line
// would drop an acked record on the following read.
func TestLogTruncateTornTailThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`)
	// Crash mid-append: half a record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`0badc0de {"se`)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, valid, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	if err := TruncateLog(path, valid); err != nil {
		t.Fatal(err)
	}

	// The recovered log round-trips the next acked record.
	writeLogRecords(t, path, `{"seq":3}`)
	got, _, err = ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"seq":1}`, `{"seq":2}`, `{"seq":3}`}
	if len(got) != len(want) {
		t.Fatalf("after recovery read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TruncateLog is a no-op on a missing file or an already-clean log.
func TestLogTruncateNoop(t *testing.T) {
	if err := TruncateLog(filepath.Join(t.TempDir(), "absent.log"), 0); err != nil {
		t.Fatalf("TruncateLog(absent) = %v", err)
	}
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLogRecords(t, path, `{"seq":1}`)
	_, valid, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := TruncateLog(path, valid); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadLog(path)
	if err != nil || len(got) != 1 || string(got[0]) != `{"seq":1}` {
		t.Fatalf("clean log damaged by no-op truncate: %v, %v", got, err)
	}
}

// Damage before the final record is corruption of acked data and must be
// refused, not silently skipped.
func TestLogCorruptMiddleRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`, `{"seq":3}`)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record.
	lines := strings.SplitAfter(string(full), "\n")
	corrupted := []byte(lines[0] + strings.Replace(lines[1], `"seq":2`, `"seq":9`, 1) + lines[2])
	bad := filepath.Join(dir, "bad.log")
	if err := os.WriteFile(bad, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadLog(bad)
	var ce *CorruptLogError
	if !errors.As(err, &ce) {
		t.Fatalf("ReadLog(corrupt middle) = %v, want *CorruptLogError", err)
	}
	if ce.Line != 2 {
		t.Fatalf("corrupt line = %d, want 2", ce.Line)
	}
}

// A newline-terminated final line that fails its CRC is not a torn append:
// the record was fully written and acked, so its damage is post-hoc
// corruption that must be refused, not silently dropped.
func TestLogCorruptFinalRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLogRecords(t, path, `{"seq":1}`, `{"seq":2}`)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(full), `"seq":2`, `"seq":9`, 1)
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadLog(path)
	var ce *CorruptLogError
	if !errors.As(err, &ce) || ce.Line != 2 {
		t.Fatalf("ReadLog(corrupt final) = %v, want *CorruptLogError at line 2", err)
	}
}

// faultyFile is the log-file seam under test: it counts calls and fails
// once on cue — a write that lands only half its bytes, a failing fsync, a
// failing truncate.
type faultyFile struct {
	*os.File
	halfWrite, failSync, failTruncate bool
	writes, syncs                     int
}

func (f *faultyFile) Write(p []byte) (int, error) {
	f.writes++
	if f.halfWrite {
		f.halfWrite = false
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected short write")
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	f.syncs++
	if f.failSync {
		f.failSync = false
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		f.failTruncate = false
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

func openFaultyLog(t *testing.T, path string) (*Log, *faultyFile) {
	t.Helper()
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultyFile{File: l.f.(*os.File)}
	l.f = ff
	t.Cleanup(func() { l.Close() })
	return l, ff
}

func readRecords(t *testing.T, path string) []string {
	t.Helper()
	got, valid, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || valid != st.Size() {
		t.Fatalf("valid prefix %d does not cover the whole file", valid)
	}
	out := make([]string, len(got))
	for i, p := range got {
		out[i] = string(p)
	}
	return out
}

// Append writes a batch of records with one write and one fsync, and
// refuses the whole batch when any payload holds a newline.
func TestLogAppendBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.log")
	l, ff := openFaultyLog(t, path)
	if err := l.Append([]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{"c":3}`)); err != nil {
		t.Fatal(err)
	}
	if ff.writes != 1 || ff.syncs != 1 {
		t.Fatalf("batch append took %d writes and %d fsyncs, want 1 and 1", ff.writes, ff.syncs)
	}
	if err := l.Append([]byte(`{"d":4}`), []byte("two\nlines")); err == nil {
		t.Fatal("Append accepted a batch holding a newline payload")
	}
	if got := readRecords(t, path); strings.Join(got, " ") != `{"a":1} {"b":2} {"c":3}` {
		t.Fatalf("log holds %q", got)
	}
}

// A failed write or fsync leaves no bytes behind: the log truncates back to
// its pre-call length, so retrying the same record (the stream engine
// re-acks the same sequence number) yields a clean log instead of a partial
// record merged with the retry.
func TestLogFailedAppendRollsBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(*faultyFile)
	}{
		{"half write", func(f *faultyFile) { f.halfWrite = true }},
		{"failed fsync", func(f *faultyFile) { f.failSync = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "stream.log")
			writeLogRecords(t, path, `{"seq":1}`)
			l, ff := openFaultyLog(t, path)
			tc.inject(ff)
			if err := l.Append([]byte(`{"seq":2}`)); err == nil {
				t.Fatal("Append reported success through an injected fault")
			}
			if err := l.Append([]byte(`{"seq":2}`)); err != nil {
				t.Fatalf("retry after a rolled-back append: %v", err)
			}
			if got := readRecords(t, path); strings.Join(got, " ") != `{"seq":1} {"seq":2}` {
				t.Fatalf("log holds %q after the rolled-back append and its retry", got)
			}
		})
	}
}

// When the rollback fails too, the file may end in a partial record, so
// the log refuses every later append instead of merging a record into it.
// Recovery (ReadLog, TruncateLog) still drops the torn tail.
func TestLogFailedRollbackIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLogRecords(t, path, `{"seq":1}`)
	l, ff := openFaultyLog(t, path)
	ff.halfWrite, ff.failTruncate = true, true
	first := l.Append([]byte(`{"seq":2}`))
	if first == nil {
		t.Fatal("Append reported success through an injected fault")
	}
	ff.writes = 0
	if err := l.Append([]byte(`{"seq":2}`)); err == nil || err.Error() != first.Error() {
		t.Fatalf("append after a failed rollback = %v, want the sticky %v", err, first)
	}
	if ff.writes != 0 {
		t.Fatalf("a poisoned log wrote %d more times", ff.writes)
	}
	got, _, err := ReadLog(path)
	if err != nil || len(got) != 1 {
		t.Fatalf("recovery read %d records (%v), want the 1 acked", len(got), err)
	}
}
