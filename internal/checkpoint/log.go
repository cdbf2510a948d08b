// Append-only record log: the one durable-write primitive behind the
// collection checkpoint (Writer), streaming ingest and the cosim replay
// log. Each record becomes one CRC-guarded line, fsynced before the append
// returns, so an acked record survives a crash, the cost of an append does
// not grow with what the file already holds, and a torn final write (power
// loss mid-append) is detected and dropped without condemning the records
// before it.
//
// Framing: one record per line, "crc32c-hex payload\n". The payload is an
// opaque single-line byte string (in practice JSON); the CRC (Castagnoli)
// covers the payload bytes only. A trailing line with no newline is a torn
// append — Append writes the newline with the record, so the write never
// completed and the record was never acked; readers drop it, and recovery
// must TruncateLog it away before appending again (the log opens O_APPEND,
// so a new record written after torn bytes would merge with them into one
// unparseable line). A newline-terminated line that fails its CRC — even
// the final one — was fully written, acked, and damaged after the fact,
// which readers must refuse to silently repair.
package checkpoint

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only record log. Appends are durable when they return;
// concurrent appenders must serialize externally (the log holds no lock:
// each caller — Writer, the stream ingest path, the cosim replay log —
// already owns the ordering). A Log must be its file's only writer: a failed
// append truncates the file back to the length this Log last wrote.
type Log struct {
	f    logFile
	size int64 // file length at open plus every append that returned nil
	err  error // sticky: a failed append could not be rolled back
}

// logFile is the file behind a Log; tests substitute one that fails.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OpenLog opens (creating if absent) the log at path for appending and
// syncs the parent directory so the file itself survives a crash. The
// file must end on a record boundary: recovery truncates a torn tail
// (ReadLog, then TruncateLog) before opening.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: opening log: %w", err)
	}
	syncDir(filepath.Dir(path))
	return &Log{f: f, size: st.Size()}, nil
}

// Append writes the records with one write and one fsync: when Append
// returns nil every record is on disk, which is what lets an ingest path
// ack only after persisting. No payload may contain a newline (the record
// separator). A failed write or fsync truncates the file back to its
// length before the call, so no partial record is left for the next append
// to merge with; if that rollback fails too, the file may end in a partial
// record, and every later Append returns the same error.
func (l *Log) Append(payloads ...[]byte) error {
	if l.err != nil {
		return l.err
	}
	n := 0
	for _, p := range payloads {
		if bytes.IndexByte(p, '\n') >= 0 {
			return fmt.Errorf("checkpoint: log payload must not contain a newline")
		}
		n += frameOverhead + len(p)
	}
	buf := make([]byte, 0, n)
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	_, err := l.f.Write(buf)
	if err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		l.size += int64(len(buf))
		return nil
	}
	err = fmt.Errorf("checkpoint: appending to log: %w", err)
	if rerr := errors.Join(l.f.Truncate(l.size), l.f.Sync()); rerr != nil {
		l.err = fmt.Errorf("%w; rolling back failed: %v", err, rerr)
		return l.err
	}
	return err
}

// frameOverhead is the framing one record adds to its payload: eight CRC
// hex digits, a space and the newline.
const frameOverhead = 10

// appendFrame appends payload to buf as one record line. The payload must
// not contain a newline.
func appendFrame(buf, payload []byte) []byte {
	buf = fmt.Appendf(buf, "%08x ", crc32.Checksum(payload, crcTable))
	return append(append(buf, payload...), '\n')
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }

// CorruptLogError reports damage before the final record — data that was
// once acked and is no longer intact, which replay must not paper over.
type CorruptLogError struct {
	Path string
	Line int // 1-based line number of the damaged record
	Why  string
}

func (e *CorruptLogError) Error() string {
	return fmt.Sprintf("checkpoint: log %s corrupt at line %d: %s", e.Path, e.Line, e.Why)
}

// ReadLog returns every acked record payload in append order, plus the
// byte length of the valid prefix — the offset just past the last intact,
// newline-terminated record. A missing file is an empty log. A final line
// with no trailing newline is a torn append: the write never completed, so
// the record was never acked, and it is dropped — whatever its bytes look
// like, even a payload whose CRC happens to verify (the missing newline
// means Append never returned). Recovery must TruncateLog the file to the
// returned length before reopening it for append. A newline-terminated
// line that fails to parse — including the final one — was acked and then
// damaged, and is a *CorruptLogError.
func ReadLog(path string) ([][]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("checkpoint: reading log: %w", err)
	}
	var out [][]byte
	valid, err := scanLog(path, data, func(_ int, payload []byte) error {
		out = append(out, payload)
		return nil
	})
	if err != nil {
		return nil, valid, err
	}
	return out, valid, nil
}

// scanLog walks the records of a log file's bytes in append order, calling
// fn with each acked payload (a slice of data) and its 1-based line number,
// and returns the valid-prefix length as ReadLog does: a torn final line
// ends the walk, a damaged newline-terminated line is a *CorruptLogError,
// and an error from fn stops the walk and is returned as is.
func scanLog(path string, data []byte, fn func(line int, payload []byte) error) (int64, error) {
	valid := int64(0)
	for lineNo := 1; len(data) > 0; lineNo++ {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break // torn append: never acked, excluded from the valid prefix
		}
		payload, why := parseLogLine(data[:i])
		if why != "" {
			return valid, &CorruptLogError{Path: path, Line: lineNo, Why: why}
		}
		if err := fn(lineNo, payload); err != nil {
			return valid, err
		}
		data = data[i+1:]
		valid += int64(i) + 1
	}
	return valid, nil
}

// TruncateLog drops a torn final append by truncating the log at path to
// size, the valid-prefix length ReadLog reported. Recovery must do this
// before reopening the log: OpenLog appends with O_APPEND, so the next
// record would otherwise land directly after the torn bytes and merge with
// them into one unparseable line — acked, yet dropped as "torn" on the
// following replay. Discarding the tail is safe precisely because a record
// without its newline was never acked. A missing file, or one already no
// longer than size, is a no-op.
func TruncateLog(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("checkpoint: opening log for truncation: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("checkpoint: stat log: %w", err)
	}
	if st.Size() <= size {
		return nil
	}
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("checkpoint: truncating torn log tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing truncated log: %w", err)
	}
	return nil
}

// parseLogLine splits "crc32c-hex payload" and verifies the CRC, returning
// the payload (a slice of line) or a non-empty reason.
func parseLogLine(line []byte) ([]byte, string) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, "malformed record framing"
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return nil, "malformed CRC"
	}
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, "CRC mismatch"
	}
	return payload, ""
}
