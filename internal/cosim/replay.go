// The deterministic replay log: every reply the supervisor accepts (from
// the child or its own degradation fallback) is recorded under the query's
// canonical bytes. A restarted child, a later attempt of the same run, or a
// -resume'd collection replays logged replies instead of re-asking, so a
// collection is bit-reproducible even when the child crashed mid-phase —
// the same guarantee MBCP checkpoints give completed (unit, run) pairs,
// one protocol layer further down.
package cosim

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"mobilebench/internal/checkpoint"
)

// replayFlushEvery is how many new records accumulate before MaybeFlush
// appends them to the log on disk (Flush and Close append unconditionally).
const replayFlushEvery = 256

// replayRecord is one logged reply, the checkpoint.Log payload
// {"q":<query>,"r":<reply>} with both embedded as JSON documents.
type replayRecord struct {
	Query json.RawMessage `json:"q"`
	Reply json.RawMessage `json:"r"`
}

// LogError reports an unusable replay-log file. Corruption is loud: a
// damaged log could silently serve wrong replies, so it fails the open
// instead of degrading.
type LogError struct {
	Path   string
	Reason string
}

// Error implements error.
func (e *LogError) Error() string { return fmt.Sprintf("cosim: replay log %s: %s", e.Path, e.Reason) }

// ReplayLog is the supervisor's reply cache: an in-memory map backed by a
// checkpoint.Log of replayRecords. A nil *ReplayLog is valid and caches
// nothing (replay disabled). Safe for concurrent use.
//
// Persistence is deferred: Put is pure in-memory, and a flush appends under
// a separate write mutex, so Get/Put/Len never wait on the disk.
type ReplayLog struct {
	// mu guards the map and the dirty list; it is only ever held for
	// in-memory work.
	mu   sync.Mutex
	path string
	m    map[string][]byte
	// dirty holds the records Put since the last durable flush, in Put
	// order. Put only appends and a successful flush only removes the
	// prefix it wrote, so records that arrive mid-flush stay dirty.
	dirty [][]byte
	// wmu serializes flushers; it guards log, which the first flush opens.
	// Never held together with mu, and never taken by Get/Put/Len.
	wmu sync.Mutex
	log *checkpoint.Log
}

// OpenReplayLog loads the log at path, or starts an empty one when the file
// does not exist yet. Loading follows checkpoint.Log's recovery rule: a
// torn final record (no newline: its flush never returned) is dropped and
// truncated away, while a damaged newline-terminated record, or a file in
// the MBRL format of older builds, returns a *LogError. When a query was
// logged twice, the first record wins.
func OpenReplayLog(path string) (*ReplayLog, error) {
	// ReadLog would take a newline-free MBRL file for one torn record and
	// truncate it to nothing.
	if f, err := os.Open(path); err == nil {
		head := make([]byte, 4)
		n, _ := io.ReadFull(f, head)
		f.Close()
		if string(head[:n]) == "MBRL" {
			return nil, &LogError{Path: path, Reason: "MBRL-format log from an older build; delete it to start a fresh log"}
		}
	}
	payloads, valid, err := checkpoint.ReadLog(path)
	var ce *checkpoint.CorruptLogError
	if errors.As(err, &ce) {
		return nil, &LogError{Path: path, Reason: fmt.Sprintf("record %d: %s", ce.Line, ce.Why)}
	}
	if err != nil {
		return nil, err
	}
	if err := checkpoint.TruncateLog(path, valid); err != nil {
		return nil, err
	}
	l := &ReplayLog{path: path, m: make(map[string][]byte, len(payloads))}
	for i, p := range payloads {
		var rec replayRecord
		if err := json.Unmarshal(p, &rec); err != nil || len(rec.Query) == 0 || len(rec.Reply) == 0 {
			return nil, &LogError{Path: path, Reason: fmt.Sprintf("record %d is not a logged reply", i+1)}
		}
		if _, ok := l.m[string(rec.Query)]; !ok {
			l.m[string(rec.Query)] = rec.Reply
		}
	}
	return l, nil
}

// Get returns the logged reply bytes for the query key.
func (l *ReplayLog) Get(key string) ([]byte, bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m[key]
	return v, ok
}

// Put records a reply under its query key, purely in memory. Key and reply
// must be compact JSON documents, as queryKey and json.Marshal render them.
// Re-putting an existing key is a no-op: first write wins, so a reply can
// never change under a key. Callers make the record durable with
// MaybeFlush (batched) or Flush (unconditional) once they are outside
// their own critical sections.
func (l *ReplayLog) Put(key string, reply []byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.m[key]; ok {
		return
	}
	l.m[key] = append([]byte(nil), reply...)
	rec := append(append([]byte(`{"q":`), key...), `,"r":`...)
	l.dirty = append(l.dirty, append(append(rec, reply...), '}'))
}

// Len returns the number of logged replies.
func (l *ReplayLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}

// MaybeFlush persists the log if enough new records accumulated since
// the last durable flush. The supervisor calls it after every exchange,
// outside its own mutex.
func (l *ReplayLog) MaybeFlush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	dirty := len(l.dirty)
	l.mu.Unlock()
	if dirty < replayFlushEvery {
		return nil
	}
	return l.Flush()
}

// Flush appends every dirty record to the log in one checkpoint.Log.Append
// — one write, one fsync. A crash mid-flush leaves at most a torn final
// record, which the next open drops. A failed append leaves the records
// dirty, so the next flush retries them.
func (l *ReplayLog) Flush() error {
	if l == nil {
		return nil
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	batch := l.dirty
	l.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	if l.log == nil {
		//mblint:ignore mutexhold l.wmu exists solely to serialize flushers; Get/Put/Len never take it
		lg, err := checkpoint.OpenLog(l.path)
		if err != nil {
			return err
		}
		l.log = lg
	}
	if err := l.log.Append(batch...); err != nil {
		return err
	}
	l.mu.Lock()
	l.dirty = l.dirty[len(batch):]
	l.mu.Unlock()
	return nil
}

// Close flushes the dirty records and closes the log file.
func (l *ReplayLog) Close() error {
	if l == nil {
		return nil
	}
	err := l.Flush()
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.log != nil {
		err = errors.Join(err, l.log.Close())
		l.log = nil
	}
	return err
}
