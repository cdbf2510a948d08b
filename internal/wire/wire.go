// Package wire is the JSON-lines framing under mobilebench's two process
// protocols: the fleet protocol between coordinator and workers
// (internal/dist) and the timing protocol between the simulator and an
// external timing model (internal/cosim). Each protocol keeps only its
// frame schema, per-type Validate, size bound and handshake policy. The
// framing is one JSON object per newline-terminated line, bounded in size
// while reading and before decoding; trailing data after the object is an
// error, unknown fields are ignored (peers one protocol version apart
// still exchange frames), and no input makes the codec panic. Embedded
// json.RawMessage documents are valid JSON on both sides without a check
// of their own: the decoder refuses a line holding an invalid one, and
// json.Marshal refuses to encode one.
package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Validator is a protocol frame: it knows its own per-type required fields.
type Validator interface {
	Validate() error
}

// Error reports a frame that failed reading, decoding or validation; the
// peer that sent it is broken (dist drops the connection, cosim strikes).
type Error struct {
	Reason string
}

// Error implements error.
func (e *Error) Error() string { return "protocol error: " + e.Reason }

// Parse decodes and validates one frame line of at most max bytes. It never
// panics on any input: malformed JSON, oversized lines, trailing data and
// frames that fail Validate all return an error.
func Parse[F Validator](line []byte, max int) (F, error) {
	var f F
	if len(line) > max {
		return f, &Error{Reason: fmt.Sprintf("frame of %d bytes exceeds the %d-byte bound", len(line), max)}
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&f); err != nil {
		return *new(F), &Error{Reason: "undecodable frame: " + err.Error()}
	}
	// One object per line: trailing non-space bytes are a framing bug, not
	// data to be silently dropped.
	if dec.More() {
		return *new(F), &Error{Reason: "trailing data after the frame object"}
	}
	if err := f.Validate(); err != nil {
		return *new(F), err
	}
	return f, nil
}

// Encode validates f and serializes it as one newline-terminated JSON line
// of at most max bytes (newline excluded): the exact bytes Parse accepts
// back.
func Encode[F Validator](f F, max int) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return nil, &Error{Reason: "unencodable frame: " + err.Error()}
	}
	if len(data) > max {
		return nil, &Error{Reason: fmt.Sprintf("frame of %d bytes exceeds the %d-byte bound", len(data), max)}
	}
	return append(data, '\n'), nil
}

// Write encodes f (see Encode) and writes it to w in one Write call.
func Write[F Validator](w io.Writer, f F, max int) error {
	data, err := Encode(f, max)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Reader reads frames of type F from a peer's byte stream, one per line.
// Not safe for concurrent use.
type Reader[F Validator] struct {
	br  *bufio.Reader
	max int
}

// NewReader reads frames of at most max bytes (newline excluded) from r.
func NewReader[F Validator](r io.Reader, max int) *Reader[F] {
	return &Reader[F]{br: bufio.NewReaderSize(r, 64<<10), max: max}
}

// Next reads and parses the next frame. A stream that ends between frames
// returns io.EOF, one that ends mid-line io.ErrUnexpectedEOF. A line past
// the bound is an *Error as soon as it crosses the bound, so the reader
// never buffers more than the bound plus one chunk; the stream is then
// mid-line and must be dropped.
func (r *Reader[F]) Next() (F, error) {
	var line []byte
	for {
		chunk, err := r.br.ReadSlice('\n')
		line = append(line, chunk...)
		n := len(line)
		if err == nil {
			n-- // the newline terminator is not frame bytes
		}
		if n > r.max {
			return *new(F), &Error{Reason: fmt.Sprintf("frame exceeds the %d-byte bound", r.max)}
		}
		switch {
		case err == nil:
			return Parse[F](line[:n], r.max)
		case errors.Is(err, io.EOF) && len(line) > 0:
			return *new(F), io.ErrUnexpectedEOF
		case !errors.Is(err, bufio.ErrBufferFull):
			return *new(F), err
		}
	}
}
