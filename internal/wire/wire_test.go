package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// msg is a minimal frame schema: Kind is its one required field.
type msg struct {
	Kind string `json:"kind"`
	N    int    `json:"n,omitempty"`
}

func (m msg) Validate() error {
	if m.Kind == "" {
		return &Error{Reason: "msg without a kind"}
	}
	return nil
}

func TestEncodeParseRoundTrip(t *testing.T) {
	data, err := Encode(msg{Kind: "k", N: 3}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"kind":"k","n":3}`+"\n" {
		t.Fatalf("Encode = %q", data)
	}
	got, err := Parse[msg](bytes.TrimSuffix(data, []byte("\n")), 64)
	if err != nil || got != (msg{Kind: "k", N: 3}) {
		t.Fatalf("Parse = %+v, %v", got, err)
	}
	if _, err := Encode(msg{}, 64); err == nil {
		t.Fatal("Encode accepted a frame that fails Validate")
	}
	if _, err := Encode(msg{Kind: strings.Repeat("x", 64)}, 64); err == nil {
		t.Fatal("Encode accepted a frame past the bound")
	}
}

func TestParseRefuses(t *testing.T) {
	for name, line := range map[string]string{
		"empty":         ``,
		"not json":      `}{`,
		"wrong type":    `{"kind":1}`,
		"invalid":       `{"n":1}`,
		"trailing data": `{"kind":"a"} {"kind":"b"}`,
		"over bound":    `{"kind":"` + strings.Repeat("x", 64) + `"}`,
	} {
		var pe *Error
		if _, err := Parse[msg]([]byte(line), 64); !errors.As(err, &pe) {
			t.Errorf("%s: Parse(%q) = %v, want an *Error", name, line, err)
		}
	}
	if m, err := Parse[msg]([]byte(`{"kind":"a","future":{"x":[1]}}`), 64); err != nil || m.Kind != "a" {
		t.Fatalf("unknown field: Parse = %+v, %v", m, err)
	}
}

// The reader frames lines longer than its 64 KiB buffer, refuses a line
// past the bound as soon as it crosses it, and tells a clean end of stream
// from one that stops mid-line.
func TestReaderNext(t *testing.T) {
	big := `{"kind":"` + strings.Repeat("y", 200<<10) + `"}`
	in := `{"kind":"a"}` + "\n" + big + "\n" + `{"kind":"b","n":2}` + "\n"
	r := NewReader[msg](strings.NewReader(in), 1<<20)
	for _, want := range []msg{{Kind: "a"}, {Kind: big[9 : len(big)-2]}, {Kind: "b", N: 2}} {
		got, err := r.Next()
		if err != nil || got != want {
			t.Fatalf("Next = %.40v, %v; want %.40v", got, err, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next at a clean end = %v, want io.EOF", err)
	}

	r = NewReader[msg](strings.NewReader(`{"kind":"a"}`+"\n"+`{"kind":"b"`), 1<<20)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("Next on a torn final line = %v, want io.ErrUnexpectedEOF", err)
	}

	// A bound of exactly the line's length accepts it; one byte less
	// refuses it, and an endless line is refused without reading it all.
	line := `{"kind":"abc"}`
	if _, err := NewReader[msg](strings.NewReader(line+"\n"), len(line)).Next(); err != nil {
		t.Fatalf("line at the bound: %v", err)
	}
	var pe *Error
	if _, err := NewReader[msg](strings.NewReader(line+"\n"), len(line)-1).Next(); !errors.As(err, &pe) {
		t.Fatalf("line past the bound: %v, want an *Error", err)
	}
	endless := &countingReader{}
	if _, err := NewReader[msg](endless, 1<<20).Next(); !errors.As(err, &pe) {
		t.Fatalf("endless line: %v, want an *Error", err)
	}
	if endless.n > 2<<20 {
		t.Fatalf("reader consumed %d bytes of an endless line with a 1 MiB bound", endless.n)
	}
}

// countingReader is an endless stream of 'x' without a newline.
type countingReader struct{ n int }

func (c *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	c.n += len(p)
	return len(p), nil
}
