package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzRead fuzzes the MBCP snapshot decoder with arbitrary bytes. The
// decoder guards every durable artifact the pipeline resumes from, so it
// must never panic, never allocate proportionally to a corrupt count
// field, and — when it does accept an input — decode to a snapshot whose
// re-encoding is decoded identically (a fixed point, so resume-of-resume
// cannot drift).
func FuzzRead(f *testing.F) {
	// Seeds: the shapes the corpus files under testdata/fuzz/FuzzRead
	// complement — an empty snapshot, a full one (valid results, a failed
	// record, faults), a truncation and a checksum flip.
	f.Add([]byte{})
	f.Add(Encode(&Snapshot{Fingerprint: 0xfeed}))
	full := Encode(testSnapshot())
	f.Add(full)
	f.Add(full[:len(full)-5])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	f.Add(reseal(append([]byte(nil), full[:40]...)))
	// A huge record-count field with no data behind it: count-driven
	// loops and allocations must be bounded by the remaining bytes.
	huge := Encode(&Snapshot{Fingerprint: 1})
	binary.LittleEndian.PutUint32(huge[16:20], 0x7fffffff)
	f.Add(reseal(huge))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode("fuzz", data, 0)
		if err != nil {
			if s != nil {
				t.Fatal("Decode returned both a snapshot and an error")
			}
			return
		}
		enc := Encode(s)
		s2, err := Decode("fuzz-reencode", enc, 0)
		if err != nil {
			t.Fatalf("re-encoding an accepted snapshot no longer decodes: %v", err)
		}
		if !bytes.Equal(enc, Encode(s2)) {
			t.Fatal("Encode(Decode(Encode(s))) is not a fixed point; resumed datasets could drift")
		}
		// The fingerprint gate must hold for every accepted snapshot.
		if s.Fingerprint != 0 {
			if _, err := Decode("fuzz", data, s.Fingerprint+1); err == nil {
				t.Fatal("Decode accepted a snapshot under the wrong fingerprint")
			}
		}
	})
}

// FuzzDecodeLengths drives the decoder through systematically corrupted
// count fields of an otherwise valid snapshot: every u32 in the body is
// overwritten with the fuzzed value and the checksum resealed, so the
// mutation always reaches the record parser instead of dying at the CRC.
func FuzzDecodeLengths(f *testing.F) {
	base := Encode(testSnapshot())
	f.Add(uint32(12), uint32(0xffffffff))
	f.Add(uint32(16), uint32(0x7fffffff))
	f.Add(uint32(20), uint32(1))
	f.Fuzz(func(t *testing.T, off, val uint32) {
		data := append([]byte(nil), base...)
		if int(off)+4 > len(data)-4 {
			return
		}
		binary.LittleEndian.PutUint32(data[off:], val)
		s, err := Decode("fuzz", reseal(data), 0)
		if err == nil && s == nil {
			t.Fatal("Decode returned neither snapshot nor error")
		}
	})
}

// FuzzLoadLog fuzzes the collection-log form of Load. The seed corpus is a
// small collection log as a Writer leaves it, plus its torn, flipped and
// header-mangled variants. Each input is loaded as is, and again with every
// line re-framed under a valid CRC, so mutations reach the header and
// record parsers instead of dying at the checksum. Hostile headers, base64
// and record payloads must fail with a typed error and never panic;
// allocation must stay bounded by the input's size; and an accepted log
// must re-render to a log that loads to the same records (a fixed point, so
// resume-of-resume cannot drift).
func FuzzLoadLog(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	snap := testSnapshot()
	putAll(f, path, snap.Fingerprint, snap.Records, snap.Records[0])
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)-7])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	// Unframed payload lines, for the re-framed load.
	var lines [][]byte
	if _, err := scanLog("seed", full, func(_ int, p []byte) error {
		lines = append(lines, p)
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Join(lines, []byte{'\n'}))
	f.Add([]byte(fmt.Sprintf("%s %d %016x\nAAAA\n////", logMagic, Version+1, 1)))
	// A record whose count fields claim far more data than follows.
	f.Add([]byte(string(logHeader(1)) + "\n" + base64.StdEncoding.EncodeToString(
		[]byte{1, 0, 0, 0, 'u', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})))

	f.Fuzz(func(t *testing.T, data []byte) {
		var framed []byte
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			framed = appendFrame(framed, line)
		}
		checkLoadLog(t, data)
		checkLoadLog(t, framed)
	})
}

func checkLoadLog(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := decodeLog("fuzz", data, 0)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
	}
	if err != nil {
		var (
			ce *CorruptError
			ve *VersionError
		)
		if s != nil {
			t.Fatal("decodeLog returned both a snapshot and an error")
		}
		if !errors.As(err, &ce) && !errors.As(err, &ve) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		return
	}
	payloads := make([][]byte, len(s.Records))
	for i := range s.Records {
		payloads[i] = recordPayload(&s.Records[i])
	}
	s2, err := decodeLog("fuzz-rerender", logFileOf(string(logHeader(s.Fingerprint)), payloads...), 0)
	if err != nil {
		t.Fatalf("re-rendering an accepted log no longer loads: %v", err)
	}
	if !bytes.Equal(Encode(s), Encode(s2)) {
		t.Fatal("re-rendered log loads to different records; resumed datasets could drift")
	}
	if want := s.Fingerprint + 1; want != 0 {
		if _, err := decodeLog("fuzz", data, want); err == nil {
			t.Fatal("decodeLog accepted a log under the wrong fingerprint")
		}
	}
}
