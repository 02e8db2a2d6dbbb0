package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeJournal appends n framed records and returns the file bytes.
func writeJournal(t *testing.T, path string, n int) []byte {
	t.Helper()
	j, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(&rec{Type: "step", Note: fmt.Sprintf("note-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestV2FramesAreCRCFramed: Append writes "w2 <len> <crc> <json>" lines
// and a flipped payload byte is detected — the frame no longer parses.
func TestV2FramesAreCRCFramed(t *testing.T) {
	data := writeJournal(t, filepath.Join(t.TempDir(), "j.jsonl"), 3)
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3", len(lines))
	}
	for i, ln := range lines {
		if !bytes.HasPrefix(ln, []byte(framePrefix)) {
			t.Fatalf("line %d lacks the v2 frame prefix: %q", i, ln)
		}
	}
	entries, sal := ParseSalvage(data, recOK)
	if sal.Entries != 3 || sal.DroppedBytes != 0 || len(entries) != 3 {
		t.Fatalf("clean salvage = %+v", sal)
	}
	if sal.ValidLen != int64(len(data)) {
		t.Fatalf("ValidLen %d, want %d", sal.ValidLen, len(data))
	}
}

// TestSalvageCutsAtCorruptFrame: a corrupt middle record — a flipped
// payload byte, a frame header damaged in any of its fields, or a line
// without the v2 frame — drops it and everything after; Cut names
// the byte-exact cut.
func TestSalvageCutsAtCorruptFrame(t *testing.T) {
	data := writeJournal(t, filepath.Join(t.TempDir(), "j.jsonl"), 5)
	lines := bytes.SplitAfter(data, []byte("\n"))
	off := len(lines[0]) + len(lines[1])
	for _, tc := range []struct {
		name, reason string
		record       func(line []byte) []byte
	}{
		{"flipped payload byte", "CRC mismatch", func(line []byte) []byte {
			line[len(line)-4] ^= 0x01
			return line
		}},
		{"unframed record", "not a v2 frame", func(line []byte) []byte {
			return line[bytes.IndexByte(line, '{'):]
		}},
		{"frame length not a number", "damaged frame length", func(line []byte) []byte {
			f := bytes.SplitN(line, []byte(" "), 4)
			f[1] = append([]byte("x"), f[1]...)
			return bytes.Join(f, []byte(" "))
		}},
		{"frame length off by one", "frame length mismatch", func(line []byte) []byte {
			f := bytes.SplitN(line, []byte(" "), 4)
			n, err := strconv.Atoi(string(f[1]))
			if err != nil {
				t.Fatal(err)
			}
			f[1] = strconv.AppendInt(nil, int64(n+1), 10)
			return bytes.Join(f, []byte(" "))
		}},
		{"checksum field not hex", "damaged frame checksum field", func(line []byte) []byte {
			f := bytes.SplitN(line, []byte(" "), 4)
			f[2] = []byte("zzzzzzzz")
			return bytes.Join(f, []byte(" "))
		}},
		{"header cut before the checksum", "damaged frame header", func(line []byte) []byte {
			f := bytes.SplitN(line, []byte(" "), 4)
			return append(bytes.Join(f[:2], []byte(" ")), '\n')
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corrupt := append([]byte(nil), data[:off]...)
			corrupt = append(corrupt, tc.record(append([]byte(nil), lines[2]...))...)
			corrupt = append(corrupt, data[off+len(lines[2]):]...)

			entries, sal := ParseSalvage(corrupt, recOK)
			if len(entries) != 2 || sal.Entries != 2 {
				t.Fatalf("salvaged %d records, want 2 (sal=%+v)", len(entries), sal)
			}
			if sal.ValidLen != int64(off) {
				t.Fatalf("ValidLen %d, want %d", sal.ValidLen, off)
			}
			if sal.DroppedBytes == 0 || sal.TornTail {
				t.Fatalf("corrupt interior must be cut, not a torn tail: %+v", sal)
			}
			if !strings.Contains(sal.Reason, tc.reason) {
				t.Fatalf("Reason %q, want it to name %q", sal.Reason, tc.reason)
			}
			if sal.DroppedBytes != int64(len(corrupt)-off) {
				t.Fatalf("DroppedBytes %d, want %d", sal.DroppedBytes, len(corrupt)-off)
			}
			if sal.Cut(0) != 0 || sal.Cut(1) != int64(len(lines[0])) || sal.Cut(2) != int64(off) {
				t.Fatalf("cuts %d, %d, %d; want 0, %d, %d", sal.Cut(0), sal.Cut(1), sal.Cut(2), len(lines[0]), off)
			}
		})
	}
}

// TestTornTailIsNotCorruption: an unterminated final record is the
// expected signature of a crash mid-append — salvage keeps the prefix
// and flags TornTail.
func TestTornTailIsNotCorruption(t *testing.T) {
	data := writeJournal(t, filepath.Join(t.TempDir(), "j.jsonl"), 3)
	lines := bytes.SplitAfter(data, []byte("\n"))
	keep := len(lines[0]) + len(lines[1])
	torn := data[:keep+7] // record 2 torn mid-frame, no newline

	entries, sal := ParseSalvage(torn, recOK)
	if len(entries) != 2 || sal.ValidLen != int64(keep) {
		t.Fatalf("torn parse: %d entries, len %d, want 2, %d", len(entries), sal.ValidLen, keep)
	}
	if !sal.TornTail || sal.DroppedBytes == 0 {
		t.Fatalf("salvage of torn tail = %+v, want a cut torn tail", sal)
	}
}

// TestOpenAfterCorruptionContinuesJournal: a journal reopened at the
// salvage cut appends fresh records after the surviving prefix, and the
// result parses end to end.
func TestOpenAfterCorruptionContinuesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	data := writeJournal(t, path, 4)
	lines := bytes.SplitAfter(data, []byte("\n"))
	cut := len(lines[0]) + len(lines[1])
	// Corrupt record 2 in place on disk.
	data[cut+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	entries, sal := ParseSalvage(data, recOK)
	j, err := Open(path, Options{}, len(entries), sal.ValidLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&rec{Type: "step", Note: "after salvage"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	final, _ := readJournal(t, path)
	if len(final) != 3 || final[2].Note != "after salvage" || final[2].Seq != 2 {
		t.Fatalf("unexpected continuation: %+v", final)
	}
}
