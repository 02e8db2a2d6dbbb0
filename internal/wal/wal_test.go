package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"invisiblebits/internal/faults"
)

type rec struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	Note string `json:"note,omitempty"`
}

func (r *rec) Kind() string   { return r.Type }
func (r *rec) SetSeq(seq int) { r.Seq = seq }
func recOK(r *rec) bool       { return r.Type != "" }

// readJournal reads the journal at path, requiring every record to
// verify but a torn final line, and returns the records and the byte
// offset past the last one.
func readJournal(t *testing.T, path string) ([]rec, int64) {
	t.Helper()
	entries, sal, err := ReadFileSalvage(nil, path, recOK)
	if err != nil {
		t.Fatal(err)
	}
	if sal.DroppedBytes > 0 && !sal.TornTail {
		t.Fatalf("journal cut after %d records: %s", sal.Entries, sal.Reason)
	}
	return entries, sal.ValidLen
}

// frames concatenates the v2 frames of the given JSON payloads.
func frames(payloads ...string) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, EncodeFrame([]byte(p))...)
	}
	return out
}

func TestCreateAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, ty := range []string{"begin", "step", "step"} {
		if err := j.Append(&rec{Type: ty, Note: "x"}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	entries, validLen := readJournal(t, path)
	if len(entries) != 3 {
		t.Fatalf("read %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Seq != i {
			t.Fatalf("entry %d carries seq %d", i, e.Seq)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != fi.Size() {
		t.Fatalf("validLen %d != file size %d for an intact journal", validLen, fi.Size())
	}

	// Reopen and continue the sequence.
	j2, err := Open(path, Options{}, len(entries), validLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(&rec{Type: "done"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	entries, _ = readJournal(t, path)
	if len(entries) != 4 || entries[3].Seq != 3 || entries[3].Type != "done" {
		t.Fatalf("continuation broken: %+v", entries)
	}
}

func TestCreateRefusesExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path, Options{}); !errors.Is(err, ErrJournalIO) {
		t.Fatalf("Create over existing journal: err = %v, want ErrJournalIO", err)
	}
}

func TestSalvageTellsTornTailFromCorruption(t *testing.T) {
	begin := `{"seq":0,"type":"begin"}`
	intact := frames(begin, `{"seq":1,"type":"step"}`)
	last := string(frames(`{"seq":2,"type":"step"}`))

	// Torn final line: dropped, prefix survives.
	for _, tail := range []string{last[:len(last)/2], last[:len(last)-1], "garbage"} {
		data := append(append([]byte{}, intact...), tail...)
		entries, sal := ParseSalvage(data, recOK)
		if !sal.TornTail {
			t.Fatalf("torn tail %q taken for corruption: %+v", tail, sal)
		}
		if len(entries) != 2 || sal.ValidLen != int64(len(intact)) {
			t.Fatalf("torn tail %q: %d entries, validLen %d", tail, len(entries), sal.ValidLen)
		}
	}

	// Mid-file corruption: not a torn tail.
	bad := append(append(frames(begin), "garbage\n"...), last...)
	if _, sal := ParseSalvage(bad, recOK); sal.DroppedBytes == 0 || sal.TornTail {
		t.Fatalf("mid-file corruption taken for a torn tail: %+v", sal)
	}

	// A terminated line that unmarshals to a zero record counts as
	// damage too (recOK gate).
	zero := frames(begin, `{"x":1}`)
	entries, sal := ParseSalvage(zero, recOK)
	if !sal.TornTail || len(entries) != 1 {
		t.Fatalf("zero-record tail: entries=%d sal=%+v", len(entries), sal)
	}
	if sal.ValidLen != int64(len(frames(begin))) {
		t.Fatalf("zero-record tail validLen = %d", sal.ValidLen)
	}
}

func TestKillHookPoisonsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	ks := faults.NewKillSwitch(1) // survive the first gate, die at the second
	j, err := Create(path, Options{Hook: ks.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(&rec{Type: "begin"}); err != nil {
		t.Fatalf("first append should survive: %v", err)
	}
	if err := j.Append(&rec{Type: "step"}); !errors.Is(err, faults.ErrKilled) {
		t.Fatalf("second append: err = %v, want ErrKilled", err)
	}
	// Poisoned: every later operation fails, hook consulted or not.
	if err := j.Append(&rec{Type: "step"}); !errors.Is(err, faults.ErrKilled) {
		t.Fatalf("post-kill append: err = %v, want ErrKilled", err)
	}
	if err := j.Gate("image/x"); !errors.Is(err, faults.ErrKilled) {
		t.Fatalf("post-kill gate: err = %v, want ErrKilled", err)
	}
	// Only the surviving append reached disk.
	if entries, _ := readJournal(t, path); len(entries) != 1 {
		t.Fatalf("disk holds %d entries, want 1", len(entries))
	}
}

func TestAppendIOFailureIsTypedAndPoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&rec{Type: "begin"}); err != nil {
		t.Fatal(err)
	}
	// Yank the descriptor out from under the journal: the next append's
	// write fails like a dead disk's would.
	j.f.Close()
	if err := j.Append(&rec{Type: "step"}); !errors.Is(err, ErrJournalIO) {
		t.Fatalf("append on closed file: err = %v, want ErrJournalIO", err)
	}
	// And the failure poisons: later appends die even if I/O would work.
	if err := j.Append(&rec{Type: "step"}); !errors.Is(err, faults.ErrKilled) {
		t.Fatalf("append after I/O poison: err = %v, want ErrKilled", err)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	torn := frames(`{"seq":0,"type":"begin"}`, `{"seq":1,"type":"step"}`)
	if err := os.WriteFile(path, torn[:len(torn)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	entries, validLen := readJournal(t, path)
	if len(entries) != 1 {
		t.Fatalf("read: entries=%d", len(entries))
	}
	j, err := Open(path, Options{}, 1, validLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&rec{Type: "step"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	entries, _ = readJournal(t, path)
	if len(entries) != 2 || entries[1].Seq != 1 {
		t.Fatalf("after trim+append: %+v", entries)
	}
}
