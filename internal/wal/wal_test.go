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
	if got := j.NextSeq(); got != 3 {
		t.Fatalf("NextSeq = %d, want 3", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	entries, validLen, err := ReadFile(path, recOK)
	if err != nil {
		t.Fatal(err)
	}
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
	entries, _, err = ReadFile(path, recOK)
	if err != nil {
		t.Fatal(err)
	}
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

func TestParseToleratesOnlyTornTail(t *testing.T) {
	intact := []byte(`{"seq":0,"type":"begin"}` + "\n" + `{"seq":1,"type":"step"}` + "\n")

	// Torn final line: dropped, prefix survives.
	for _, tail := range []string{`{"seq":2,"ty`, `{"seq":2,"type":"step"}`, "garbage"} {
		data := append(append([]byte{}, intact...), tail...)
		entries, validLen, err := Parse(data, recOK)
		if err != nil {
			t.Fatalf("torn tail %q rejected: %v", tail, err)
		}
		if len(entries) != 2 || validLen != int64(len(intact)) {
			t.Fatalf("torn tail %q: %d entries, validLen %d", tail, len(entries), validLen)
		}
	}

	// Mid-file corruption: rejected outright.
	bad := []byte(`{"seq":0,"type":"begin"}` + "\n" + "garbage\n" + `{"seq":2,"type":"step"}` + "\n")
	if _, _, err := Parse(bad, recOK); err == nil {
		t.Fatal("mid-file corruption accepted")
	}

	// A terminated line that unmarshals to a zero record counts as
	// damage too (recOK gate).
	zero := []byte(`{"seq":0,"type":"begin"}` + "\n" + `{"x":1}` + "\n")
	entries, validLen, err := Parse(zero, recOK)
	if err != nil || len(entries) != 1 {
		t.Fatalf("zero-record tail: entries=%d err=%v", len(entries), err)
	}
	if validLen != int64(len(`{"seq":0,"type":"begin"}`)+1) {
		t.Fatalf("zero-record tail validLen = %d", validLen)
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
	entries, _, err := ReadFile(path, recOK)
	if err != nil || len(entries) != 1 {
		t.Fatalf("disk holds %d entries (err %v), want 1", len(entries), err)
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
	intact := `{"seq":0,"type":"begin"}` + "\n"
	if err := os.WriteFile(path, []byte(intact+`{"seq":1,"ty`), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, validLen, err := ReadFile(path, recOK)
	if err != nil || len(entries) != 1 {
		t.Fatalf("read: entries=%d err=%v", len(entries), err)
	}
	j, err := Open(path, Options{}, 1, validLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&rec{Type: "step"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	entries, _, err = ReadFile(path, recOK)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Seq != 1 {
		t.Fatalf("after trim+append: %+v", entries)
	}
}
