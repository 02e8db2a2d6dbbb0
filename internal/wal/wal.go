// Package wal is the shared write-ahead journal beneath the crash-safe
// supervisors: one record per state transition, fsynced before the
// caller takes the next step, so a crash at ANY point leaves a clean
// prefix of the truth on disk. internal/sched journals a whole
// multi-tenant scheduler (tenant table, queue, batch assignments) with
// it, and a standalone campaign is a one-tenant scheduler.
//
// Records are framed (v2) as
//
//	w2 <len> <crc32c-hex8> <json>\n
//
// where len is the byte length of the JSON payload and the checksum is
// CRC32-Castagnoli over it — so a flipped bit anywhere in a record is
// detected, not replayed. A line without the frame, such as a bare JSON
// line of the unframed v1 journals no build writes any more, fails
// verification like any damaged frame.
//
// The journal is kill-point instrumented: a faults.Hook is consulted
// before every append and at named non-journal gates (image writes),
// and once the hook fires the journal is poisoned — every later append
// fails, the way every write of a dead process fails. Crash-matrix
// tests use this to prove that dying at every single append still
// resumes to a bit-identical outcome.
//
// ParseSalvage never fails: it recovers the longest verifiable prefix
// and reports exactly what was cut in a Salvage summary, telling a torn
// final line (the signature of dying mid-append) from mid-file
// corruption — the input to salvage-based resume, where losing a
// journal suffix is safe because every slice of work is
// deterministically redone.
package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"sync"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/storage"
)

// ErrJournalIO marks a failure of the durability layer itself — an
// append that could not be written or fsynced, a journal that could not
// be opened or trimmed. Supervisors must fail closed on it: a campaign
// whose journal cannot make progress durable must stop, not continue
// with an un-journaled state the next resume will never see. Test with
// errors.Is.
var ErrJournalIO = errors.New("wal: journal I/O failure")

// Salvage summarizes what lenient parsing recovered and what it gave
// up on — the typed outcome a degraded resume reports to operators.
type Salvage struct {
	// Entries is how many records were recovered.
	Entries int
	// ValidLen is the byte offset just past the last verifiable record:
	// what a resuming supervisor truncates to before appending.
	ValidLen int64
	// DroppedBytes is how many trailing bytes were cut.
	DroppedBytes int64
	// TornTail reports that the cut looks like an ordinary mid-append
	// crash (a damaged or unterminated final line) rather than mid-file
	// corruption. A resume may cut exactly this case silently.
	TornTail bool
	// Reason says why the cut happened ("" when nothing was cut).
	Reason string
	// offsets[i] is the byte offset just past record i.
	offsets []int64
}

// Cut is the byte offset just past the first n recovered records: where
// a caller truncates the journal to keep only them — when structural
// replay rejects record n even though its frame verified. Cut(Entries)
// is ValidLen.
func (s Salvage) Cut(n int) int64 {
	switch {
	case n <= 0:
		return 0
	case n >= len(s.offsets):
		return s.ValidLen
	}
	return s.offsets[n-1]
}

// castagnoli is the CRC32C table (hardware-accelerated on most CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// framePrefix introduces a v2 framed record.
const framePrefix = "w2 "

// EncodeFrame wraps one marshalled record payload in a v2 frame line
// (length + CRC32C header, trailing newline included). Exposed for
// offline tooling (ibfsck) that rewrites journals.
func EncodeFrame(payload []byte) []byte {
	head := fmt.Sprintf("%s%d %08x ", framePrefix, len(payload), crc32.Checksum(payload, castagnoli))
	line := make([]byte, 0, len(head)+len(payload)+1)
	line = append(line, head...)
	line = append(line, payload...)
	return append(line, '\n')
}

// decodeFrame returns the JSON payload of one v2-framed journal line.
func decodeFrame(line []byte) ([]byte, error) {
	if !bytes.HasPrefix(line, []byte(framePrefix)) {
		return nil, errors.New("line is not a v2 frame")
	}
	rest := line[len(framePrefix):]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return nil, errors.New("damaged frame header")
	}
	n, err := strconv.Atoi(string(rest[:sp]))
	if err != nil || n < 0 {
		return nil, errors.New("damaged frame length")
	}
	rest = rest[sp+1:]
	if len(rest) < 9 || rest[8] != ' ' {
		return nil, errors.New("damaged frame checksum field")
	}
	want, err := strconv.ParseUint(string(rest[:8]), 16, 32)
	if err != nil {
		return nil, errors.New("damaged frame checksum field")
	}
	payload := rest[9:]
	if len(payload) != n {
		return nil, fmt.Errorf("frame length mismatch: header %d, payload %d", n, len(payload))
	}
	if got := crc32.Checksum(payload, castagnoli); uint32(want) != got {
		return nil, fmt.Errorf("CRC mismatch: frame %08x, payload %08x", uint32(want), got)
	}
	return payload, nil
}

// Record is one journal record. The journal stamps the sequence number
// via SetSeq immediately before marshalling, and consults the kill hook
// under the point name "journal/<Kind()>".
type Record interface {
	// Kind names the record type (the hook's kill-point suffix).
	Kind() string
	// SetSeq stamps the journal-assigned sequence number.
	SetSeq(seq int)
}

// Journal is the append side. Appends are serialized and each record is
// fsynced before Append returns. Every appended record is v2-framed.
type Journal struct {
	mu       sync.Mutex
	f        storage.File
	hook     faults.Hook
	nextSeq  int
	poisoned bool
}

// Options configures journal creation.
type Options struct {
	// Hook is the crash-test kill-point hook; nil in production.
	Hook faults.Hook
	// FS is the filesystem seam; nil means the real OS filesystem.
	// Fault-injection tests substitute a storage.FaultFS.
	FS storage.FS
}

// Create starts a fresh journal at path, failing if one exists (an
// existing journal means the supervisor must be resumed, not re-run).
func Create(path string, opts Options) (*Journal, error) {
	f, err := storage.Default(opts.FS).OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: create journal: %w", ErrJournalIO, err)
	}
	return &Journal{f: f, hook: opts.Hook}, nil
}

// Open reopens an existing journal for appending, first truncating it
// to validLen (dropping a torn tail so new records never glue onto half
// a line). nextSeq continues the replayed sequence.
func Open(path string, opts Options, nextSeq int, validLen int64) (*Journal, error) {
	fsys := storage.Default(opts.FS)
	if err := fsys.Truncate(path, validLen); err != nil {
		return nil, fmt.Errorf("%w: trim journal tail: %w", ErrJournalIO, err)
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: open journal: %w", ErrJournalIO, err)
	}
	return &Journal{f: f, hook: opts.Hook, nextSeq: nextSeq}, nil
}

// Close releases the journal file (it does not seal the supervisor —
// only the supervisor's own terminal record does that).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Gate consults the kill hook at a named non-journal point (image
// writes, result persistence). Once the hook fires, the journal is
// poisoned for good.
func (j *Journal) Gate(point string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.gateLocked(point)
}

func (j *Journal) gateLocked(point string) error {
	if j.poisoned {
		return faults.ErrKilled
	}
	if j.hook == nil {
		return nil
	}
	if err := j.hook(point); err != nil {
		j.poisoned = true
		return err
	}
	return nil
}

// Append assigns the next sequence number, writes the record as one
// framed JSON line, and fsyncs before returning. Any failure — kill
// hook, write, or sync — poisons the journal: a supervisor that could
// not persist one transition must not persist later ones over the gap.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.gateLocked("journal/" + rec.Kind()); err != nil {
		return err
	}
	rec.SetSeq(j.nextSeq)
	payload, err := json.Marshal(rec)
	if err != nil {
		j.poisoned = true
		return fmt.Errorf("wal: marshal journal record: %w", err)
	}
	if _, err := j.f.Write(EncodeFrame(payload)); err != nil {
		j.poisoned = true
		return fmt.Errorf("%w: append journal record: %w", ErrJournalIO, err)
	}
	if err := j.f.Sync(); err != nil {
		j.poisoned = true
		return fmt.Errorf("%w: fsync journal: %w", ErrJournalIO, err)
	}
	j.nextSeq++
	return nil
}

// ParseSalvage splits journal data into records of type T, recovering
// the longest verifiable prefix. It never fails: parsing stops at the
// first record that cannot be verified (bad frame, CRC mismatch,
// unparseable JSON, or ok returning false) and the Salvage summary
// reports what was recovered, where the verifiable prefix ends, and
// whether the damage looks like an ordinary torn final line or genuine
// mid-file corruption. ok reports whether an unmarshalled record is
// structurally present (e.g. carries a non-empty type tag).
func ParseSalvage[T any](data []byte, ok func(*T) bool) (entries []T, sal Salvage) {
	var off int64
	var offsets []int64
	total := int64(len(data))
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		line := data
		torn := nl < 0 // no terminator: a write died mid-line
		if !torn {
			line = data[:nl]
		}
		payload, ferr := decodeFrame(line)
		reason := ""
		if ferr != nil {
			reason = ferr.Error()
		} else {
			var e T
			if uerr := json.Unmarshal(payload, &e); uerr != nil {
				reason = "unparseable record: " + uerr.Error()
			} else if !ok(&e) {
				reason = "structurally empty record"
			} else if torn {
				// Parsed, but never terminated — the fsync cannot have
				// completed, so the record does not count.
				reason = "unterminated final record"
			} else {
				entries = append(entries, e)
				off += int64(nl + 1)
				offsets = append(offsets, off)
				data = data[nl+1:]
				continue
			}
		}
		// Verification failed (or the line was torn). Decide whether
		// this is the benign signature of dying mid-append: a damaged
		// or unterminated line with nothing verifiable after it.
		rest := data
		if !torn {
			rest = data[nl+1:]
		}
		tornTail := torn || len(bytes.TrimSpace(rest)) == 0
		if torn {
			reason = "torn final line: " + reason
		}
		sal = Salvage{
			Entries:      len(entries),
			ValidLen:     off,
			DroppedBytes: total - off,
			TornTail:     tornTail,
			Reason:       reason,
			offsets:      offsets,
		}
		return entries, sal
	}
	return entries, Salvage{Entries: len(entries), ValidLen: off, offsets: offsets}
}

// ReadFileSalvage parses the journal file at path with ParseSalvage
// (lenient). The error is non-nil only when the file itself cannot be
// read — verification failures are reported in the Salvage summary,
// never as errors.
func ReadFileSalvage[T any](fsys storage.FS, path string, ok func(*T) bool) (entries []T, sal Salvage, err error) {
	data, err := storage.Default(fsys).ReadFile(path)
	if err != nil {
		return nil, Salvage{}, fmt.Errorf("%w: read journal: %w", ErrJournalIO, err)
	}
	entries, sal = ParseSalvage(data, ok)
	return entries, sal, nil
}
