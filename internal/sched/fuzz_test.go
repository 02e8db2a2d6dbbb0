package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"invisiblebits/internal/core"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/wal"
)

// journalLines marshals entries as v2-framed journal lines, stamping
// each with its index as seq.
func journalLines(t testing.TB, entries []Entry) [][]byte {
	t.Helper()
	lines := make([][]byte, len(entries))
	for i, e := range entries {
		e.Seq = i
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = wal.EncodeFrame(b)
	}
	return lines
}

// schedJournalEntries is a valid two-campaign scheduler journal: one
// tenant, two submits, shared passes, slices, checkpoints, a struck
// checkpoint, a reroute to a spare, encoded records and both dones.
func schedJournalEntries() []Entry {
	st := rig.State{ClockHours: 2.5, ChamberC: 100, SupplyV: 3.6}
	rec := &core.Record{DeviceID: "MSP430G2553:fz", MessageBytes: 3, PayloadBytes: 64,
		CodecName: "none", Captures: 5, StressHours: 5}
	both := []string{"c1", "c2"}
	return []Entry{
		{Type: entryTenant, Tenant: "alice", Quota: &Quota{MaxCampaigns: 4}, Slot: -1},
		{Type: entrySubmit, Tenant: "alice", Campaign: "c1", Digest: "d1", Slots: 2, Spares: []string{"sp-1"}, EstHours: 5, Slot: -1},
		{Type: entrySubmit, Tenant: "alice", Campaign: "c2", Digest: "d2", Slots: 1, EstHours: 5, Slot: -1},
		{Type: entryPass, Members: both, VAccV: 3.6, TAccC: 100, Quantum: 2.5, Setup: 0.5, Slot: -1},
		{Type: entryPrepared, Campaign: "c1", Slot: 0},
		{Type: entryPrepared, Campaign: "c1", Slot: 1},
		{Type: entryPrepared, Campaign: "c2", Slot: 0},
		{Type: entrySlice, Campaign: "c1", Slot: 0, Applied: 2.5, Total: 5},
		{Type: entryCkpt, Campaign: "c1", Slot: 0, Applied: 2.5, Image: "slot-0-ckpt-2.5000h.img", Rig: &st},
		{Type: entrySlice, Campaign: "c1", Slot: 1, Applied: 2.5, Total: 5},
		{Type: entrySlice, Campaign: "c2", Slot: 0, Applied: 2.5, Total: 5},
		{Type: entryCkpt, Campaign: "c2", Slot: 0, Applied: 2.5, Image: "slot-0-ckpt-2.5000h.img", Rig: &st},
		// The checkpoint fails verification: c2's slot restarts.
		{Type: entryCkptBad, Campaign: "c2", Slot: 0, Image: "slot-0-ckpt-2.5000h.img"},
		// c1's slot 1 carrier died: its spare restarts the slot.
		{Type: entryReroute, Campaign: "c1", Slot: 1, From: "c1-1", To: "sp-1"},
		{Type: entryPass, Members: both, VAccV: 3.6, TAccC: 100, Quantum: 2.5, AtHours: 3, Slot: -1},
		{Type: entrySlice, Campaign: "c1", Slot: 0, Applied: 5, Total: 5},
		{Type: entryPrepared, Campaign: "c1", Slot: 1},
		{Type: entrySlice, Campaign: "c1", Slot: 1, Applied: 2.5, Total: 5},
		{Type: entryPrepared, Campaign: "c2", Slot: 0},
		{Type: entrySlice, Campaign: "c2", Slot: 0, Applied: 2.5, Total: 5},
		{Type: entryEncoded, Campaign: "c1", Slot: 0, Applied: 5.2, Image: "slot-0-final.img", Record: rec, Rig: &st},
		{Type: entryPass, Members: both, VAccV: 3.6, TAccC: 100, Quantum: 2.5, AtHours: 5.5, Slot: -1},
		{Type: entrySlice, Campaign: "c1", Slot: 1, Applied: 5, Total: 5},
		{Type: entrySlice, Campaign: "c2", Slot: 0, Applied: 5, Total: 5},
		{Type: entryEncoded, Campaign: "c1", Slot: 1, Applied: 5.2, Image: "slot-1-final.img", Record: rec, Rig: &st},
		{Type: entryEncoded, Campaign: "c2", Slot: 0, Applied: 5.2, Image: "slot-0-final.img", Record: rec, Rig: &st},
		{Type: entryDone, Campaign: "c1", AtHours: 8, Baselines: []float64{0.98, 0.97}, Slot: -1},
		{Type: entryDone, Campaign: "c2", AtHours: 8, Baselines: []float64{0.98}, Slot: -1},
	}
}

// journalSeeds is the checked-in seed corpus: a framed two-campaign
// scheduler journal, its crash signatures (a truncated prefix, a torn
// tail) and the damage replay must reject (a duplicated record,
// reordered records, a re-sequenced record), then mid-file garbage,
// plain garbage and the two journal formats no build writes any more:
// the same journal in bare JSON lines (WAL v1) and a framed journal in
// the retired single-campaign grammar.
func journalSeeds(t testing.TB) [][]byte {
	entries := schedJournalEntries()
	lines := journalLines(t, entries)
	resequenced := journalLines(t, entries)
	e := entries[3]
	e.Seq = 9
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	resequenced[3] = wal.EncodeFrame(b)
	all := bytes.Join(lines, nil)
	return [][]byte{
		all,
		bytes.Join(lines[:4], nil),
		append(bytes.Join(lines[:4], nil), lines[4][:len(lines[4])/2]...),
		append(append([]byte(nil), all...), lines[3]...),
		bytes.Join([][]byte{lines[0], lines[3], lines[1], lines[2]}, nil),
		bytes.Join(resequenced, nil),
		bytes.Join([][]byte{lines[0], []byte("not json\n"), lines[1]}, nil),
		[]byte("go home journal you are drunk"),
		{},
		unframedJournal(t, entries),
		bytes.Join(journalLines(t, []Entry{
			{Type: "begin", Campaign: "fz", Digest: "d1", Slots: 2, Slot: -1},
			{Type: entryPrepared, Campaign: "fz", Slot: 0},
			{Type: entrySlice, Campaign: "fz", Slot: 0, Applied: 2.5, Total: 5},
			{Type: "checkpoint", Slot: 0, Applied: 2.5, Image: "slot-0-ckpt.img"},
		}), nil),
	}
}

// unframedJournal marshals entries as bare JSON lines, the WAL v1 line
// format, stamping each with its index as seq.
func unframedJournal(t testing.TB, entries []Entry) []byte {
	t.Helper()
	var out []byte
	for i, e := range entries {
		e.Seq = i
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return out
}

// parseJournal parses journal bytes fail-closed: a torn final line is
// cut (the signature of dying mid-append), any other damage rejects the
// journal. validLen is the byte offset past the last record kept.
func parseJournal(data []byte) (entries []Entry, validLen int64, err error) {
	entries, sal := ParseJournalSalvage(data)
	if sal.DroppedBytes > 0 && !sal.TornTail {
		return nil, 0, fmt.Errorf("journal cut after %d records: %s", sal.Entries, sal.Reason)
	}
	return entries, sal.ValidLen, nil
}

// replayAll replays entries fail-closed: any structural inconsistency —
// a sequence gap, a record for an unknown campaign, non-monotonic slot
// progress, a pass naming a terminal campaign — rejects the whole
// journal.
func replayAll(entries []Entry) (*State, error) {
	st, used, err := ReplaySalvage(entries)
	if used < len(entries) {
		return nil, err
	}
	return st, nil
}

// readJournal reads the journal at path fail-closed.
func readJournal(t *testing.T, path string) []Entry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := parseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// replayJournal runs journal bytes through the fail-closed pipeline:
// parse, then replay.
func replayJournal(data []byte) (*State, error) {
	entries, _, err := parseJournal(data)
	if err != nil {
		return nil, err
	}
	return replayAll(entries)
}

// FuzzJournalReplay hammers the parse→replay pipeline with mutated
// journals. The contract is fail-closed, never-panic: whatever the bytes
// claim, parseJournal either rejects them or returns a prefix that
// round-trips, and replayAll either rejects the entries or returns a
// state consistent with them.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, validLen, err := parseJournal(data)
		if err != nil {
			return
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0,%d]", validLen, len(data))
		}
		// The accepted prefix must re-parse to the same entries — what a
		// resuming scheduler truncates to must be self-consistent.
		again, againLen, err := parseJournal(data[:validLen])
		if err != nil || againLen != validLen || len(again) != len(entries) {
			t.Fatalf("accepted prefix does not round-trip: %v (%d vs %d entries)",
				err, len(again), len(entries))
		}

		st, err := replayAll(entries)
		if err != nil {
			return // rejected: fail-closed is the expected path
		}
		// An accepted journal must be internally coherent: salvage uses
		// every entry and reaches the same state.
		if again, used, err := ReplaySalvage(entries); err != nil || used != len(entries) || !reflect.DeepEqual(again, st) {
			t.Fatalf("salvage replay used %d of %d entries (%v)", used, len(entries), err)
		}
		for id, c := range st.Campaigns {
			if c.Tenant == "" || c.Digest == "" || len(c.Slots) == 0 {
				t.Fatalf("replay accepted campaign %q without identity: %+v", id, c)
			}
			for i, s := range c.Slots {
				if s.Applied < 0 {
					t.Fatalf("campaign %q slot %d replayed negative hours: %+v", id, i, s)
				}
				for _, ck := range s.Ckpts {
					if ck.Applied < 0 {
						t.Fatalf("campaign %q slot %d replayed negative hours: %+v", id, i, s)
					}
					if ck.Rig == nil {
						t.Fatalf("campaign %q slot %d checkpoint without rig state", id, i)
					}
				}
				if s.Record != nil && s.FinalImage == "" {
					t.Fatalf("campaign %q slot %d record without final image", id, i)
				}
			}
		}
	})
}

// TestJournalReplaySeeds pins the seed corpus semantics outside the
// fuzzer: which damage is tolerated (crash signatures) and which is
// rejected (corruption).
func TestJournalReplaySeeds(t *testing.T) {
	seeds := journalSeeds(t)
	set, midGarbage := seeds[:6], seeds[6]

	st, err := replayJournal(set[0])
	if err != nil {
		t.Fatalf("valid scheduler journal rejected: %v", err)
	}
	if c1, c2 := st.Campaigns["c1"], st.Campaigns["c2"]; c1 == nil || c2 == nil || !c1.Done || !c2.Done ||
		c1.Slots[1].Serial != "sp-1" || len(c1.Spares) != 0 || st.Passes != 3 || st.BatchedSlices != 8 {
		t.Fatalf("replayed scheduler state wrong: %+v", st)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated prefix", set[1]},
		{"torn tail", set[2]},
	} {
		if _, err := replayJournal(tc.data); err != nil {
			t.Fatalf("%s: crash signature rejected: %v", tc.name, err)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"duplicated record", set[3]},
		{"reordered records", set[4]},
		{"broken sequence", set[5]},
	} {
		if _, err := replayJournal(tc.data); err == nil {
			t.Fatalf("%s: replay accepted corruption", tc.name)
		}
	}
	if _, err := replayJournal(midGarbage); err == nil {
		t.Fatal("mid-file garbage accepted")
	}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"unframed lines", "cut after 0 records: line is not a v2 frame", seeds[9]},
		{"single-campaign grammar", `unknown record type "begin" at seq 0`, seeds[10]},
	} {
		if _, err := replayJournal(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: replay returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpus. Gated so
// normal runs never touch testdata; run with IB_REGEN_FUZZ=1 after
// changing the journal format or seed set.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("IB_REGEN_FUZZ") == "" {
		t.Skip("set IB_REGEN_FUZZ=1 to regenerate testdata/fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range journalSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
