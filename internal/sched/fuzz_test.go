package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"invisiblebits/internal/core"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/wal"
)

// journalLines marshals entries as journal lines, v2-framed or (framed
// false) as bare v1 JSON lines, stamping each with its index as seq.
func journalLines(t testing.TB, entries []Entry, framed bool) [][]byte {
	t.Helper()
	lines := make([][]byte, len(entries))
	for i, e := range entries {
		e.Seq = i
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if framed {
			lines[i] = wal.EncodeFrame(b)
		} else {
			lines[i] = append(b, '\n')
		}
	}
	return lines
}

// legacyJournalBytes builds a genuine two-slot journal in the legacy
// standalone grammar (bare v1 lines): begin, both slots prepared,
// sliced, checkpointed, a resume, encoded, then done.
func legacyJournalBytes(t testing.TB) []byte {
	t.Helper()
	st := rig.State{ClockHours: 2.5, ChamberC: 100, SupplyV: 3.6}
	rec := &core.Record{DeviceID: "MSP430G2553:fz", MessageBytes: 3, PayloadBytes: 64,
		CodecName: "none", Captures: 5, StressHours: 5}
	entries := []Entry{
		{Type: legacyBegin, Campaign: "fz", Digest: "d1", Slots: 2, Slot: -1},
		{Type: entryPrepared, Slot: 0},
		{Type: entryPrepared, Slot: 1},
		{Type: entrySlice, Slot: 0, Applied: 2.5, Total: 5},
		{Type: legacyCheckpoint, Slot: 0, Applied: 2.5, Image: "slot-0-ckpt.img", Rig: &st},
		{Type: entrySlice, Slot: 1, Applied: 2.5, Total: 5},
		{Type: entrySlice, Slot: 0, Applied: 5, Total: 5},
		{Type: entrySlice, Slot: 1, Applied: 5, Total: 5},
		// A resume rewinds each unfinished slot to its last checkpoint:
		// slot 0 re-enters at 2.5h, slot 1 (never checkpointed) restarts
		// from scratch and prepares again.
		{Type: entryResume, Campaign: "fz", Digest: "d1", Slot: -1},
		{Type: entrySlice, Slot: 0, Applied: 5, Total: 5},
		{Type: entryPrepared, Slot: 1},
		{Type: entrySlice, Slot: 1, Applied: 2.5, Total: 5},
		{Type: entrySlice, Slot: 1, Applied: 5, Total: 5},
		{Type: entryEncoded, Slot: 0, Applied: 5.2, Image: "slot-0-final.img", Record: rec, Rig: &st},
		{Type: entryEncoded, Slot: 1, Applied: 5.2, Image: "slot-1-final.img", Record: rec, Rig: &st},
		{Type: entryDone, Slot: -1},
	}
	return bytes.Join(journalLines(t, entries, false), nil)
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

// corruptions derives a journal's crash signatures (a truncated prefix,
// a torn tail) and the damage replay must reject (a duplicated record,
// reordered records, a re-sequenced record). reseq is the re-sequenced
// variant, which depends on the line format.
func corruptions(lines [][]byte, reseq []byte) [][]byte {
	all := bytes.Join(lines, nil)
	return [][]byte{
		all,
		bytes.Join(lines[:4], nil),
		append(bytes.Join(lines[:4], nil), lines[4][:len(lines[4])/2]...),
		append(append([]byte(nil), all...), lines[3]...),
		bytes.Join([][]byte{lines[0], lines[3], lines[1], lines[2]}, nil),
		reseq,
	}
}

// journalSeeds is the checked-in seed corpus. The first nine are
// journals in the legacy standalone grammar, which the fuzz target runs
// through MigrateLegacy: a valid journal, its crash signatures, the
// corruptions replay must reject, mid-file garbage, and plain garbage.
// The rest are a framed two-campaign scheduler journal and its
// variants.
func journalSeeds(t testing.TB) [][]byte {
	legacy := legacyJournalBytes(t)
	lines := bytes.SplitAfter(legacy, []byte("\n"))
	badSeq := bytes.Replace(legacy, []byte(`{"seq":3`), []byte(`{"seq":9`), 1)
	seeds := corruptions(lines, badSeq)
	seeds = append(seeds,
		bytes.Join([][]byte{lines[0], []byte("not json\n"), lines[1]}, nil),
		[]byte("go home journal you are drunk"),
		[]byte{},
	)

	entries := schedJournalEntries()
	framed := journalLines(t, entries, true)
	resequenced := journalLines(t, entries, true)
	e := entries[3]
	e.Seq = 9
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	resequenced[3] = wal.EncodeFrame(b)
	return append(seeds, corruptions(framed, bytes.Join(resequenced, nil))...)
}

// replayJournal runs journal bytes through the fail-closed pipeline: a
// legacy journal is migrated first (tolerating only a torn tail, as
// Parse does), then parsed and replayed.
func replayJournal(data []byte) (*State, error) {
	if out, cut, legacy := MigrateLegacy(data); legacy {
		if cut.Truncated && !cut.TornTail {
			return nil, fmt.Errorf("legacy journal cut: %s", cut.Reason)
		}
		data = out
	}
	entries, _, err := ParseJournal(data)
	if err != nil {
		return nil, err
	}
	return Replay(entries)
}

// FuzzJournalReplay hammers the migrate→parse→replay pipeline with
// mutated journals. The contract is fail-closed, never-panic: whatever
// the bytes claim, MigrateLegacy yields a journal that parses cleanly,
// ParseJournal either rejects the bytes or returns a prefix that
// round-trips, and Replay either rejects the entries or returns a
// state consistent with them.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, cut, legacy := MigrateLegacy(data); legacy {
			// The translation is always a clean scheduler journal.
			if _, n, err := ParseJournal(out); err != nil || n != int64(len(out)) {
				t.Fatalf("migrated journal does not parse cleanly: %v (%d of %d bytes)", err, n, len(out))
			}
			if cut.ValidLen < 0 || cut.ValidLen > int64(len(data)) || cut.ValidLen+cut.DroppedBytes != int64(len(data)) {
				t.Fatalf("migration cut %+v outside the %d input bytes", cut, len(data))
			}
			if cut.Truncated && !cut.TornTail {
				return
			}
			data = out
		}
		entries, validLen, err := ParseJournal(data)
		if err != nil {
			return
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0,%d]", validLen, len(data))
		}
		// The accepted prefix must re-parse to the same entries — what a
		// resuming scheduler truncates to must be self-consistent.
		again, againLen, err := ParseJournal(data[:validLen])
		if err != nil || againLen != validLen || len(again) != len(entries) {
			t.Fatalf("accepted prefix does not round-trip: %v (%d vs %d entries)",
				err, len(again), len(entries))
		}

		st, err := Replay(entries)
		if err != nil {
			return // rejected: fail-closed is the expected path
		}
		// An accepted journal must be internally coherent.
		if st.NextSeq != len(entries) {
			t.Fatalf("NextSeq %d, want %d", st.NextSeq, len(entries))
		}
		for id, c := range st.Campaigns {
			if c.Tenant == "" || c.Digest == "" || len(c.Slots) == 0 {
				t.Fatalf("replay accepted campaign %q without identity: %+v", id, c)
			}
			for i, s := range c.Slots {
				if s.Applied < 0 || s.CkptApplied < 0 {
					t.Fatalf("campaign %q slot %d replayed negative hours: %+v", id, i, s)
				}
				if s.CkptImage != "" && s.CkptRig == nil {
					t.Fatalf("campaign %q slot %d checkpoint without rig state", id, i)
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
// rejected (corruption), for both grammars.
func TestJournalReplaySeeds(t *testing.T) {
	seeds := journalSeeds(t)
	legacy, sched := seeds[:6], seeds[9:]
	midGarbage := seeds[6]

	st, err := replayJournal(legacy[0])
	if err != nil {
		t.Fatalf("valid legacy journal rejected: %v", err)
	}
	if c := st.Campaigns["fz"]; c == nil || !c.Done || len(c.Slots) != 2 || c.Slots[0].Record == nil {
		t.Fatalf("replayed legacy state wrong: %+v", st)
	}
	st, err = replayJournal(sched[0])
	if err != nil {
		t.Fatalf("valid scheduler journal rejected: %v", err)
	}
	if c1, c2 := st.Campaigns["c1"], st.Campaigns["c2"]; c1 == nil || c2 == nil || !c1.Done || !c2.Done ||
		c1.Slots[1].Serial != "sp-1" || len(c1.Spares) != 0 || st.Passes != 3 || st.BatchedSlices != 8 {
		t.Fatalf("replayed scheduler state wrong: %+v", st)
	}

	for grammar, set := range map[string][][]byte{"legacy": legacy, "scheduler": sched} {
		for _, tc := range []struct {
			name string
			data []byte
		}{
			{"truncated prefix", set[1]},
			{"torn tail", set[2]},
		} {
			if _, err := replayJournal(tc.data); err != nil {
				t.Fatalf("%s %s: crash signature rejected: %v", grammar, tc.name, err)
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
				t.Fatalf("%s %s: replay accepted corruption", grammar, tc.name)
			}
		}
	}
	if _, err := replayJournal(midGarbage); err == nil {
		t.Fatal("mid-file garbage accepted")
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
