package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/wal"
)

// copyTree clones a state directory so each mutation starts from the
// same reference bytes.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copy %s -> %s: %v", src, dst, err)
	}
}

// newQueued is New with subs admitted before the scheduling loop
// starts, so every pass batches all of them and the journal holds the
// same records on every run. With New, the loop can plan a pass between
// two Submits and soak the first campaign alone, one pass record more.
func newQueued(tb testing.TB, dir string, cfg Config, subs []Submission) *Scheduler {
	tb.Helper()
	s := newAdmitted(tb, dir, cfg, subs)
	go s.loop()
	return s
}

// newAdmitted is New with subs admitted and the scheduling loop not
// started.
func newAdmitted(tb testing.TB, dir string, cfg Config, subs []Submission) *Scheduler {
	tb.Helper()
	if err := os.MkdirAll(filepath.Join(dir, campaignsDir), 0o755); err != nil {
		tb.Fatal(err)
	}
	j, err := wal.Create(filepath.Join(dir, journalFile), wal.Options{Hook: cfg.Hook, FS: cfg.FS})
	if err != nil {
		tb.Fatal(err)
	}
	s := newScheduler(dir, cfg, j)
	for _, sub := range subs {
		if err := s.Submit(sub); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// collectDone gathers the bit-identity artifacts of every done
// campaign.
func collectDone(t *testing.T, s *Scheduler, dir string, subs []Submission) map[string]outcomeCmp {
	t.Helper()
	out := map[string]outcomeCmp{}
	for _, sub := range subs {
		id := sub.Spec.ID
		cs, ok := s.Campaign(id)
		if !ok || cs.State != "done" {
			continue
		}
		cdir := filepath.Join(dir, campaignsDir, id)
		res, err := os.ReadFile(filepath.Join(cdir, "result.json"))
		if err != nil {
			t.Fatalf("campaign %s result: %v", id, err)
		}
		img, err := os.ReadFile(filepath.Join(cdir, "slot-0-final.img"))
		if err != nil {
			t.Fatalf("campaign %s image: %v", id, err)
		}
		out[id] = outcomeCmp{
			result:    res,
			image:     img,
			message:   decodeCampaign(t, dir, sub.Tenant, id),
			baselines: cs.Baselines,
		}
	}
	return out
}

// TestCorruptionMatrix is the robustness gate: flip a byte in every
// region (prefix, length, CRC, payload, terminator) of every journal
// record, and resume. The scheduler must come back every single time;
// campaigns either finish bit-identically to the uncorrupted reference
// or are quarantined (spec damage only) — corrupted state is never
// decoded as if it were sound.
func TestCorruptionMatrix(t *testing.T) {
	base := t.TempDir()
	subs := []Submission{
		miniSub("alice", "cm-a", []string{"cma-0"}, 7.5),
		miniSub("bob", "cm-b", []string{"cmb-0"}, 7.5),
	}
	cfg := Config{KeyFor: testKeyFor}

	refDir := filepath.Join(base, "ref")
	ref := newQueued(t, refDir, cfg, subs)
	drainOK(t, ref)
	want := collectDone(t, ref, refDir, subs)
	if len(want) != len(subs) {
		t.Fatalf("reference run finished %d campaigns, want %d", len(want), len(subs))
	}

	journal, err := os.ReadFile(filepath.Join(refDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	entries, validLen, err := ParseJournal(journal)
	if err != nil || validLen != int64(len(journal)) {
		t.Fatalf("reference journal: %d of %d bytes valid: %v", validLen, len(journal), err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))

	// Every line, named by the record it frames: type, campaign, slot,
	// and its ordinal within that stream (e.g. slice/cm-a/0#2). Byte
	// offsets would not do — concurrent slot appends interleave
	// differently from run to run. Each line's byte regions: frame
	// prefix, length field, CRC field, payload, and the final payload
	// byte before the terminator.
	type mutation struct {
		label string
		off   int
	}
	types := map[string]bool{}
	ordinals := map[string]int{}
	var muts []mutation
	off := 0
	for i, e := range entries {
		ln := lines[i]
		types[e.Type] = true
		stream := e.Type
		if e.Campaign != "" {
			stream += "/" + e.Campaign
		}
		if e.Slot >= 0 {
			stream += fmt.Sprintf("/%d", e.Slot)
		}
		record := fmt.Sprintf("%s#%d", stream, ordinals[stream])
		ordinals[stream]++
		for _, reg := range []struct {
			name string
			at   int
		}{
			{"prefix", 0},
			{"length", 3},
			{"crc", bytes.IndexByte(ln, '{') - 5},
			{"payload", len(ln) / 2},
			{"tail", len(ln) - 2},
		} {
			if reg.at < 0 || reg.at >= len(ln) {
				continue
			}
			muts = append(muts, mutation{
				label: record + "/" + reg.name,
				off:   off + reg.at,
			})
		}
		off += len(ln)
	}
	if len(types) < 6 {
		t.Fatalf("reference journal exercises only %d record types: %v", len(types), types)
	}

	for i, m := range muts {
		m := m
		t.Run(m.label, func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("mut%03d", i))
			copyTree(t, refDir, dir)
			jpath := filepath.Join(dir, "journal.jsonl")
			data := append([]byte(nil), journal...)
			data[m.off] ^= 0x04
			if err := os.WriteFile(jpath, data, 0o644); err != nil {
				t.Fatal(err)
			}

			s, err := Resume(dir, cfg)
			if err != nil {
				t.Fatalf("resume after flipping %s byte %d: %v", m.label, m.off, err)
			}
			for _, sub := range subs {
				if err := s.Submit(sub); err != nil && !errors.Is(err, ErrDuplicateCampaign) {
					t.Fatalf("re-submit: %v", err)
				}
			}
			drainOK(t, s)
			if sal := s.Salvage(); sal == nil {
				t.Fatal("resumed scheduler reports no salvage summary")
			}
			got := collectDone(t, s, dir, subs)
			if len(got) != len(subs) {
				t.Fatalf("journal corruption must not lose campaigns: finished %d of %d", len(got), len(subs))
			}
			assertOutcomes(t, m.label, got, want)
		})
	}
}

// TestCorruptSpecQuarantinesOnlyThatCampaign: spec.json damage is the
// one unrecoverable loss (the message itself). The resuming scheduler
// parks exactly that campaign and resumes every other tenant
// bit-identically — it never refuses to start, and never decodes the
// damaged campaign as if it were sound.
func TestCorruptSpecQuarantinesOnlyThatCampaign(t *testing.T) {
	base := t.TempDir()
	subs := []Submission{
		miniSub("alice", "q-a", []string{"qa-0"}, 7.5),
		miniSub("bob", "q-b", []string{"qb-0"}, 7.5),
	}
	cfg := Config{KeyFor: testKeyFor}

	refDir := filepath.Join(base, "ref")
	ref, err := New(refDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := ref.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	drainOK(t, ref)
	want := collectDone(t, ref, refDir, subs)

	for _, damage := range []string{"flip", "truncate", "delete"} {
		t.Run(damage, func(t *testing.T) {
			dir := filepath.Join(base, damage)
			copyTree(t, refDir, dir)
			spec := filepath.Join(dir, campaignsDir, "q-a", "spec.json")
			switch damage {
			case "flip":
				b, err := os.ReadFile(spec)
				if err != nil {
					t.Fatal(err)
				}
				// Corrupt a value, not just whitespace: change the model
				// name so the digest shifts.
				b = bytes.Replace(b, []byte("MSP430G2553"), []byte("MSP430G2554"), 1)
				if err := os.WriteFile(spec, b, 0o644); err != nil {
					t.Fatal(err)
				}
			case "truncate":
				if err := os.Truncate(spec, 10); err != nil {
					t.Fatal(err)
				}
			case "delete":
				if err := os.Remove(spec); err != nil {
					t.Fatal(err)
				}
			}

			s, err := Resume(dir, cfg)
			if err != nil {
				t.Fatalf("resume with damaged spec must not fail the scheduler: %v", err)
			}
			drainOK(t, s)

			sal := s.Salvage()
			if sal == nil || !sal.Degraded() {
				t.Fatalf("salvage summary = %+v, want degraded", sal)
			}
			if len(sal.Quarantined) != 1 || sal.Quarantined[0] != "q-a" {
				t.Fatalf("quarantined %v, want exactly [q-a]", sal.Quarantined)
			}
			cs, ok := s.Campaign("q-a")
			if !ok || cs.State != "quarantined" || cs.Error == "" {
				t.Fatalf("q-a state = %+v, want quarantined with an error", cs)
			}
			st := s.Status()
			if st.Quarantined != 1 {
				t.Fatalf("status quarantined = %d, want 1", st.Quarantined)
			}
			if st.Salvage == nil {
				t.Fatal("status does not surface the salvage summary")
			}

			// The other tenant is untouched, bit for bit.
			got := collectDone(t, s, dir, subs)
			if _, quarantinedDecoded := got["q-a"]; quarantinedDecoded {
				t.Fatal("quarantined campaign reported done")
			}
			assertOutcomes(t, damage, got, map[string]outcomeCmp{"q-b": want["q-b"]})

			// Quarantine is sticky: a second resume keeps the campaign
			// parked without re-journaling the quarantine.
			s2, err := Resume(dir, cfg)
			if err != nil {
				t.Fatalf("second resume: %v", err)
			}
			drainOK(t, s2)
			if cs, ok := s2.Campaign("q-a"); !ok || cs.State != "quarantined" {
				t.Fatalf("quarantine did not stick across resumes: %+v", cs)
			}
		})
	}
}

// TestKillCorruptStorm is the combined hazard drill (run under -race in
// CI): kill the scheduler at a fault-injection kill point, then rot
// disk state behind its back — journal bytes and checkpoint images —
// and resume. Every storm must end with a drained scheduler whose done
// campaigns decode to exactly the submitted message; damaged state is
// re-done or struck, never trusted.
func TestKillCorruptStorm(t *testing.T) {
	base := t.TempDir()
	cfg := Config{KeyFor: testKeyFor}

	for seed := 0; seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("s%d", seed))
			subs := []Submission{
				miniSub("alice", fmt.Sprintf("st-a%d", seed), []string{fmt.Sprintf("sa-%d", seed)}, 7.5),
				miniSub("bob", fmt.Sprintf("st-b%d", seed), []string{fmt.Sprintf("sb-%d", seed)}, 7.5),
			}

			ks := faults.NewKillSwitch(4 + seed*5)
			killCfg := cfg
			killCfg.Hook = ks.Hook()
			s, err := New(dir, killCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				s.Submit(sub) //nolint:errcheck // a fired kill point rejects later submits
			}
			s.Drain(context.Background()) //nolint:errcheck // dies at the kill point

			// Rot the disk behind the dead process: one journal byte at
			// a seed-determined position, and (odd seeds) every
			// checkpoint image of the first campaign.
			jpath := filepath.Join(dir, "journal.jsonl")
			if j, err := os.ReadFile(jpath); err == nil && len(j) > 0 {
				j[(seed*211+17)%len(j)] ^= 0x10
				if err := os.WriteFile(jpath, j, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if seed%2 == 1 {
				imgs, _ := filepath.Glob(filepath.Join(dir, campaignsDir, subs[0].Spec.ID, "slot-*-ckpt-*.img"))
				for _, p := range imgs {
					b, err := os.ReadFile(p)
					if err != nil {
						t.Fatal(err)
					}
					b[len(b)/2] ^= 0x33
					if err := os.WriteFile(p, b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			rs, err := Resume(dir, cfg)
			if err != nil {
				t.Fatalf("resume after kill+corrupt: %v", err)
			}
			for _, sub := range subs {
				if err := rs.Submit(sub); err != nil && !errors.Is(err, ErrDuplicateCampaign) {
					t.Fatalf("re-submit: %v", err)
				}
			}
			drainOK(t, rs)

			for _, sub := range subs {
				cs, ok := rs.Campaign(sub.Spec.ID)
				if !ok {
					t.Fatalf("campaign %s lost in the storm", sub.Spec.ID)
				}
				if cs.State != "done" {
					t.Fatalf("campaign %s ended %q (%s), want done — specs were never damaged", sub.Spec.ID, cs.State, cs.Error)
				}
				got := decodeCampaign(t, dir, sub.Tenant, sub.Spec.ID)
				if !bytes.Equal(got, sub.Spec.Message) {
					t.Fatalf("campaign %s decoded garbage after the storm", sub.Spec.ID)
				}
			}
		})
	}
}

// writeJournal writes entries as dir's framed journal.
func writeJournal(t *testing.T, dir string, entries []Entry) {
	t.Helper()
	data := bytes.Join(journalLines(t, entries, true), nil)
	if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShortJournaledDigestQuarantines: a submit record whose schedule
// digest is shorter than the 12 characters a mismatch report prints
// must not crash resume. A scheduler quarantines that campaign and
// resumes the rest; a standalone resume returns an error.
func TestShortJournaledDigestQuarantines(t *testing.T) {
	t.Run("scheduler", func(t *testing.T) {
		dir := t.TempDir()
		subs := []Submission{
			miniSub("alice", "sd-a", []string{"sda-0"}, 7.5),
			miniSub("bob", "sd-b", []string{"sdb-0"}, 7.5),
		}
		var entries []Entry
		for _, sub := range subs {
			cdir := filepath.Join(dir, campaignsDir, sub.Spec.ID)
			if err := os.MkdirAll(cdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := writeSpec(nil, cdir, sub.Spec.withDefaults()); err != nil {
				t.Fatal(err)
			}
			entries = append(entries,
				Entry{Type: entryTenant, Tenant: sub.Tenant, Quota: &Quota{}, Slot: -1},
				Entry{
					Type: entrySubmit, Tenant: sub.Tenant, Campaign: sub.Spec.ID,
					Digest: sub.Spec.ScheduleDigest(), Slots: 1, EstHours: 7.5, Slot: -1,
				})
		}
		entries[1].Digest = "abc"
		writeJournal(t, dir, entries)

		s, err := Resume(dir, Config{KeyFor: testKeyFor})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		drainOK(t, s)
		if sal := s.Salvage(); len(sal.Quarantined) != 1 || sal.Quarantined[0] != "sd-a" {
			t.Fatalf("quarantined %v, want exactly [sd-a]", sal.Quarantined)
		}
		if cs, _ := s.Campaign("sd-a"); cs.State != "quarantined" || !strings.Contains(cs.Error, "digest mismatch: journal abc…") {
			t.Fatalf("sd-a = %+v, want quarantined for its digest", cs)
		}
		if cs, _ := s.Campaign("sd-b"); cs.State != "done" {
			t.Fatalf("sd-b = %+v, want done", cs)
		}
		if got := decodeCampaign(t, dir, "bob", "sd-b"); !bytes.Equal(got, subs[1].Spec.Message) {
			t.Fatalf("sd-b decodes to %q", got)
		}
	})

	t.Run("standalone", func(t *testing.T) {
		dir := t.TempDir()
		spec := miniSub("", "sd-solo", []string{"sds-0"}, 7.5).Spec.withDefaults()
		if err := writeSpec(nil, dir, spec); err != nil {
			t.Fatal(err)
		}
		writeJournal(t, dir, []Entry{
			{Type: entryTenant, Tenant: standaloneTenant, Quota: &Quota{}, Slot: -1},
			{Type: entrySubmit, Tenant: standaloneTenant, Campaign: spec.ID, Digest: "abc", Slots: 1, Slot: -1},
		})
		_, _, err := ResumeCampaign(context.Background(), dir, CampaignOptions{Key: testKeyFor("", spec.ID)})
		if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
			t.Fatalf("standalone resume over a short digest: %v, want a digest mismatch", err)
		}
	})
}

// TestResumeAcceptsSpecWithoutDefaults: the schedule digest covers the
// slice and checkpoint defaults, so a spec.json that omits them (as a
// hand-written one may) still matches its submit record. The resumed
// campaign must run with the defaults the digest vouched for, not with
// a zero checkpoint cadence.
func TestResumeAcceptsSpecWithoutDefaults(t *testing.T) {
	dir := t.TempDir()
	sub := miniSub("alice", "nd-a", []string{"nda-0"}, 7.5)
	sub.Spec.SliceHours, sub.Spec.CheckpointEvery = 0, 0
	s := newAdmitted(t, dir, Config{KeyFor: testKeyFor}, []Submission{sub})
	s.j.Close()
	b, err := json.Marshal(sub.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, campaignsDir, "nd-a", specFile), b, 0o644); err != nil {
		t.Fatal(err)
	}

	rs, err := Resume(dir, Config{KeyFor: testKeyFor})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	drainOK(t, rs)
	if cs, _ := rs.Campaign("nd-a"); cs.State != "done" {
		t.Fatalf("nd-a = %+v, want done", cs)
	}
	if got := decodeCampaign(t, dir, "alice", "nd-a"); !bytes.Equal(got, sub.Spec.Message) {
		t.Fatalf("nd-a decodes to %q", got)
	}
}
