package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/fleet"
	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/storage"
	"invisiblebits/internal/wal"
)

// A standalone campaign is a one-tenant scheduler run. Its state
// directory is the campaign directory itself — journal.jsonl, spec.json,
// slot-*.img and result.json side by side — and its journal speaks the
// scheduler grammar: tenant, submit, drain, then the passes and slot
// streams every scheduled campaign journals. Crash safety, salvage and
// bit-identical resume are therefore the scheduler's own; nothing here
// drives a slot.

// standaloneTenant owns the only campaign of a standalone run.
const standaloneTenant = "standalone"

// CampaignOptions configures a standalone RunCampaign or ResumeCampaign.
type CampaignOptions struct {
	// Key enables the encryption layer (held in memory only, never
	// persisted to the campaign directory).
	Key *stegocrypt.Key
	// Breakers gates every slot operation through per-device circuit
	// breakers; the result reports the set's quarantine list.
	Breakers *fleet.BreakerSet
	// Hook is the crash-test kill-point hook; every journal append and
	// spec, image and result write consults it. Nil in production.
	Hook faults.Hook
	// FS is the filesystem seam for every durable artifact (journal,
	// spec, images, result). Nil means the real OS filesystem;
	// fault-injection tests substitute a storage.FaultFS.
	FS storage.FS
}

// config is the one-tenant scheduler a standalone run drives: the
// chamber holds exactly the stripe.
func (o CampaignOptions) config(spec Spec) Config {
	return Config{
		ChamberSlots: len(spec.Serials),
		KeyFor:       func(string, string) *stegocrypt.Key { return o.Key },
		Breakers:     o.Breakers,
		Hook:         o.Hook,
		FS:           o.FS,
	}
}

// RunCampaign runs a fresh standalone campaign in dir to completion. A
// directory that already holds a journal is refused — that campaign's
// truth is on disk, and ResumeCampaign is the only safe way back in.
// Cancelling ctx stops the run at the next pass boundary with
// ctx.Err(); the campaign resumes from there.
func RunCampaign(ctx context.Context, dir string, spec Spec, opts CampaignOptions) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fsys := storage.Default(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	jpath := filepath.Join(dir, journalFile)
	if _, err := fsys.Stat(jpath); err == nil {
		return nil, fmt.Errorf("campaign: %s already holds a journal; use Resume", dir)
	}
	// spec.json is durable before the first kill point, so a crash at
	// any of them — even before the submit record — can resume.
	if err := writeSpec(fsys, dir, spec); err != nil {
		return nil, err
	}
	j, err := wal.Create(jpath, wal.Options{Hook: opts.Hook, FS: opts.FS})
	if err != nil {
		return nil, err
	}
	s := newScheduler(dir, opts.config(spec), j)
	s.standalone = true
	return s.runStandalone(ctx, spec)
}

// ResumeCampaign re-enters a standalone campaign after a crash, a
// failure or a cancellation and drives it to completion; resuming a
// finished campaign returns its result (rebuilding a lost result.json
// from the journal). It salvages storage damage the way a scheduler
// resume does and reports it in the summary. A spec.json that is
// missing, broken or no longer matches the journal fails the resume:
// the spec holds the message itself. A journal in the legacy campaign
// grammar is first rewritten in the scheduler grammar (MigrateLegacy).
func ResumeCampaign(ctx context.Context, dir string, opts CampaignOptions) (*Result, *ResumeSummary, error) {
	fsys := storage.Default(opts.FS)
	spec, err := LoadSpec(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	jpath := filepath.Join(dir, journalFile)
	data, err := fsys.ReadFile(jpath)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: read journal: %w", wal.ErrJournalIO, err)
	}
	migrated, cut, legacy := MigrateLegacy(data)
	if legacy {
		if err := ioatomic.WriteFileFS(fsys, jpath, migrated, 0o644); err != nil {
			return nil, nil, fmt.Errorf("%w: migrate legacy journal: %w", wal.ErrJournalIO, err)
		}
	}
	s, err := resume(dir, opts.config(spec), true)
	if err != nil {
		return nil, nil, err
	}
	if cut.Truncated {
		// Legacy bytes the migration could not verify are dropped, just
		// as if the resume had cut them itself.
		s.salvage.DroppedBytes += cut.DroppedBytes
		s.salvage.TornTail = cut.TornTail
		s.salvage.Reason = cut.Reason
	}
	res, err := s.runStandalone(ctx, spec)
	return res, s.salvage, err
}

// runStandalone submits spec unless the journal already holds it,
// drains the scheduler — the drain record goes in before the loop
// starts, so the journal order is fixed — and returns the finished
// campaign's result. The loop must not be running yet.
func (s *Scheduler) runStandalone(ctx context.Context, spec Spec) (*Result, error) {
	c := s.camps[spec.ID]
	if c == nil {
		if err := s.Submit(Submission{Tenant: standaloneTenant, Spec: spec}); err != nil {
			s.j.Close()
			return nil, err
		}
		c = s.camps[spec.ID]
	}
	if c.terminal() {
		s.j.Close()
	} else {
		s.mu.Lock()
		err := s.drainLocked()
		s.mu.Unlock()
		if err != nil {
			s.j.Close()
			return nil, err
		}
		go s.loop()
		if err := s.wait(ctx); err != nil {
			if ctx.Err() != nil {
				// Let the loop finish its pass and close the journal; the
				// cancellation is what the caller is told.
				_ = s.Stop(context.Background())
			}
			return nil, err
		}
	}
	if !c.done {
		return nil, fmt.Errorf("campaign: %q failed: %s", c.id, c.errText)
	}
	res, err := readResult(s.fsys, c.dir)
	if err == nil {
		return res, nil
	}
	// The done record guarantees result.json was written, but the disk
	// may have eaten it since. Everything in it derives from the
	// journal: rebuild it.
	res = s.resultOf(c)
	if err := writeResult(s.fsys, c.dir, res); err != nil {
		return nil, fmt.Errorf("%w: rebuild result: %w", wal.ErrJournalIO, err)
	}
	if s.salvage != nil {
		s.salvage.Reason = "result.json rebuilt from journal"
	}
	return res, nil
}

// Record kinds of the legacy standalone grammar that the scheduler
// grammar names differently.
const (
	legacyBegin      = "begin"
	legacyCheckpoint = "checkpoint"
)

// legacyKinds are the kinds a legacy journal may hold after its begin
// record.
var legacyKinds = map[string]bool{
	entryResume: true, entryPrepared: true, entrySlice: true, legacyCheckpoint: true,
	entryCkptBad: true, entryEncoded: true, entryDone: true,
}

// MigrateLegacy translates a standalone campaign journal written in the
// legacy grammar — the record format of the retired single-campaign
// engine — into the scheduler grammar. legacy is false, and nothing is
// translated, when data does not open with a legacy begin record.
//
// The translation is record for record: begin becomes a tenant and a
// submit record, checkpoint becomes ckpt, every other kind keeps its
// name, and each record is stamped with the campaign ID and renumbered.
// Legacy sequence numbers are checked before renumbering, so a gap, a
// duplicate or a reordering still cuts the journal, as do a second
// begin, a foreign resume record and an unknown kind. out is the
// longest legacy prefix that verifies, framed; cut describes what was
// left of data, in wal.ParseSalvage's terms. MigrateLegacy only
// translates bytes: ResumeCampaign writes out in place of the legacy
// journal, and fsck audits it without writing.
func MigrateLegacy(data []byte) (out []byte, cut wal.Salvage, legacy bool) {
	entries, sal := wal.ParseSalvage(data, entryOK)
	if len(entries) == 0 || entries[0].Type != legacyBegin {
		return nil, wal.Salvage{}, false
	}
	begin := entries[0]
	cut = sal
	for i, e := range entries {
		reason := ""
		switch {
		case e.Seq != i:
			reason = fmt.Sprintf("legacy journal sequence broken: record %d claims seq %d", i, e.Seq)
		case i > 0 && !legacyKinds[e.Type]:
			reason = fmt.Sprintf("legacy record %d has kind %q", i, e.Type)
		case e.Type == entryResume && (e.Campaign != begin.Campaign || e.Digest != begin.Digest):
			reason = fmt.Sprintf("legacy resume record %d carries a foreign schedule digest", i)
		}
		if reason != "" {
			entries = entries[:i]
			cut = wal.Salvage{Entries: i, ValidLen: offsetOf(sal, i), Truncated: true, Reason: "sched: " + reason}
			cut.DroppedBytes = int64(len(data)) - cut.ValidLen
			break
		}
	}
	cut.Offsets = nil

	var buf bytes.Buffer
	seq := 0
	emit := func(e Entry) {
		e.Seq = seq
		seq++
		payload, err := json.Marshal(&e)
		if err != nil {
			// Entry holds only strings, numbers and plain structs.
			panic(err)
		}
		buf.Write(wal.EncodeFrame(payload))
	}
	for _, e := range entries {
		switch e.Type {
		case legacyBegin:
			emit(Entry{Type: entryTenant, Tenant: standaloneTenant, Quota: &Quota{}, Slot: -1})
			emit(Entry{
				Type: entrySubmit, Tenant: standaloneTenant, Campaign: e.Campaign,
				Digest: e.Digest, Slots: e.Slots, Slot: -1,
			})
			continue
		case entryResume:
			e.Campaign, e.Digest = "", ""
		case legacyCheckpoint:
			e.Type = entryCkpt
			fallthrough
		default:
			e.Campaign = begin.Campaign
		}
		emit(e)
	}
	return buf.Bytes(), cut, true
}
