package sched

import (
	"context"
	"fmt"
	"path/filepath"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/fleet"
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
	jpath := filepath.Join(dir, JournalFile)
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
// the spec holds the message itself.
func ResumeCampaign(ctx context.Context, dir string, opts CampaignOptions) (*Result, *ResumeSummary, error) {
	spec, err := LoadSpec(storage.Default(opts.FS), dir)
	if err != nil {
		return nil, nil, err
	}
	s, err := resume(dir, opts.config(spec), true)
	if err != nil {
		return nil, nil, err
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
	if !c.rep.Done {
		return nil, fmt.Errorf("campaign: %q failed: %s", c.id, c.rep.Error)
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
