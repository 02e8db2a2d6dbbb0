// Package fsck audits and repairs campaign and scheduler state
// directories offline, reporting what sched.ResumeCampaign and
// sched.Resume would salvage at startup. A standalone campaign
// directory is a one-tenant scheduler with a flat layout, so both kinds
// go through one audit. fsck decides none of it itself: the directory
// layout and its stale temp files are sched's (JournalFile,
// CampaignsDir, SpecFile, ResultFile, StaleTemps), the journal parse,
// replay and spec check are the ones resume runs, and the byte offset a
// cut truncates to is wal.Salvage.Cut.
//
// An audit never writes: it reads the journal with the same
// frame-verification and structural-replay rules the resume paths use,
// verifies every checkpoint image, final image, result file, and spec
// the surviving journal prefix references, and reports what a resume
// would salvage, strike, rebuild, or quarantine. A repair applies the
// subset of fixes that are safe to do offline:
//
//   - sweep stale temp files left by interrupted atomic writes;
//   - truncate the journal to its externally consistent prefix — the
//     longest prefix that frame-verifies, replays, and whose encoded
//     records point at final images that still pass verification.
//
// Everything else is deliberately left to resume, which has the
// machinery to handle it: corrupt checkpoint images are struck there
// via ckptbad records (an older generation or a from-scratch rebuild
// steps in), a rotten result.json is rebuilt from the journal, and a
// campaign whose spec.json is unrecoverable is quarantined (a
// standalone campaign refuses to resume). Repair never deletes device
// images — older generations are exactly what degraded resume falls
// back on.
package fsck

import (
	"fmt"
	"path/filepath"

	"invisiblebits/internal/device"
	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/storage"
)

// Directory kinds Audit can recognise.
const (
	KindCampaign  = "campaign"  // campaign.Run/Resume state dir (spec.json + journal.jsonl)
	KindScheduler = "scheduler" // sched.New/Resume state dir (journal.jsonl + campaigns/)
)

// Finding severities.
const (
	// SevInfo notes state that is unusual but fully handled (e.g. a
	// campaign that an earlier resume already quarantined).
	SevInfo = "info"
	// SevWarn marks damage resume recovers from on its own (a struck
	// checkpoint, a rebuildable result.json, a stale temp file).
	SevWarn = "warn"
	// SevError marks damage that needs a repair to resume cleanly
	// (journal corruption, a lost final image) or that no repair can
	// undo (an unrecoverable spec — the message itself is gone).
	SevError = "error"
)

// Finding is one problem an audit discovered.
type Finding struct {
	Severity string `json:"severity"`
	// Path is the offending file, relative to the audited directory.
	Path string `json:"path"`
	// Problem says what is wrong; Action says what repair (or the next
	// resume) will do about it.
	Problem string `json:"problem"`
	Action  string `json:"action"`
	// Unrecoverable marks damage neither repair nor resume can undo: a
	// lost or mismatched spec, which holds the message itself.
	Unrecoverable bool `json:"unrecoverable,omitempty"`
}

// Report is the outcome of an audit or repair pass.
type Report struct {
	Dir  string `json:"dir"`
	Kind string `json:"kind"`

	// JournalRecords counts records in the externally consistent prefix;
	// DroppedRecords/DroppedBytes measure what lies beyond it.
	JournalRecords int    `json:"journal_records"`
	DroppedRecords int    `json:"dropped_records,omitempty"`
	DroppedBytes   int64  `json:"dropped_bytes,omitempty"`
	ValidLen       int64  `json:"valid_len"`
	TornTail       bool   `json:"torn_tail,omitempty"`
	Reason         string `json:"reason,omitempty"`

	// TempFiles lists stale "*.tmp*" leftovers found (audit) or removed
	// (repair).
	TempFiles []string  `json:"temp_files,omitempty"`
	Findings  []Finding `json:"findings,omitempty"`

	// Repaired is set when a repair pass applied its fixes.
	Repaired bool `json:"repaired,omitempty"`
}

// Clean reports whether the directory needs no repair and resume will
// not degrade: no stale temps, no journal bytes to drop, and no finding
// but info ones, which note state that is already fully handled.
func (r *Report) Clean() bool {
	for _, f := range r.Findings {
		if f.Severity != SevInfo {
			return false
		}
	}
	return len(r.TempFiles) == 0 && r.DroppedBytes == 0
}

// Unrecoverable reports whether any finding describes damage neither
// repair nor resume can undo (a lost or mismatched spec.json).
func (r *Report) Unrecoverable() bool {
	for _, f := range r.Findings {
		if f.Unrecoverable {
			return true
		}
	}
	return false
}

func (r *Report) add(sev, path, problem, action string) {
	r.Findings = append(r.Findings, Finding{Severity: sev, Path: path, Problem: problem, Action: action})
}

// Audit inspects a state directory without modifying it. The kind
// (campaign vs scheduler) is detected from the layout: a scheduler dir
// has a campaigns/ subdirectory, a campaign dir has spec.json.
func Audit(fsys storage.FS, dir string) (*Report, error) {
	return inspect(storage.Default(fsys), dir, false)
}

// Repair audits and then applies the offline-safe fixes: stale temp
// files are removed and the journal is truncated to its externally
// consistent prefix. The returned report describes the directory as it
// was found; after a successful repair the directory audits clean of
// every repairable finding.
func Repair(fsys storage.FS, dir string) (*Report, error) {
	return inspect(storage.Default(fsys), dir, true)
}

func inspect(fsys storage.FS, dir string, repair bool) (*Report, error) {
	jpath := filepath.Join(dir, sched.JournalFile)
	if _, err := fsys.Stat(jpath); err != nil {
		return nil, fmt.Errorf("fsck: %s: no %s — not a state directory: %w", dir, sched.JournalFile, err)
	}
	rep := &Report{Dir: dir}
	if _, err := fsys.Stat(filepath.Join(dir, sched.CampaignsDir)); err == nil {
		rep.Kind = KindScheduler
	} else if _, err := fsys.Stat(filepath.Join(dir, sched.SpecFile)); err == nil {
		rep.Kind = KindCampaign
	} else {
		return nil, fmt.Errorf("fsck: %s: neither %s/ nor %s — cannot tell scheduler from campaign state", dir, sched.CampaignsDir, sched.SpecFile)
	}
	data, err := fsys.ReadFile(jpath)
	if err != nil {
		return rep, fmt.Errorf("fsck: read journal: %w", err)
	}
	if rep.TempFiles, err = sched.StaleTemps(fsys, dir); err != nil {
		return rep, fmt.Errorf("fsck: %w", err)
	}
	entries := audit(fsys, dir, data, rep)
	if rep.DroppedBytes > 0 {
		rep.add(SevError, sched.JournalFile,
			fmt.Sprintf("only %d of %d records verify (%d bytes beyond the consistent prefix)", rep.JournalRecords, entries, rep.DroppedBytes),
			fmt.Sprintf("repair truncates to %d bytes; resume salvages the same prefix", rep.ValidLen))
	}
	if repair {
		if err := applyRepair(fsys, dir, rep); err != nil {
			return rep, err
		}
		rep.Repaired = true
	}
	return rep, nil
}

// audit checks a state directory against its scheduler-grammar
// journal data and returns how many records frame-verify. A standalone
// campaign directory (KindCampaign) is a one-tenant scheduler whose
// campaign files sit in dir itself; the kinds differ only in where
// files live and in what resume does about an unrecoverable spec or a
// lost result.
func audit(fsys storage.FS, dir string, data []byte, rep *Report) int {
	flat := rep.Kind == KindCampaign
	// rel places a campaign's file relative to dir.
	rel := func(id, name string) string {
		if flat {
			return name
		}
		return filepath.Join(sched.CampaignsDir, id, name)
	}
	specAction := "resume will quarantine this campaign; other tenants are unaffected"
	resultAction := "report only: decode needs campaign.DecodeResult against surviving images"
	if flat {
		specAction = "campaign cannot resume: spec is unrecoverable"
		resultAction = "resume rebuilds it from the journal"
	}
	// specLost reports the one unrecoverable finding: the spec holds the
	// message itself.
	specLost := func(path string, err error) {
		rep.Findings = append(rep.Findings, Finding{
			Severity: SevError, Path: path, Problem: err.Error(), Action: specAction, Unrecoverable: true,
		})
	}

	for _, t := range rep.TempFiles {
		rep.add(SevWarn, t, "stale temp file from an interrupted atomic write", "repair removes it; resume sweeps it")
	}

	entries, sal := sched.ParseJournalSalvage(data)
	st, used, serr := sched.ReplaySalvage(entries)
	cut := used

	// The spec is the one file with no fallback: a standalone run reads
	// it before the journal, so it must load even when no campaign has
	// been submitted yet.
	if flat && len(st.Order) == 0 {
		if _, err := sched.LoadSpec(fsys, dir); err != nil {
			specLost(sched.SpecFile, err)
		}
	}
	for _, id := range st.Order {
		cr := st.Campaigns[id]
		cdir := filepath.Join(dir, rel(id, ""))
		if cr.Quarantined {
			rep.add(SevInfo, rel(id, ""), "campaign already quarantined by an earlier resume", "no action; quarantine is terminal")
			continue
		}
		// A spec resume would reject means the next resume quarantines
		// this campaign (only it), or fails outright in a standalone run.
		if _, err := sched.AcceptSpec(fsys, cdir, id, cr); err != nil {
			specLost(rel(id, sched.SpecFile), err)
		}
		// A corrupt checkpoint is survivable (resume strikes it and an
		// older generation or a scratch rebuild steps in); a corrupt
		// final image is not — the encoded record it anchors must be cut
		// so resume re-runs the slot deterministically.
		for si, sl := range cr.Slots {
			for _, ck := range sl.Ckpts {
				if _, err := device.LoadFileFS(fsys, filepath.Join(cdir, ck.Image)); err != nil {
					rep.add(SevWarn, rel(id, ck.Image),
						fmt.Sprintf("slot %d checkpoint fails verification: %v", si, err),
						"resume strikes it (ckptbad) and falls back to an older generation")
				}
			}
			if sl.FinalImage != "" {
				if _, err := device.LoadFileFS(fsys, filepath.Join(cdir, sl.FinalImage)); err != nil {
					cut = min(cut, sl.FinalSeq)
					rep.add(SevError, rel(id, sl.FinalImage),
						fmt.Sprintf("slot %d final image fails verification: %v", si, err),
						"repair cuts the journal before the encoded record so resume re-runs the slot")
				}
			}
		}
		if cr.Done {
			if _, _, err := ioatomic.ReadFileSealed(fsys, filepath.Join(cdir, sched.ResultFile)); err != nil {
				rep.add(SevWarn, rel(id, sched.ResultFile), fmt.Sprintf("fails verification: %v", err), resultAction)
			}
		}
	}

	rep.ValidLen = sal.Cut(cut)
	rep.JournalRecords = cut
	rep.DroppedRecords = sal.Entries - cut
	rep.DroppedBytes = sal.ValidLen - rep.ValidLen + sal.DroppedBytes
	rep.TornTail = sal.TornTail
	switch {
	case serr != nil && cut == used:
		rep.Reason = serr.Error()
	case sal.Reason != "":
		rep.Reason = sal.Reason
	}
	return sal.Entries
}

// applyRepair performs the offline-safe fixes an audit planned: sweep
// temps, truncate the journal. Device images are never removed.
func applyRepair(fsys storage.FS, dir string, rep *Report) error {
	for _, rel := range rep.TempFiles {
		if err := fsys.Remove(filepath.Join(dir, rel)); err != nil {
			return fmt.Errorf("fsck: sweep %s: %w", rel, err)
		}
	}
	if rep.DroppedBytes > 0 {
		jpath := filepath.Join(dir, sched.JournalFile)
		if err := fsys.Truncate(jpath, rep.ValidLen); err != nil {
			return fmt.Errorf("fsck: truncate journal: %w", err)
		}
		if err := fsys.SyncDir(dir); err != nil {
			return fmt.Errorf("fsck: sync %s: %w", dir, err)
		}
	}
	return nil
}
