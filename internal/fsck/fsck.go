// Package fsck audits and repairs campaign and scheduler state
// directories offline — the disk-side mirror of the salvage logic that
// sched.ResumeCampaign and sched.Resume run at startup. A standalone
// campaign directory is a one-tenant scheduler with a flat layout, so
// both kinds go through one audit.
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
// back on. A journal in the legacy campaign grammar is audited through
// sched.MigrateLegacy; repair writes the migrated journal, as resume
// would.
package fsck

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"invisiblebits/internal/device"
	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/storage"
	"invisiblebits/internal/wal"
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
// not degrade: no findings, no stale temps, no journal bytes to drop.
func (r *Report) Clean() bool {
	return len(r.Findings) == 0 && len(r.TempFiles) == 0 && r.DroppedBytes == 0
}

// Unrecoverable reports whether any finding describes damage neither
// repair nor resume can undo (a lost or mismatched spec.json).
func (r *Report) Unrecoverable() bool {
	for _, f := range r.Findings {
		if strings.Contains(f.Action, "quarantine") || strings.Contains(f.Action, "cannot resume") {
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
	jpath := filepath.Join(dir, "journal.jsonl")
	if _, err := fsys.Stat(jpath); err != nil {
		return nil, fmt.Errorf("fsck: %s: no journal.jsonl — not a state directory: %w", dir, err)
	}
	rep := &Report{Dir: dir}
	if _, err := fsys.Stat(filepath.Join(dir, "campaigns")); err == nil {
		rep.Kind = KindScheduler
	} else if _, err := fsys.Stat(filepath.Join(dir, "spec.json")); err == nil {
		rep.Kind = KindCampaign
	} else {
		return nil, fmt.Errorf("fsck: %s: neither campaigns/ nor spec.json — cannot tell scheduler from campaign state", dir)
	}
	data, err := fsys.ReadFile(jpath)
	if err != nil {
		return rep, fmt.Errorf("fsck: read journal: %w", err)
	}
	migrated, legacyCut, legacy := sched.MigrateLegacy(data)
	if legacy {
		rep.add(SevInfo, "journal.jsonl", "journal is in the legacy campaign grammar",
			"repair, or the next resume, rewrites it in the scheduler grammar")
		data = migrated
	}
	entries := audit(fsys, dir, data, rep)
	if legacyCut.Truncated {
		rep.DroppedBytes += legacyCut.DroppedBytes
		rep.TornTail, rep.Reason = legacyCut.TornTail, legacyCut.Reason
	}
	if rep.DroppedBytes > 0 {
		rep.add(SevError, "journal.jsonl",
			fmt.Sprintf("only %d of %d records verify (%d bytes beyond the consistent prefix)", rep.JournalRecords, entries, rep.DroppedBytes),
			fmt.Sprintf("repair truncates to %d bytes; resume salvages the same prefix", rep.ValidLen))
	}
	if repair {
		if legacy {
			if err := ioatomic.WriteFileFS(fsys, jpath, data, 0o644); err != nil {
				return rep, fmt.Errorf("fsck: migrate legacy journal: %w", err)
			}
		}
		if err := applyRepair(fsys, dir, rep); err != nil {
			return rep, err
		}
		rep.Repaired = true
	}
	return rep, nil
}

// cutAt maps a structural record cut to the byte offset a truncation
// uses: everything past record index `used` is dropped.
func cutAt(sal wal.Salvage, used int) int64 {
	if used >= sal.Entries {
		return sal.ValidLen
	}
	if used <= 0 {
		return 0
	}
	return sal.Offsets[used-1]
}

// sweepList returns the stale temp files under dir (names containing
// ".tmp", the ioatomic scratch suffix), relative to root.
func sweepList(fsys storage.FS, root, dir string) []string {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp") {
			continue
		}
		rel, err := filepath.Rel(root, filepath.Join(dir, e.Name()))
		if err != nil {
			rel = e.Name()
		}
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
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
		return filepath.Join("campaigns", id, name)
	}
	specAction := "resume will quarantine this campaign; other tenants are unaffected"
	resultAction := "report only: decode needs campaign.DecodeResult against surviving images"
	if flat {
		specAction = "campaign cannot resume: spec is unrecoverable"
		resultAction = "resume rebuilds it from the journal"
	}

	rep.TempFiles = sweepList(fsys, dir, dir)
	croot := filepath.Join(dir, "campaigns")
	if ents, err := fsys.ReadDir(croot); err == nil {
		for _, e := range ents {
			if e.IsDir() {
				rep.TempFiles = append(rep.TempFiles, sweepList(fsys, dir, filepath.Join(croot, e.Name()))...)
			}
		}
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
			rep.add(SevError, "spec.json", err.Error(), specAction)
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
			rep.add(SevError, rel(id, "spec.json"), err.Error(), specAction)
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
					if k := earliestBadEncoded(entries[:used], id, sl.FinalImage); k >= 0 && k < cut {
						cut = k
					}
					rep.add(SevError, rel(id, sl.FinalImage),
						fmt.Sprintf("slot %d final image fails verification: %v", si, err),
						"repair cuts the journal before the encoded record so resume re-runs the slot")
				}
			}
		}
		if cr.Done {
			if _, _, err := ioatomic.ReadFileSealed(fsys, filepath.Join(cdir, "result.json")); err != nil {
				rep.add(SevWarn, rel(id, "result.json"), fmt.Sprintf("fails verification: %v", err), resultAction)
			}
		}
	}

	rep.ValidLen = cutAt(sal, cut)
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

// earliestBadEncoded finds the first "encoded" record of campaign id
// naming image, the cut point that un-journals a final image that no
// longer verifies.
func earliestBadEncoded(entries []sched.Entry, id, image string) int {
	for i := range entries {
		if entries[i].Type == "encoded" && entries[i].Campaign == id && entries[i].Image == image {
			return i
		}
	}
	return -1
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
		jpath := filepath.Join(dir, "journal.jsonl")
		if err := fsys.Truncate(jpath, rep.ValidLen); err != nil {
			return fmt.Errorf("fsck: truncate journal: %w", err)
		}
		if err := fsys.SyncDir(dir); err != nil {
			return fmt.Errorf("fsck: sync %s: %w", dir, err)
		}
	}
	return nil
}
