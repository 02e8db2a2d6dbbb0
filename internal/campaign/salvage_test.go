package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/sched"
)

// killWithCheckpoints runs the campaign under a kill switch, escalating
// the kill point until the died-at state has at least one checkpoint
// image on disk — the precondition for exercising generation fallback.
func killWithCheckpoints(t *testing.T, base string, spec Spec) (dir string, ckpts []string) {
	t.Helper()
	ctx := context.Background()
	for k := 5; k < 200; k++ {
		dir = filepath.Join(base, fmt.Sprintf("kill%03d", k))
		ks := faults.NewKillSwitch(k)
		_, err := Run(ctx, dir, spec, Options{Key: testKey(), Hook: ks.Hook()})
		if !ks.Fired() {
			t.Fatalf("campaign completed before any kill point left a checkpoint behind (k=%d, err=%v)", k, err)
		}
		// The checkpoint must be journaled, not merely on disk — an
		// image without its record is invisible to resume.
		entries, _, rerr := sched.ReadJournalSalvage(nil, filepath.Join(dir, journalFile))
		if rerr != nil {
			t.Fatal(rerr)
		}
		st, _, _ := sched.ReplaySalvage(entries)
		if c := st.Campaigns[spec.ID]; c != nil {
			for _, sl := range c.Slots {
				for _, ck := range sl.Ckpts {
					ckpts = append(ckpts, filepath.Join(dir, ck.Image))
				}
			}
		}
		if len(ckpts) > 0 {
			return dir, ckpts
		}
	}
	t.Fatal("no kill point produced a checkpoint")
	return "", nil
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x55
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeStrikesCorruptCheckpoint: a checkpoint image that rots
// after the crash is struck (journaled as ckptbad), an older generation
// or a from-scratch rebuild steps in, and the campaign still completes
// bit-identically to an uninterrupted run.
func TestResumeStrikesCorruptCheckpoint(t *testing.T) {
	ctx := context.Background()
	key := testKey()
	base := t.TempDir()
	spec := testSpec(t, "ckptrot")

	refDir := filepath.Join(base, "ref")
	refRes, err := Run(ctx, refDir, spec, Options{Key: key})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refImages := readImages(t, refDir, refRes)

	dir, ckpts := killWithCheckpoints(t, base, spec)
	corruptFile(t, ckpts[len(ckpts)-1])

	res, sum, err := sched.ResumeCampaign(ctx, dir, Options{Key: key})
	if err != nil {
		t.Fatalf("resume over a rotted checkpoint: %v", err)
	}
	if len(sum.BadCheckpoints) == 0 || !sum.Degraded() {
		t.Fatalf("salvage summary did not report the struck checkpoint: %+v", sum)
	}
	assertSameOutcome(t, "rotted newest checkpoint", dir, res, refRes, refImages)
	got, err := DecodeResult(ctx, dir, key)
	if err != nil || !bytes.Equal(got, spec.Message) {
		t.Fatalf("decode after checkpoint strike: %v", err)
	}
}

// TestResumeSurvivesAllCheckpointsRotten: with every generation gone,
// resume rebuilds the affected slots from scratch — device identity is
// a pure function of (model, serial) — and still converges on the
// reference outcome.
func TestResumeSurvivesAllCheckpointsRotten(t *testing.T) {
	ctx := context.Background()
	key := testKey()
	base := t.TempDir()
	spec := testSpec(t, "allrot")

	refDir := filepath.Join(base, "ref")
	refRes, err := Run(ctx, refDir, spec, Options{Key: key})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refImages := readImages(t, refDir, refRes)

	dir, ckpts := killWithCheckpoints(t, base, spec)
	for _, p := range ckpts {
		corruptFile(t, p)
	}

	res, sum, err := sched.ResumeCampaign(ctx, dir, Options{Key: key})
	if err != nil {
		t.Fatalf("resume with every checkpoint rotted: %v", err)
	}
	if len(sum.BadCheckpoints) != len(ckpts) {
		t.Fatalf("struck %d checkpoints, want %d: %+v", len(sum.BadCheckpoints), len(ckpts), sum)
	}
	assertSameOutcome(t, "all checkpoints rotted", dir, res, refRes, refImages)
}

// TestResumeSalvagesCorruptJournalInterior: a flipped byte in the
// middle of the journal cuts replay there; the lost suffix is redone
// deterministically and the final outcome matches the reference.
func TestResumeSalvagesCorruptJournalInterior(t *testing.T) {
	ctx := context.Background()
	key := testKey()
	base := t.TempDir()
	spec := testSpec(t, "jrot")

	refDir := filepath.Join(base, "ref")
	refRes, err := Run(ctx, refDir, spec, Options{Key: key})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refImages := readImages(t, refDir, refRes)

	dir, _ := killWithCheckpoints(t, base, spec)
	jpath := filepath.Join(dir, journalFile)
	journal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	// Flip a byte inside the third record.
	off := len(lines[0]) + len(lines[1]) + len(lines[2])/2
	journal[off] ^= 0x08
	if err := os.WriteFile(jpath, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	res, sum, err := sched.ResumeCampaign(ctx, dir, Options{Key: key})
	if err != nil {
		t.Fatalf("resume over corrupt journal interior: %v", err)
	}
	if sum.DroppedBytes == 0 || !sum.Degraded() {
		t.Fatalf("salvage summary did not report the cut: %+v", sum)
	}
	if sum.JournalRecords != 2 {
		t.Fatalf("salvaged %d records, want the 2 before the flip", sum.JournalRecords)
	}
	assertSameOutcome(t, "corrupt journal interior", dir, res, refRes, refImages)
	got, err := DecodeResult(ctx, dir, key)
	if err != nil || !bytes.Equal(got, spec.Message) {
		t.Fatalf("decode after journal salvage: %v", err)
	}
}

// TestResumeSweepsTempLitter: stale *.tmp* files from interrupted
// atomic writes are removed on resume and reported in the summary.
func TestResumeSweepsTempLitter(t *testing.T) {
	ctx := context.Background()
	key := testKey()
	base := t.TempDir()
	spec := testSpec(t, "sweep")

	dir, _ := killWithCheckpoints(t, base, spec)
	litter := filepath.Join(dir, "result.json.tmp1234")
	if err := os.WriteFile(litter, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, sum, err := sched.ResumeCampaign(ctx, dir, Options{Key: key})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(sum.TempFilesSwept) != 1 {
		t.Fatalf("swept %v, want the one temp file", sum.TempFilesSwept)
	}
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Fatal("temp litter survived resume")
	}
}
