package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"invisiblebits/internal/cliutil"
	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/wal"
)

// The flat layout of a campaign directory.
const (
	journalFile = "journal.jsonl"
	specFile    = "spec.json"
)

// testSpec builds the canonical matrix campaign: two MSP430G2553
// carriers (the smallest, fastest device), the paper codec, the default
// 10h soak diced into 2.5h slices with a checkpoint every second slice.
// The message is sized so the stripe genuinely spans both carriers.
func testSpec(t *testing.T, id string) Spec {
	t.Helper()
	spec := Spec{
		ID:              id,
		Model:           "MSP430G2553",
		Serials:         []string{"cm-0", "cm-1"},
		Codec:           "paper",
		SliceHours:      2.5,
		CheckpointEvery: 2,
	}
	codec, err := cliutil.ParseCodec(spec.Codec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := device.ByName(spec.Model)
	if err != nil {
		t.Fatal(err)
	}
	perDevice := core.MaxMessageBytes(m.SRAMBytes, codec)
	msg := make([]byte, perDevice+7) // slot 0 full, slot 1 carries 7 bytes
	for i := range msg {
		msg[i] = byte(i*13 + 5)
	}
	spec.Message = msg
	return spec
}

func testKey() *stegocrypt.Key {
	k := stegocrypt.KeyFromPassphrase("campaign-matrix")
	return &k
}

// readImages loads the final image bytes of every slot with a record.
func readImages(t *testing.T, dir string, res *Result) map[int][]byte {
	t.Helper()
	out := map[int][]byte{}
	for slot, rec := range res.Records {
		if rec == nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, res.Images[slot]))
		if err != nil {
			t.Fatalf("slot %d final image: %v", slot, err)
		}
		out[slot] = b
	}
	return out
}

// replayJournal reads and replays the journal at path strictly: only a
// torn final line may be cut, and replay must use every record.
func replayJournal(path string) (*sched.State, error) {
	entries, sal, err := sched.ReadJournalSalvage(nil, path)
	if err != nil {
		return nil, err
	}
	if sal.DroppedBytes > 0 && !sal.TornTail {
		return nil, fmt.Errorf("journal cut after %d records: %s", sal.Entries, sal.Reason)
	}
	st, used, err := sched.ReplaySalvage(entries)
	if used < len(entries) {
		return nil, err
	}
	return st, nil
}

// doneBaselines returns the baselines of the done record in dir's
// journal.
func doneBaselines(t *testing.T, dir string) []float64 {
	t.Helper()
	st, err := replayJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range st.Order {
		if c := st.Campaigns[id]; c.Done {
			return c.Baselines
		}
	}
	t.Fatalf("%s: journal has no done campaign", dir)
	return nil
}

func assertSameOutcome(t *testing.T, label, dir string, res *Result, refRes *Result, refImages map[int][]byte) {
	t.Helper()
	if !reflect.DeepEqual(res, refRes) {
		t.Fatalf("%s: result differs from uninterrupted run:\n got %+v\nwant %+v", label, res, refRes)
	}
	images := readImages(t, dir, res)
	if len(images) != len(refImages) {
		t.Fatalf("%s: %d final images, want %d", label, len(images), len(refImages))
	}
	for slot, ref := range refImages {
		if !bytes.Equal(images[slot], ref) {
			t.Fatalf("%s: slot %d final image differs from uninterrupted run", label, slot)
		}
	}
}

// TestCrashMatrixResumeEquivalence is the tentpole acceptance test: the
// campaign is killed at EVERY kill point in turn — every journal append
// and every image write — resumed with no further interference, and the
// outcome must be bit-identical to the uninterrupted reference run:
// same result (records, layout, bench hours), same final device images,
// same decoded message.
func TestCrashMatrixResumeEquivalence(t *testing.T) {
	// 2 slots × (prepare + 4 slices + checkpoints + final) plus the
	// campaign-level records is well over a dozen points.
	crashMatrix(t, testSpec(t, "matrix"), 15)
}

// TestCrashMatrixDurableSpec walks the matrix on the bench's
// campaign-durable shape: 16 one-hour slices on a 16 KiB carrier,
// checkpointed every second slice. Before device images carried the
// equivalent stress times, 36 of its 55 kill points resumed to other
// final images.
func TestCrashMatrixDurableSpec(t *testing.T) {
	crashMatrix(t, durableSpec(), 50)
}

// TestCrashMatrixCheckpointEverySlice walks the matrix on the same
// shape checkpointed after every slice, so nearly every resume
// restores an image.
func TestCrashMatrixCheckpointEverySlice(t *testing.T) {
	spec := durableSpec()
	spec.CheckpointEvery = 1
	crashMatrix(t, spec, 65)
}

// crashMatrix kills spec's campaign at each kill point in turn, resumes
// it, and requires the uninterrupted run's result, byte-equal final
// images and message. The walk must cover at least minPoints points.
func crashMatrix(t *testing.T, spec Spec, minPoints int) {
	ctx := context.Background()
	key := testKey()
	base := t.TempDir()

	refDir := filepath.Join(base, "ref")
	refRes, err := Run(ctx, refDir, spec, Options{Key: key})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refImages := readImages(t, refDir, refRes)
	refBaselines := doneBaselines(t, refDir)
	got, err := DecodeResult(ctx, refDir, key)
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	if !bytes.Equal(got, spec.Message) {
		t.Fatal("reference campaign does not decode to its message")
	}

	points := 0
	for k := 0; ; k++ {
		dir := filepath.Join(base, fmt.Sprintf("k%03d", k))
		ks := faults.NewKillSwitch(k)
		_, err := Run(ctx, dir, spec, Options{Key: key, Hook: ks.Hook()})
		if !ks.Fired() {
			// The switch outlived the campaign: k is past the last kill
			// point and this run completed clean.
			if err != nil {
				t.Fatalf("unkilled run failed: %v", err)
			}
			points = k
			break
		}
		if err == nil {
			t.Fatalf("kill point %d fired but Run reported success", k)
		}
		if !errors.Is(err, faults.ErrKilled) {
			t.Fatalf("kill point %d surfaced as %v, want ErrKilled in the chain", k, err)
		}
		res, err := Resume(ctx, dir, Options{Key: key})
		if err != nil {
			t.Fatalf("resume after kill point %d: %v", k, err)
		}
		label := fmt.Sprintf("kill point %d", k)
		assertSameOutcome(t, label, dir, res, refRes, refImages)
		// The uninterrupted run probes its baselines on the live
		// devices; a resume that has no live rig for a slot probes its
		// final image. Both must give the same floats.
		if b := doneBaselines(t, dir); !reflect.DeepEqual(b, refBaselines) {
			t.Fatalf("%s: done baselines %v, uninterrupted run %v", label, b, refBaselines)
		}
		if k%5 == 0 {
			got, err := DecodeResult(ctx, dir, key)
			if err != nil || !bytes.Equal(got, spec.Message) {
				t.Fatalf("%s: decode after resume: %v", label, err)
			}
		}
		os.RemoveAll(dir)
	}
	// The matrix is only meaningful if it actually walked the journal.
	if points < minPoints {
		t.Fatalf("crash matrix covered only %d kill points, want %d", points, minPoints)
	}
	t.Logf("crash matrix: %d kill points, all resumed bit-identically", points)
}

// TestJournalIOFailureFailsClosedTyped pins the durability-failure
// contract (the crash matrix's sibling: instead of dying at a kill
// point, the disk refuses an atomic rename): the campaign must fail
// closed with an error classifying as ErrJournalIO, and once the
// obstruction is cleared, Resume must still reach the bit-identical
// outcome — an I/O failure is just another crash as far as the journal
// is concerned.
func TestJournalIOFailureFailsClosedTyped(t *testing.T) {
	ctx := context.Background()
	key := testKey()
	base := t.TempDir()
	spec := testSpec(t, "journalio")

	refDir := filepath.Join(base, "ref")
	refRes, err := Run(ctx, refDir, spec, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	refImages := readImages(t, refDir, refRes)

	// A directory squatting on slot 0's final-image name makes the
	// atomic rename fail (rename(2) cannot replace a directory with a
	// file — even for root, unlike permission bits).
	dir := filepath.Join(base, "blocked")
	if err := os.MkdirAll(filepath.Join(dir, "slot-0-final.img"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err = Run(ctx, dir, spec, Options{Key: key})
	if err == nil {
		t.Fatal("campaign succeeded with an unwritable final image path")
	}
	if !errors.Is(err, wal.ErrJournalIO) {
		t.Fatalf("durability failure surfaced as %v, want ErrJournalIO in the chain", err)
	}

	// Clear the obstruction; the journal holds everything that durably
	// happened, so Resume completes bit-identically.
	if err := os.Remove(filepath.Join(dir, "slot-0-final.img")); err != nil {
		t.Fatal(err)
	}
	res, err := Resume(ctx, dir, Options{Key: key})
	if err != nil {
		t.Fatalf("resume after I/O failure: %v", err)
	}
	assertSameOutcome(t, "post-IO-failure resume", dir, res, refRes, refImages)
	got, err := DecodeResult(ctx, dir, key)
	if err != nil || !bytes.Equal(got, spec.Message) {
		t.Fatalf("decode after I/O-failure resume: %v", err)
	}
}

// TestDoubleCrashResume kills the campaign, then kills the *resume*,
// then resumes again — dying twice must be no worse than dying once.
func TestDoubleCrashResume(t *testing.T) {
	ctx := context.Background()
	key := testKey()
	base := t.TempDir()
	spec := testSpec(t, "double")

	refDir := filepath.Join(base, "ref")
	refRes, err := Run(ctx, refDir, spec, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	refImages := readImages(t, refDir, refRes)

	dir := filepath.Join(base, "crashed")
	ks := faults.NewKillSwitch(7)
	if _, err := Run(ctx, dir, spec, Options{Key: key, Hook: ks.Hook()}); err == nil {
		t.Fatal("killed run succeeded")
	}
	ks2 := faults.NewKillSwitch(4)
	if _, err := Resume(ctx, dir, Options{Key: key, Hook: ks2.Hook()}); err == nil {
		t.Fatal("killed resume succeeded")
	}
	if !ks2.Fired() {
		t.Fatal("second kill switch never fired — resume had fewer than 4 kill points")
	}
	res, err := Resume(ctx, dir, Options{Key: key})
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	assertSameOutcome(t, "double crash", dir, res, refRes, refImages)

	// Resuming a finished campaign is idempotent: it reads the sealed
	// result instead of re-running anything.
	again, err := Resume(ctx, dir, Options{Key: key})
	if err != nil {
		t.Fatalf("resume of finished campaign: %v", err)
	}
	if !reflect.DeepEqual(again, refRes) {
		t.Fatalf("idempotent resume returned a different result: %+v", again)
	}
}

// TestResumeFailsClosed pins the supervisor's refusal modes: a swapped
// spec under a live journal, a tampered journal, and re-Running a
// started campaign.
func TestResumeFailsClosed(t *testing.T) {
	ctx := context.Background()
	key := testKey()
	base := t.TempDir()
	spec := testSpec(t, "failclosed")

	dir := filepath.Join(base, "c")
	ks := faults.NewKillSwitch(9)
	if _, err := Run(ctx, dir, spec, Options{Key: key, Hook: ks.Hook()}); err == nil {
		t.Fatal("killed run succeeded")
	}

	// Re-Run on a started campaign is refused.
	if _, err := Run(ctx, dir, spec, Options{Key: key}); err == nil {
		t.Fatal("Run re-entered a campaign that already has a journal")
	}

	// A spec whose schedule changed under the journal is refused.
	tampered := spec
	tampered.SliceHours = 5
	b, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		t.Fatal(err)
	}
	writeSpecJSON(t, dir, tampered)
	if _, err := Resume(ctx, dir, Options{Key: key}); err == nil {
		t.Fatal("resume accepted a foreign schedule digest")
	}
	if err := os.WriteFile(filepath.Join(dir, specFile), b, 0o644); err != nil {
		t.Fatal(err)
	}

	// A journal with a duplicated record is rejected by strict replay —
	// and survived by salvage resume, which cuts the corrupt suffix and
	// deterministically redoes the lost work instead of bricking.
	jpath := filepath.Join(dir, journalFile)
	journal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short to tamper: %d lines", len(lines))
	}
	dup := append(append([]byte(nil), journal...), lines[2]...)
	if err := os.WriteFile(jpath, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, sal, err := sched.ReadJournalSalvage(nil, jpath); err != nil || sal.DroppedBytes > 0 {
		t.Fatalf("duplicated record should pass frame verification: %v %+v", err, sal)
	}
	if _, err := replayJournal(jpath); err == nil {
		t.Fatal("strict replay accepted a journal with a duplicated record")
	}
	res, sum, err := sched.ResumeCampaign(ctx, dir, Options{Key: key})
	if err != nil {
		t.Fatalf("salvage resume over a duplicated record: %v", err)
	}
	if res == nil || sum.DroppedRecords != 1 || !sum.Degraded() {
		t.Fatalf("salvage summary did not report the cut: %+v", sum)
	}
	if err := os.WriteFile(jpath, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	// A torn tail, by contrast, is the expected crash signature: cut the
	// last record in half and the campaign still resumes to the end.
	torn := journal[:len(journal)-len(lines[len(lines)-1])/2-1]
	if err := os.WriteFile(jpath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ctx, dir, Options{Key: key}); err != nil {
		t.Fatalf("resume with a torn journal tail: %v", err)
	}
}

func writeSpecJSON(t *testing.T, dir string, spec Spec) {
	t.Helper()
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, specFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
}
