package fsck

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"invisiblebits/internal/campaign"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/wal"
)

func testKey() *stegocrypt.Key {
	k := stegocrypt.KeyFromPassphrase("fsck-drill")
	return &k
}

func testSpec(id string, serials []string) campaign.Spec {
	return campaign.Spec{
		ID:              id,
		Model:           "MSP430G2553",
		Serials:         serials,
		Message:         []byte("payload for " + id),
		Codec:           "paper",
		StressHours:     7.5,
		SliceHours:      2.5,
		CheckpointEvery: 2,
	}
}

// killCampaign runs a campaign under a kill switch so the directory is
// mid-flight: journal, checkpoints, maybe temp litter.
func killCampaign(t *testing.T, dir string, spec campaign.Spec) {
	t.Helper()
	ks := faults.NewKillSwitch(9)
	_, err := campaign.Run(context.Background(), dir, spec, campaign.Options{Key: testKey(), Hook: ks.Hook()})
	if !ks.Fired() || err == nil {
		t.Fatalf("kill switch did not fire (err=%v)", err)
	}
}

// TestCampaignRepairDrill is the acceptance drill: corrupt a campaign
// state dir (journal garbage + temp litter), repair it offline, and the
// repaired directory must resume cleanly and decode.
func TestCampaignRepairDrill(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	spec := testSpec("drill", []string{"dr-0"})
	killCampaign(t, dir, spec)

	jpath := filepath.Join(dir, "journal.jsonl")
	if f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
		t.Fatal(err)
	} else {
		fmt.Fprint(f, "w2 999 deadbeef {\"seq\":99}\ngarbage that never was a record")
		f.Close()
	}
	litter := filepath.Join(dir, "result.json.tmp77")
	if err := os.WriteFile(litter, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Audit(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindCampaign {
		t.Fatalf("kind = %q, want campaign", rep.Kind)
	}
	if rep.Clean() || rep.DroppedBytes == 0 || len(rep.TempFiles) != 1 {
		t.Fatalf("audit missed the damage: %+v", rep)
	}
	if rep.Repaired {
		t.Fatal("audit must not repair")
	}
	// Audit is read-only: the garbage is still there.
	if b, _ := os.ReadFile(jpath); !bytes.Contains(b, []byte("garbage")) {
		t.Fatal("audit modified the journal")
	}

	rrep, err := Repair(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Repaired {
		t.Fatal("repair did not run")
	}
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Fatal("repair left the temp litter")
	}

	clean, err := Audit(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Clean() {
		t.Fatalf("repaired directory does not audit clean: %+v", clean)
	}

	res, err := campaign.Resume(context.Background(), dir, campaign.Options{Key: testKey()})
	if err != nil || res == nil {
		t.Fatalf("repaired campaign did not resume: %v", err)
	}
	got, err := campaign.DecodeResult(context.Background(), dir, testKey())
	if err != nil || !bytes.Equal(got, spec.Message) {
		t.Fatalf("repaired campaign decoded wrong: %v", err)
	}
}

// TestCampaignAuditCutsLostFinalImage: a final image that fails its
// seal strands the encoded record; repair cuts the journal before it so
// resume deterministically re-runs the slot.
func TestCampaignAuditCutsLostFinalImage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	spec := testSpec("finalrot", []string{"fr-0"})
	res, err := campaign.Run(context.Background(), dir, spec, campaign.Options{Key: testKey()})
	if err != nil {
		t.Fatal(err)
	}
	refImage, err := os.ReadFile(filepath.Join(dir, res.Images[0]))
	if err != nil {
		t.Fatal(err)
	}

	imgPath := filepath.Join(dir, res.Images[0])
	b, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x77
	if err := os.WriteFile(imgPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Repair(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedRecords == 0 {
		t.Fatalf("repair did not cut the stranded encoded record: %+v", rep)
	}

	res2, err := campaign.Resume(context.Background(), dir, campaign.Options{Key: testKey()})
	if err != nil {
		t.Fatalf("resume after final-image cut: %v", err)
	}
	regen, err := os.ReadFile(filepath.Join(dir, res2.Images[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(regen, refImage) {
		t.Fatal("re-run slot did not regenerate the identical final image")
	}
	got, err := campaign.DecodeResult(context.Background(), dir, testKey())
	if err != nil || !bytes.Equal(got, spec.Message) {
		t.Fatalf("decode after re-run: %v", err)
	}
}

// TestAuditFlagsUnrecoverableSpec: a rotten spec.json cannot be
// repaired — the audit must say so instead of pretending.
func TestAuditFlagsUnrecoverableSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	killCampaign(t, dir, testSpec("specrot", []string{"sr-0"}))
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Audit(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Unrecoverable() {
		t.Fatalf("audit did not flag the unrecoverable spec: %+v", rep)
	}
}

// TestAuditFlagsShortJournaledDigest: a submit record whose schedule
// digest is shorter than the 12 characters a mismatch report prints is
// an unrecoverable spec like any other mismatch, reported at SevError.
func TestAuditFlagsShortJournaledDigest(t *testing.T) {
	dir := t.TempDir()
	cdir := filepath.Join(dir, "campaigns", "sd")
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(testSpec("sd", []string{"sd-0"}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cdir, "spec.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	var journal []byte
	for i, e := range []sched.Entry{
		{Type: "tenant", Tenant: "alice", Quota: &sched.Quota{}, Slot: -1},
		{Type: "submit", Tenant: "alice", Campaign: "sd", Digest: "abc", Slots: 1, Slot: -1},
	} {
		e.Seq = i
		payload, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(journal, wal.EncodeFrame(payload)...)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Audit(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("campaigns", "sd", "spec.json")
	for _, f := range rep.Findings {
		if f.Path == want && f.Severity == SevError && strings.Contains(f.Problem, "digest mismatch") {
			if !rep.Unrecoverable() {
				t.Fatalf("spec finding not counted unrecoverable: %+v", rep)
			}
			return
		}
	}
	t.Fatalf("audit did not report %s at %s: %+v", want, SevError, rep.Findings)
}

// TestSchedulerRepairDrill: the same drill against a multi-tenant
// scheduler directory — repair, then a clean resume that finishes every
// campaign.
func TestSchedulerRepairDrill(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	keyFor := func(tenant, id string) *stegocrypt.Key {
		k := stegocrypt.KeyFromPassphrase("fsck|" + tenant + "|" + id)
		return &k
	}
	cfg := sched.Config{KeyFor: keyFor}
	s, err := sched.New(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := sched.Submission{Tenant: "alice", Spec: testSpec("sd-a", []string{"sda-0"})}
	if err := s.Submit(sub); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60e9)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Chop the journal mid-record (torn tail) and drop litter in the
	// campaign subdirectory.
	jpath := filepath.Join(dir, "journal.jsonl")
	j, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, j[:len(j)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	litter := filepath.Join(dir, "campaigns", "sd-a", "spec.json.tmp3")
	if err := os.WriteFile(litter, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Audit(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindScheduler || rep.Clean() || !rep.TornTail {
		t.Fatalf("audit = %+v, want a torn scheduler journal", rep)
	}
	if len(rep.TempFiles) != 1 {
		t.Fatalf("audit found temps %v, want the campaign-dir litter", rep.TempFiles)
	}

	if _, err := Repair(nil, dir); err != nil {
		t.Fatal(err)
	}
	clean, err := Audit(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Clean() {
		t.Fatalf("repaired scheduler dir does not audit clean: %+v", clean)
	}

	rs, err := sched.Resume(dir, cfg)
	if err != nil {
		t.Fatalf("resume repaired scheduler: %v", err)
	}
	if err := rs.Submit(sub); err != nil && !errors.Is(err, sched.ErrDuplicateCampaign) {
		// The cut may have dropped the done record; resubmission must
		// either be a duplicate or re-admit cleanly.
		t.Fatalf("re-submit: %v", err)
	}
	if err := rs.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cs, ok := rs.Campaign("sd-a")
	if !ok || cs.State != "done" {
		t.Fatalf("campaign after repair+resume: %+v", cs)
	}
	got, err := campaign.DecodeResult(context.Background(), filepath.Join(dir, "campaigns", "sd-a"), keyFor("alice", "sd-a"))
	if err != nil || !bytes.Equal(got, sub.Spec.Message) {
		t.Fatalf("decode after scheduler repair: %v", err)
	}
}
