package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"invisiblebits/internal/device"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/fleet"
	"invisiblebits/internal/fsck"
	"invisiblebits/internal/sched"
)

// durableSpec is the bench's campaign-durable shape: 700 B across three
// ATSAML11E16A carriers at the default cadence, so only slot 0 carries
// data.
func durableSpec() Spec {
	msg := make([]byte, 700)
	for i := range msg {
		msg[i] = byte(i*13 + 5)
	}
	return Spec{
		ID:      "durable",
		Model:   "ATSAML11E16A",
		Serials: []string{"cd-0", "cd-1", "cd-2"},
		Message: msg,
		Codec:   "paper",
	}
}

// legacySpec is the spec of the directories under testdata/legacy,
// written by the retired single-campaign engine: a 28 B message, so
// slot 1 is zero-width.
func legacySpec() Spec {
	return Spec{
		ID:              "legacy",
		Model:           "MSP430G2553",
		Serials:         []string{"lg-0", "lg-1"},
		Message:         []byte("a legacy standalone campaign"),
		Codec:           "paper",
		StressHours:     10,
		SliceHours:      2.5,
		CheckpointEvery: 2,
	}
}

func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// imageState loads a device image and hashes the state it decodes to,
// whatever the image format: the data plane, then each of the six pools
// (s0Perm, s0Fast, s0Slow, s1Perm, s1Fast, s1Slow) over every cell as
// float32 bits, each equivalent stress time (t0, then t1) over every
// cell as float64 bits — left out when withTimes is false — PowerOns
// and NoiseGen as uint64, the Flash bytes, and each refresh event's
// four fields as float64 bits, all little-endian. With withTimes it is
// the device package's state pin.
func imageState(t *testing.T, path string, withTimes bool) string {
	t.Helper()
	d, err := device.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	st := d.SRAM.StateSnapshot()
	h.Write(st.Data)
	var b [8]byte
	for _, pool := range [][]float32{st.S0Perm, st.S0Fast, st.S0Slow, st.S1Perm, st.S1Fast, st.S1Slow} {
		for _, v := range pool {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for dir := 0; withTimes && dir < 2; dir++ {
		for i := 0; i < d.SRAM.Cells(); i++ {
			t0, t1 := d.SRAM.EquivalentTimes(i)
			put(math.Float64bits([2]float64{t0, t1}[dir]))
		}
	}
	put(st.PowerOns)
	put(uint64(st.NoiseGen))
	if d.Flash != nil {
		fl, err := d.Flash.Read(0, d.Flash.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(fl)
	}
	for _, ev := range d.RefreshLog() {
		for _, v := range []float64{ev.ClockHours, ev.StressHours, ev.MarginBefore, ev.MarginAfter} {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStandaloneBitPins pins what an uninterrupted campaign writes: the
// bytes of result.json, recorded with the retired single-campaign
// engine, which the scheduler reproduces byte for byte, and the state
// each final image decodes to (imageState), recorded from the live
// devices before image version 4. Re-record them only on the parent
// commit of a change that moves them, and say why in CHANGES.md.
func TestStandaloneBitPins(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		spec   Spec
		result string
		states map[int]string
	}{
		{
			spec:   testSpec(t, "matrix"),
			result: "bee904f22fb583f370035e6dea9181cfaa8a987851bbad57ea26fb3c67780819",
			states: map[int]string{
				0: "23224c820f0a4a373bc3997f3c5be2469ce4607573fb9142e0bf9112c1d5cbc7",
				1: "91f21d96115e6e3f09cd5a2476c434d69363aa7ab81321816bcb4afe14ac0f89",
			},
		},
		{
			spec:   durableSpec(),
			result: "276a0b4303d8bf9411556cd7e96259ca81689e3912c9c533fd5e19c2968fe07c",
			states: map[int]string{
				0: "ced5f6c419450dcdddbf1d3cb0e5757d79a81d05a0c913a95f9937ef0fc96a90",
			},
		},
	} {
		t.Run(tc.spec.ID, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), tc.spec.ID)
			res, err := Run(ctx, dir, tc.spec, Options{Key: testKey()})
			if err != nil {
				t.Fatal(err)
			}
			if got := fileSHA256(t, filepath.Join(dir, "result.json")); got != tc.result {
				t.Errorf("result.json sha256 %s, want %s", got, tc.result)
			}
			images := 0
			for slot, img := range res.Images {
				if img == "" {
					continue
				}
				images++
				if got := imageState(t, filepath.Join(dir, img), true); got != tc.states[slot] {
					t.Errorf("slot %d final state sha256 %s, want %s", slot, got, tc.states[slot])
				}
			}
			if images != len(tc.states) {
				t.Errorf("%d final images, want %d", images, len(tc.states))
			}
		})
	}
}

// copyDir copies a flat fixture directory into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestLegacyCampaignDirs resumes, audits, repairs and decodes the two
// directories the retired single-campaign engine wrote for legacySpec:
// "killed" died at the first kill point after its first checkpoint
// record, "finished" ran to the end. Their journals are in the legacy
// grammar, which the first resume migrates.
func TestLegacyCampaignDirs(t *testing.T) {
	ctx := context.Background()
	key := testKey()
	spec := legacySpec()
	refDir := filepath.Join(t.TempDir(), "ref")
	refRes, err := Run(ctx, refDir, spec, Options{Key: key})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	for _, name := range []string{"killed", "finished"} {
		t.Run(name, func(t *testing.T) {
			fixture := filepath.Join("testdata", "legacy", name)

			dir := copyDir(t, fixture)
			rep, err := fsck.Audit(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Findings {
				if f.Severity == fsck.SevError {
					t.Fatalf("audit of the legacy directory: %+v", f)
				}
			}
			result, _ := os.ReadFile(filepath.Join(dir, "result.json"))
			legacy, err := os.ReadFile(filepath.Join(dir, journalFile))
			if err != nil {
				t.Fatal(err)
			}

			res, sum, err := ResumeSalvage(ctx, dir, Options{Key: key})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			// Every legacy record survives the migration (begin becomes
			// two): the resume continues the legacy run, not a fresh one.
			if want := bytes.Count(legacy, []byte("\n")) + 1; sum.JournalRecords != want || sum.Degraded() {
				t.Fatalf("resume replayed %d records, want %d undamaged: %+v", sum.JournalRecords, want, sum)
			}
			if !reflect.DeepEqual(res, refRes) {
				t.Fatalf("result differs from uninterrupted run:\n got %+v\nwant %+v", res, refRes)
			}
			// A version-3 image can never equal a version-4 one, so the
			// final images are compared by the state they decode to. Every
			// image in the fixture is version 3, which carries no
			// equivalent stress times: a slot that has one ended in it or
			// resumed from it, and its times were re-derived — the
			// documented approximate resume. Its pools still match.
			for slot, img := range res.Images {
				if img == "" {
					continue
				}
				legacySlot, _ := filepath.Glob(filepath.Join(fixture, fmt.Sprintf("slot-%d-*.img", slot)))
				withTimes := len(legacySlot) == 0
				got := imageState(t, filepath.Join(dir, img), withTimes)
				if want := imageState(t, filepath.Join(refDir, refRes.Images[slot]), withTimes); got != want {
					t.Fatalf("slot %d final image decodes to another state than the uninterrupted run's", slot)
				}
			}
			entries, _, err := sched.ReadJournal(filepath.Join(dir, journalFile))
			if err != nil || len(entries) == 0 || entries[0].Type != "tenant" {
				t.Fatalf("journal not migrated to the scheduler grammar: %v", err)
			}
			if name == "finished" {
				if after, _ := os.ReadFile(filepath.Join(dir, "result.json")); !bytes.Equal(after, result) {
					t.Fatal("resume of the finished campaign rewrote result.json")
				}
			}
			got, err := DecodeResult(ctx, dir, key)
			if err != nil || !bytes.Equal(got, spec.Message) {
				t.Fatalf("decode: %q, %v", got, err)
			}

			dir = copyDir(t, fixture)
			if _, err := fsck.Repair(nil, dir); err != nil {
				t.Fatal(err)
			}
			if rep, err := fsck.Audit(nil, dir); err != nil || !rep.Clean() {
				t.Fatalf("repaired legacy directory does not audit clean: %+v, %v", rep, err)
			}
		})
	}
}

// goldenSpec is ibplan's golden campaign: both slots carry data.
func goldenSpec() Spec {
	return Spec{
		ID:              "golden",
		Model:           "MSP430G2553",
		Serials:         []string{"golden-0", "golden-1"},
		Message:         bytes.Repeat([]byte{0xA5}, 48),
		Codec:           "paper",
		StressHours:     7.5,
		SliceHours:      2.5,
		CheckpointEvery: 2,
	}
}

// TestJournalBudgetMatchesRun: the planning-time journal budget counts
// exactly the appends a real run makes, bar the tenant and drain
// records a standalone run adds — zero-width slots journal nothing and
// the final slice checkpoints nothing.
func TestJournalBudgetMatchesRun(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []Spec{goldenSpec(), durableSpec()} {
		m, err := device.ByName(spec.Model)
		if err != nil {
			t.Fatal(err)
		}
		budget := sched.EstimateJournalBudget(spec, m)
		appends := 0
		hook := func(point string) error {
			if strings.HasPrefix(point, "journal/") {
				appends++
			}
			return nil
		}
		dir := filepath.Join(t.TempDir(), spec.ID)
		if _, err := Run(ctx, dir, spec, Options{Key: testKey(), Hook: hook}); err != nil {
			t.Fatal(err)
		}
		if budget.Records+2 != appends {
			t.Errorf("%s: budget %d records + tenant + drain, run journaled %d", spec.ID, budget.Records, appends)
		}
	}
}

// TestResultReportsSharedQuarantine: a breaker set shared with an
// earlier stripe that already wrote a carrier off reports it in the
// result, and the campaign itself is unaffected.
func TestResultReportsSharedQuarantine(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, "breakers")
	refRes, err := Run(ctx, filepath.Join(t.TempDir(), "ref"), spec, Options{Key: testKey()})
	if err != nil {
		t.Fatal(err)
	}
	breakers := fleet.NewBreakerSet(fleet.BreakerConfig{})
	const gone = "MSP430G2553:earlier-0"
	breakers.For(gone).Record(faults.ErrDeviceDead, 0)
	res, err := Run(ctx, filepath.Join(t.TempDir(), "c"), spec, Options{Key: testKey(), Breakers: breakers})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Quarantined, []string{gone}) {
		t.Fatalf("quarantined %v, want [%s]", res.Quarantined, gone)
	}
	res.Quarantined = nil
	if !reflect.DeepEqual(res, refRes) {
		t.Fatalf("breaker set changed the outcome:\n got %+v\nwant %+v", res, refRes)
	}
}

// TestCancelledRunResumes: cancelling Run's context stops it at the
// next pass boundary with the context's error, and a later Resume
// reaches the uninterrupted outcome.
func TestCancelledRunResumes(t *testing.T) {
	key := testKey()
	spec := testSpec(t, "cancel")
	base := t.TempDir()
	refDir := filepath.Join(base, "ref")
	refRes, err := Run(context.Background(), refDir, spec, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	refImages := readImages(t, refDir, refRes)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := func(point string) error {
		if strings.HasPrefix(point, "journal/ckpt") {
			cancel()
		}
		return nil
	}
	dir := filepath.Join(base, "c")
	if _, err := Run(ctx, dir, spec, Options{Key: key, Hook: hook}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "result.json")); !os.IsNotExist(err) {
		t.Fatal("cancelled run finished the campaign")
	}
	res, err := Resume(context.Background(), dir, Options{Key: key})
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	assertSameOutcome(t, "cancelled run", dir, res, refRes, refImages)
}

// TestResumeRebuildsLostResult: a finished campaign whose result.json
// was lost resumes to the same Result, rewrites the same bytes, and
// appends nothing to its journal.
func TestResumeRebuildsLostResult(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "c")
	res, err := Run(ctx, dir, testSpec(t, "lostresult"), Options{Key: testKey()})
	if err != nil {
		t.Fatal(err)
	}
	resultPath := filepath.Join(dir, "result.json")
	want, _ := os.ReadFile(resultPath)
	journal, _ := os.ReadFile(filepath.Join(dir, journalFile))
	if err := os.Remove(resultPath); err != nil {
		t.Fatal(err)
	}
	again, sum, err := ResumeSalvage(ctx, dir, Options{Key: testKey()})
	if err != nil {
		t.Fatalf("resume without result.json: %v", err)
	}
	if !reflect.DeepEqual(again, res) {
		t.Fatalf("rebuilt result differs:\n got %+v\nwant %+v", again, res)
	}
	if got, _ := os.ReadFile(resultPath); !bytes.Equal(got, want) {
		t.Fatal("rebuilt result.json differs from the original bytes")
	}
	if sum.Reason == "" {
		t.Fatalf("salvage summary does not mention the rebuild: %+v", sum)
	}
	if after, _ := os.ReadFile(filepath.Join(dir, journalFile)); !bytes.Equal(after, journal) {
		t.Fatal("resume of a finished campaign appended to its journal")
	}
}

// TestRunWideStripe: a standalone run sizes the chamber to its stripe,
// so a fleet wider than a scheduler's default chamber still runs.
func TestRunWideStripe(t *testing.T) {
	ctx := context.Background()
	spec := Spec{
		ID:         "wide",
		Model:      "MSP430G2553",
		Message:    []byte("wider than a default chamber pass"),
		Codec:      "paper",
		SliceHours: 5,
	}
	for i := 0; i <= sched.DefaultChamberSlots; i++ {
		spec.Serials = append(spec.Serials, fmt.Sprintf("wide-%d", i))
	}
	dir := filepath.Join(t.TempDir(), "wide")
	if _, err := Run(ctx, dir, spec, Options{Key: testKey()}); err != nil {
		t.Fatalf("%d-carrier stripe: %v", len(spec.Serials), err)
	}
	got, err := DecodeResult(ctx, dir, testKey())
	if err != nil || !bytes.Equal(got, spec.Message) {
		t.Fatalf("decode: %q, %v", got, err)
	}
}
