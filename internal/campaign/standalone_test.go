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
	"invisiblebits/internal/wal"
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

func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// imageState loads a device image and hashes the state it decodes to:
// the data plane, then each of the six pools (s0Perm, s0Fast, s0Slow,
// s1Perm, s1Fast, s1Slow) over every cell as float32 bits, each
// equivalent stress time (t0, then t1) over every cell as float64 bits,
// PowerOns and the noise generation (2, the ziggurat plane) as uint64,
// the Flash bytes, and each refresh event's four fields as float64
// bits, all little-endian. It is the device package's state pin.
func imageState(t *testing.T, path string) string {
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
	for dir := 0; dir < 2; dir++ {
		for i := 0; i < d.SRAM.Cells(); i++ {
			t0, t1 := d.SRAM.EquivalentTimes(i)
			put(math.Float64bits([2]float64{t0, t1}[dir]))
		}
	}
	put(st.PowerOns)
	put(2)
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
				if got := imageState(t, filepath.Join(dir, img)); got != tc.states[slot] {
					t.Errorf("slot %d final state sha256 %s, want %s", slot, got, tc.states[slot])
				}
			}
			if images != len(tc.states) {
				t.Errorf("%d final images, want %d", images, len(tc.states))
			}
		})
	}
}

// legacySpec is the campaign behind the legacy directories below.
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

// legacyRecords is the journal the retired single-campaign engine wrote
// for legacySpec, in that engine's grammar (begin, checkpoint, encoded,
// done): a killed run stopped after record 4, its first checkpoint.
var legacyRecords = []string{
	`{"seq":0,"type":"begin","campaign":"legacy","digest":"3a288a0440a4c4ee63b40efa1745ec061bee630fdda5d6b31be1947fb391f988","slots":2,"slot":-1}`,
	`{"seq":1,"type":"prepared","campaign":"legacy","slot":0}`,
	`{"seq":2,"type":"slice","campaign":"legacy","slot":0,"applied_hours":2.5,"total_hours":10}`,
	`{"seq":3,"type":"slice","campaign":"legacy","slot":0,"applied_hours":5,"total_hours":10}`,
	`{"seq":4,"type":"checkpoint","slot":0,"applied_hours":5,"image":"slot-0-ckpt-5.0000h.img"}`,
	`{"seq":5,"type":"slice","campaign":"legacy","slot":0,"applied_hours":7.5,"total_hours":10}`,
	`{"seq":6,"type":"slice","campaign":"legacy","slot":0,"applied_hours":10,"total_hours":10}`,
	`{"seq":7,"type":"checkpoint","slot":0,"applied_hours":10,"image":"slot-0-ckpt-10.0000h.img"}`,
	`{"seq":8,"type":"encoded","campaign":"legacy","slot":0,"applied_hours":10.4,"image":"slot-0-final.img"}`,
	`{"seq":9,"type":"done","campaign":"legacy","slot":-1}`,
}

// TestLegacyCampaignDirs: a directory the retired single-campaign engine
// left, its journal framed but in that engine's grammar, takes the
// generic damaged-journal path (DESIGN §5h, "Compatibility promise").
// ibfsck finds no record that verifies and repairs to an empty journal;
// a resume salvages it at its first record and runs the campaign again
// from spec.json, to the uninterrupted run's result. "killed" stopped
// after its first checkpoint; "finished" ran to the end and left a
// result.json.
func TestLegacyCampaignDirs(t *testing.T) {
	ctx := context.Background()
	key := testKey()
	spec := legacySpec()
	refDir := filepath.Join(t.TempDir(), "ref")
	refRes, err := Run(ctx, refDir, spec, Options{Key: key})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refImages := readImages(t, refDir, refRes)
	result, err := os.ReadFile(filepath.Join(refDir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		records  int
		finished bool
	}{
		{"killed", 5, false},
		{"finished", len(legacyRecords), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var journal []byte
			for _, r := range legacyRecords[:tc.records] {
				journal = append(journal, wal.EncodeFrame([]byte(r))...)
			}
			legacyDir := func() string {
				dir := t.TempDir()
				writeSpecJSON(t, dir, spec)
				if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
					t.Fatal(err)
				}
				if tc.finished {
					if err := os.WriteFile(filepath.Join(dir, "result.json"), result, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return dir
			}

			dir := legacyDir()
			rep, err := fsck.Audit(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.JournalRecords != 0 || rep.ValidLen != 0 || rep.DroppedBytes != int64(len(journal)) || rep.Clean() {
				t.Fatalf("audit of the legacy directory: %+v", rep)
			}
			res, sum, err := sched.ResumeCampaign(ctx, dir, Options{Key: key})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !sum.Degraded() || sum.JournalRecords != 0 || !strings.Contains(sum.Reason, `unknown record type "begin" at seq 0`) {
				t.Fatalf("resume did not salvage the legacy journal at its first record: %+v", sum)
			}
			assertSameOutcome(t, tc.name, dir, res, refRes, refImages)
			got, err := DecodeResult(ctx, dir, key)
			if err != nil || !bytes.Equal(got, spec.Message) {
				t.Fatalf("decode: %q, %v", got, err)
			}

			dir = legacyDir()
			if _, err := fsck.Repair(nil, dir); err != nil {
				t.Fatal(err)
			}
			if after, err := os.ReadFile(filepath.Join(dir, journalFile)); err != nil || len(after) != 0 {
				t.Fatalf("repair left %d journal bytes, want 0: %v", len(after), err)
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
		budget, err := sched.EstimateJournalBudget(spec, m)
		if err != nil {
			t.Fatal(err)
		}
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
	again, sum, err := sched.ResumeCampaign(ctx, dir, Options{Key: testKey()})
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
