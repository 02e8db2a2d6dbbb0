package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"invisiblebits/internal/campaign"
	"invisiblebits/internal/sched"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestPlanCampaignGolden pins the full -campaign report — segment
// table, cadence, journal budget in records AND bytes (scheduler
// per-tenant overhead included), schedule digest — against a golden
// file. The byte budget is derived by marshaling representative journal
// records, so this test also catches accidental journal-grammar bloat.
func TestPlanCampaignGolden(t *testing.T) {
	spec := campaign.Spec{
		ID:              "golden",
		Model:           "MSP430G2553",
		Serials:         []string{"golden-0", "golden-1"},
		Message:         bytes.Repeat([]byte{0xA5}, 48),
		Codec:           "paper",
		StressHours:     7.5,
		SliceHours:      2.5,
		CheckpointEvery: 2,
	}
	var out bytes.Buffer
	if err := planCampaign(&out, spec); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "campaign_plan.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("plan output drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}

	// The budget lines must quote concrete byte counts, not zeros.
	text := out.String()
	for _, frag := range []string{"fsynced records", "B for an uninterrupted run", "per-tenant scheduler overhead"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("plan output missing %q:\n%s", frag, text)
		}
	}
	if strings.Contains(text, "~0 B") || strings.Contains(text, "+0 B") {
		t.Fatalf("journal budget collapsed to zero bytes:\n%s", text)
	}
}

// TestPlanCampaignPrintsDefaultedCadence: a spec without a slice length
// or checkpoint cadence is planned on the scheduler's defaults, and the
// cadence lines must name the defaults the table was planned with, not
// the zeros the spec gave.
func TestPlanCampaignPrintsDefaultedCadence(t *testing.T) {
	spec := campaign.Spec{
		ID:      "x",
		Model:   "ATSAML11E16A",
		Serials: []string{"x-0", "x-1", "x-2"},
		Message: bytes.Repeat([]byte{0x5A}, 700),
		Codec:   "paper",
	}
	var out bytes.Buffer
	if err := planCampaign(&out, spec); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		fmt.Sprintf("slice granularity:  %.2f h ", sched.DefaultSliceHours),
		fmt.Sprintf("checkpoint cadence: every %d slices ", sched.DefaultCheckpointEvery),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("plan output lacks %q:\n%s", want, text)
		}
	}
}
