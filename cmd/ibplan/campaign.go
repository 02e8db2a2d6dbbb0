package main

import (
	"fmt"
	"io"

	"invisiblebits/internal/cliutil"
	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/fleet"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/textplot"
)

// planCampaign is ibplan's schedule mode: instead of ranking ECC
// configurations, it lays out a whole crash-safe campaign — the per-slot
// message segments the stripe planner will assign, the slice/checkpoint
// cadence the supervisor will journal, and the schedule digest Resume
// will verify — so the operator can audit the plan before committing the
// fleet to a multi-day soak. The journal budget is sized in bytes by
// marshaling representative records, scheduler per-tenant overhead
// included, so an operator running many campaigns under ibserve can
// provision the journal volume.
func planCampaign(w io.Writer, spec sched.Spec) error {
	m, err := device.ByName(spec.Model)
	if err != nil {
		return err
	}
	var codec ecc.Codec
	if spec.Codec != "" {
		if codec, err = cliutil.ParseCodec(spec.Codec); err != nil {
			return err
		}
	}
	sizes := make([]int, len(spec.Serials))
	for i := range sizes {
		sizes[i] = m.SRAMBytes
	}
	segments, err := fleet.PlanSegments(sizes, len(spec.Message), codec)
	if err != nil {
		return err
	}

	soak := spec.StressHours
	if soak <= 0 {
		soak = m.EncodingHours
	}
	slices := int(soak / spec.SliceHours)
	if float64(slices)*spec.SliceHours < soak {
		slices++
	}
	// Mid-run checkpoints only: the final slice's image is the encoded
	// record's, not a checkpoint.
	ckpts := (slices - 1) / spec.CheckpointEvery

	perSlot := core.MaxMessageBytes(m.SRAMBytes, codec)
	rows := make([][]string, len(spec.Serials))
	for i, ser := range spec.Serials {
		rows[i] = []string{
			fmt.Sprintf("%d", i),
			ser,
			fmt.Sprintf("%d B", segments[i]),
			fmt.Sprintf("%.0f%%", 100*float64(segments[i])/float64(perSlot)),
			fmt.Sprintf("%.1f h", soak),
			fmt.Sprintf("%d", slices),
			fmt.Sprintf("%d", ckpts),
		}
		if segments[i] == 0 {
			// A zero-width slot carries nothing, so it never soaks.
			rows[i][4], rows[i][5], rows[i][6] = "-", "0", "0"
		}
	}
	budget := sched.EstimateJournalBudget(spec, m)

	fmt.Fprintf(w, "campaign %q: %d B message across %d× %s (%d B SRAM each)\n\n",
		spec.ID, len(spec.Message), len(spec.Serials), m.Name, m.SRAMBytes)
	fmt.Fprintln(w, textplot.Table(
		[]string{"slot", "serial", "segment", "fill", "soak", "slices", "ckpts"}, rows))
	fmt.Fprintf(w, "slice granularity:  %.2f h  (journal record per slice)\n", spec.SliceHours)
	fmt.Fprintf(w, "checkpoint cadence: every %d slices before the last (atomic image per checkpoint)\n",
		spec.CheckpointEvery)
	fmt.Fprintf(w, "journal budget:     ~%d fsynced records, ~%d B for an uninterrupted run\n",
		budget.Records, budget.Bytes)
	fmt.Fprintf(w, "                    (+%d B one-time per-tenant scheduler overhead under ibserve)\n",
		budget.TenantBytes)
	fmt.Fprintf(w, "schedule digest:    %s\n", spec.ScheduleDigest())
	fmt.Fprintln(w, "                    (binds this exact message, fleet, and cadence)")
	fmt.Fprintln(w, "\na crash at any point resumes with `campaign.Resume` (see README,"+
		" \"Surviving interruptions\"); the digest above is what Resume verifies.")
	return nil
}
