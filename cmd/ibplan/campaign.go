package main

import (
	"fmt"
	"io"

	"invisiblebits/internal/device"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/textplot"
)

// planCampaign is ibplan's schedule mode: instead of ranking ECC
// configurations, it prints a whole crash-safe campaign as
// sched.EstimateJournalBudget plans it — the per-slot message segments
// the stripe planner will assign, the slice/checkpoint cadence the
// supervisor will journal — and the schedule digest Resume will verify,
// so the operator can audit the plan before committing the fleet to a
// multi-day soak. The journal budget is sized in bytes by marshaling
// representative records, scheduler per-tenant overhead included, so an
// operator running many campaigns under ibserve can provision the
// journal volume.
func planCampaign(w io.Writer, spec sched.Spec) error {
	m, err := device.ByName(spec.Model)
	if err != nil {
		return err
	}
	plan, err := sched.EstimateJournalBudget(spec, m)
	if err != nil {
		return err
	}
	rows := make([][]string, len(spec.Serials))
	for i, ser := range spec.Serials {
		rows[i] = []string{
			fmt.Sprintf("%d", i),
			ser,
			fmt.Sprintf("%d B", plan.Segments[i]),
			fmt.Sprintf("%.0f%%", 100*float64(plan.Segments[i])/float64(plan.SlotBytes)),
			fmt.Sprintf("%.1f h", plan.SoakHours),
			fmt.Sprintf("%d", plan.Slices),
			fmt.Sprintf("%d", plan.Checkpoints),
		}
		if plan.Segments[i] == 0 {
			// A zero-width slot carries nothing, so it never soaks.
			rows[i][4], rows[i][5], rows[i][6] = "-", "0", "0"
		}
	}

	fmt.Fprintf(w, "campaign %q: %d B message across %d× %s (%d B SRAM each)\n\n",
		spec.ID, len(spec.Message), len(spec.Serials), m.Name, m.SRAMBytes)
	fmt.Fprintln(w, textplot.Table(
		[]string{"slot", "serial", "segment", "fill", "soak", "slices", "ckpts"}, rows))
	fmt.Fprintf(w, "slice granularity:  %.2f h  (journal record per slice)\n", plan.SliceHours)
	fmt.Fprintf(w, "checkpoint cadence: every %d slices before the last (atomic image per checkpoint)\n",
		plan.CheckpointEvery)
	fmt.Fprintf(w, "journal budget:     ~%d fsynced records, ~%d B for an uninterrupted run\n",
		plan.Records, plan.Bytes)
	fmt.Fprintf(w, "                    (+%d B one-time per-tenant scheduler overhead under ibserve)\n",
		plan.TenantBytes)
	fmt.Fprintf(w, "schedule digest:    %s\n", spec.ScheduleDigest())
	fmt.Fprintln(w, "                    (binds this exact message, fleet, and cadence)")
	fmt.Fprintln(w, "\na crash at any point resumes with `campaign.Resume` (see README,"+
		" \"Surviving interruptions\"); the digest above is what Resume verifies.")
	return nil
}
