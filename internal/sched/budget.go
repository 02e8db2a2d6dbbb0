package sched

import (
	"encoding/json"
	"fmt"

	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/rig"
)

// Budget is a planning-time estimate of what one campaign costs the
// scheduler journal: fsynced appends and their encoded bytes. The
// estimate is built by marshaling representative journal entries with
// the campaign's real identifiers, so it tracks the record grammar
// automatically — if a record kind grows a field, the budget grows
// with it.
type Budget struct {
	// Records counts the journal appends an uninterrupted run of this
	// campaign costs: submit, one pass per slice round (worst case —
	// solo, unbatched; batching amortizes pass records across members),
	// and per live slot the prepared/slice/checkpoint/encoded stream,
	// plus the final done record. Zero-width slots never run, so they
	// journal nothing.
	Records int
	// Bytes is the encoded size of those records, newlines included.
	Bytes int
	// TenantBytes is the one-time scheduler overhead of admitting the
	// submitting tenant: the tenant record that pins its effective
	// quota into the journal. Charged once per tenant, not per
	// campaign.
	TenantBytes int
}

// entrySize is the journal cost of one record: its JSON encoding plus
// the newline the WAL appends.
func entrySize(e *Entry) int {
	b, err := json.Marshal(e)
	if err != nil {
		return 0
	}
	return len(b) + 1
}

// EstimateJournalBudget sizes the scheduler journal for one campaign
// before running it, using the same slice/checkpoint cadence the
// scheduler will journal. Estimates are slightly conservative: sequence
// numbers and chamber clocks are given realistic widths, and pass
// records assume the campaign runs solo (a batch shares each pass
// record across its members).
func EstimateJournalBudget(spec Spec, m device.Model) Budget {
	spec = spec.withDefaults()
	soak := estChamberHours(spec, m)
	sliceHours, every := spec.SliceHours, spec.CheckpointEvery
	slices := int(soak / sliceHours)
	if float64(slices)*sliceHours < soak {
		slices++
	}
	// Mid-run checkpoints only: the final slice mints the encoded
	// record (with the terminal rig state) instead of a checkpoint.
	ckpts := 0
	if slices > 0 {
		ckpts = (slices - 1) / every
	}

	// Representative field widths: a deep sequence number, a chamber
	// clock with fractional hours, the campaign's real digest and
	// serials.
	const seq = 1 << 20
	const clock = 10430.1234
	serial := "serial-000"
	for _, ser := range spec.Serials {
		if len(ser) > len(serial) {
			serial = ser
		}
	}
	rigState := &rig.State{ClockHours: clock, ChamberC: m.TAccC, SupplyV: m.VAccV}
	record := &core.Record{
		DeviceID:     m.Name + ":" + serial,
		MessageBytes: len(spec.Message),
		PayloadBytes: m.SRAMBytes,
		CodecName:    spec.Codec,
		Encrypted:    true,
		Captures:     core.DefaultCaptures,
		StressHours:  soak,
		Digest:       fmt.Sprintf("%064x", 0),
		DigestAlgo:   "hmac-sha256-device",
	}

	b := Budget{
		TenantBytes: entrySize(&Entry{
			Seq: seq, Type: entryTenant, Tenant: "tenant-00000",
			Quota: &Quota{MaxCampaigns: 16, MaxDevices: 256, MaxChamberHours: 100000},
			Slot:  -1,
		}),
	}
	add := func(n int, e *Entry) {
		e.Seq = seq
		b.Records += n
		b.Bytes += n * entrySize(e)
	}

	add(1, &Entry{
		Type: entrySubmit, Tenant: "tenant-00000", Campaign: spec.ID,
		Digest: spec.ScheduleDigest(), Slots: len(spec.Serials),
		EstHours: soak * float64(len(spec.Serials)), AtHours: clock, Slot: -1,
	})
	add(slices, &Entry{
		Type: entryPass, Members: []string{spec.ID},
		VAccV: m.VAccV, TAccC: m.TAccC, Quantum: sliceHours,
		Setup: DefaultSetupHours, AtHours: clock, Slot: -1,
	})
	// A spec the stripe planner rejects (nil segs) would never be
	// admitted; it is budgeted as if every slot were live.
	segs, _ := spec.segments(m)
	live := 0
	perSlotCkptImage := fmt.Sprintf("slot-%d-ckpt-%.4fh.img", len(spec.Serials)-1, clock)
	for i := range spec.Serials {
		if segs != nil && segs[i] == 0 {
			continue
		}
		live++
		add(1, &Entry{Type: entryPrepared, Campaign: spec.ID, Slot: i})
		add(slices, &Entry{
			Type: entrySlice, Campaign: spec.ID, Slot: i,
			Applied: clock, Total: soak,
		})
		add(ckpts, &Entry{
			Type: entryCkpt, Campaign: spec.ID, Slot: i,
			Applied: clock, Image: perSlotCkptImage, Rig: rigState,
		})
		add(1, &Entry{
			Type: entryEncoded, Campaign: spec.ID, Slot: i,
			Applied: clock, Image: fmt.Sprintf("slot-%d-final.img", i),
			Rig: rigState, Record: record,
		})
	}
	baselines := make([]float64, live)
	for i := range baselines {
		baselines[i] = 0.9840169270833324
	}
	add(1, &Entry{
		Type: entryDone, Campaign: spec.ID,
		AtHours: clock, Baselines: baselines, Slot: -1,
	})
	return b
}
