package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"invisiblebits/internal/campaign"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/fleet"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/stegocrypt"
)

// runSchedDrill rehearses the multi-tenant scheduler end to end: a
// handful of tenants submit campaigns (one of them onto a carrier that
// dies mid-soak, with a spare standing by; one doomed with no spare),
// the whole scheduler is killed mid-flight, resumed from its journal,
// drained — and every surviving campaign must decode to its original
// message. This is the operator-facing rehearsal of the crash matrix
// and fault-storm tests in internal/sched.
func runSchedDrill() error {
	keyFor := func(tenant, id string) *stegocrypt.Key {
		k := stegocrypt.KeyFromPassphrase("sched-drill|" + tenant + "|" + id)
		return &k
	}
	base, err := os.MkdirTemp("", "ibsched-drill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	sub := func(tenant, id string, serials []string, spares ...string) sched.Submission {
		return sched.Submission{
			Tenant: tenant,
			Spares: spares,
			Spec: campaign.Spec{
				ID: id, Model: "MSP430G2553", Serials: serials,
				Message: []byte("payload for " + id), Codec: "paper",
				StressHours: 7.5, SliceHours: 2.5, CheckpointEvery: 2,
			},
		}
	}
	subs := []sched.Submission{
		sub("alice", "drill-a", []string{"al-0"}),
		sub("bob", "drill-b", []string{"bo-0", "bo-1"}),
		sub("carol", "drill-c", []string{"dead-0"}, "spare-0"),
		sub("dave", "drill-d", []string{"dead-1"}),
	}
	cfg := sched.Config{
		KeyFor: keyFor,
		InjectorFor: func(serial string) faults.Injector {
			if len(serial) >= 4 && serial[:4] == "dead" {
				return faults.New(faults.Profile{Seed: 11, FailAtHours: 1}, serial)
			}
			return nil
		},
		Breakers: fleet.NewBreakerSet(fleet.BreakerConfig{
			FailureThreshold: 1, BaseBackoffHours: 1, QuarantineAfterTrips: 1,
		}),
	}

	fmt.Printf("scheduler drill: %d tenants, one carrier rerouting to a spare, one doomed, kill mid-flight\n\n", len(subs))

	dir := filepath.Join(base, "sched")
	// Kill at the first stress slice's journal record: the first slot is
	// mid-soak, with the rest of every campaign still ahead.
	ks := faults.NewKillSwitchAt("journal/slice")
	killCfg := cfg
	killCfg.Hook = ks.Hook()
	s, err := sched.New(dir, killCfg)
	if err != nil {
		return err
	}
	for _, sb := range subs {
		// A submit that lands after the kill sees the dead scheduler;
		// every campaign is submitted again after the resume.
		if err := s.Submit(sb); err != nil && !errors.Is(err, faults.ErrKilled) && !errors.Is(err, sched.ErrSchedulerDown) {
			return fmt.Errorf("submit %s: %w", sb.Spec.ID, err)
		}
	}
	drainErr := s.Drain(context.Background())
	if !ks.Fired() {
		return errors.New("kill switch never fired: no stress slice was journaled")
	}
	if drainErr == nil {
		return errors.New("killed scheduler drained cleanly")
	}
	fmt.Printf("killed at %s — resuming from the journal\n", ks.FiredAt())

	rs, err := sched.Resume(dir, cfg)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	for _, sb := range subs {
		if err := rs.Submit(sb); err != nil && !errors.Is(err, sched.ErrDuplicateCampaign) {
			return fmt.Errorf("re-submit %s: %w", sb.Spec.ID, err)
		}
	}
	if err := rs.Drain(context.Background()); err != nil {
		return fmt.Errorf("drain after resume: %w", err)
	}

	st := rs.Status()
	fmt.Printf("\ndrained: %d done, %d failed, %.1f chamber hours over %d passes (%d batched slices)\n",
		st.Done, st.Failed, st.ChamberHours, st.Passes, st.BatchedSlices)
	if st.Done != 3 || st.Failed != 1 {
		return fmt.Errorf("expected 3 done / 1 failed, got %d/%d", st.Done, st.Failed)
	}
	for _, sb := range subs[:3] {
		id := sb.Spec.ID
		got, err := campaign.DecodeResult(context.Background(),
			filepath.Join(dir, sched.CampaignsDir, id), keyFor(sb.Tenant, id))
		if err != nil {
			return fmt.Errorf("decode %s: %w", id, err)
		}
		if !bytes.Equal(got, sb.Spec.Message) {
			return fmt.Errorf("campaign %s decodes to %q", id, got)
		}
		cs, _ := rs.Campaign(id)
		fmt.Printf("  %-8s %-6s decoded OK (baselines %v)\n", id, cs.State, cs.Baselines)
	}
	dd, _ := rs.Campaign("drill-d")
	fmt.Printf("  %-8s %-6s %s\n", "drill-d", dd.State, dd.Error)

	fmt.Println("\nverdict: kill + resume + carrier death all absorbed; every surviving campaign decodes.")
	return nil
}
