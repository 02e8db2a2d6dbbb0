package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"invisiblebits/internal/campaign"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/stegocrypt"
)

// runCampaignDrill rehearses the crash-safety story end to end: it runs
// a reference campaign to completion, then re-runs it with a kill switch
// armed at several points along the journal — mid-soak, at a checkpoint,
// after encode — resumes each crashed copy, and verifies the resumed
// outcome is bit-identical to the uninterrupted run, final device images
// included. This is the operator-facing rehearsal of the crash matrix
// test in internal/campaign. The kill points land on the submit record,
// a slice, a checkpoint record and the result write.
func runCampaignDrill() error {
	ctx := context.Background()
	key := stegocrypt.KeyFromPassphrase("campaign-drill")
	base, err := os.MkdirTemp("", "ibcampaign-drill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	msg := []byte("interrupt me and see if I care")
	spec := campaign.Spec{
		ID:              "drill",
		Model:           "MSP430G2553",
		Serials:         []string{"drill-0", "drill-1"},
		Message:         msg,
		Codec:           "paper",
		SliceHours:      2.5,
		CheckpointEvery: 2,
	}
	opts := campaign.Options{Key: &key}

	fmt.Printf("campaign drill: %d B message, 2× %s, 2.5 h slices, checkpoint every 2\n\n",
		len(msg), spec.Model)
	refDir := filepath.Join(base, "ref")
	ref, err := campaign.Run(ctx, refDir, spec, opts)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	refImages, err := readFinalImages(refDir, ref)
	if err != nil {
		return err
	}
	fmt.Printf("reference run: %d carriers encoded, %.1f equivalent bench hours\n",
		len(ref.Records), ref.EquivalentHours)

	for _, killAt := range []int{2, 6, 10, 17} {
		dir := filepath.Join(base, fmt.Sprintf("kill-%d", killAt))
		ks := faults.NewKillSwitch(killAt)
		_, err := campaign.Run(ctx, dir, spec, campaign.Options{Key: &key, Hook: ks.Hook()})
		if !ks.Fired() {
			fmt.Printf("  kill point %2d: past the end of the journal, run completed clean\n", killAt)
			continue
		}
		if err == nil {
			return fmt.Errorf("kill point %d fired but the run reported success", killAt)
		}
		res, err := campaign.Resume(ctx, dir, opts)
		if err != nil {
			return fmt.Errorf("resume after kill point %d: %w", killAt, err)
		}
		images, err := readFinalImages(dir, res)
		if err != nil {
			return err
		}
		for slot, ref := range refImages {
			if !bytes.Equal(images[slot], ref) {
				return fmt.Errorf("kill point %d: slot %d image differs after resume", killAt, slot)
			}
		}
		got, err := campaign.DecodeResult(ctx, dir, &key)
		if err != nil {
			return fmt.Errorf("decode after kill point %d: %w", killAt, err)
		}
		if !bytes.Equal(got, msg) {
			return fmt.Errorf("kill point %d: resumed campaign decodes to %q", killAt, got)
		}
		fmt.Printf("  kill point %2d: died at %-18s resumed, images bit-identical, message intact\n",
			killAt, ks.FiredAt()+",")
	}

	fmt.Println("\nverdict: every interruption resumed to the same images and the same message.")
	return nil
}

func readFinalImages(dir string, res *campaign.Result) (map[int][]byte, error) {
	out := map[int][]byte{}
	for slot, rec := range res.Records {
		if rec == nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, res.Images[slot]))
		if err != nil {
			return nil, fmt.Errorf("slot %d final image: %w", slot, err)
		}
		out[slot] = b
	}
	return out, nil
}
