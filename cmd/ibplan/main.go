// Command ibplan turns §5.2's ECC guidance into a planner: given a
// measured (or assumed) single-copy channel error and a target residual
// error, it lists the error-correction configurations that meet the
// target, ranked by message capacity.
//
// Usage:
//
//	ibplan -channel 0.065 -target 0.003                 # the paper's MSP432 point
//	ibplan -model LPC55S69JBD100 -target 0.001          # use a catalog device's error
//	ibplan -campaign demo -carriers 3 -msgbytes 96      # campaign schedule layout
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	ib "invisiblebits"
	"invisiblebits/internal/device"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/textplot"
)

func main() {
	var (
		channel = flag.Float64("channel", 0, "single-copy channel bit error rate (0 = derive from -model)")
		target  = flag.Float64("target", 0.003, "acceptable residual bit error rate")
		model   = flag.String("model", "MSP432P401", "catalog device (sizes SRAM and, if -channel is 0, sets the error)")
		top     = flag.Int("top", 10, "show at most this many plans")

		campaignID = flag.String("campaign", "", "campaign schedule mode: lay out slices, checkpoints, and segments for this campaign ID")
		carriers   = flag.Int("carriers", 2, "campaign mode: fleet size (serials are generated as <id>-N)")
		serials    = flag.String("serials", "", "campaign mode: explicit comma-separated carrier serials (overrides -carriers)")
		msgBytes   = flag.Int("msgbytes", 64, "campaign mode: message length to stripe")
		codecName  = flag.String("codec", "paper", "campaign mode: ECC codec (paper, ham, rep5, none, ...)")
		slice      = flag.Float64("slice", sched.DefaultSliceHours, "campaign mode: journal slice granularity in hours")
		ckptEvery  = flag.Int("ckpt-every", sched.DefaultCheckpointEvery, "campaign mode: checkpoint every N slices")
		stress     = flag.Float64("stress", 0, "campaign mode: soak hours per carrier (0 = model default)")
	)
	flag.Parse()

	if *campaignID != "" {
		spec := sched.Spec{
			ID:              *campaignID,
			Model:           *model,
			Message:         make([]byte, *msgBytes),
			Codec:           *codecName,
			StressHours:     *stress,
			SliceHours:      *slice,
			CheckpointEvery: *ckptEvery,
		}
		if *codecName == "none" {
			spec.Codec = ""
		}
		if *serials != "" {
			spec.Serials = strings.Split(*serials, ",")
		} else {
			for i := 0; i < *carriers; i++ {
				spec.Serials = append(spec.Serials, fmt.Sprintf("%s-%d", *campaignID, i))
			}
		}
		if err := planCampaign(os.Stdout, spec); err != nil {
			fatal(err)
		}
		return
	}

	m, err := device.ByName(*model)
	if err != nil {
		fatal(err)
	}
	p := *channel
	if p == 0 {
		p = 1 - m.TargetBitRate
		fmt.Printf("using %s's characterized channel error %.2f%% (Table 4)\n", m.Name, 100*p)
	}

	plans, err := ib.RecommendECC(p, *target, m.SRAMBytes)
	if err != nil {
		fatal(err)
	}
	if len(plans) == 0 {
		fmt.Printf("no configuration reaches %.3g%% residual on a %.3g%% channel\n", 100**target, 100*p)
		fmt.Printf("channel capacity bound: %.1f%% of cells (1 − H(p))\n",
			100*stats.BinarySymmetricChannelCapacity(p))
		os.Exit(1)
	}
	if len(plans) > *top {
		plans = plans[:*top]
	}

	rows := make([][]string, len(plans))
	for i, plan := range plans {
		name := "raw channel"
		if plan.Codec != nil {
			name = plan.Codec.Name()
		}
		rows[i] = []string{
			name,
			fmt.Sprintf("%.4g%%", 100*plan.PredictedError),
			fmt.Sprintf("%.3f", plan.Rate),
			fmt.Sprintf("%d B", plan.CapacityBytes),
		}
	}
	fmt.Printf("\nplans meeting %.3g%% residual on a %.3g%% channel (%s, %d KB SRAM):\n\n",
		100**target, 100*p, m.Name, m.SRAMBytes>>10)
	fmt.Println(textplot.Table([]string{"code", "predicted error", "rate", "capacity"}, rows))
	fmt.Printf("Shannon bound at this channel: %.1f%% of cells\n",
		100*stats.BinarySymmetricChannelCapacity(p))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibplan:", err)
	os.Exit(1)
}
