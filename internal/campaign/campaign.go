// Package campaign is the crash-safe supervisor for long imprinting
// runs. An Invisible Bits encode is a multi-day thermal soak (§5.2's
// accelerated-aging schedule); a host crash, power cut, or operator
// mistake 40 hours in must not restart the campaign from zero.
//
// A campaign is a one-tenant run of the scheduler in internal/sched,
// whose state directory is the campaign directory itself: the same
// write-ahead journal, slice checkpoints and salvage-based resume that
// keep every scheduled campaign bit-identical across crashes. This
// package keeps the standalone vocabulary.
package campaign

import (
	"context"

	"invisiblebits/internal/sched"
	"invisiblebits/internal/stegocrypt"
)

type (
	// Spec is the durable description of a campaign (spec.json).
	Spec = sched.Spec
	// Result is the campaign's durable outcome (result.json).
	Result = sched.Result
	// Options configures a Run or Resume: key, breakers, kill-point
	// hook, filesystem seam.
	Options = sched.CampaignOptions
	// SalvageSummary reports what a degraded resume had to give up on.
	SalvageSummary = sched.ResumeSummary
)

// Run starts a fresh campaign in dir and drives it to completion. A
// directory that already holds a journal is refused.
func Run(ctx context.Context, dir string, spec Spec, opts Options) (*Result, error) {
	return sched.RunCampaign(ctx, dir, spec, opts)
}

// Resume re-enters a crashed campaign and drives it to completion;
// resuming a finished campaign returns its result.
func Resume(ctx context.Context, dir string, opts Options) (*Result, error) {
	res, _, err := sched.ResumeCampaign(ctx, dir, opts)
	return res, err
}

// ResumeSalvage is Resume with the degraded-resume report.
func ResumeSalvage(ctx context.Context, dir string, opts Options) (*Result, *SalvageSummary, error) {
	return sched.ResumeCampaign(ctx, dir, opts)
}

// DecodeResult reloads a finished campaign's final device images and
// gathers the message back with key.
func DecodeResult(ctx context.Context, dir string, key *stegocrypt.Key) ([]byte, error) {
	return sched.DecodeResult(ctx, dir, key)
}
