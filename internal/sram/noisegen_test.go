package sram

import (
	"context"
	"math"
	"testing"

	"invisiblebits/internal/rng"
)

func TestNoiseGenDefaultsAndValidation(t *testing.T) {
	a, err := New(equivSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NoiseGen(); got != NoiseGenZiggurat {
		t.Fatalf("default NoiseGen = %d, want ziggurat (%d)", got, NoiseGenZiggurat)
	}
	if got := a.Spec().NoiseGen; got != NoiseGenZiggurat {
		t.Fatalf("Spec() reports NoiseGen %d after normalization", got)
	}
	spec := equivSpec(31)
	spec.NoiseGen = NoiseGenBoxMuller
	b, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.NoiseGen(); got != NoiseGenBoxMuller {
		t.Fatalf("explicit v1 spec built NoiseGen %d", got)
	}
	spec.NoiseGen = 7
	if _, err := New(spec); err == nil {
		t.Fatal("unknown NoiseGen version accepted")
	}
}

// TestNoiseGenV1MatchesLegacyEngine: a v1 array's races must reproduce
// the pre-versioning engine exactly — raw Box–Muller draws against the
// exact float64 bias, modulo the float32 plane (checked to be
// vote-identical here on a clean array whose borderline cells are far
// from the sub-ulp rounding window).
func TestNoiseGenV1MatchesLegacyEngine(t *testing.T) {
	spec := equivSpec(37)
	spec.NoiseGen = NoiseGenBoxMuller
	a, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := a.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the race the way the pre-overhaul engine did: exact
	// float64 bias plus Norm(counter, cell).
	stream := rng.NewStream(spec.Seed)
	sigma := a.noiseSigmaAt(25)
	mismatches := 0
	for i := 0; i < a.Cells(); i++ {
		want := a.Bias(i)+sigma*stream.Norm(0, uint64(i)) > 0
		got := snap[i/8]&(1<<(i%8)) != 0
		if got != want {
			mismatches++
		}
	}
	if mismatches != 0 {
		t.Fatalf("%d/%d cells differ from the legacy v1 race", mismatches, a.Cells())
	}
}

// TestPrunedCaptureEquivalence is the tentpole's exactness guarantee:
// on a heavily-imprinted array (most cells deterministic) the pruned
// parallel engine must be bit-identical to the serial engine that draws
// noise for every cell — same votes, same final contents, same counter.
func TestPrunedCaptureEquivalence(t *testing.T) {
	build := func() *Array {
		a, err := New(equivSpec(41))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		pattern := make([]byte, a.Bytes())
		for i := range pattern {
			pattern[i] = byte(i * 29)
		}
		// A long imprint at the encoding condition: ~45 mV shift against
		// 1.2 mV noise pushes nearly every message cell beyond the 8σ
		// pruning bound.
		if err := a.StressWithPattern(pattern, a.Spec().Aging.Ref, 10); err != nil {
			t.Fatal(err)
		}
		a.PowerOff(true)
		return a
	}

	fast := build()
	frac, err := fast.DeterministicFrac(25)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.5 {
		t.Fatalf("imprinted array only %.2f deterministic — pruning not exercised", frac)
	}
	votes, err := fast.CaptureVotes(9, 25)
	if err != nil {
		t.Fatal(err)
	}
	ref := build()
	refVotes, err := ref.CaptureVotesReference(9, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range votes {
		if votes[i] != refVotes[i] {
			t.Fatalf("cell %d: pruned votes %d vs reference %d", i, votes[i], refVotes[i])
		}
	}
	fd, _ := fast.Read()
	rd, _ := ref.Read()
	for i := range fd {
		if fd[i] != rd[i] {
			t.Fatalf("final contents differ at byte %d", i)
		}
	}
	if fast.PowerOnCount() != ref.PowerOnCount() {
		t.Fatalf("counter divergence: %d vs %d", fast.PowerOnCount(), ref.PowerOnCount())
	}

	// PowerOn path too.
	s1, err := fast.PowerCycle(25)
	if err != nil {
		t.Fatal(err)
	}
	ref.PowerOff(true)
	s2, err := ref.PowerOnReference(25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("power-on state differs at byte %d", i)
		}
	}
}

// TestStressMatchesReference: the sharded, hoisted-rate, equivalent-time
// Stress must agree with the legacy per-cell GrowShift engine to float
// rounding — including across staged episodes with interleaved decay,
// which exercises the stale-equivalent-time re-derivation.
func TestStressMatchesReference(t *testing.T) {
	pattern := func(a *Array) []byte {
		p := make([]byte, a.Bytes())
		for i := range p {
			p[i] = byte(i*53 + 1)
		}
		return p
	}
	run := func(stress func(*Array, float64) error) *Array {
		a, err := New(equivSpec(43))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		if err := a.Write(pattern(a)); err != nil {
			t.Fatal(err)
		}
		if err := stress(a, 2); err != nil {
			t.Fatal(err)
		}
		if err := stress(a, 3); err != nil { // same-direction composition
			t.Fatal(err)
		}
		a.PowerOff(true)
		if err := a.Shelve(50); err != nil { // decay → stale equivalent times
			t.Fatal(err)
		}
		if _, err := a.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		if err := a.Write(pattern(a)); err != nil {
			t.Fatal(err)
		}
		if err := stress(a, 1.5); err != nil { // regrowth from stale state
			t.Fatal(err)
		}
		return a
	}
	cond := DefaultSpec().Aging.Ref
	fast := run(func(a *Array, h float64) error { return a.Stress(cond, h) })
	ref := run(func(a *Array, h float64) error { return a.StressReference(cond, h) })

	worst := 0.0
	for i := 0; i < fast.Cells(); i++ {
		fb, rb := fast.Bias(i), ref.Bias(i)
		diff := math.Abs(fb - rb)
		if rel := diff / math.Max(1, math.Abs(rb)); rel > worst {
			worst = rel
		}
	}
	if worst > 1e-5 {
		t.Fatalf("worst relative bias divergence vs reference engine: %v", worst)
	}
}

// TestStateNoiseGenRoundTrip: snapshots record the noise plane version,
// restores adopt it, and pre-versioning snapshots (NoiseGen zero) fall
// back to Box–Muller with bit-identical replay.
func TestStateNoiseGenRoundTrip(t *testing.T) {
	a, err := New(equivSpec(47))
	if err != nil {
		t.Fatal(err)
	}
	ageArray(t, a)
	snap := a.StateSnapshot()
	if snap.NoiseGen != NoiseGenZiggurat {
		t.Fatalf("snapshot NoiseGen = %d, want %d", snap.NoiseGen, NoiseGenZiggurat)
	}
	wantVotes, err := a.CaptureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(equivSpec(47))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	gotVotes, err := b.CaptureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantVotes {
		if wantVotes[i] != gotVotes[i] {
			t.Fatalf("restored v2 array diverged at cell %d", i)
		}
	}

	// A legacy snapshot: same state, NoiseGen field absent (zero).
	legacy := snap
	legacy.NoiseGen = 0
	c, err := New(equivSpec(47))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreState(legacy); err != nil {
		t.Fatal(err)
	}
	if got := c.NoiseGen(); got != NoiseGenBoxMuller {
		t.Fatalf("legacy snapshot restored as NoiseGen %d, want Box–Muller", got)
	}
	// It must replay what a v1 array with the same history would see.
	spec := equivSpec(47)
	spec.NoiseGen = NoiseGenBoxMuller
	d, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreState(legacy); err != nil {
		t.Fatal(err)
	}
	cv, err := c.CaptureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := d.CaptureVotes(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cv {
		if cv[i] != dv[i] {
			t.Fatalf("legacy restore diverged at cell %d", i)
		}
	}
	// And re-snapshotting records the adopted version.
	if got := c.StateSnapshot().NoiseGen; got != NoiseGenBoxMuller {
		t.Fatalf("re-snapshot of legacy restore records NoiseGen %d", got)
	}
	bad := snap
	bad.NoiseGen = 9
	if err := c.RestoreState(bad); err == nil {
		t.Fatal("snapshot with unknown NoiseGen accepted")
	}
}

// TestBiasPlaneTracksMutation: every pool mutation path marks the
// cached plane stale, and the rebuild before the next race matches the
// exact bias, so races never read stale bias.
func TestBiasPlaneTracksMutation(t *testing.T) {
	a, err := New(equivSpec(53))
	if err != nil {
		t.Fatal(err)
	}
	ageArray(t, a)
	if a.biasFresh {
		t.Fatal("stress should leave the plane stale (the next read rebuilds it)")
	}
	if err := a.ensureBiasPlane(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1017, a.Cells() - 1} {
		exact := a.Bias(i)
		if got := float64(a.biasPlane[i]); math.Abs(got-exact) > math.Abs(exact)*1e-6+1e-6 {
			t.Fatalf("cell %d: plane %v vs exact bias %v after stress", i, got, exact)
		}
	}
	if err := a.Shelve(10); err != nil {
		t.Fatal(err)
	}
	if a.biasFresh {
		t.Fatal("shelve should leave the plane stale (the next read rebuilds it)")
	}
	if err := a.ensureBiasPlane(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1017, a.Cells() - 1} {
		exact := a.Bias(i)
		if got := float64(a.biasPlane[i]); math.Abs(got-exact) > math.Abs(exact)*1e-6+1e-6 {
			t.Fatalf("cell %d: plane %v vs exact bias %v after shelve", i, got, exact)
		}
	}
}
