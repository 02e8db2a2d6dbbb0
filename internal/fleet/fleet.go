// Package fleet implements multi-device operations around Invisible
// Bits. §5.3 observes that "devices can be encoded in parallel. Given the
// importance of capacity in a steganographic covert channel, one can
// encode many devices and select the one with the least error" — yielding
// the paper's 160× best-device capacity factor. This package provides:
//
//   - Characterize: encode a calibration payload on every device in
//     parallel and measure each one's single-copy channel error.
//   - SelectBest: the least-error device of a characterized fleet.
//   - Stripe/Gather: split one message across several devices (each
//     carrying an independently encrypted shard with its own per-device
//     nonce), for messages that exceed a single SRAM.
//
// The fleet is failure-tolerant by construction: a lab campaign over
// many devices *will* see flaky debugger links, mid-soak deaths, and
// weak silicon, and one bad device must not sink the whole batch.
// Characterize reports per-device errors alongside the survivors;
// Stripe re-routes a shard to a spare device when its primary dies; and
// Gather degrades gracefully, reconstructing one lost shard from an
// optional XOR parity carrier.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"invisiblebits/internal/core"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
)

// Characterization is one device's measured channel quality.
type Characterization struct {
	Index        int
	DeviceID     string
	ChannelError float64
	// TransientFaults / PermanentFaults count the classified faults the
	// rig observed during this device's characterization (per-attempt:
	// every consulted-and-failed hook point counts, including retries),
	// so breaker thresholds and quarantine decisions are explainable
	// post-hoc.
	TransientFaults int
	PermanentFaults int
}

// Characterize stress-tests every rig in parallel with a pseudo-random
// calibration payload at its device's Table 4 operating point and
// measures the single-copy error. The devices are left encoded with the
// calibration pattern; callers re-encode the real payload afterwards
// (stress composes, so characterization costs headroom, not correctness —
// but best practice is to characterize sacrificial devices of the same
// lot, which is how the paper frames device selection).
//
// Characterize tolerates partial failure: devices that error are
// dropped from the result and reported in a joined error (one entry per
// casualty, unwrappable with errors.Is/errors.As), so SelectBest still
// works on the survivors. The returned slice is ordered by rig index.
func Characterize(rigs []*rig.Rig, captures int) ([]Characterization, error) {
	return CharacterizeContext(context.Background(), rigs, captures)
}

// CharacterizeContext is Characterize with cancellation.
func CharacterizeContext(ctx context.Context, rigs []*rig.Rig, captures int) ([]Characterization, error) {
	if len(rigs) == 0 {
		return nil, errors.New("fleet: no devices")
	}
	out := make([]Characterization, len(rigs))
	errs := make([]error, len(rigs))
	var wg sync.WaitGroup
	for i, r := range rigs {
		wg.Add(1)
		go func(i int, r *rig.Rig) {
			defer wg.Done()
			out[i], errs[i] = characterizeOne(ctx, i, r, captures)
		}(i, r)
	}
	wg.Wait()
	survivors := make([]Characterization, 0, len(rigs))
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("fleet: device %d (%s): %w",
				i, rigs[i].Device().DeviceID(), err))
			continue
		}
		survivors = append(survivors, out[i])
	}
	return survivors, errors.Join(joined...)
}

// characterizeOne drives one device's calibration soak through its rig,
// so mounted fault injectors see the same hook points a real encode
// does. Transient capture faults are retried with backoff charged to
// the device's simulated clock.
func characterizeOne(ctx context.Context, i int, r *rig.Rig, captures int) (Characterization, error) {
	t0, p0 := r.FaultCounts()
	c, err := characterizeDevice(ctx, i, r, captures)
	t1, p1 := r.FaultCounts()
	c.TransientFaults, c.PermanentFaults = t1-t0, p1-p0
	return c, err
}

func characterizeDevice(ctx context.Context, i int, r *rig.Rig, captures int) (Characterization, error) {
	dev := r.Device()
	if !dev.SRAM.Powered() {
		if _, err := r.PowerOnContext(ctx); err != nil {
			return Characterization{}, err
		}
	}
	payload := make([]byte, dev.SRAM.Bytes())
	rng.NewSource(rng.HashString("fleet/" + dev.DeviceID())).Bytes(payload)
	if err := dev.SRAM.Write(payload); err != nil {
		return Characterization{}, err
	}
	if dev.Model.RequiresRegulatorBypass {
		if err := r.BypassRegulator(); err != nil {
			return Characterization{}, err
		}
	}
	if err := r.SetVoltage(dev.Model.VAccV); err != nil {
		return Characterization{}, err
	}
	r.SetTemperature(dev.Model.TAccC)
	if err := r.StressForContext(ctx, dev.Model.EncodingHours); err != nil {
		return Characterization{}, err
	}
	r.SetTemperature(dev.Model.TNomC)
	if err := r.SetVoltage(dev.Model.VNomV); err != nil {
		return Characterization{}, err
	}
	chErr, err := core.RawChannelErrorContext(ctx, r, payload, captures, core.Options{})
	if err != nil {
		return Characterization{}, err
	}
	return Characterization{
		Index:        i,
		DeviceID:     dev.DeviceID(),
		ChannelError: chErr,
	}, nil
}

// SelectBest returns the characterization with the lowest channel error.
func SelectBest(chars []Characterization) (Characterization, error) {
	if len(chars) == 0 {
		return Characterization{}, errors.New("fleet: empty characterization set")
	}
	best := chars[0]
	for _, c := range chars[1:] {
		if c.ChannelError < best.ChannelError {
			best = c
		}
	}
	return best, nil
}

// Shard is one device's portion of a striped message. Index is the
// *planned* shard slot; Record.DeviceID names the device that actually
// carries it (which differs from the slot's primary when the shard was
// re-routed to a spare).
type Shard struct {
	Index  int
	Record *core.Record
}

// StripeResult describes a striped encoding.
type StripeResult struct {
	Shards       []Shard
	MessageBytes int
	// SegmentSizes[i] is the planned message-byte count of shard slot i
	// (zero for slots that carry nothing). It survives shard loss, so
	// Gather can lay out the message even when a carrier never encoded.
	SegmentSizes []int
	// Lost lists shard slots whose encode failed outright (possible only
	// when a parity carrier makes the stripe still recoverable).
	Lost []int
	// Parity is the optional XOR parity shard (see StripeOptions).
	Parity *Shard
}

// StripeOptions configures failure tolerance for a striped encode.
type StripeOptions struct {
	// Spares are standby devices. When a shard's primary dies
	// permanently, the shard is re-encoded on the next unused spare (the
	// §5.3 "encode many devices" insurance policy made operational).
	Spares []*rig.Rig
	// ParityRig, when non-nil, carries one extra shard: the XOR of every
	// data shard's plaintext segment (padded to the largest segment).
	// Gather can then reconstruct any single lost shard — an erasure
	// code at the fleet layer, above the per-device ECC.
	ParityRig *rig.Rig
	// Breakers, when non-nil, gates every per-device encode through the
	// device's circuit breaker: open or quarantined devices are skipped
	// (triggering spare re-routing immediately instead of after another
	// retry budget) and every outcome is recorded.
	Breakers *BreakerSet
}

// PlanSegments computes the per-slot message-byte layout of a stripe
// over devices with the given SRAM sizes: each slot takes as much of
// the remainder as its capacity allows. Campaign supervisors use the
// same planner to digest their schedules, so a resumed campaign can
// verify it is laying out exactly the stripe the crashed one was.
func PlanSegments(sramBytes []int, messageLen int, codec ecc.Codec) ([]int, error) {
	sizes := make([]int, len(sramBytes))
	remaining := messageLen
	for i, sb := range sramBytes {
		take := core.MaxMessageBytes(sb, codec)
		if take > remaining {
			take = remaining
		}
		sizes[i] = take
		remaining -= take
	}
	if remaining > 0 {
		return nil, fmt.Errorf("fleet: message exceeds fleet capacity by %d bytes", remaining)
	}
	return sizes, nil
}

// Stripe splits message across the rigs' devices, encoding shard i on
// device i with the shared options. Each shard is encrypted independently
// under the device's own nonce (footnote 4's cross-device protection
// comes for free). Devices are encoded in parallel — the paper's
// observation that encoding time is dominated by the soak, which all
// devices serve simultaneously in one chamber.
func Stripe(rigs []*rig.Rig, message []byte, opts core.Options) (*StripeResult, error) {
	return StripeWithOptions(context.Background(), rigs, message, opts, StripeOptions{})
}

// StripeWithOptions is Stripe with cancellation and failure tolerance:
// dead primaries are replaced by spares, and an optional parity carrier
// lets the stripe survive losing one shard outright. The returned
// result is decodable whenever err is nil — even if it records Lost
// slots that Gather will have to reconstruct from parity.
func StripeWithOptions(ctx context.Context, rigs []*rig.Rig, message []byte, opts core.Options, sopts StripeOptions) (*StripeResult, error) {
	if len(rigs) == 0 {
		return nil, errors.New("fleet: no devices")
	}
	if len(message) == 0 {
		return nil, core.ErrEmptyMessage
	}
	// Plan shard sizes against each device's capacity.
	sizes := make([]int, len(rigs))
	remaining := len(message)
	for i, r := range rigs {
		capBytes := core.MaxMessageBytes(r.Device().SRAM.Bytes(), opts.Codec)
		take := capBytes
		if take > remaining {
			take = remaining
		}
		sizes[i] = take
		remaining -= take
	}
	if remaining > 0 {
		return nil, fmt.Errorf("fleet: message exceeds fleet capacity by %d bytes", remaining)
	}

	res := &StripeResult{MessageBytes: len(message), SegmentSizes: sizes}
	type job struct {
		idx   int
		start int
		n     int
	}
	var jobs []job
	off := 0
	for i, n := range sizes {
		if n > 0 {
			jobs = append(jobs, job{idx: i, start: off, n: n})
			off += n
		}
	}

	// Spares are handed out first-come first-served across shard workers.
	var spareMu sync.Mutex
	sparePool := append([]*rig.Rig(nil), sopts.Spares...)
	nextSpare := func(need int) *rig.Rig {
		spareMu.Lock()
		defer spareMu.Unlock()
		for k, sp := range sparePool {
			if sp == nil {
				continue
			}
			if core.MaxMessageBytes(sp.Device().SRAM.Bytes(), opts.Codec) >= need {
				sparePool[k] = nil
				return sp
			}
		}
		return nil
	}

	// encodeOn runs one attempt on one carrier, gated through its
	// circuit breaker when a set is mounted.
	encodeOn := func(r *rig.Rig, seg []byte) (*core.Record, error) {
		id := r.Device().DeviceID()
		if err := sopts.Breakers.allow(id, r.ClockHours()); err != nil {
			return nil, err
		}
		rec, err := core.EncodeContext(ctx, r, seg, opts)
		sopts.Breakers.record(id, err, r.ClockHours())
		return rec, err
	}

	encodeShard := func(jb job) (*core.Record, error) {
		seg := message[jb.start : jb.start+jb.n]
		rec, err := encodeOn(rigs[jb.idx], seg)
		// Permanent device death re-routes to a spare, as do breaker
		// rejections — an open or quarantined primary should cost the
		// stripe nothing beyond the Allow call. Transient faults were
		// already retried inside the rig.
		for err != nil && isRerouteable(err) {
			sp := nextSpare(jb.n)
			if sp == nil {
				break
			}
			rec, err = encodeOn(sp, seg)
		}
		return rec, err
	}

	records := make([]*core.Record, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for j, jb := range jobs {
		wg.Add(1)
		go func(j int, jb job) {
			defer wg.Done()
			records[j], errs[j] = encodeShard(jb)
		}(j, jb)
	}

	// The parity shard encodes concurrently with the data shards — it is
	// just one more device in the same thermal chamber.
	var parityRec *core.Record
	var parityErr error
	if sopts.ParityRig != nil {
		maxSeg := 0
		for _, jb := range jobs {
			if jb.n > maxSeg {
				maxSeg = jb.n
			}
		}
		parity := make([]byte, maxSeg)
		for _, jb := range jobs {
			for k := 0; k < jb.n; k++ {
				parity[k] ^= message[jb.start+k]
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			parityRec, parityErr = encodeOn(sopts.ParityRig, parity)
		}()
	}
	wg.Wait()

	var fatal []error
	for j, jb := range jobs {
		if errs[j] != nil {
			res.Lost = append(res.Lost, jb.idx)
			fatal = append(fatal, fmt.Errorf("fleet: shard %d: %w", jb.idx, errs[j]))
			continue
		}
		res.Shards = append(res.Shards, Shard{Index: jb.idx, Record: records[j]})
	}
	if parityErr != nil {
		fatal = append(fatal, fmt.Errorf("fleet: parity shard: %w", parityErr))
	} else if parityRec != nil {
		res.Parity = &Shard{Index: -1, Record: parityRec}
	}

	// The stripe is shippable if every segment is either encoded or
	// reconstructible: at most one lost slot, covered by a live parity.
	recoverable := len(res.Lost) == 0 ||
		(len(res.Lost) == 1 && res.Parity != nil)
	if !recoverable || (len(res.Lost) > 0 && parityErr != nil) {
		return nil, errors.Join(fatal...)
	}
	return res, nil
}

// ShardStatus reports one shard's fate during Gather.
type ShardStatus struct {
	Index     int
	DeviceID  string
	Err       error // nil when the shard decoded (or was reconstructed)
	Recovered bool  // true when rebuilt from the parity carrier
	// TransientFaults / PermanentFaults count the classified faults the
	// carrier's rig observed while this shard decoded (per-attempt,
	// including in-rig retries).
	TransientFaults int
	PermanentFaults int
}

// GatherReport is the outcome of a degraded-capable Gather.
type GatherReport struct {
	// Message is the reassembled plaintext; valid only when Complete.
	Message []byte
	// Complete is true when every segment was decoded or reconstructed.
	Complete bool
	// Shards records the per-slot outcomes, ordered by slot.
	Shards []ShardStatus
	// Quarantined lists device IDs the mounted breaker set has written
	// off (empty without GatherOptions.Breakers).
	Quarantined []string
}

// GatherOptions configures failure handling for a gather pass.
type GatherOptions struct {
	// Breakers, when non-nil, gates each carrier's decode through its
	// circuit breaker and surfaces the quarantine list in the report.
	Breakers *BreakerSet
}

// Err joins the failures of every unrecovered shard (nil when Complete).
func (g *GatherReport) Err() error {
	if g.Complete {
		return nil
	}
	var errs []error
	for _, s := range g.Shards {
		if s.Err != nil && !s.Recovered {
			errs = append(errs, fmt.Errorf("fleet: shard %d (%s): %w", s.Index, s.DeviceID, s.Err))
		}
	}
	if len(errs) == 0 {
		errs = append(errs, errors.New("fleet: message incomplete"))
	}
	return errors.Join(errs...)
}

// Gather decodes every shard and reassembles the message. The rigs slice
// must contain every carrier device (shards are matched by the record's
// device ID, falling back to the shard's planned slot index for results
// produced before re-routing existed).
func Gather(rigs []*rig.Rig, striped *StripeResult, opts core.Options) ([]byte, error) {
	rep, err := GatherContext(context.Background(), rigs, striped, opts)
	if err != nil {
		return nil, err
	}
	if !rep.Complete {
		return nil, rep.Err()
	}
	return rep.Message, nil
}

// GatherContext decodes every shard, tolerating per-shard failure: dead
// or undecodable carriers are reported in the result, and when the
// stripe carries a parity shard, a single lost segment is reconstructed
// from the survivors — the fleet-layer erasure channel absorbing what
// the per-device ECC cannot. The error return covers only structural
// problems (nil result, unresolvable layout); per-shard trouble lives in
// the report.
func GatherContext(ctx context.Context, rigs []*rig.Rig, striped *StripeResult, opts core.Options) (*GatherReport, error) {
	return GatherWithOptions(ctx, rigs, striped, opts, GatherOptions{})
}

// GatherWithOptions is GatherContext with breaker enforcement: carriers
// whose breakers are open or quarantined are not even consulted (their
// shards go straight to parity reconstruction), and the report carries
// the quarantine list.
func GatherWithOptions(ctx context.Context, rigs []*rig.Rig, striped *StripeResult, opts core.Options, gopts GatherOptions) (*GatherReport, error) {
	if striped == nil {
		return nil, errors.New("fleet: nil stripe result")
	}
	findRig := func(s Shard) (*rig.Rig, error) {
		if s.Record != nil && s.Record.DeviceID != "" {
			for _, r := range rigs {
				if r.Device().DeviceID() == s.Record.DeviceID {
					return r, nil
				}
			}
		}
		if s.Index < 0 || s.Index >= len(rigs) {
			return nil, fmt.Errorf("fleet: shard names device %d of %d", s.Index, len(rigs))
		}
		return rigs[s.Index], nil
	}

	// Decode the data shards. Records carrying a digest are verified:
	// a shard that decodes to the *wrong* bytes is as lost as one that
	// does not decode at all, and flagging it here makes it eligible
	// for parity reconstruction instead of silently corrupting the
	// reassembled message.
	segments := map[int][]byte{}
	rep := &GatherReport{}
	for _, shard := range striped.Shards {
		r, err := findRig(shard)
		if err != nil {
			return nil, err
		}
		t0, p0 := r.FaultCounts()
		var part []byte
		id := r.Device().DeviceID()
		if err = gopts.Breakers.allow(id, r.ClockHours()); err == nil {
			part, err = core.DecodeContext(ctx, r, shard.Record, opts)
			if err == nil && shard.Record.HasDigest() {
				if verr := shard.Record.VerifyMessage(part, opts.Key); verr != nil {
					part, err = nil, verr
				}
			}
			gopts.Breakers.record(id, err, r.ClockHours())
		}
		t1, p1 := r.FaultCounts()
		st := ShardStatus{
			Index: shard.Index, DeviceID: shard.Record.DeviceID, Err: err,
			TransientFaults: t1 - t0, PermanentFaults: p1 - p0,
		}
		if err == nil {
			segments[shard.Index] = part
		}
		rep.Shards = append(rep.Shards, st)
	}
	rep.Quarantined = gopts.Breakers.Quarantined()
	for _, lost := range striped.Lost {
		rep.Shards = append(rep.Shards, ShardStatus{
			Index: lost, Err: fmt.Errorf("fleet: shard %d was never encoded: %w", lost, faults.ErrDeviceDead),
		})
	}

	// Planned layout: explicit sizes when recorded, else derived from the
	// shards themselves (pre-fault results).
	sizes := striped.SegmentSizes
	if sizes == nil {
		maxIdx := -1
		for _, s := range striped.Shards {
			if s.Index > maxIdx {
				maxIdx = s.Index
			}
		}
		sizes = make([]int, maxIdx+1)
		for _, s := range striped.Shards {
			sizes[s.Index] = s.Record.MessageBytes
		}
	}

	// One missing segment + a parity carrier → reconstruct.
	var missing []int
	for idx, n := range sizes {
		if n > 0 && segments[idx] == nil {
			missing = append(missing, idx)
		}
	}
	if len(missing) == 1 && striped.Parity != nil {
		if seg, err := reconstructFromParity(ctx, rigs, striped, opts, sizes, missing[0], segments, findRig); err == nil {
			segments[missing[0]] = seg
			for k := range rep.Shards {
				if rep.Shards[k].Index == missing[0] {
					rep.Shards[k].Recovered = true
				}
			}
			missing = nil
		} else {
			rep.Shards = append(rep.Shards, ShardStatus{Index: -1, Err: err})
		}
	}

	rep.Complete = len(missing) == 0
	if rep.Complete {
		out := make([]byte, 0, striped.MessageBytes)
		for idx, n := range sizes {
			if n == 0 {
				continue
			}
			out = append(out, segments[idx]...)
		}
		if len(out) != striped.MessageBytes {
			return nil, fmt.Errorf("fleet: reassembled %d bytes, want %d", len(out), striped.MessageBytes)
		}
		rep.Message = out
	}
	return rep, nil
}

// reconstructFromParity decodes the parity carrier and XORs it with the
// surviving segments to rebuild the one that was lost.
func reconstructFromParity(ctx context.Context, rigs []*rig.Rig, striped *StripeResult, opts core.Options,
	sizes []int, lostIdx int, segments map[int][]byte, findRig func(Shard) (*rig.Rig, error)) ([]byte, error) {
	pr, err := findRig(*striped.Parity)
	if err != nil {
		return nil, fmt.Errorf("fleet: parity carrier unavailable: %w", err)
	}
	parity, err := core.DecodeContext(ctx, pr, striped.Parity.Record, opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: parity decode: %w", err)
	}
	if striped.Parity.Record.HasDigest() {
		if verr := striped.Parity.Record.VerifyMessage(parity, opts.Key); verr != nil {
			return nil, fmt.Errorf("fleet: parity decode: %w", verr)
		}
	}
	seg := append([]byte(nil), parity...)
	for idx, n := range sizes {
		if n == 0 || idx == lostIdx {
			continue
		}
		for k, b := range segments[idx] {
			seg[k] ^= b
		}
	}
	if sizes[lostIdx] > len(seg) {
		return nil, fmt.Errorf("fleet: parity shorter (%d) than lost segment (%d)", len(seg), sizes[lostIdx])
	}
	seg = seg[:sizes[lostIdx]]
	// When the lost slot's own record survived (its carrier decoded
	// wrong, not never-encoded), its digest cross-checks the rebuild.
	for _, s := range striped.Shards {
		if s.Index == lostIdx && s.Record != nil && s.Record.HasDigest() {
			if verr := s.Record.VerifyMessage(seg, opts.Key); verr != nil {
				return nil, fmt.Errorf("fleet: reconstructed shard %d: %w", lostIdx, verr)
			}
		}
	}
	return seg, nil
}
