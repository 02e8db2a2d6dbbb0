package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"invisiblebits/internal/cliutil"
	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/fleet"
	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/storage"
)

const (
	specFile   = "spec.json"
	resultFile = "result.json"
)

// Spec is the durable description of a campaign — everything needed to
// rebuild the fleet and the schedule after a crash. Keys deliberately
// never appear here: spec.json sits next to the device images, and the
// threat model (paper §6) assumes the adversary can read the bench.
type Spec struct {
	// ID names the campaign; it is stamped into every journal record.
	ID string `json:"id"`
	// Model is the device model every carrier instantiates.
	Model string `json:"model"`
	// Serials lists one carrier serial per stripe slot. Device identity
	// is a pure function of (model, serial), which is what makes
	// from-scratch slot rebuilds deterministic.
	Serials []string `json:"serials"`
	// Message is the plaintext to stripe across the fleet.
	Message []byte `json:"message"`
	// Codec is the ECC layer in cliutil vocabulary ("paper", "rep5",
	// "none", ...); empty means none.
	Codec string `json:"codec,omitempty"`
	// StressHours overrides the model's Table 4 soak length when > 0.
	StressHours float64 `json:"stress_hours,omitempty"`
	// Captures is the decode majority-vote burst; 0 means the default.
	Captures int `json:"captures,omitempty"`
	// SliceHours is the journaling granularity: one journal record (and
	// potentially one checkpoint) per slice. 0 means DefaultSliceHours.
	SliceHours float64 `json:"slice_hours,omitempty"`
	// CheckpointEvery saves a device image every N slices; 0 means
	// DefaultCheckpointEvery.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// Campaign defaults: slice hourly, checkpoint every other slice.
const (
	DefaultSliceHours      = 1.0
	DefaultCheckpointEvery = 2
)

func (s Spec) withDefaults() Spec {
	if s.SliceHours <= 0 {
		s.SliceHours = DefaultSliceHours
	}
	if s.CheckpointEvery <= 0 {
		s.CheckpointEvery = DefaultCheckpointEvery
	}
	return s
}

// Validate rejects structurally unusable specs: bad IDs, duplicate or
// empty serials, empty messages, unknown models or codecs. Submit calls
// it at admission time so a doomed campaign is rejected before it burns
// chamber hours.
func (s Spec) Validate() error {
	if s.ID == "" || strings.ContainsAny(s.ID, "/\\") {
		return fmt.Errorf("campaign: invalid campaign ID %q", s.ID)
	}
	if len(s.Serials) == 0 {
		return errors.New("campaign: no carrier serials")
	}
	seen := map[string]bool{}
	for _, ser := range s.Serials {
		if ser == "" || seen[ser] {
			return fmt.Errorf("campaign: duplicate or empty serial %q", ser)
		}
		seen[ser] = true
	}
	if len(s.Message) == 0 {
		return core.ErrEmptyMessage
	}
	if _, err := device.ByName(s.Model); err != nil {
		return err
	}
	if _, err := s.codec(); err != nil {
		return err
	}
	return nil
}

func (s Spec) codec() (ecc.Codec, error) {
	if s.Codec == "" {
		return nil, nil
	}
	return cliutil.ParseCodec(s.Codec)
}

// segments plans the stripe: the message bytes each slot carries on
// model's SRAM (zero for slots the message does not reach).
func (s Spec) segments(model device.Model) ([]int, error) {
	codec, err := s.codec()
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(s.Serials))
	for i := range sizes {
		sizes[i] = model.SRAMBytes
	}
	return fleet.PlanSegments(sizes, len(s.Message), codec)
}

// ScheduleDigest fingerprints everything the soak schedule depends on.
// The journal's submit record carries it, and Resume refuses to continue
// a campaign whose spec.json no longer reproduces it — a swapped
// message, codec, or fleet would otherwise silently produce carriers
// that decode to garbage.
func (s Spec) ScheduleDigest() string {
	s = s.withDefaults()
	msgSum := sha256.Sum256(s.Message)
	canonical := struct {
		ID              string
		Model           string
		Serials         []string
		MessageSHA256   string
		MessageBytes    int
		Codec           string
		StressHours     float64
		Captures        int
		SliceHours      float64
		CheckpointEvery int
	}{
		s.ID, s.Model, s.Serials, hex.EncodeToString(msgSum[:]), len(s.Message),
		s.Codec, s.StressHours, s.Captures, s.SliceHours, s.CheckpointEvery,
	}
	b, err := json.Marshal(canonical)
	if err != nil {
		// Marshal of a struct of strings and numbers cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Result is a finished campaign's durable outcome (result.json).
type Result struct {
	Campaign     string `json:"campaign"`
	MessageBytes int    `json:"message_bytes"`
	SegmentSizes []int  `json:"segment_sizes"`
	// Records[i] is slot i's encode record (nil for zero-width slots).
	Records []*core.Record `json:"records"`
	// Images[i] is slot i's final device image file, relative to the
	// campaign directory.
	Images []string `json:"images"`
	// EquivalentHours is the summed simulated bench time across the
	// fleet, retries and backoff included.
	EquivalentHours float64 `json:"equivalent_hours"`
	// Quarantined lists carriers the breaker set of a standalone run
	// wrote off (empty without CampaignOptions.Breakers).
	Quarantined []string `json:"quarantined,omitempty"`
}

// writeSpec persists spec as dir's spec.json, atomically.
func writeSpec(fsys storage.FS, dir string, spec Spec) error {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return ioatomic.WriteFileFS(fsys, filepath.Join(dir, specFile), b, 0o644)
}

// LoadSpec reads and validates dir's spec.json exactly the way a
// standalone resume does (defaults applied before validation), so
// offline tools like ibfsck reproduce its accept/reject decision.
func LoadSpec(fsys storage.FS, dir string) (Spec, error) {
	var spec Spec
	b, err := storage.Default(fsys).ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return spec, fmt.Errorf("campaign: %w", err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("campaign: parse %s: %w", specFile, err)
	}
	spec = spec.withDefaults()
	return spec, spec.Validate()
}

// AcceptSpec reads the spec.json that campaign id keeps in dir and
// accepts it only if it reproduces the journal's submit record: the
// same schedule digest and slot count. Resume rebuilds a campaign only
// from a spec it accepts, and fsck audits with it; a rejected spec is
// unrecoverable, since the message itself is in it.
func AcceptSpec(fsys storage.FS, dir, id string, cr *CampaignReplay) (Spec, error) {
	var spec Spec
	b, err := storage.Default(fsys).ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return Spec{}, fmt.Errorf("sched: campaign %q: %w", id, err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return Spec{}, fmt.Errorf("sched: campaign %q spec: %w", id, err)
	}
	if digest := spec.ScheduleDigest(); digest != cr.Digest {
		return Spec{}, fmt.Errorf("sched: campaign %q schedule digest mismatch: journal %.12s…, spec %.12s… — the spec changed under a live scheduler",
			id, cr.Digest, digest)
	}
	if len(spec.Serials) != len(cr.Slots) {
		return Spec{}, fmt.Errorf("sched: campaign %q journal plans %d slots, spec has %d", id, len(cr.Slots), len(spec.Serials))
	}
	// The digest covers the defaults, so they are part of the schedule.
	return spec.withDefaults(), nil
}

func readResult(fsys storage.FS, dir string) (*Result, error) {
	b, _, err := ioatomic.ReadFileSealed(fsys, filepath.Join(dir, resultFile))
	if err != nil {
		return nil, fmt.Errorf("campaign: finished campaign without a result: %w", err)
	}
	var res Result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("campaign: parse %s: %w", resultFile, err)
	}
	return &res, nil
}

// DecodeResult reloads a finished campaign's final device images and
// gathers the message back — the receiving party's side of the
// campaign, driven purely from the campaign directory (a standalone
// run's directory, or a scheduler's campaigns/<id>) plus the key.
func DecodeResult(ctx context.Context, dir string, key *stegocrypt.Key) ([]byte, error) {
	spec, err := LoadSpec(nil, dir)
	if err != nil {
		return nil, err
	}
	res, err := readResult(nil, dir)
	if err != nil {
		return nil, err
	}
	codec, err := spec.codec()
	if err != nil {
		return nil, err
	}
	striped := &fleet.StripeResult{
		MessageBytes: res.MessageBytes,
		SegmentSizes: res.SegmentSizes,
	}
	var rigs []*rig.Rig
	for slot, rec := range res.Records {
		if rec == nil {
			continue
		}
		if slot >= len(res.Images) || res.Images[slot] == "" {
			return nil, fmt.Errorf("campaign: slot %d has a record but no image", slot)
		}
		d, err := device.LoadFile(filepath.Join(dir, res.Images[slot]))
		if err != nil {
			return nil, err
		}
		rigs = append(rigs, rig.New(d))
		striped.Shards = append(striped.Shards, fleet.Shard{Index: slot, Record: rec})
	}
	copts := core.Options{Codec: codec, Key: key, Captures: spec.Captures}
	rep, err := fleet.GatherContext(ctx, rigs, striped, copts)
	if err != nil {
		return nil, err
	}
	if !rep.Complete {
		return nil, rep.Err()
	}
	return rep.Message, nil
}

// writeResult persists res as dir's sealed result.json.
func writeResult(fsys storage.FS, dir string, res *Result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return ioatomic.WriteFileSealed(fsys, filepath.Join(dir, resultFile), b, 0o644)
}
