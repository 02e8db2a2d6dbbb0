// Package invisiblebits is a Go implementation and full-system simulation
// of "Invisible Bits: Hiding Secret Messages in SRAM's Analog Domain"
// (Mahmod & Hicks, ASPLOS 2022): a steganographic channel that encodes
// data by directing and accelerating NBTI transistor aging in a device's
// embedded SRAM, and reads it back through the SRAM's power-on state.
//
// The public API wraps the internal pipeline:
//
//	model, _ := invisiblebits.Model("MSP432P401")
//	dev, _ := invisiblebits.NewDevice(model, "serial-0001")
//	carrier := invisiblebits.NewCarrier(dev)
//
//	key := invisiblebits.KeyFromPassphrase("pre-shared secret")
//	rec, _ := carrier.Hide([]byte("message"), invisiblebits.Options{
//	    Codec: invisiblebits.PaperCodec(),
//	    Key:   &key,
//	})
//	// ... the device travels across a border, is inspected, shelved ...
//	msg, _ := carrier.Reveal(rec, invisiblebits.Options{
//	    Codec: invisiblebits.PaperCodec(),
//	    Key:   &key,
//	})
//
// Everything physical — the SRAM cell array, transistor aging, the
// thermal chamber, the target CPU executing payload-writer firmware — is
// simulated; see DESIGN.md for the substitution map and calibration
// anchors, and EXPERIMENTS.md for the paper-vs-measured results.
package invisiblebits

import (
	"context"
	"io"
	"net/http"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/campaign"
	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/fleet"
	"invisiblebits/internal/parallel"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/stegocrypt"
)

// Re-exported building blocks. The concrete types live in internal
// packages; these aliases are the supported public surface.
type (
	// DeviceModel is a catalog entry from the paper's Table 1.
	DeviceModel = device.Model
	// Device is an instantiated board with simulated silicon.
	Device = device.Device
	// Rig is the evaluation platform driving power/temperature (Fig. 5).
	Rig = rig.Rig
	// Options configures Hide/Reveal (ECC codec, encryption key, stress
	// time, capture count).
	Options = core.Options
	// Record is the encode receipt holding the pre-shared parameters.
	Record = core.Record
	// Codec is an error-correcting code layered on the channel (§5.2).
	Codec = ecc.Codec
	// Key is a pre-shared AES-256 key.
	Key = stegocrypt.Key
	// Conditions is a voltage/temperature operating point.
	Conditions = analog.Conditions
)

// Model looks up a device model by name (e.g. "MSP432P401"). See Models
// for the full Table 1 catalog.
func Model(name string) (DeviceModel, error) { return device.ByName(name) }

// Models returns the paper's Table 1 device catalog.
func Models() []DeviceModel {
	out := make([]DeviceModel, len(device.Catalog))
	copy(out, device.Catalog)
	return out
}

// NewDevice instantiates a model with a serial number. The serial seeds
// the simulated process variation, so a given (model, serial) pair always
// exhibits the same SRAM fingerprint — like a real chip.
func NewDevice(model DeviceModel, serial string) (*Device, error) {
	return device.New(model, serial)
}

// NewDeviceSampled instantiates a device with its SRAM capped at
// sramBytes — useful for fast experimentation with large parts (the
// BCM2837 carries 768 KB of cache). Capacity math still uses the model's
// real size.
func NewDeviceSampled(model DeviceModel, serial string, sramBytes int) (*Device, error) {
	return device.New(model, serial, device.WithSRAMLimit(sramBytes))
}

// SetCaptureWorkers bounds the capture engine's parallelism across the
// given carriers with one shared worker pool of size workers (<= 0 means
// GOMAXPROCS). Captures are bit-identical under any worker count — the
// per-cell noise is counter-derived — so this knob trades only
// throughput, never results. By default all carriers already share a
// GOMAXPROCS-wide process pool.
func SetCaptureWorkers(carriers []*Carrier, workers int) {
	fleet.UseCapturePool(rigsOf(carriers), parallel.New(workers))
}

// Carrier couples a device to an evaluation rig and exposes the
// steganographic operations.
type Carrier struct {
	rig *rig.Rig
}

// NewCarrier mounts a device on a fresh rig at nominal conditions.
func NewCarrier(dev *Device) *Carrier { return &Carrier{rig: rig.New(dev)} }

// FaultProfile parameterizes deterministic fault injection: flaky
// debugger links, supply brownouts, chamber excursions, stuck/weak SRAM
// cells, and scheduled device death. The zero value injects nothing; a
// given (Seed, serial) pair replays the same failure sequence.
type FaultProfile = faults.Profile

// NewFaultyCarrier mounts a device on a rig with a seeded fault injector
// — the lab's hazard model made explicit, for rehearsing campaigns
// against the failures a real bench produces. A zero profile leaves the
// carrier's behaviour bit-identical to NewCarrier.
func NewFaultyCarrier(dev *Device, p FaultProfile) *Carrier {
	return &Carrier{rig: rig.New(dev, rig.WithInjector(faults.New(p, dev.Serial)))}
}

// IsTransientFault reports whether err is a retryable bench fault (e.g.
// a dropped debugger link) as opposed to a permanent one.
func IsTransientFault(err error) bool { return faults.IsTransient(err) }

// IsPermanentFault reports whether err is unrecoverable (device death).
func IsPermanentFault(err error) bool { return faults.IsPermanent(err) }

// Rig exposes the underlying evaluation platform for advanced workflows
// (custom stress schedules, event logs, simulated clock).
func (c *Carrier) Rig() *Rig { return c.rig }

// Device returns the mounted device.
func (c *Carrier) Device() *Device { return c.rig.Device() }

// Hide encodes message into the device's analog domain (Algorithm 1):
// optional ECC and AES-CTR layers, payload-writer firmware, accelerated
// aging, camouflage firmware. The returned Record carries the pre-shared
// decode parameters (never the key).
func (c *Carrier) Hide(message []byte, opts Options) (*Record, error) {
	return core.Encode(c.rig, message, opts)
}

// Reveal extracts the message (Algorithm 2): retainer firmware, N
// power-on captures, majority vote, inversion, decryption, ECC decode.
func (c *Carrier) Reveal(rec *Record, opts Options) ([]byte, error) {
	return core.Decode(c.rig, rec, opts)
}

// Shelve stores the unpowered device for the given number of simulated
// hours; stress-induced changes partially recover (§5.1.3).
func (c *Carrier) Shelve(hours float64) error { return c.rig.ShelveFor(hours) }

// ShelveAt stores the device at a specific temperature. Hot storage
// accelerates natural recovery — an adversary can "bake" a suspect
// device to degrade a potential message, but the permanent component of
// the encoding bounds the damage (see the sram baking-attack test).
// Shelf time is charged to the rig's simulated clock, so time-keyed
// fault profiles stay aligned with the aging timeline.
func (c *Carrier) ShelveAt(hours, tempC float64) error {
	return c.rig.ShelveAtFor(hours, tempC)
}

// KeyFromPassphrase derives a pre-shared key from a passphrase.
func KeyFromPassphrase(pass string) Key { return stegocrypt.KeyFromPassphrase(pass) }

// --- adaptive decode and retention health --------------------------------------

type (
	// AdaptiveOptions configures RevealAdaptive's escalation ladder
	// (initial/max captures, erasure dead zone) on top of Options.
	AdaptiveOptions = core.AdaptiveOptions
	// DecodeReport is the structured account of an adaptive decode:
	// rungs attempted, captures spent, residual channel error.
	DecodeReport = core.DecodeReport
	// RefreshOutcome reports a maintenance refresh: the decode effort
	// and the margins before/after the re-stress.
	RefreshOutcome = core.RefreshReport
	// HealthReport is a plaintext-free retention-margin estimate.
	HealthReport = rig.HealthReport
	// RegionHealth is one SRAM region's margin estimate.
	RegionHealth = rig.RegionHealth
)

// RevealAdaptive runs the self-verifying escalation ladder: a cheap
// low-capture hard decode first, then — only if the record's integrity
// digest rejects the result — more captures, soft-decision decoding,
// and erasure-aware decoding, accumulating captures across rungs. The
// report shows how hard the ladder had to work. Requires a record
// minted with a digest (any Hide since the digest scheme).
func (c *Carrier) RevealAdaptive(rec *Record, opts AdaptiveOptions) ([]byte, *DecodeReport, error) {
	return core.DecodeAdaptive(context.Background(), c.rig, rec, opts)
}

// RevealAdaptiveContext is RevealAdaptive with cancellation.
func (c *Carrier) RevealAdaptiveContext(ctx context.Context, rec *Record, opts AdaptiveOptions) ([]byte, *DecodeReport, error) {
	return core.DecodeAdaptive(ctx, c.rig, rec, opts)
}

// ProbeHealth estimates the carrier's retention margin from power-on
// captures alone — no plaintext or key needed. captures ≤ 0 uses the
// probing default; regionBytes ≤ 0 treats the array as one region.
func (c *Carrier) ProbeHealth(captures, regionBytes int) (*HealthReport, error) {
	return c.rig.ProbeHealth(captures, regionBytes)
}

// Refresh restores a decaying imprint: the message is recovered with
// the full adaptive ladder (digest-verified), rewritten, and
// re-stressed under the safe-voltage interlock. stressHours ≤ 0 uses
// the model's encoding time. The device's maintenance ledger (persisted
// by SaveDevice) records the event.
func (c *Carrier) Refresh(rec *Record, opts AdaptiveOptions, stressHours float64) (*RefreshOutcome, error) {
	return core.Refresh(context.Background(), c.rig, rec, opts, stressHours)
}

// RefreshLog returns the carrier's maintenance ledger.
func (c *Carrier) RefreshLog() []device.RefreshEvent { return c.rig.Device().RefreshLog() }

// --- codecs -------------------------------------------------------------------

// Repetition returns an n-copy repetition codec (odd n), the paper's
// high-error-regime workhorse.
func Repetition(n int) (Codec, error) { return ecc.NewRepetition(n) }

// Hamming74 returns the Hamming(7,4) codec for the low-error regime.
func Hamming74() Codec { return ecc.Hamming74{} }

// Compose chains two codecs; inner is nearest the channel.
func Compose(outer, inner Codec) Codec { return ecc.Composite{Outer: outer, Inner: inner} }

// PaperCodec returns the end-to-end system's code from Fig. 13:
// Hamming(7,4) followed by 7-copy repetition.
func PaperCodec() Codec {
	rep, err := ecc.NewRepetition(7)
	if err != nil {
		panic(err) // 7 is statically odd; cannot fail
	}
	return ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep}
}

// MaxMessageBytes returns the largest message that fits on sramBytes of
// SRAM under codec (nil = no ECC) — the §5.3 capacity measure.
func MaxMessageBytes(sramBytes int, codec Codec) int {
	return core.MaxMessageBytes(sramBytes, codec)
}

// Hamming1511 returns the higher-rate (15,11) Hamming codec.
func Hamming1511() Codec { return ecc.Hamming1511{} }

// Secded84 returns the extended Hamming(8,4) SECDED codec (corrects
// single errors, detects doubles without miscorrecting).
func Secded84() Codec { return ecc.Secded84{} }

// Plan is one feasible ECC configuration for a measured channel.
type Plan = ecc.Plan

// RecommendECC enumerates ECC configurations meeting targetError on a
// channel with the given single-copy error, sorted by capacity — §5.2's
// code-selection guidance as an algorithm.
func RecommendECC(channelError, targetError float64, sramBytes int) ([]Plan, error) {
	return ecc.Recommend(channelError, targetError, sramBytes)
}

// BestECC returns the highest-capacity plan meeting the target.
func BestECC(channelError, targetError float64, sramBytes int) (Plan, error) {
	return ecc.Best(channelError, targetError, sramBytes)
}

// --- fleet operations ----------------------------------------------------------

// FleetCharacterization is one device's measured channel quality.
type FleetCharacterization = fleet.Characterization

// StripedMessage describes a message striped across several carriers.
type StripedMessage = fleet.StripeResult

func rigsOf(carriers []*Carrier) []*rig.Rig {
	rigs := make([]*rig.Rig, len(carriers))
	for i, c := range carriers {
		rigs[i] = c.rig
	}
	return rigs
}

// CharacterizeFleet measures every carrier's single-copy channel error in
// parallel (§5.3: "one can encode many devices and select the one with
// the least error"). The devices end up holding a calibration pattern.
func CharacterizeFleet(carriers []*Carrier, captures int) ([]FleetCharacterization, error) {
	return fleet.Characterize(rigsOf(carriers), captures)
}

// SelectBestDevice picks the least-error characterization.
func SelectBestDevice(chars []FleetCharacterization) (FleetCharacterization, error) {
	return fleet.SelectBest(chars)
}

// StripeMessage splits a message across several carriers, encoding the
// shards in parallel. Each shard is independently encrypted under its
// device's nonce.
func StripeMessage(carriers []*Carrier, message []byte, opts Options) (*StripedMessage, error) {
	return fleet.Stripe(rigsOf(carriers), message, opts)
}

// GatherMessage decodes and reassembles a striped message.
func GatherMessage(carriers []*Carrier, striped *StripedMessage, opts Options) ([]byte, error) {
	return fleet.Gather(rigsOf(carriers), striped, opts)
}

// StripeResilience configures failure tolerance for StripeMessageWith.
type StripeResilience struct {
	// Spares are standby carriers; a shard whose primary dies permanently
	// is re-encoded on the next unused spare with enough capacity.
	Spares []*Carrier
	// Parity, when non-nil, carries an XOR parity shard over the data
	// segments so GatherReportFor can reconstruct any single lost shard.
	Parity *Carrier
	// Breakers, when non-nil, gates every per-device operation through
	// the shared circuit-breaker set: repeatedly failing carriers trip
	// open and re-route to spares without burning the retry budget.
	Breakers *FleetBreakers
}

// GatherOutcome reports per-shard fates from a degraded-capable gather.
type GatherOutcome = fleet.GatherReport

// StripeMessageWith is StripeMessage with cancellation, standby spares,
// and an optional parity carrier: the stripe survives one device dying
// mid-soak (re-routed to a spare) or, with parity, one shard being lost
// outright.
func StripeMessageWith(ctx context.Context, carriers []*Carrier, message []byte, opts Options, res StripeResilience) (*StripedMessage, error) {
	sopts := fleet.StripeOptions{Spares: rigsOf(res.Spares), Breakers: res.Breakers}
	if res.Parity != nil {
		sopts.ParityRig = res.Parity.rig
	}
	return fleet.StripeWithOptions(ctx, rigsOf(carriers), message, opts, sopts)
}

// GatherReportFor decodes a striped message, tolerating dead carriers:
// the report lists every shard's fate, and a single lost segment is
// rebuilt from the parity carrier when the stripe has one. The carriers
// slice must include spares and the parity carrier used at stripe time.
func GatherReportFor(ctx context.Context, carriers []*Carrier, striped *StripedMessage, opts Options) (*GatherOutcome, error) {
	return fleet.GatherContext(ctx, rigsOf(carriers), striped, opts)
}

// GatherReportWith is GatherReportFor with a circuit-breaker set:
// quarantined carriers are skipped outright (their shards fall back to
// parity reconstruction when available) and the report lists them.
func GatherReportWith(ctx context.Context, carriers []*Carrier, striped *StripedMessage, opts Options, breakers *FleetBreakers) (*GatherOutcome, error) {
	return fleet.GatherWithOptions(ctx, rigsOf(carriers), striped, opts, fleet.GatherOptions{Breakers: breakers})
}

// FleetHealth aggregates a health sweep across carriers.
type FleetHealth = fleet.HealthSweepReport

// HealthSweepConfig configures HealthSweepFleet.
type HealthSweepConfig = fleet.HealthSweepOptions

// HealthSweepFleet probes every carrier's retention margin concurrently
// (no plaintext needed), flags carriers below the margin threshold, and
// optionally refreshes the flagged ones from their records. Dead or
// flaky carriers are reported per-slot, never sinking the sweep.
func HealthSweepFleet(ctx context.Context, carriers []*Carrier, cfg HealthSweepConfig) (*FleetHealth, error) {
	return fleet.HealthSweep(ctx, rigsOf(carriers), cfg)
}

// SaveDevice serializes a device (silicon identity + aging state) so it
// can be handed to another party — the simulation's equivalent of mailing
// the physical chip or carrying it across a border.
func SaveDevice(dev *Device, w io.Writer) error { return dev.Save(w) }

// LoadDevice reconstructs a device from a SaveDevice image of any
// version, or from the bytes of a SaveDeviceFile file.
func LoadDevice(r io.Reader) (*Device, error) { return device.Load(r) }

// SaveDeviceFile writes a device image to path atomically (temp file +
// fsync + rename): a crash mid-save never leaves a torn image under the
// final name.
func SaveDeviceFile(dev *Device, path string) error { return dev.SaveFile(path) }

// LoadDeviceFile reconstructs a device from an image file.
func LoadDeviceFile(path string) (*Device, error) { return device.LoadFile(path) }

// ErrTruncatedImage marks a device image whose byte stream ended early —
// the signature of a torn write or interrupted copy. Check with
// errors.Is on LoadDevice/LoadDeviceFile errors.
var ErrTruncatedImage = device.ErrTruncatedImage

// --- circuit breakers -----------------------------------------------------------

type (
	// FleetBreakers is a set of per-device circuit breakers. A carrier
	// that keeps failing trips its breaker (closed → open with
	// exponential backoff on the simulated clock → half-open probe) and
	// is eventually quarantined, so a dying rig stops consuming retry
	// budget and spare re-routing kicks in early.
	FleetBreakers = fleet.BreakerSet
	// BreakerConfig tunes failure thresholds, backoff, and the
	// quarantine trip count; the zero value uses the defaults.
	BreakerConfig = fleet.BreakerConfig
	// BreakerStats is one device's breaker state snapshot.
	BreakerStats = fleet.BreakerStats
	// BreakerState is a breaker's position in the closed → open →
	// half-open → quarantined lifecycle.
	BreakerState = fleet.BreakerState
)

// Breaker lifecycle states, as reported in BreakerStats.
const (
	BreakerClosed      = fleet.BreakerClosed
	BreakerOpen        = fleet.BreakerOpen
	BreakerHalfOpen    = fleet.BreakerHalfOpen
	BreakerQuarantined = fleet.BreakerQuarantined
)

// NewFleetBreakers builds a breaker set shared across fleet passes —
// stripe, gather, and health sweeps all feed (and consult) the same
// per-device failure history.
func NewFleetBreakers(cfg BreakerConfig) *FleetBreakers { return fleet.NewBreakerSet(cfg) }

// FleetBreakerStats snapshots every tracked device's breaker state,
// sorted by device ID. Nil-safe: a nil set reports nothing.
func FleetBreakerStats(b *FleetBreakers) []BreakerStats { return b.Stats() }

// --- crash-safe campaigns -------------------------------------------------------

type (
	// CampaignSpec is the durable description of an imprint campaign:
	// fleet, message, codec, soak schedule, and checkpoint cadence.
	// Keys never appear in it.
	CampaignSpec = campaign.Spec
	// CampaignOptions carries the in-memory extras: the encryption key
	// and an optional breaker set.
	CampaignOptions = campaign.Options
	// CampaignResult is the campaign's durable outcome (records, final
	// image paths, equivalent bench hours, quarantine list).
	CampaignResult = campaign.Result
)

// RunCampaign starts a crash-safe imprint campaign in dir: every phase
// transition lands in a write-ahead journal and device images are
// checkpointed atomically at slice boundaries, so a host crash, power
// cut, or Ctrl-C at ANY point is recoverable with ResumeCampaign — and
// the resumed outcome is bit-identical to an uninterrupted run. A
// directory that already holds a journal is refused.
func RunCampaign(ctx context.Context, dir string, spec CampaignSpec, opts CampaignOptions) (*CampaignResult, error) {
	return campaign.Run(ctx, dir, spec, opts)
}

// ResumeCampaign re-enters a crashed campaign: it replays the journal
// (verifying the schedule digest), rebuilds every carrier from its
// latest checkpoint, skips completed slices, and drives the rest.
// Resuming a finished campaign just returns its sealed result.
func ResumeCampaign(ctx context.Context, dir string, opts CampaignOptions) (*CampaignResult, error) {
	return campaign.Resume(ctx, dir, opts)
}

// DecodeCampaign reloads a finished campaign's final device images and
// gathers the message back — the receiving party's side, driven purely
// from the campaign directory plus the pre-shared key.
func DecodeCampaign(ctx context.Context, dir string, key *Key) ([]byte, error) {
	return campaign.DecodeResult(ctx, dir, key)
}

// --- multi-tenant scheduling ----------------------------------------------------

type (
	// Scheduler multiplexes many tenants' campaigns over one shared
	// chamber, batching compatible stress slices into shared passes and
	// journaling every decision for crash-safe resume.
	Scheduler = sched.Scheduler
	// SchedulerConfig tunes admission (quotas, queue depth), batching,
	// and fault handling for a Scheduler.
	SchedulerConfig = sched.Config
	// SchedulerQuota bounds one tenant's slice of the shared pool.
	SchedulerQuota = sched.Quota
	// CampaignSubmission is one tenant's campaign plus its spare
	// carriers.
	CampaignSubmission = sched.Submission
	// SchedulerStatus is a point-in-time snapshot: chamber economics,
	// per-tenant counters, latency percentiles.
	SchedulerStatus = sched.Status
)

// Scheduler admission rejections, for errors.Is retry policy.
var (
	ErrSchedulerQuota     = sched.ErrQuotaExceeded
	ErrSchedulerSaturated = sched.ErrSaturated
	ErrSchedulerDraining  = sched.ErrDraining
)

// NewScheduler starts a multi-tenant campaign scheduler in dir. Every
// admission, batch assignment, and slice of progress is journaled;
// killing the process at any point and calling ResumeScheduler on the
// same directory continues every campaign bit-identically.
func NewScheduler(dir string, cfg SchedulerConfig) (*Scheduler, error) {
	return sched.New(dir, cfg)
}

// ResumeScheduler re-enters a crashed (or stopped) scheduler: the
// journal is replayed, every spec re-verified against its digest, every
// in-flight slot rebuilt from its latest durable checkpoint.
func ResumeScheduler(dir string, cfg SchedulerConfig) (*Scheduler, error) {
	return sched.Resume(dir, cfg)
}

// NewSchedulerServer wraps a scheduler in its net/http JSON facade —
// the service surface cmd/ibserve exposes.
func NewSchedulerServer(s *Scheduler) http.Handler { return sched.NewServer(s) }
