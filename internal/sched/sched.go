// Package sched is campaign-as-a-service: a long-running, multi-tenant
// scheduler that multiplexes thousands of concurrent imprint campaigns
// over one shared thermal-chamber pool on the simulated clock. The
// paper's economics rest on a single chamber amortized across many
// boards; sched is where that amortization becomes policy:
//
//   - admission control — per-tenant quotas (campaigns, devices,
//     chamber-hours) with typed rejections and a bounded queue that
//     applies backpressure instead of buffering without limit;
//   - cross-campaign batching — campaigns whose schedules share a
//     (V, T) operating point and slice quantum ride one chamber pass
//     together, with a starvation guard so a deferred tenant's slices
//     eventually run unbatched;
//   - whole-scheduler crash safety — one write-ahead journal (wal)
//     records the tenant table, every admission, every batch
//     assignment, and every slot transition, so killing the service at
//     ANY append resumes every in-flight campaign bit-identically;
//   - graceful degradation — mid-batch faults re-route the affected
//     campaign through the circuit breakers (spare carriers) or fail
//     it with a typed, per-tenant error while unaffected tenants
//     proceed.
//
// Carrier-agnosticism comes free: the scheduler only speaks
// device.Model operating points and Spec schedules, so any catalog
// entry — SRAM today, other drift-capable memories tomorrow — batches
// by its own (V, T).
//
// It is also the only campaign engine: a standalone campaign
// (RunCampaign, ResumeCampaign) is a one-tenant scheduler whose state
// directory is the campaign directory itself (standalone.go).
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/fleet"
	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/storage"
	"invisiblebits/internal/wal"
)

// Typed admission rejections. Submit's contract is that every refusal
// is classifiable with errors.Is — an HTTP layer maps them to status
// codes, a fleet client maps them to retry policy.
var (
	// ErrQuotaExceeded rejects a submission that would push its tenant
	// over a quota bound (campaigns, devices, or chamber-hours).
	ErrQuotaExceeded = errors.New("sched: tenant quota exceeded")
	// ErrSaturated rejects a submission because the scheduler's bounded
	// queue is full — the backpressure signal: retry later, the
	// scheduler will not buffer unboundedly.
	ErrSaturated = errors.New("sched: submission queue saturated")
	// ErrDraining rejects a submission because the scheduler is
	// draining: in-flight campaigns finish, nothing new is admitted.
	ErrDraining = errors.New("sched: scheduler draining")
	// ErrDuplicateCampaign rejects a campaign ID the scheduler has
	// already accepted (including finished ones — their directories and
	// journal records persist).
	ErrDuplicateCampaign = errors.New("sched: campaign ID already submitted")
	// ErrSerialInUse rejects a submission naming a carrier serial some
	// other campaign already owns — two campaigns imprinting the same
	// physical board would destroy both messages.
	ErrSerialInUse = errors.New("sched: carrier serial already in use")
	// ErrStopped rejects an operation because Stop was called: this
	// incarnation is shutting down at the next pass boundary. Unlike a
	// drain, in-flight campaigns are NOT finished first — they resume
	// bit-identically in the next incarnation, so clients should retry.
	ErrStopped = errors.New("sched: scheduler stopped")
	// ErrSchedulerDown rejects an operation because the scheduling loop
	// died on a fatal journal failure. The wrapped cause is attached;
	// a supervisor restart (Resume) clears it, so clients may retry.
	ErrSchedulerDown = errors.New("sched: scheduler is dead")
	// ErrRateLimited is the HTTP layer's per-tenant token-bucket
	// rejection (the scheduler itself never returns it; it lives here so
	// server and client share one typed vocabulary).
	ErrRateLimited = errors.New("sched: tenant rate limit exceeded")
)

// Scheduler defaults.
const (
	DefaultChamberSlots = 16
	DefaultSetupHours   = 0.5
	DefaultMaxQueued    = 1024
	DefaultStarveLimit  = 8
	// DefaultMaxBarrenPasses terminates a campaign that keeps taking
	// chamber passes without any slot making durable progress — a
	// perpetually flaky fleet must not hold its queue position forever.
	DefaultMaxBarrenPasses = 25
)

const (
	journalFile  = "journal.jsonl"
	campaignsDir = "campaigns"
)

// Submission is one tenant's campaign request.
type Submission struct {
	// Tenant names the quota owner.
	Tenant string `json:"tenant"`
	// Spec is the campaign schedule: model, serials, message, codec,
	// slice/checkpoint cadence.
	Spec Spec `json:"spec"`
	// Spares lists reserve serials the scheduler may re-route slots to
	// when a carrier dies or its breaker writes it off.
	Spares []string `json:"spares,omitempty"`
}

// Config parameterizes a scheduler. The zero value selects defaults.
type Config struct {
	// ChamberSlots is the board capacity of one chamber pass; 0 means
	// DefaultChamberSlots.
	ChamberSlots int
	// SetupHours is the chamber re-targeting cost charged when a pass
	// runs at a different (V, T) than its predecessor; 0 means
	// DefaultSetupHours, negative means free re-targeting.
	SetupHours float64
	// MaxQueued bounds the scheduler's non-terminal campaigns; Submits
	// beyond it are rejected with ErrSaturated. 0 means
	// DefaultMaxQueued.
	MaxQueued int
	// DefaultQuota applies to tenants without an entry in Quotas. Zero
	// fields are unlimited.
	DefaultQuota Quota
	// Quotas are per-tenant overrides, fixed at the tenant's first
	// admission (journaled; a resumed scheduler keeps the journaled
	// quota for known tenants).
	Quotas map[string]Quota
	// DisableBatching schedules one campaign per pass — the control arm
	// of the batching benchmark.
	DisableBatching bool
	// StarveLimit is the number of passes a runnable campaign may be
	// passed over before it is promoted to batch lead — the chamber
	// adopts ITS operating point (alone if no compatible peer exists).
	// 0 means DefaultStarveLimit.
	StarveLimit int
	// MaxBarrenPasses terminates a campaign after this many consecutive
	// passes without durable progress; 0 means DefaultMaxBarrenPasses.
	MaxBarrenPasses int
	// KeyFor supplies the encryption key for a campaign (nil, or a nil
	// return, encodes unencrypted). Keys live only in memory — a
	// resumed scheduler must be handed the same function.
	KeyFor func(tenant, campaignID string) *stegocrypt.Key
	// InjectorFor mounts a fault injector on the carrier with the given
	// serial (nil, or a nil return, for clean rigs). Deterministic
	// injectors keep resumed runs bit-identical.
	InjectorFor func(serial string) faults.Injector
	// Breakers is the shared circuit-breaker set gating every slot
	// operation; nil disables breaker enforcement.
	Breakers *fleet.BreakerSet
	// Hook is the crash-test kill-point hook consulted at every journal
	// append and image/result write. Nil in production.
	Hook faults.Hook
	// FS is the filesystem seam for every durable artifact (journal,
	// specs, images, results). Nil means the real OS filesystem;
	// fault-injection tests substitute a storage.FaultFS.
	FS storage.FS
}

func (c Config) chamberSlots() int {
	if c.ChamberSlots <= 0 {
		return DefaultChamberSlots
	}
	return c.ChamberSlots
}

func (c Config) setupHours() float64 {
	if c.SetupHours == 0 {
		return DefaultSetupHours
	}
	if c.SetupHours < 0 {
		return 0
	}
	return c.SetupHours
}

func (c Config) maxQueued() int {
	if c.MaxQueued <= 0 {
		return DefaultMaxQueued
	}
	return c.MaxQueued
}

func (c Config) starveLimit() int {
	if c.StarveLimit <= 0 {
		return DefaultStarveLimit
	}
	return c.StarveLimit
}

func (c Config) maxBarrenPasses() int {
	if c.MaxBarrenPasses <= 0 {
		return DefaultMaxBarrenPasses
	}
	return c.MaxBarrenPasses
}

func (c Config) quotaFor(tenant string) Quota {
	if q, ok := c.Quotas[tenant]; ok {
		return q
	}
	return c.DefaultQuota
}

func (c Config) keyFor(tenant, id string) *stegocrypt.Key {
	if c.KeyFor == nil {
		return nil
	}
	return c.KeyFor(tenant, id)
}

// slotState is one campaign slot's in-memory side: its rig and session
// and how far they have soaked. Everything durable about the slot lives
// in rep, its replay. During a pass the slot, rep included, belongs to
// its worker goroutine; between passes it belongs to the scheduler loop.
type slotState struct {
	rep *SlotReplay
	seg []byte // message segment (nil for zero-width slots)

	rig  *rig.Rig
	sess *core.EncodeSession

	// prepared and applied are the live soak position. After an
	// in-memory rebuild from a checkpoint the slot re-runs slices the
	// journal already holds, and re-appending them would rewind the
	// replay stream — so appends stay suppressed until the live position
	// passes the stream's cursor, rep.Prepared and rep.Applied, again.
	prepared   bool
	applied    float64
	sliceCount int
}

func (sl *slotState) live() bool     { return len(sl.seg) > 0 }
func (sl *slotState) finished() bool { return !sl.live() || sl.rep.Record != nil }

// campState is one campaign's live scheduling state: its replay, rep,
// plus what the journal cannot hold — the spec and what derives from
// it, the slots' in-memory side, and the loop's fairness counters.
type campState struct {
	id    string
	rep   *CampaignReplay
	spec  Spec
	model device.Model
	opts  core.Options
	segs  []int
	slots []*slotState
	dir   string

	deferrals int
	barren    int

	// applied is the soak hours the slots had absorbed when the loop
	// last folded a pass in. Pass workers write slot state without
	// taking s.mu, so Campaign reports this published figure and never
	// reads the slots.
	applied float64
}

func (c *campState) terminal() bool { return c.rep.Terminal() }

// serial is the carrier slot i runs on: the spec's, or the spare its
// last reroute moved it to.
func (c *campState) serial(i int) string {
	if ser := c.slots[i].rep.Serial; ser != "" {
		return ser
	}
	return c.spec.Serials[i]
}

// publishProgress sums the slots' soak positions into c.applied. Call
// it with s.mu held while no pass is running: the loop owns the slots
// then.
func (c *campState) publishProgress() {
	total := estChamberHours(c.spec, c.model)
	c.applied = 0
	for _, sl := range c.slots {
		switch {
		case !sl.live():
		case sl.rep.Record != nil:
			c.applied += total
		default:
			c.applied += sl.applied
		}
	}
}

func (c *campState) runnable() bool {
	if c.terminal() {
		return false
	}
	for _, sl := range c.slots {
		if !sl.finished() {
			return true
		}
	}
	return false
}

// complete reports whether every live slot minted its record.
func (c *campState) complete() bool {
	for _, sl := range c.slots {
		if !sl.finished() {
			return false
		}
	}
	return true
}

// Scheduler is the multi-tenant campaign scheduler. All methods are
// safe for concurrent use.
type Scheduler struct {
	cfg  Config
	dir  string
	j    *wal.Journal
	fsys storage.FS

	// salvage is the degraded-resume report; nil for a fresh scheduler,
	// non-nil (possibly clean) after Resume.
	salvage *ResumeSummary
	// standalone marks a one-tenant run (RunCampaign, ResumeCampaign):
	// its campaign directory is dir itself, and a campaign whose spec is
	// unrecoverable fails the resume instead of being quarantined.
	standalone bool

	mu   sync.Mutex
	cond *sync.Cond

	// st is the scheduler's durable state: the replay of its journal,
	// kept current by applying each record right after its append
	// fsyncs. A slot's own records are applied by the worker that owns
	// the slot, to the SlotReplay it holds; every other record under mu.
	st *State
	// camps holds the campaigns whose spec was accepted; a quarantined
	// campaign has none.
	camps   map[string]*campState
	queue   []string          // non-terminal campaign IDs, admission order
	serials map[string]string // serial → owning campaign, never released

	// passWallSecs is an EWMA of the measured wall-clock duration of one
	// chamber pass — the basis for load-aware Retry-After hints.
	passWallSecs float64

	stopping bool
	fatal    error
	done     chan struct{}
}

// New starts a fresh scheduler rooted at dir: opens a new journal and
// launches the scheduling loop. A directory that already holds a
// journal is refused — that scheduler's truth is on disk, and Resume is
// the only safe way back in.
func New(dir string, cfg Config) (*Scheduler, error) {
	if err := storage.Default(cfg.FS).MkdirAll(filepath.Join(dir, campaignsDir), 0o755); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	j, err := wal.Create(filepath.Join(dir, journalFile), wal.Options{Hook: cfg.Hook, FS: cfg.FS})
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("sched: %s already holds a journal; use Resume: %w", dir, err)
		}
		return nil, err
	}
	s := newScheduler(dir, cfg, j)
	go s.loop()
	return s, nil
}

func newScheduler(dir string, cfg Config, j *wal.Journal) *Scheduler {
	s := &Scheduler{
		cfg:     cfg,
		dir:     dir,
		j:       j,
		fsys:    storage.Default(cfg.FS),
		st:      newState(),
		camps:   map[string]*campState{},
		serials: map[string]string{},
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// ResumeSummary reports what a degraded scheduler resume had to give up
// on — the typed outcome operators see (startup log, /status) instead of
// a silent recovery. All fields zero/empty means the resume was clean.
type ResumeSummary struct {
	// JournalRecords is how many journal records were replayed.
	JournalRecords int `json:"journal_records"`
	// DroppedRecords is how many structurally-parsed records were
	// discarded because replay validation rejected them (corrupt
	// suffix); DroppedBytes counts all journal bytes cut, including
	// unparseable ones.
	DroppedRecords int   `json:"dropped_records,omitempty"`
	DroppedBytes   int64 `json:"dropped_bytes,omitempty"`
	// TornTail reports the benign signature of dying mid-append, as
	// opposed to mid-file corruption.
	TornTail bool `json:"torn_tail,omitempty"`
	// Reason says why the journal was cut ("" when it was not).
	Reason string `json:"reason,omitempty"`
	// Quarantined lists campaigns parked because their on-disk state was
	// unrecoverable (spec.json lost, corrupt, or digest-mismatched).
	// Every other campaign resumed normally.
	Quarantined []string `json:"quarantined,omitempty"`
	// BadCheckpoints lists checkpoint images that failed verification
	// and were struck from history (ckptbad records appended); the slot
	// fell back to an older generation or a scratch rebuild.
	BadCheckpoints []string `json:"bad_checkpoints,omitempty"`
	// TempFilesSwept lists stale safe-save temp files removed on entry.
	TempFilesSwept []string `json:"temp_files_swept,omitempty"`
}

// Degraded reports whether the resume had to salvage anything.
func (s *ResumeSummary) Degraded() bool {
	return s != nil && (s.DroppedBytes > 0 || len(s.Quarantined) > 0 || len(s.BadCheckpoints) > 0)
}

// Salvage returns the degraded-resume report: nil for a scheduler
// started with New, non-nil (possibly clean) for a resumed one.
func (s *Scheduler) Salvage() *ResumeSummary { return s.salvage }

// Resume re-enters a crashed (or cleanly stopped) scheduler: it replays
// the journal, re-validates every campaign's spec.json against its
// journaled schedule digest, rebuilds every in-flight slot from its
// newest *verified* durable checkpoint, and continues scheduling.
// Campaigns whose slots never reached a checkpoint restart those slots
// from scratch, deterministically.
//
// Storage damage that fail-closed replay would brick on is survived
// instead: a corrupt journal suffix is cut at the last verifiable record
// (safe — every slice of lost work is deterministically redone), a
// checkpoint image that fails its seal is struck with a durable ckptbad
// record and the slot falls back to the previous generation, stale
// safe-save temp files are swept, and a campaign whose spec.json is
// lost, corrupt, or digest-mismatched — the one genuinely unrecoverable
// state, since the spec holds the message itself — is quarantined with a
// durable record while every other tenant resumes bit-identically.
// Salvage() reports each of those decisions.
func Resume(dir string, cfg Config) (*Scheduler, error) {
	s, err := resume(dir, cfg, false)
	if err != nil {
		return nil, err
	}
	go s.loop()
	return s, nil
}

// resume rebuilds a scheduler from dir's journal without starting its
// loop.
func resume(dir string, cfg Config, standalone bool) (*Scheduler, error) {
	fsys := storage.Default(cfg.FS)
	sum := &ResumeSummary{}
	swept, err := ioatomic.SweepTemps(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	sum.TempFilesSwept = swept
	croot := filepath.Join(dir, campaignsDir)
	if ents, derr := fsys.ReadDir(croot); derr == nil {
		for _, ent := range ents {
			if !ent.IsDir() {
				continue
			}
			swept, err := ioatomic.SweepTemps(fsys, filepath.Join(croot, ent.Name()))
			if err != nil {
				return nil, fmt.Errorf("sched: %w", err)
			}
			sum.TempFilesSwept = append(sum.TempFilesSwept, swept...)
		}
	}

	path := filepath.Join(dir, journalFile)
	entries, sal, err := ReadJournalSalvage(cfg.FS, path)
	if err != nil {
		return nil, err
	}
	sum.DroppedBytes = sal.DroppedBytes
	sum.TornTail = sal.TornTail
	sum.Reason = sal.Reason
	st, used, replayErr := ReplaySalvage(entries)
	validLen := sal.ValidLen
	if used < len(entries) {
		// Structural corruption past the CRC layer: cut at the last
		// record replay accepted.
		sum.DroppedRecords = len(entries) - used
		sum.DroppedBytes += sal.ValidLen - offsetOf(sal, used)
		sum.TornTail = false
		if replayErr != nil {
			sum.Reason = replayErr.Error()
		}
		validLen = offsetOf(sal, used)
	}
	sum.JournalRecords = used

	j, err := wal.Open(path, wal.Options{Hook: cfg.Hook, FS: cfg.FS}, used, validLen)
	if err != nil {
		return nil, err
	}
	s := newScheduler(dir, cfg, j)
	s.salvage = sum
	s.standalone = standalone
	s.st = st
	// fail closes the journal on a failed resume.
	fail := func(err error) (*Scheduler, error) {
		j.Close()
		return nil, err
	}

	for _, id := range st.Order {
		cr := st.Campaigns[id]
		if !cr.Quarantined {
			c, err := s.rebuildCampaign(id, cr)
			switch {
			case err == nil:
				s.camps[id] = c
			case standalone:
				// The campaign's own state is unrecoverable — the spec
				// holds the message itself, which no amount of determinism
				// can reconstruct. A standalone run has nothing else to
				// resume, so it fails without appending anything.
				return fail(err)
			default:
				// A scheduler parks the campaign durably and every other
				// tenant resumes.
				if aerr := s.append(&Entry{
					Type: entryQuarantined, Campaign: id,
					Error: err.Error(), AtHours: st.ChamberHours, Slot: -1,
				}); aerr != nil {
					return fail(aerr)
				}
				sum.Quarantined = append(sum.Quarantined, id)
			}
		}
		if !cr.Terminal() {
			s.queue = append(s.queue, id)
		}
		// Every serial the campaign ever touched stays reserved: the
		// spec's originals, the remaining spares, and any spare a reroute
		// already consumed (now a slot's live serial). A quarantined
		// campaign's originals are unknowable (the spec is gone) — the
		// journal-known serials stay reserved, and the duplicate-ID check
		// keeps the campaign itself from being resubmitted.
		if c := s.camps[id]; c != nil {
			for _, ser := range c.spec.Serials {
				s.serials[ser] = id
			}
		}
		for _, ser := range cr.Spares {
			s.serials[ser] = id
		}
		for _, sr := range cr.Slots {
			if sr.Serial != "" {
				s.serials[sr.Serial] = id
			}
		}
	}

	// Verify every live slot's checkpoint generations, newest first,
	// striking unloadable images with durable ckptbad records BEFORE the
	// resume record — replay's rewind must agree with the generation the
	// next pass actually bootstraps from.
	for _, id := range s.queue {
		c := s.camps[id]
		for i, sl := range c.slots {
			if sl.rep.Record != nil {
				continue
			}
			for n := len(sl.rep.Ckpts); n > 0; n = len(sl.rep.Ckpts) {
				ck := sl.rep.Ckpts[n-1]
				if _, lerr := device.LoadFileFS(s.fsys, filepath.Join(c.dir, ck.Image)); lerr == nil {
					break
				}
				if aerr := s.append(&Entry{Type: entryCkptBad, Campaign: id, Slot: i, Image: ck.Image}); aerr != nil {
					return fail(aerr)
				}
				sum.BadCheckpoints = append(sum.BadCheckpoints, ck.Image)
			}
		}
	}

	// A standalone directory with nothing in flight gets no resume
	// record: its campaign is either finished or not yet submitted.
	if used > 0 && (!standalone || len(s.queue) > 0) {
		if err := s.append(&Entry{Type: entryResume, Slot: -1}); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// offsetOf returns the byte offset just past record used-1 (0 when
// nothing was used).
func offsetOf(sal wal.Salvage, used int) int64 {
	if used == 0 {
		return 0
	}
	if used-1 < len(sal.Offsets) {
		return sal.Offsets[used-1]
	}
	return sal.ValidLen
}

// campaignDir is where campaign id keeps its spec, images and result:
// campaigns/<id> under a scheduler, the state directory itself in a
// standalone run.
func (s *Scheduler) campaignDir(id string) string {
	if s.standalone {
		return s.dir
	}
	return filepath.Join(s.dir, campaignsDir, id)
}

// rebuildCampaign rebuilds the in-memory side of a replayed campaign
// from its spec.json, which must still reproduce the journaled schedule.
func (s *Scheduler) rebuildCampaign(id string, cr *CampaignReplay) (*campState, error) {
	spec, err := AcceptSpec(s.fsys, s.campaignDir(id), id, cr)
	if err != nil {
		return nil, err
	}
	c, err := s.newCampaign(cr.Tenant, spec)
	if err != nil {
		return nil, err
	}
	c.bind(cr)
	c.publishProgress()
	return c, nil
}

// newCampaign assembles a campaign's in-memory side: codec, key, segment
// layout, one slot per serial. It is bound to its replay once the
// submit record is applied.
func (s *Scheduler) newCampaign(tenant string, spec Spec) (*campState, error) {
	model, err := device.ByName(spec.Model)
	if err != nil {
		return nil, err
	}
	codec, err := spec.codec()
	if err != nil {
		return nil, err
	}
	segs, err := spec.segments(model)
	if err != nil {
		return nil, err
	}
	c := &campState{
		id:    spec.ID,
		spec:  spec,
		model: model,
		opts: core.Options{
			Codec:       codec,
			Key:         s.cfg.keyFor(tenant, spec.ID),
			StressHours: spec.StressHours,
			Captures:    spec.Captures,
		},
		segs: segs,
		dir:  s.campaignDir(spec.ID),
	}
	off := 0
	for i := range spec.Serials {
		sl := &slotState{}
		if segs[i] > 0 {
			sl.seg = spec.Message[off : off+segs[i]]
			off += segs[i]
		}
		c.slots = append(c.slots, sl)
	}
	return c, nil
}

// bind attaches c and its slots to the campaign's replay.
func (c *campState) bind(cr *CampaignReplay) {
	c.rep = cr
	for i, sl := range c.slots {
		sl.rep = &cr.Slots[i]
	}
}

// estChamberHours is the admission-time chamber budget estimate: the
// campaign occupies the chamber for its soak length regardless of how
// many boards ride each pass.
func estChamberHours(spec Spec, model device.Model) float64 {
	if spec.StressHours > 0 {
		return spec.StressHours
	}
	return model.EncodingHours
}

// Submit admits a campaign or rejects it with a typed error:
// ErrDraining, ErrSaturated (queue backpressure), ErrQuotaExceeded,
// ErrDuplicateCampaign, ErrSerialInUse, or a spec validation error.
// Admission is durable when Submit returns nil: spec.json is written
// and the submit record is fsynced before the scheduler acts on it.
func (s *Scheduler) Submit(sub Submission) error {
	if sub.Tenant == "" {
		return errors.New("sched: submission without a tenant")
	}
	spec := sub.Spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return err
	}
	model, err := device.ByName(spec.Model)
	if err != nil {
		return err
	}
	if len(spec.Serials) > s.cfg.chamberSlots() {
		return fmt.Errorf("sched: campaign %q needs %d boards, chamber passes hold %d", spec.ID, len(spec.Serials), s.cfg.chamberSlots())
	}
	seen := map[string]bool{}
	for _, ser := range spec.Serials {
		seen[ser] = true
	}
	for _, sp := range sub.Spares {
		if sp == "" || seen[sp] {
			return fmt.Errorf("sched: campaign %q: duplicate or empty spare serial %q", spec.ID, sp)
		}
		seen[sp] = true
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return fmt.Errorf("%w: %v", ErrSchedulerDown, s.fatal)
	}
	if s.stopping {
		return ErrStopped
	}
	if s.st.Draining {
		return ErrDraining
	}
	if len(s.queue) >= s.cfg.maxQueued() {
		return fmt.Errorf("%w: %d campaigns queued", ErrSaturated, len(s.queue))
	}
	if _, dup := s.st.Campaigns[spec.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateCampaign, spec.ID)
	}
	for ser := range seen {
		if owner, used := s.serials[ser]; used {
			return fmt.Errorf("%w: %q belongs to campaign %q", ErrSerialInUse, ser, owner)
		}
	}

	est := estChamberHours(spec, model)
	devs := len(spec.Serials) + len(sub.Spares)
	t, known := s.st.Tenants[sub.Tenant]
	if !known {
		t = &TenantStatus{Quota: s.cfg.quotaFor(sub.Tenant)}
	}
	quota := t.Quota
	if quota.MaxCampaigns > 0 && t.Active+1 > quota.MaxCampaigns {
		return fmt.Errorf("%w: tenant %q at %d/%d campaigns", ErrQuotaExceeded, sub.Tenant, t.Active, quota.MaxCampaigns)
	}
	if quota.MaxDevices > 0 && t.Devices+devs > quota.MaxDevices {
		return fmt.Errorf("%w: tenant %q would hold %d/%d devices", ErrQuotaExceeded, sub.Tenant, t.Devices+devs, quota.MaxDevices)
	}
	if quota.MaxChamberHours > 0 && t.CommittedHours+est > quota.MaxChamberHours {
		return fmt.Errorf("%w: tenant %q would commit %.1f/%.1f chamber-hours", ErrQuotaExceeded, sub.Tenant, t.CommittedHours+est, quota.MaxChamberHours)
	}

	// The stripe layout is the last check; it also builds the campaign.
	c, err := s.newCampaign(sub.Tenant, spec)
	if err != nil {
		return err
	}

	// Admission is now certain barring durability failure. Journal the
	// tenant first (its quota is immutable from here), then make the
	// spec durable, then the submit record that makes it all count.
	if !known {
		if err := s.append(&Entry{Type: entryTenant, Tenant: sub.Tenant, Quota: &quota, Slot: -1}); err != nil {
			return err
		}
	}
	if err := s.fsys.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	if err := s.gate("spec/" + spec.ID); err != nil {
		return err
	}
	if err := writeSpec(s.fsys, c.dir, spec); err != nil {
		err = fmt.Errorf("%w: persist spec for %q: %w", wal.ErrJournalIO, spec.ID, err)
		s.noteFatalLocked(err)
		return err
	}
	if err := s.append(&Entry{
		Type: entrySubmit, Tenant: sub.Tenant, Campaign: spec.ID,
		Digest: spec.ScheduleDigest(), Slots: len(spec.Serials),
		Spares: sub.Spares, EstHours: est, AtHours: s.st.ChamberHours, Slot: -1,
	}); err != nil {
		return err
	}
	c.bind(s.st.Campaigns[spec.ID])
	s.camps[spec.ID] = c
	s.queue = append(s.queue, spec.ID)
	for ser := range seen {
		s.serials[ser] = spec.ID
	}
	s.cond.Broadcast()
	return nil
}

// errDiverged marks a record the journal took but replay rejects: the
// live state no longer matches the journal, so the incarnation stops
// before it acts on the difference, as on a journal I/O failure.
var errDiverged = errors.New("sched: live state diverged from the journal")

// diverged wraps a replay rejection of a record just appended.
func diverged(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errDiverged, err)
}

// append journals a record and applies it to s.st, holding s.mu (or
// before the loop starts). Failures of either are fatal to the whole
// scheduler (fail closed).
func (s *Scheduler) append(e *Entry) error {
	err := s.j.Append(e)
	if err == nil {
		err = diverged(s.st.apply(e))
	}
	if err != nil {
		s.noteFatalLocked(err)
	}
	return err
}

// gate consults the kill hook at a named non-journal point while
// holding s.mu.
func (s *Scheduler) gate(point string) error {
	if err := s.j.Gate(point); err != nil {
		s.noteFatalLocked(err)
		return err
	}
	return nil
}

func (s *Scheduler) noteFatalLocked(err error) {
	if s.fatal == nil {
		s.fatal = err
	}
	s.cond.Broadcast()
}

// Drain stops admission for this incarnation — durably, so replay can
// enforce that no submit follows it — and blocks until every in-flight
// campaign reaches a terminal state, the context is cancelled, or the
// scheduler dies. Draining does not survive Resume: a crash mid-drain
// leaves the next incarnation open for business, in-flight campaigns
// intact.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	err := s.drainLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.wait(ctx)
}

// drainLocked journals the drain record (once per incarnation) and
// closes admission.
func (s *Scheduler) drainLocked() error {
	if s.fatal != nil {
		return s.fatal
	}
	if s.stopping {
		return ErrStopped
	}
	if !s.st.Draining {
		if err := s.append(&Entry{Type: entryDrain, AtHours: s.st.ChamberHours, Slot: -1}); err != nil {
			return err
		}
		s.cond.Broadcast()
	}
	return nil
}

// Stop halts the scheduling loop at the next pass boundary WITHOUT
// draining: in-flight campaigns keep every durable record they have
// earned, the journal is closed cleanly, and a subsequent Resume of the
// same directory continues them bit-identically — this is the graceful
// SIGTERM path, where "graceful" means "indistinguishable from having
// never been interrupted", not "wait 4.2 days for the soak to finish".
// Stop blocks until the loop has exited (any in-flight pass completes
// and folds its outcomes in first), the context expires, or the
// scheduler dies. Stopping is terminal for this incarnation: Submit and
// Drain return ErrStopped from the moment Stop is called.
func (s *Scheduler) Stop(ctx context.Context) error {
	s.mu.Lock()
	if s.fatal != nil {
		err := s.fatal
		s.mu.Unlock()
		return err
	}
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return s.wait(ctx)
}

// wait blocks until the scheduling loop exits or ctx ends, and returns
// the fatal error, if any, that ended the loop.
func (s *Scheduler) wait(ctx context.Context) error {
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal
}

// RetryAfterHint estimates how long a rejected client should wait
// before retrying, from the live queue depth and the measured
// wall-clock pass cadence: roughly the passes needed to turn the queue
// over once, clamped to [1s, 5m]. Before any pass has completed the
// hint is the 1s floor — better to invite an early retry than to park
// clients on a made-up constant.
func (s *Scheduler) RetryAfterHint() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	per := s.passWallSecs
	if per <= 0 {
		return time.Second
	}
	passes := (len(s.queue) + s.cfg.chamberSlots() - 1) / s.cfg.chamberSlots()
	if passes < 1 {
		passes = 1
	}
	d := time.Duration(per * float64(passes) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// CampaignDigest returns the schedule digest of an admitted campaign —
// the idempotency token: a client whose submission's response was lost
// retries, receives ErrDuplicateCampaign with this digest attached, and
// treats a match as proof its own submission is the one that landed.
func (s *Scheduler) CampaignDigest(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.st.Campaigns[id]
	if !ok || c.Quarantined {
		// A quarantined campaign's spec is unrecoverable; no digest can
		// vouch for it, so a retried submit reports a real conflict.
		return "", false
	}
	return c.Digest, true
}

// Done is closed when the scheduling loop exits: after a completed
// drain, a graceful Stop, or on a fatal journal failure (see Err).
func (s *Scheduler) Done() <-chan struct{} { return s.done }

// Err returns the fatal error that killed the scheduler, if any.
func (s *Scheduler) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal
}

// loop is the scheduling loop: wait for runnable work, plan one chamber
// pass, execute it, apply the outcomes, repeat. It exits when draining
// completes, Stop is called (at a pass boundary — never mid-pass), or
// the journal fails.
func (s *Scheduler) loop() {
	defer close(s.done)
	defer s.j.Close()
	for {
		s.mu.Lock()
		plan := s.nextPassLocked()
		s.mu.Unlock()
		if plan == nil {
			return
		}
		s.runPass(plan)
	}
}

// nextPassLocked waits until a pass can be planned, commits it and
// returns it; nil means the loop must exit.
func (s *Scheduler) nextPassLocked() *passPlan {
	for {
		if s.fatal != nil || s.stopping {
			return nil
		}
		s.completeFinishedLocked()
		if s.fatal != nil {
			return nil
		}
		if plan := s.planPassLocked(); plan != nil {
			if s.commitPassLocked(plan) != nil {
				return nil
			}
			return plan
		}
		if s.st.Draining && len(s.queue) == 0 {
			return nil
		}
		s.cond.Wait()
	}
}

// runPass executes a committed pass and folds its outcomes in.
func (s *Scheduler) runPass(plan *passPlan) {
	start := time.Now()
	s.executePass(plan)
	wall := time.Since(start).Seconds()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.passWallSecs <= 0 {
		s.passWallSecs = wall
	} else {
		s.passWallSecs = 0.8*s.passWallSecs + 0.2*wall
	}
	s.applyPassLocked(plan)
}

// completeFinishedLocked seals queued campaigns with no slot work left.
// Normally completion happens in applyPassLocked right after the
// finishing pass, but a campaign resumed from a crash that landed
// between its last encoded record and its done record arrives here
// already finished — no pass will ever carry it, so the loop sweeps
// for it before planning.
func (s *Scheduler) completeFinishedLocked() {
	for _, id := range append([]string(nil), s.queue...) {
		c := s.camps[id]
		if !c.terminal() && c.complete() {
			s.completeCampaignLocked(c)
			if s.fatal != nil {
				return
			}
		}
	}
}

// Status is a point-in-time snapshot of the scheduler.
type Status struct {
	ChamberHours  float64 `json:"chamber_hours"`
	Passes        int     `json:"passes"`
	Setups        int     `json:"setups"`
	BatchedSlices int     `json:"batched_slices"`

	Active int `json:"active"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// Quarantined counts campaigns parked by a degraded resume because
	// their on-disk state was unrecoverable.
	Quarantined int  `json:"quarantined,omitempty"`
	Drain       bool `json:"draining"`
	// Stopping reports a graceful Stop in progress (or completed): this
	// incarnation schedules no further passes; restart to resume.
	Stopping bool `json:"stopping,omitempty"`

	// Salvage is the degraded-resume report; nil for a fresh scheduler,
	// non-nil (possibly clean) after Resume.
	Salvage *ResumeSummary `json:"salvage,omitempty"`

	// CampaignsPerChamberHour is completed campaigns over elapsed
	// chamber hours — the throughput headline.
	CampaignsPerChamberHour float64 `json:"campaigns_per_chamber_hour"`
	// LatencyP50/P99 are completed-campaign latencies (submission to
	// done) in chamber hours.
	LatencyP50 float64 `json:"latency_p50_hours"`
	LatencyP99 float64 `json:"latency_p99_hours"`

	Tenants map[string]TenantStatus `json:"tenants,omitempty"`
}

// TenantStatus is one tenant's slice of the snapshot: its effective
// quota and campaign counts, as the journal's replay keeps them.
type TenantStatus struct {
	Quota          Quota   `json:"quota"`
	Active         int     `json:"active"`
	Devices        int     `json:"devices"`
	CommittedHours float64 `json:"committed_hours"`
	Done           int     `json:"done"`
	Failed         int     `json:"failed"`
	Quarantined    int     `json:"quarantined,omitempty"`
}

// CampaignStatus is one campaign's snapshot.
type CampaignStatus struct {
	Campaign string `json:"campaign"`
	Tenant   string `json:"tenant"`
	// State is "queued", "done", "failed", or "quarantined" ("queued"
	// covers both waiting and mid-soak — the queue IS the run state).
	State string `json:"state"`
	Error string `json:"error,omitempty"`

	Slots        int     `json:"slots"`
	AppliedHours float64 `json:"applied_hours"`
	TotalHours   float64 `json:"total_hours"`

	SubmittedAt  float64 `json:"submitted_at_hours"`
	DoneAt       float64 `json:"done_at_hours,omitempty"`
	LatencyHours float64 `json:"latency_hours,omitempty"`

	// Baselines are the per-slot fresh-capture margins probed at
	// completion — feed them to fleet.HealthSweepOptions.BaselineMargins
	// for calibrated maintenance sweeps.
	Baselines []float64 `json:"baselines,omitempty"`
}

// Status snapshots the scheduler.
func (s *Scheduler) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ChamberHours:  s.st.ChamberHours,
		Passes:        s.st.Passes,
		Setups:        s.st.Setups,
		BatchedSlices: s.st.BatchedSlices,
		Active:        len(s.queue),
		Drain:         s.st.Draining,
		Stopping:      s.stopping,
		Salvage:       s.salvage,
		Tenants:       make(map[string]TenantStatus, len(s.st.Tenants)),
	}
	for name, t := range s.st.Tenants {
		st.Done += t.Done
		st.Failed += t.Failed
		st.Quarantined += t.Quarantined
		st.Tenants[name] = *t
	}
	if s.st.ChamberHours > 0 {
		st.CampaignsPerChamberHour = float64(st.Done) / s.st.ChamberHours
	}
	var latencies []float64
	for _, c := range s.st.Campaigns {
		if c.Done && !c.Quarantined {
			latencies = append(latencies, c.DoneAt-c.SubmitAt)
		}
	}
	st.LatencyP50 = percentile(latencies, 0.50)
	st.LatencyP99 = percentile(latencies, 0.99)
	return st
}

// Campaign snapshots one campaign; ok is false for unknown IDs.
func (s *Scheduler) Campaign(id string) (CampaignStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cr, ok := s.st.Campaigns[id]
	if !ok {
		return CampaignStatus{}, false
	}
	cs := CampaignStatus{
		Campaign:    id,
		Tenant:      cr.Tenant,
		State:       "queued",
		Error:       cr.Error,
		SubmittedAt: cr.SubmitAt,
	}
	switch {
	case cr.Quarantined:
		cs.State = "quarantined"
	case cr.Done:
		cs.State = "done"
	case cr.Failed:
		cs.State = "failed"
	}
	if cr.Terminal() {
		cs.DoneAt = cr.DoneAt
		cs.LatencyHours = cr.DoneAt - cr.SubmitAt
	}
	// A quarantined campaign has no spec, so nothing below to report.
	c := s.camps[id]
	if c == nil {
		return cs, true
	}
	cs.Slots = len(c.slots)
	cs.Baselines = cr.Baselines
	total := estChamberHours(c.spec, c.model)
	for _, n := range c.segs {
		if n > 0 { // a live slot
			cs.TotalHours += total
		}
	}
	cs.AppliedHours = c.applied
	return cs, true
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
