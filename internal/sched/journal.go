package sched

import (
	"fmt"

	"invisiblebits/internal/core"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/storage"
	"invisiblebits/internal/wal"
)

// The scheduler journal is the write-ahead log of every campaign,
// standalone or scheduled: ONE journal records the tenant table, every
// admission, every batch (pass) assignment, and every per-slot phase
// transition of every in-flight campaign, interleaved. Killing the
// whole service at any append and resuming replays every campaign to a
// bit-identical outcome, because the same invariants hold at fleet
// scale that held for a single campaign:
//
//   - device identity is a pure function of (model, serial), so a slot
//     that never reached a checkpoint restarts from scratch
//     deterministically;
//   - aging composes over slice sequences and capture noise is
//     counter-derived from device state, so HOW slices were packed into
//     chamber passes cannot change any carrier's final image — batching
//     is a throughput decision, invisible to the physics;
//   - a record is acted on only after its append fsynced, so the disk
//     always holds a prefix of the truth.
//
// Per-slot records therefore validate per (campaign, slot) stream —
// monotonic progress, checkpoint consistency — while streams from
// different campaigns may interleave arbitrarily (concurrent slot
// goroutines race to the journal mutex). Global sequence numbers must
// still be gapless: a gap means a lost append, and replay fails closed.
const (
	entryTenant   = "tenant"   // tenant admitted to the table, with its effective quota
	entrySubmit   = "submit"   // campaign admitted: spec.json durable, queued
	entryResume   = "resume"   // a new scheduler process took over
	entryDrain    = "drain"    // drain initiated: no further admissions, ever
	entryPass     = "pass"     // chamber pass planned: members + operating point + quantum
	entryPrepared = "prepared" // slot payload written, conditions elevated
	entrySlice    = "slice"    // slot absorbed one stress slice
	entryCkpt     = "ckpt"     // slot image + rig state durably checkpointed
	entryCkptBad  = "ckptbad"  // a checkpoint image failed verification; struck from history
	entryEncoded  = "encoded"  // slot record minted, final image saved
	entryReroute  = "reroute"  // slot re-routed to a spare carrier, restarting from scratch
	entryDone     = "done"     // campaign sealed: result.json written
	entryFailed   = "failed"   // campaign terminally failed with a typed, per-tenant error
	// entryQuarantined marks a campaign whose on-disk state is
	// unrecoverable (spec.json lost, corrupt, or digest-mismatched — the
	// message itself is gone). A resuming scheduler appends it instead of
	// refusing to start: the affected campaign is terminally parked while
	// every other tenant resumes bit-identically.
	entryQuarantined = "quarantined"
)

// Quota bounds one tenant's slice of the shared pool. Zero fields are
// unlimited.
type Quota struct {
	// MaxCampaigns caps the tenant's concurrently admitted (non-terminal)
	// campaigns.
	MaxCampaigns int `json:"max_campaigns,omitempty"`
	// MaxDevices caps the carriers (serials + spares) the tenant's
	// non-terminal campaigns may hold at once.
	MaxDevices int `json:"max_devices,omitempty"`
	// MaxChamberHours caps the tenant's cumulative chamber-hour budget,
	// charged at admission from the schedule estimate.
	MaxChamberHours float64 `json:"max_chamber_hours,omitempty"`
}

// Entry is one scheduler journal record. Fields are a union over the
// record kinds; Slot is -1 for records that do not concern a slot.
type Entry struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`

	// Tenant names the quota owner (tenant and submit records).
	Tenant string `json:"tenant,omitempty"`
	// Quota is the tenant's effective quota at admission.
	Quota *Quota `json:"quota,omitempty"`

	// Campaign names the campaign the record concerns.
	Campaign string `json:"campaign,omitempty"`
	// Digest is the campaign's schedule digest (submit records); Resume
	// refuses a spec.json that no longer reproduces it.
	Digest string `json:"digest,omitempty"`
	// Slots is the stripe width (submit records).
	Slots int `json:"slots,omitempty"`
	// Spares lists the campaign's reserve serials (submit records).
	Spares []string `json:"spares,omitempty"`
	// EstHours is the chamber-hour estimate charged against the
	// tenant's budget at admission.
	EstHours float64 `json:"est_hours,omitempty"`

	// Members lists the campaigns coalesced into a pass; VAccV/TAccC/
	// Quantum/Setup describe the shared operating point, slice length,
	// and chamber re-targeting cost (pass records).
	Members []string `json:"members,omitempty"`
	VAccV   float64  `json:"v,omitempty"`
	TAccC   float64  `json:"t,omitempty"`
	Quantum float64  `json:"quantum,omitempty"`
	Setup   float64  `json:"setup,omitempty"`

	// AtHours is the shared chamber clock when the record was appended
	// (submit, pass, drain, done, failed) — the latency bookkeeping.
	AtHours float64 `json:"at_hours,omitempty"`

	// Slot-stream fields.
	Slot    int          `json:"slot"`
	Applied float64      `json:"applied_hours,omitempty"`
	Total   float64      `json:"total_hours,omitempty"`
	Image   string       `json:"image,omitempty"`
	Rig     *rig.State   `json:"rig,omitempty"`
	Record  *core.Record `json:"record,omitempty"`

	// From/To are the serial swap of a reroute record.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`

	// Error is the terminal failure (failed records).
	Error string `json:"error,omitempty"`
	// Baselines are the per-slot fresh-capture margins probed at
	// completion (done records) — the tenant's calibration points for
	// later health sweeps.
	Baselines []float64 `json:"baselines,omitempty"`
}

// Kind implements wal.Record.
func (e *Entry) Kind() string { return e.Type }

// SetSeq implements wal.Record.
func (e *Entry) SetSeq(seq int) { e.Seq = seq }

func entryOK(e *Entry) bool { return e.Type != "" }

// SlotCheckpoint is one durable checkpoint generation of a slot.
type SlotCheckpoint struct {
	Image   string
	Applied float64
	Rig     *rig.State
}

// SlotReplay is one slot's reconstructed position.
type SlotReplay struct {
	// Serial is the carrier the slot currently runs on (after any
	// reroutes); empty means the spec's original serial.
	Serial string
	// Prepared and Applied are the slot stream's cursor: whether its
	// prepared record stands, and the soak hours its slice records
	// reached. A live slot re-running work from a checkpoint appends
	// again only once it passes them.
	Prepared bool
	Applied  float64

	// Ckpts is the surviving checkpoint history, oldest first — every
	// generation the journal saved and never struck with a ckptbad
	// record. Images are uniquely named per applied-hours, so an older
	// generation can step in when the newest fails verification.
	Ckpts []SlotCheckpoint
	// CkptImage / CkptApplied / CkptRig are the newest surviving
	// checkpoint — the position a resume actually restarts from.
	CkptImage   string
	CkptApplied float64
	CkptRig     *rig.State

	Record     *core.Record
	FinalImage string
	FinalClock float64
}

// syncNewest re-derives the newest-checkpoint fields from the history.
func (s *SlotReplay) syncNewest() {
	if n := len(s.Ckpts); n > 0 {
		c := s.Ckpts[n-1]
		s.CkptImage, s.CkptApplied, s.CkptRig = c.Image, c.Applied, c.Rig
	} else {
		s.CkptImage, s.CkptApplied, s.CkptRig = "", 0, nil
	}
}

// CampaignReplay is one campaign's reconstructed state.
type CampaignReplay struct {
	Tenant   string
	Digest   string
	Spares   []string // remaining, after reroutes consumed some
	Slots    []SlotReplay
	EstHours float64
	// Devices is what the campaign charges against its tenant's device
	// quota while it is live: its serials plus its spares at admission.
	Devices int

	SubmitAt float64 // chamber clock at admission
	DoneAt   float64 // chamber clock at done/failed

	Done   bool
	Failed bool
	// Quarantined marks a campaign parked by a resuming scheduler whose
	// on-disk state was unrecoverable. Quarantine is terminal and sticky:
	// repairing the spec later does not un-park the campaign.
	Quarantined bool
	Error       string
	// Baselines are the completion-time fresh margins (done campaigns).
	Baselines []float64
}

// Terminal reports whether the campaign needs no further scheduling.
func (c *CampaignReplay) Terminal() bool { return c.Done || c.Failed || c.Quarantined }

// State is the validated outcome of replaying a scheduler journal. A
// live scheduler holds one too and applies each record to it right
// after the append, so it is always what a resume would rebuild.
type State struct {
	// Tenants holds each tenant's effective quota and its campaign
	// counts. A campaign counts in exactly one of Active, Done, Failed
	// and Quarantined; quarantine wins over an earlier done or failed.
	Tenants   map[string]*TenantStatus
	Campaigns map[string]*CampaignReplay
	// Order lists campaign IDs in admission order.
	Order []string

	ChamberHours  float64
	Passes        int
	Setups        int
	BatchedSlices int
	// LastV/LastT is the chamber's standing operating point (setup
	// accounting across resume); LastPoint is false before any pass.
	LastV, LastT float64
	LastPoint    bool

	Draining bool
}

func newState() *State {
	return &State{
		Tenants:   map[string]*TenantStatus{},
		Campaigns: map[string]*CampaignReplay{},
	}
}

// Replay validates the journal prefix and reconstructs the scheduler
// state. It fails closed: any structural inconsistency — a sequence
// gap, a record for an unknown campaign, non-monotonic slot progress, a
// pass naming a terminal campaign — rejects the whole journal rather
// than guessing.
func Replay(entries []Entry) (*State, error) {
	st, used, err := ReplaySalvage(entries)
	if used < len(entries) {
		return nil, err
	}
	return st, nil
}

// ReplaySalvage replays the longest prefix of entries that validates,
// returning the reconstructed state, how many entries were used, and the
// validation error that stopped it (nil when every entry was used). The
// state exactly reflects the accepted prefix — apply validates each
// record before mutating anything — so a salvage-based resume can cut
// the journal at the returned count and continue from there. An empty
// (or fully rejected) journal salvages to a fresh scheduler state.
func ReplaySalvage(entries []Entry) (*State, int, error) {
	st := newState()
	for i := range entries {
		e := &entries[i]
		if e.Seq != i {
			return st, i, fmt.Errorf("sched: journal sequence broken: record %d claims seq %d", i, e.Seq)
		}
		if err := st.apply(e); err != nil {
			return st, i, err
		}
	}
	return st, len(entries), nil
}

func (st *State) campaignOf(e *Entry) (*CampaignReplay, error) {
	c, ok := st.Campaigns[e.Campaign]
	if !ok {
		return nil, fmt.Errorf("sched: record %d (%s) names unknown campaign %q", e.Seq, e.Type, e.Campaign)
	}
	return c, nil
}

func (st *State) slotOf(e *Entry) (*CampaignReplay, *SlotReplay, error) {
	c, err := st.campaignOf(e)
	if err != nil {
		return nil, nil, err
	}
	if c.Terminal() {
		return nil, nil, fmt.Errorf("sched: record %d (%s) touches terminal campaign %q", e.Seq, e.Type, e.Campaign)
	}
	if e.Slot < 0 || e.Slot >= len(c.Slots) {
		return nil, nil, fmt.Errorf("sched: record %d names slot %d of %d in campaign %q", e.Seq, e.Slot, len(c.Slots), e.Campaign)
	}
	return c, &c.Slots[e.Slot], nil
}

// retire ends a campaign's hold on its tenant's live counts as it turns
// terminal, and returns the tenant.
func (st *State) retire(c *CampaignReplay) *TenantStatus {
	t := st.Tenants[c.Tenant]
	t.Active--
	t.Devices -= c.Devices
	return t
}

func (st *State) apply(e *Entry) error {
	switch e.Type {
	case entryTenant:
		if e.Tenant == "" || e.Quota == nil {
			return fmt.Errorf("sched: tenant record %d is incomplete", e.Seq)
		}
		if _, dup := st.Tenants[e.Tenant]; dup {
			return fmt.Errorf("sched: tenant %q admitted twice (seq %d)", e.Tenant, e.Seq)
		}
		st.Tenants[e.Tenant] = &TenantStatus{Quota: *e.Quota}

	case entrySubmit:
		if e.Campaign == "" || e.Tenant == "" || e.Digest == "" || e.Slots <= 0 {
			return fmt.Errorf("sched: submit record %d is incomplete", e.Seq)
		}
		t, ok := st.Tenants[e.Tenant]
		if !ok {
			return fmt.Errorf("sched: submit record %d names unknown tenant %q", e.Seq, e.Tenant)
		}
		if _, dup := st.Campaigns[e.Campaign]; dup {
			return fmt.Errorf("sched: campaign %q submitted twice (seq %d)", e.Campaign, e.Seq)
		}
		if st.Draining {
			return fmt.Errorf("sched: submit record %d after drain", e.Seq)
		}
		const maxSlots = 1 << 16
		if e.Slots > maxSlots {
			return fmt.Errorf("sched: submit record %d claims %d slots", e.Seq, e.Slots)
		}
		c := &CampaignReplay{
			Tenant:   e.Tenant,
			Digest:   e.Digest,
			Spares:   append([]string(nil), e.Spares...),
			Slots:    make([]SlotReplay, e.Slots),
			EstHours: e.EstHours,
			Devices:  e.Slots + len(e.Spares),
			SubmitAt: e.AtHours,
		}
		st.Campaigns[e.Campaign] = c
		st.Order = append(st.Order, e.Campaign)
		t.Active++
		t.Devices += c.Devices
		t.CommittedHours += e.EstHours

	case entryResume:
		// A new process took over: every live slot's in-memory progress
		// died with the old one, so replayed progress rewinds to the last
		// durable checkpoint. Finished slots stay finished. Draining is
		// incarnation-scoped — the old process's drain died with it, and
		// the new incarnation decides its own lifecycle — so a resume
		// record clears it (and with it the no-submit-after-drain rule,
		// which binds within a single incarnation only).
		st.Draining = false
		for _, c := range st.Campaigns {
			if c.Terminal() {
				continue
			}
			for k := range c.Slots {
				s := &c.Slots[k]
				if s.Record != nil {
					continue
				}
				s.Prepared = s.CkptImage != ""
				s.Applied = s.CkptApplied
			}
		}

	case entryDrain:
		st.Draining = true

	case entryPass:
		if len(e.Members) == 0 || e.Quantum <= 0 {
			return fmt.Errorf("sched: pass record %d is incomplete", e.Seq)
		}
		seen := map[string]bool{}
		for _, id := range e.Members {
			c, ok := st.Campaigns[id]
			if !ok {
				return fmt.Errorf("sched: pass record %d names unknown campaign %q", e.Seq, id)
			}
			if c.Terminal() {
				return fmt.Errorf("sched: pass record %d batches terminal campaign %q", e.Seq, id)
			}
			if seen[id] {
				return fmt.Errorf("sched: pass record %d batches campaign %q twice", e.Seq, id)
			}
			seen[id] = true
		}
		if e.AtHours < st.ChamberHours-1e-9 {
			return fmt.Errorf("sched: pass record %d rewinds the chamber clock %.4f → %.4f", e.Seq, st.ChamberHours, e.AtHours)
		}
		st.ChamberHours = e.AtHours + e.Setup + e.Quantum
		st.Passes++
		if e.Setup > 0 {
			st.Setups++
		}
		if len(e.Members) > 1 {
			// Every unfinished slot riding a multi-campaign pass is a
			// batched slice.
			for _, id := range e.Members {
				c := st.Campaigns[id]
				for k := range c.Slots {
					if c.Slots[k].Record == nil {
						st.BatchedSlices++
					}
				}
			}
		}
		st.LastV, st.LastT, st.LastPoint = e.VAccV, e.TAccC, true

	case entryPrepared, entrySlice, entryCkpt, entryCkptBad, entryEncoded:
		_, s, err := st.slotOf(e)
		if err != nil {
			return err
		}
		return s.apply(e)

	case entryReroute:
		c, s, err := st.slotOf(e)
		if err != nil {
			return err
		}
		if s.Record != nil {
			return fmt.Errorf("sched: reroute of finished campaign %q slot %d (seq %d)", e.Campaign, e.Slot, e.Seq)
		}
		spare := -1
		for i, sp := range c.Spares {
			if sp == e.To {
				spare = i
				break
			}
		}
		if spare < 0 {
			return fmt.Errorf("sched: reroute record %d consumes unknown spare %q", e.Seq, e.To)
		}
		c.Spares = append(c.Spares[:spare], c.Spares[spare+1:]...)
		// The slot restarts from scratch on the spare: the old carrier's
		// progress is abandoned with the carrier.
		*s = SlotReplay{Serial: e.To}

	case entryDone:
		c, err := st.campaignOf(e)
		if err != nil {
			return err
		}
		if c.Terminal() {
			return fmt.Errorf("sched: done record %d for terminal campaign %q", e.Seq, e.Campaign)
		}
		for k := range c.Slots {
			if c.Slots[k].Prepared && c.Slots[k].Record == nil {
				return fmt.Errorf("sched: done record %d with campaign %q slot %d unfinished", e.Seq, e.Campaign, k)
			}
		}
		c.Done = true
		c.DoneAt = e.AtHours
		c.Baselines = e.Baselines
		st.retire(c).Done++

	case entryFailed:
		c, err := st.campaignOf(e)
		if err != nil {
			return err
		}
		if c.Terminal() {
			return fmt.Errorf("sched: failed record %d for terminal campaign %q", e.Seq, e.Campaign)
		}
		if e.Error == "" {
			return fmt.Errorf("sched: failed record %d carries no error", e.Seq)
		}
		c.Failed = true
		c.Error = e.Error
		c.DoneAt = e.AtHours
		st.retire(c).Failed++

	case entryQuarantined:
		// Unlike done/failed, quarantine may land on an already-terminal
		// campaign: a done campaign whose spec.json later rots still gets
		// parked (its scheduling state is fine; its artifacts are not).
		c, err := st.campaignOf(e)
		if err != nil {
			return err
		}
		if c.Quarantined {
			return fmt.Errorf("sched: campaign %q quarantined twice (seq %d)", e.Campaign, e.Seq)
		}
		if e.Error == "" {
			return fmt.Errorf("sched: quarantined record %d carries no error", e.Seq)
		}
		t := st.Tenants[c.Tenant]
		switch {
		case c.Done:
			t.Done--
		case c.Failed:
			t.Failed--
		default:
			st.retire(c)
			c.DoneAt = e.AtHours
		}
		t.Quarantined++
		c.Quarantined = true
		c.Error = e.Error

	default:
		return fmt.Errorf("sched: unknown record type %q at seq %d", e.Type, e.Seq)
	}
	return nil
}

// apply applies one of the slot's own records: prepared, slice, ckpt,
// ckptbad or encoded. Replay reaches it through State.apply, which first
// checks that the campaign is live and the slot exists; a running
// scheduler calls it from the worker that owns the slot, which never
// touches State.Campaigns.
func (s *SlotReplay) apply(e *Entry) error {
	switch e.Type {
	case entryPrepared:
		if s.Record != nil || s.Prepared {
			return fmt.Errorf("sched: campaign %q slot %d prepared twice (seq %d)", e.Campaign, e.Slot, e.Seq)
		}
		s.Prepared = true

	case entrySlice:
		if s.Record != nil || !s.Prepared {
			return fmt.Errorf("sched: slice for unprepared campaign %q slot %d (seq %d)", e.Campaign, e.Slot, e.Seq)
		}
		if e.Applied <= s.Applied {
			return fmt.Errorf("sched: campaign %q slot %d slice rewinds %.4fh → %.4fh (seq %d)", e.Campaign, e.Slot, s.Applied, e.Applied, e.Seq)
		}
		if e.Total > 0 && e.Applied > e.Total+1e-9 {
			return fmt.Errorf("sched: campaign %q slot %d overshoots its schedule (seq %d)", e.Campaign, e.Slot, e.Seq)
		}
		s.Applied = e.Applied

	case entryCkpt:
		if s.Record != nil || !s.Prepared {
			return fmt.Errorf("sched: checkpoint for unprepared campaign %q slot %d (seq %d)", e.Campaign, e.Slot, e.Seq)
		}
		if e.Image == "" || e.Rig == nil {
			return fmt.Errorf("sched: checkpoint record %d lacks image or rig state", e.Seq)
		}
		if e.Applied != s.Applied {
			return fmt.Errorf("sched: checkpoint %d claims %.4fh, campaign %q slot %d is at %.4fh", e.Seq, e.Applied, e.Campaign, e.Slot, s.Applied)
		}
		s.Ckpts = append(s.Ckpts, SlotCheckpoint{Image: e.Image, Applied: e.Applied, Rig: e.Rig})
		s.syncNewest()

	case entryCkptBad:
		if s.Record != nil {
			return fmt.Errorf("sched: ckptbad for finished campaign %q slot %d (seq %d)", e.Campaign, e.Slot, e.Seq)
		}
		if e.Image == "" {
			return fmt.Errorf("sched: ckptbad record %d names no image", e.Seq)
		}
		found := -1
		for k := len(s.Ckpts) - 1; k >= 0; k-- {
			if s.Ckpts[k].Image == e.Image {
				found = k
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("sched: ckptbad at seq %d strikes unknown checkpoint %q for campaign %q slot %d", e.Seq, e.Image, e.Campaign, e.Slot)
		}
		s.Ckpts = append(s.Ckpts[:found], s.Ckpts[found+1:]...)
		s.syncNewest()
		// Rewind the live position onto the surviving generation. A
		// runtime strike (bootstrap fallback) has no resume record after
		// it, so the stream itself must agree with the fallback: the slot
		// re-runs — and re-appends — from the older generation (or from
		// scratch when none survives).
		if s.CkptImage == "" {
			s.Prepared = false
			s.Applied = 0
		} else if s.Applied > s.CkptApplied {
			s.Applied = s.CkptApplied
		}

	case entryEncoded:
		if s.Record != nil || !s.Prepared {
			return fmt.Errorf("sched: encoded record for campaign %q slot %d out of order (seq %d)", e.Campaign, e.Slot, e.Seq)
		}
		if e.Record == nil || e.Image == "" {
			return fmt.Errorf("sched: encoded record %d lacks record or image", e.Seq)
		}
		s.Record, s.FinalImage, s.FinalClock = e.Record, e.Image, e.Applied

	default:
		return fmt.Errorf("sched: record %d (%s) is not a slot record", e.Seq, e.Type)
	}
	return nil
}

// ReadJournal parses a scheduler journal file, tolerating only a torn
// final line (wal semantics).
func ReadJournal(path string) (entries []Entry, validLen int64, err error) {
	return wal.ReadFile(path, entryOK)
}

// ReadJournalSalvage parses a scheduler journal leniently over the given
// filesystem: CRC-failed or unparseable records cut the journal at the
// last verifiable prefix, reported in the wal.Salvage summary rather
// than as an error. The error is non-nil only if the file itself cannot
// be read.
func ReadJournalSalvage(fsys storage.FS, path string) (entries []Entry, sal wal.Salvage, err error) {
	return wal.ReadFileSalvage(fsys, path, entryOK)
}

// ParseJournal is ReadJournal over in-memory bytes (the fuzz surface).
func ParseJournal(data []byte) (entries []Entry, validLen int64, err error) {
	return wal.Parse(data, entryOK)
}

// ParseJournalSalvage is ReadJournalSalvage over in-memory bytes.
func ParseJournalSalvage(data []byte) ([]Entry, wal.Salvage) {
	return wal.ParseSalvage(data, entryOK)
}
