package sched

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync"

	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/fleet"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/wal"
)

// slotRun is one slot's assignment in a pass: which campaign, which
// slot index, and — after execution — what happened. The worker
// goroutine owns it (and its slotState) between executePass's spawn and
// join.
type slotRun struct {
	c   *campState
	idx int
	sl  *slotState

	err error
	// progressed is true when the slot appended at least one durable
	// record this pass — the signal that resets the barren-pass counter.
	progressed bool
}

// passPlan is one planned chamber pass: the member campaigns batched at
// a shared (V, T, quantum) operating point, the per-slot work list, and
// the chamber clock when the pass began.
type passPlan struct {
	members  []*campState
	runnable []*campState // all runnable campaigns at planning time
	runs     []*slotRun

	v, t    float64
	quantum float64
	setup   float64
	atHours float64
}

func countUnfinished(c *campState) int {
	n := 0
	for _, sl := range c.slots {
		if !sl.finished() {
			n++
		}
	}
	return n
}

// planPassLocked picks the next chamber pass, or nil when nothing is
// runnable. The lead campaign is the oldest runnable one — unless some
// campaign has been passed over StarveLimit times, in which case IT
// leads (the starvation guard: batching must never indefinitely defer
// a tenant whose operating point is unpopular). Leading is the whole
// guarantee — the chamber runs at the lead's (V, T) point — so
// compatible campaigns may still share the pass; a starved campaign
// with no compatible peers runs alone. Every runnable campaign sharing
// the lead's (V, T) point and slice quantum joins until the chamber is
// full.
func (s *Scheduler) planPassLocked() *passPlan {
	var runnable []*campState
	for _, id := range s.queue {
		if c := s.camps[id]; c.runnable() {
			runnable = append(runnable, c)
		}
	}
	if len(runnable) == 0 {
		return nil
	}
	var lead *campState
	for _, c := range runnable {
		if c.deferrals >= s.cfg.starveLimit() {
			lead = c
			break
		}
	}
	if lead == nil {
		lead = runnable[0]
	}
	members := []*campState{lead}
	used := countUnfinished(lead)
	if !s.cfg.DisableBatching {
		for _, c := range runnable {
			if c == lead {
				continue
			}
			if c.model.VAccV != lead.model.VAccV || c.model.TAccC != lead.model.TAccC ||
				c.spec.SliceHours != lead.spec.SliceHours {
				continue
			}
			n := countUnfinished(c)
			if used+n > s.cfg.chamberSlots() {
				continue // doesn't fit this pass; its deferral counter ticks
			}
			members = append(members, c)
			used += n
		}
	}
	p := &passPlan{
		members:  members,
		runnable: runnable,
		v:        lead.model.VAccV,
		t:        lead.model.TAccC,
		quantum:  lead.spec.SliceHours,
		atHours:  s.st.ChamberHours,
	}
	if !s.st.LastPoint || s.st.LastV != p.v || s.st.LastT != p.t {
		p.setup = s.cfg.setupHours()
	}
	for _, c := range members {
		for i, sl := range c.slots {
			if !sl.finished() {
				p.runs = append(p.runs, &slotRun{c: c, idx: i, sl: sl})
			}
		}
	}
	return p
}

// commitPassLocked makes the pass durable — the batch-boundary kill
// point; applying the pass record advances the shared chamber clock —
// and then ticks the fairness counters. Only after the pass record is
// on disk may any slot work run.
func (s *Scheduler) commitPassLocked(p *passPlan) error {
	ids := make([]string, len(p.members))
	for i, c := range p.members {
		ids[i] = c.id
	}
	if err := s.append(&Entry{
		Type: entryPass, Members: ids,
		VAccV: p.v, TAccC: p.t, Quantum: p.quantum, Setup: p.setup,
		AtHours: p.atHours, Slot: -1,
	}); err != nil {
		return err
	}

	inPass := map[*campState]bool{}
	for _, c := range p.members {
		inPass[c] = true
	}
	for _, c := range p.runnable {
		if inPass[c] {
			c.deferrals = 0
		} else {
			c.deferrals++
		}
	}
	return nil
}

// executePass runs every slot in parallel — the chamber soaks all
// boards at once; the workers just drive their controllers — and joins.
func (s *Scheduler) executePass(p *passPlan) {
	var wg sync.WaitGroup
	for _, run := range p.runs {
		wg.Add(1)
		go func(run *slotRun) {
			defer wg.Done()
			s.runSlot(run, p)
		}(run)
	}
	wg.Wait()
}

// ErrSlotPanic is the sentinel every recovered slot-worker panic wraps.
// It also classifies as faults.ErrPermanent: a controller that panicked
// mid-soak left its carrier in an unknowable analog state, so the slot
// takes the same road as a dead board — breaker trip, spare re-route,
// and a terminal campaign failure only when no spare remains. One
// panicking tenant must never take the process (and every other
// tenant's multi-day soak) down with it.
var ErrSlotPanic = errors.New("sched: slot worker panicked")

// SlotPanicError is a recovered slot-worker panic, carrying the
// campaign/slot coordinates, the panic value, and the stack at the
// point of recovery for the operator log.
type SlotPanicError struct {
	Campaign string
	Slot     int
	Serial   string
	Value    any
	Stack    []byte
}

func (e *SlotPanicError) Error() string {
	return fmt.Sprintf("sched: slot worker panicked: campaign %q slot %d (serial %q): %v",
		e.Campaign, e.Slot, e.Serial, e.Value)
}

// Is classifies the panic as both ErrSlotPanic and a permanent device
// fault, so the existing reroute/quarantine triage applies unchanged.
func (e *SlotPanicError) Is(target error) bool {
	return target == ErrSlotPanic || target == faults.ErrPermanent
}

// breakerAllow/breakerRecord are the nil-safe breaker gates on the
// shared chamber clock.
func (s *Scheduler) breakerAllow(deviceID string, clockHours float64) error {
	if s.cfg.Breakers == nil {
		return nil
	}
	return s.cfg.Breakers.For(deviceID).Allow(clockHours)
}

func (s *Scheduler) breakerRecord(deviceID string, err error, clockHours float64) {
	if s.cfg.Breakers == nil {
		return
	}
	s.cfg.Breakers.For(deviceID).Record(err, clockHours)
}

// bootstrapSlot builds the slot's rig and session: from its newest
// verifiable durable checkpoint when one exists, from scratch otherwise.
// A checkpoint image that fails to load — bit rot since the resume-time
// verification — is struck from history with a durable ckptbad record
// and the slot falls back to the previous generation, exactly what a
// fresh resume would do; applying the record rewinds the stream's
// cursor with it, so re-run slices re-append in agreement with replay.
// Device identity is a pure function of (model, serial), so a
// from-scratch rebuild replays any abandoned progress bit-identically.
func (s *Scheduler) bootstrapSlot(ctx context.Context, c *campState, idx int, sl *slotState) error {
	var ropts []rig.Option
	if s.cfg.InjectorFor != nil {
		if inj := s.cfg.InjectorFor(c.serial(idx)); inj != nil {
			ropts = append(ropts, rig.WithInjector(inj))
		}
	}
	sl.sess = nil
	sl.sliceCount = 0
	for n := len(sl.rep.Ckpts); n > 0; n = len(sl.rep.Ckpts) {
		ck := sl.rep.Ckpts[n-1]
		d, err := device.LoadFileFS(s.fsys, filepath.Join(c.dir, ck.Image))
		if err != nil {
			if aerr := s.appendSlot(sl, &Entry{Type: entryCkptBad, Campaign: c.id, Slot: idx, Image: ck.Image}); aerr != nil {
				return aerr
			}
			continue
		}
		r := rig.New(d, ropts...)
		if err := r.RestoreState(*ck.Rig); err != nil {
			return fmt.Errorf("sched: campaign %q rig state: %w", c.id, err)
		}
		sess, err := core.ResumeEncode(ctx, r, sl.seg, c.opts, ck.Applied)
		if err != nil {
			return err
		}
		sl.rig, sl.sess = r, sess
		sl.prepared = true
		sl.applied = ck.Applied
		return nil
	}
	d, err := device.New(c.model, c.serial(idx))
	if err != nil {
		return err
	}
	sl.rig = rig.New(d, ropts...)
	sl.prepared = false
	sl.applied = 0
	return nil
}

// runSlot drives one slot through one pass quantum: bootstrap if
// needed, prepare, stress, journal, checkpoint on cadence, finish when
// the schedule completes. Journal appends are suppressed while the slot
// is re-running work the journal already holds (an in-memory rebuild
// after a transient fault replays from the last checkpoint; re-appending
// those records would rewind the replay stream). Each append is applied
// to the slot's replay right after it fsyncs.
//
// A panic anywhere in the slot's work — bootstrap, session, stress
// kernel — is contained here: it recovers into a SlotPanicError
// (permanent, so applyPassLocked re-routes to a spare or fails only
// this campaign) and is charged to the carrier's breaker, instead of
// unwinding the goroutine and killing every tenant's campaign at once.
func (s *Scheduler) runSlot(run *slotRun, p *passPlan) {
	defer func() {
		if r := recover(); r != nil {
			run.err = &SlotPanicError{
				Campaign: run.c.id, Slot: run.idx, Serial: run.c.serial(run.idx),
				Value: r, Stack: debug.Stack(),
			}
			if run.sl.rig != nil {
				s.breakerRecord(run.sl.rig.Device().DeviceID(), run.err, p.atHours+p.setup+p.quantum)
			}
		}
	}()
	ctx := context.Background()
	c, sl := run.c, run.sl
	if sl.rig == nil {
		if err := s.bootstrapSlot(ctx, c, run.idx, sl); err != nil {
			run.err = err
			return
		}
	}
	devID := sl.rig.Device().DeviceID()
	if err := s.breakerAllow(devID, p.atHours); err != nil {
		run.err = err
		return
	}
	run.err = s.driveSlot(ctx, run, p)
	s.breakerRecord(devID, run.err, p.atHours+p.setup+p.quantum)
}

func (s *Scheduler) driveSlot(ctx context.Context, run *slotRun, p *passPlan) error {
	c, sl := run.c, run.sl
	if !sl.prepared {
		sess, err := core.BeginEncode(ctx, sl.rig, sl.seg, c.opts)
		if err != nil {
			return err
		}
		sl.sess = sess
		sl.prepared = true
		if !sl.rep.Prepared {
			if err := s.appendSlot(sl, &Entry{Type: entryPrepared, Campaign: c.id, Slot: run.idx}); err != nil {
				return err
			}
			run.progressed = true
		}
	}
	if err := sl.sess.StressSlice(ctx, p.quantum); err != nil {
		return err
	}
	sl.applied = sl.sess.AppliedHours()
	sl.sliceCount++
	if sl.applied > sl.rep.Applied {
		if err := s.appendSlot(sl, &Entry{
			Type: entrySlice, Campaign: c.id, Slot: run.idx,
			Applied: sl.applied, Total: sl.sess.TotalHours(),
		}); err != nil {
			return err
		}
		run.progressed = true
	}
	remaining := sl.sess.RemainingHours()
	// Checkpoint on cadence — but only when the journal stream is at
	// this exact position (catch-up replays skip it; the checkpoint is
	// already on disk from the first time through).
	if remaining > 0 && sl.sliceCount%c.spec.CheckpointEvery == 0 && sl.applied == sl.rep.Applied {
		if err := s.checkpointSlot(c, run, sl); err != nil {
			return err
		}
	}
	if remaining > 0 {
		return nil
	}
	rec, err := sl.sess.Finish(ctx)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("slot-%d-final.img", run.idx)
	if err := s.j.Gate(fmt.Sprintf("image/final/%s/%d", c.id, run.idx)); err != nil {
		return err
	}
	if err := sl.rig.Device().SaveFileFS(s.fsys, filepath.Join(c.dir, name)); err != nil {
		return fmt.Errorf("%w: campaign %q final image for slot %d: %w", wal.ErrJournalIO, c.id, run.idx, err)
	}
	state := sl.rig.State()
	if err := s.appendSlot(sl, &Entry{
		Type: entryEncoded, Campaign: c.id, Slot: run.idx,
		Applied: state.ClockHours, Image: name, Rig: &state, Record: rec,
	}); err != nil {
		return err
	}
	run.progressed = true
	return nil
}

// checkpointSlot makes the slot's position durable: atomic device image
// first, then the journal record that makes it count.
func (s *Scheduler) checkpointSlot(c *campState, run *slotRun, sl *slotState) error {
	name := fmt.Sprintf("slot-%d-ckpt-%.4fh.img", run.idx, sl.applied)
	if err := s.j.Gate(fmt.Sprintf("image/ckpt/%s/%d", c.id, run.idx)); err != nil {
		return err
	}
	if err := sl.rig.Device().SaveFileFS(s.fsys, filepath.Join(c.dir, name)); err != nil {
		return fmt.Errorf("%w: campaign %q checkpoint image for slot %d: %w", wal.ErrJournalIO, c.id, run.idx, err)
	}
	state := sl.rig.State()
	if err := s.appendSlot(sl, &Entry{
		Type: entryCkpt, Campaign: c.id, Slot: run.idx,
		Applied: sl.applied, Image: name, Rig: &state,
	}); err != nil {
		return err
	}
	run.progressed = true
	return nil
}

// appendSlot journals one of sl's own records and applies it to the
// slot's replay. Only the worker that owns the slot calls it.
func (s *Scheduler) appendSlot(sl *slotState, e *Entry) error {
	if err := s.j.Append(e); err != nil {
		return err
	}
	return diverged(sl.rep.apply(e))
}

// isFatal classifies errors that kill the whole scheduler: a fired kill
// point, a journal/image durability failure, or a record replay
// rejects. Everything else is a slot-level fault, handled per campaign.
func isFatal(err error) bool {
	return errors.Is(err, faults.ErrKilled) || errors.Is(err, wal.ErrJournalIO) || errors.Is(err, errDiverged)
}

// applyPassLocked folds the pass outcomes back into scheduler state:
// fatal errors kill the scheduler; rerouteable slot faults consume a
// spare (or terminally fail the campaign); transient faults rewind the
// slot to its last durable checkpoint for a retry next pass; completed
// campaigns are sealed. Unaffected campaigns are untouched — that is
// the graceful-degradation contract. Last, it publishes every member's
// progress for Campaign to report.
func (s *Scheduler) applyPassLocked(p *passPlan) {
	defer func() {
		for _, c := range p.members {
			c.publishProgress()
		}
	}()
	byCamp := map[*campState][]*slotRun{}
	for _, r := range p.runs {
		byCamp[r.c] = append(byCamp[r.c], r)
	}
	for _, c := range p.members {
		if s.fatal != nil {
			return
		}
		progressed := false
		var firstErr error
		for _, run := range byCamp[c] {
			if run.progressed {
				progressed = true
			}
			if run.err == nil {
				continue
			}
			if isFatal(run.err) {
				s.noteFatalLocked(run.err)
				return
			}
			if firstErr == nil {
				firstErr = run.err
			}
			if c.terminal() {
				continue // a sibling slot's fault already failed the campaign
			}
			if fleet.IsRerouteable(run.err) {
				if s.rerouteSlotLocked(c, run) {
					progressed = true
				}
				continue
			}
			// Transient: the carrier may have absorbed a partial slice, so
			// the in-memory state is unusable. Drop it; the next pass
			// rebuilds from the last durable checkpoint (or from scratch)
			// and replays — deterministically, appends suppressed until
			// live progress passes the stream's cursor.
			s.rewindSlot(run.sl)
		}
		if s.fatal != nil {
			return
		}
		if c.terminal() {
			continue
		}
		if c.complete() {
			s.completeCampaignLocked(c)
			continue
		}
		if progressed {
			c.barren = 0
			continue
		}
		c.barren++
		if c.barren >= s.cfg.maxBarrenPasses() {
			if firstErr == nil {
				firstErr = errors.New("sched: no slot fault recorded")
			}
			s.failCampaignLocked(c, fmt.Errorf("sched: no durable progress in %d consecutive passes: %w", c.barren, firstErr))
		}
	}
	s.cond.Broadcast()
}

// rewindSlot discards a slot's in-memory state so the next pass
// rebuilds it from the last durable checkpoint.
func (s *Scheduler) rewindSlot(sl *slotState) {
	*sl = slotState{rep: sl.rep, seg: sl.seg, applied: sl.rep.CkptApplied}
}

// rerouteSlotLocked moves a slot whose carrier died onto a spare,
// restarting the slot from scratch (the spare is a different die; the
// old carrier's progress is physically unreachable). Without a spare
// the campaign fails with the carrier's error. Returns true when a
// reroute record was appended (durable progress).
func (s *Scheduler) rerouteSlotLocked(c *campState, run *slotRun) bool {
	if len(c.rep.Spares) == 0 {
		s.failCampaignLocked(c, fmt.Errorf("sched: carrier %q is gone and no spares remain: %w", c.serial(run.idx), run.err))
		return false
	}
	if err := s.append(&Entry{
		Type: entryReroute, Campaign: c.id, Slot: run.idx,
		From: c.serial(run.idx), To: c.rep.Spares[0],
	}); err != nil {
		return false
	}
	*run.sl = slotState{rep: run.sl.rep, seg: run.sl.seg}
	return true
}

// completeCampaignLocked seals a campaign whose every live slot minted
// its record: probe the per-slot fresh-capture baselines from the
// durable final images (deterministic regardless of crash history —
// the images ARE the state), write result.json, then append the done
// record that makes it all count.
func (s *Scheduler) completeCampaignLocked(c *campState) {
	var baselines []float64
	captures := c.spec.Captures
	if captures <= 0 {
		captures = rig.DefaultHealthCaptures
	}
	for i, sl := range c.slots {
		if !sl.live() {
			continue
		}
		d, err := device.LoadFileFS(s.fsys, filepath.Join(c.dir, sl.rep.FinalImage))
		if err != nil {
			s.noteFatalLocked(fmt.Errorf("%w: campaign %q final image for baseline probe: %w", wal.ErrJournalIO, c.id, err))
			return
		}
		probe, err := rig.New(d).ProbeHealth(captures, 0)
		if err != nil {
			s.failCampaignLocked(c, fmt.Errorf("sched: baseline probe for slot %d: %w", i, err))
			return
		}
		baselines = append(baselines, probe.MeanMargin)
	}
	if err := s.gate("result/" + c.id); err != nil {
		return
	}
	if err := writeResult(s.fsys, c.dir, s.resultOf(c)); err != nil {
		s.noteFatalLocked(fmt.Errorf("%w: campaign %q persist result: %w", wal.ErrJournalIO, c.id, err))
		return
	}
	if err := s.append(&Entry{
		Type: entryDone, Campaign: c.id,
		AtHours: s.st.ChamberHours, Baselines: baselines, Slot: -1,
	}); err != nil {
		return
	}
	s.retireLocked(c)
}

// resultOf assembles a finished campaign's Result from its slots. A
// standalone run also reports its breaker set's write-offs; a scheduler
// shares one set across tenants, so its results do not.
func (s *Scheduler) resultOf(c *campState) *Result {
	res := &Result{
		Campaign:     c.id,
		MessageBytes: len(c.spec.Message),
		SegmentSizes: c.segs,
		Records:      make([]*core.Record, len(c.slots)),
		Images:       make([]string, len(c.slots)),
	}
	for i, sl := range c.slots {
		if sl.live() {
			res.Records[i] = sl.rep.Record
			res.Images[i] = sl.rep.FinalImage
			res.EquivalentHours += sl.rep.FinalClock
		}
	}
	if s.standalone {
		res.Quarantined = s.cfg.Breakers.Quarantined()
	}
	return res
}

// failCampaignLocked terminally fails a campaign with a typed,
// per-tenant error. The failure is durable: a resumed scheduler will
// not retry it.
func (s *Scheduler) failCampaignLocked(c *campState, cause error) {
	if err := s.append(&Entry{
		Type: entryFailed, Campaign: c.id,
		Error: cause.Error(), AtHours: s.st.ChamberHours, Slot: -1,
	}); err != nil {
		return
	}
	s.retireLocked(c)
}

// retireLocked removes a now-terminal campaign from the queue. Its
// quota holds were released when its terminal record was applied.
func (s *Scheduler) retireLocked(c *campState) {
	for i, id := range s.queue {
		if id == c.id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
}
