package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"invisiblebits/internal/asm"
	"invisiblebits/internal/campaign"
	"invisiblebits/internal/cliutil"
	"invisiblebits/internal/core"
	"invisiblebits/internal/cpu"
	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/parallel"
	"invisiblebits/internal/progen"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/stegocrypt"
)

// Workload parameters that do not change with scale.
const (
	// carrierStressHours is the soak of the paper-roundtrip and
	// reveal-fleet carriers. The MSP432P401's Table 4 time (10 h) leaves
	// about one full-capacity message in ten with an uncorrectable byte;
	// at 20 h none of 40 probed serials failed, even after 100 h on the
	// shelf at 45 °C, so no op of these workloads fails on any seed.
	carrierStressHours = 20
	// The reveal-fleet's second half is read after a shelf at 45 °C.
	fleetCarriers    = 4
	fleetShelfHours  = 48
	fleetShelfTempC  = 45
	campaignCarriers = 3
	// service-http: single-board campaigns of one 2.5 h slice from 50
	// tenants round-robin; the steady phase submits 40/s, about half the
	// scheduler's capacity on a 2-CPU host.
	serviceRate        = 40.0
	serviceTenants     = 50
	serviceStressHours = 2.5
	serviceMsgBytes    = 24
	// servicePoll is how often a waiting client asks whether its campaign
	// is done. Polling every 1 ms slowed the scheduler itself (22.7 ms
	// against 19.8 ms per campaign, median of six runs each). The first
	// poll of each op comes after a seeded random share of the period:
	// with a fixed phase, every op of a run saw its campaign done on the
	// same poll, and the median op time jumped a whole poll cycle
	// (about 2 ms of 23) between runs.
	servicePoll = 2 * time.Millisecond
	// serviceLateLimit is how late the generator may send a submit
	// before the run counts as invalid: it fell behind its schedule.
	serviceLateLimit = 2 * time.Second
	// maxFirmwareSteps bounds the payload writer, as core does.
	maxFirmwareSteps = 100_000_000
)

// sizing is one workload's size at one scale.
type sizing struct {
	model      string // carrier model
	minOps     int    // closed-loop ops measured at least, however short the run
	exactOps   int    // traced ops the exact per-layer counts are taken over
	msgBytes   int    // campaign-durable message bytes
	sessionOps int    // service-http ops per scheduler
	openOps    int    // service-http submits per open-loop phase (0: 5 per run second)
	setups     int    // set-ups timed per run; setup_s is their median
	probe      int    // capture bursts per arm of the capture probe
}

// fullSizes is what the benchmark measures; tinySizes keeps the smoke
// test to seconds. This table is the only place sizes are set.
var (
	fullSizes = map[string]sizing{
		"paper-roundtrip":  {model: "MSP432P401", minOps: 40, exactOps: 5, setups: 3, probe: 20},
		"reveal-fleet":     {model: "MSP432P401", minOps: 1000, exactOps: 200, setups: 3, probe: 20},
		"campaign-durable": {model: "ATSAML11E16A", minOps: 40, exactOps: 5, msgBytes: 700, setups: 3, probe: 20},
		"service-http":     {model: "MSP430G2553", minOps: 100, exactOps: 20, sessionOps: 100, setups: 3, probe: 20},
	}
	tinySizes = map[string]sizing{
		"paper-roundtrip":  {model: "MSP430G2553", minOps: 3, exactOps: 2, setups: 1, probe: 2},
		"reveal-fleet":     {model: "MSP430G2553", minOps: 8, exactOps: 4, setups: 1, probe: 2},
		"campaign-durable": {model: "MSP430G2553", minOps: 3, exactOps: 2, msgBytes: 60, setups: 1, probe: 2},
		"service-http":     {model: "MSP430G2553", minOps: 5, exactOps: 3, sessionOps: 2, openOps: 10, setups: 1, probe: 2},
	}
)

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// phases name the parts of an op the workload's own end-to-end
	// metrics time, e.g. hide_s and reveal_s for a round trip.
	phases []string
	// rate names ops_per_s in the workload's own terms.
	rate string
	// loopShare is the share of the run the closed loop takes when the
	// workload runs other phases after it (0: all of it).
	loopShare float64
	newClosed func(sz sizing, in inputs, dir string, seconds int) closedWorkload
}

var workloads = []workload{
	{
		name:   "paper-roundtrip",
		why:    "fresh 64 KiB MSP432P401, full-capacity paper-codec message under AES: Hide then a 5-capture Reveal; device, firmware, stress heavy",
		phases: []string{"hide_s", "reveal_s"},
		newClosed: func(sz sizing, in inputs, _ string, _ int) closedWorkload {
			return &roundtrip{sz: sz, in: in}
		},
	},
	{
		name:   "reveal-fleet",
		why:    "adaptive reveals round-robin over 4 encoded carriers, 2 shelved at 45 C: capture kernel, decode tail, digest ladder only",
		phases: []string{"reveal_s"},
		rate:   "reveals_per_s",
		newClosed: func(sz sizing, in inputs, _ string, _ int) closedWorkload {
			return &fleet{sz: sz, in: in}
		},
	},
	{
		name:   "campaign-durable",
		why:    "crash-safe campaign on 3 16 KiB carriers then decode from disk: journal appends and sealed image writes beside image loads",
		phases: []string{"campaign_s", "campaign_decode_s"},
		newClosed: func(sz sizing, in inputs, dir string, _ int) closedWorkload {
			return &campaignRun{sz: sz, in: in, dir: dir}
		},
	},
	{
		name:      "service-http",
		why:       "loopback HTTP scheduler: campaigns submitted and awaited one by one, then 40 submits/s open loop from 50 tenants, then a burst",
		phases:    []string{"submit_to_done_ms"},
		loopShare: 0.75,
		newClosed: func(sz sizing, in inputs, dir string, seconds int) closedWorkload {
			return &service{sz: sz, in: in, dir: dir, seconds: seconds}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs derives every input of a workload from the run's seed: the same
// seed gives the same serials, messages, keys and tenants.
type inputs struct {
	seed uint64
	tag  string
}

func (in inputs) serial(i int) string { return fmt.Sprintf("%s-%d-%d", in.tag, in.seed, i) }

func (in inputs) message(i, n int) []byte {
	h := fnv.New64a()
	h.Write([]byte(in.tag))
	r := rand.New(rand.NewPCG(in.seed, h.Sum64()^uint64(i)))
	b := make([]byte, n)
	for k := range b {
		b[k] = byte(r.Uint32())
	}
	return b
}

func (in inputs) key(parts ...string) stegocrypt.Key {
	return stegocrypt.KeyFromPassphrase(fmt.Sprintf("bench|%s|%d|%v", in.tag, in.seed, parts))
}

// paperCodec is Fig. 13's Hamming(7,4) + 7-copy repetition, in the
// vocabulary campaigns use.
func paperCodec() ecc.Composite {
	c, err := cliutil.ParseCodec("paper")
	if err != nil {
		panic(err) // a fixed, known codec name
	}
	return c.(ecc.Composite)
}

// closedWorkload is a workload whose single client sends its next op
// only after the previous one returned.
type closedWorkload interface {
	// setup builds the run's inputs and state and runs one untimed
	// warm-up op. A traced run (tr non-nil) also builds the state its
	// traced ops and twins use.
	setup(ctx context.Context, tr *tracer) error
	// op runs op i: measured when tr is nil, traced otherwise, on inputs
	// identical to the measured op i.
	op(ctx context.Context, i int, tr *tracer) (opResult, error)
	teardown()
}

// opResult is one op's outcome.
type opResult struct {
	phases []float64 // seconds per workload phase
	// out is compared between the measured and the traced op i; the two
	// must be equal.
	out any
	// twins, set on traced ops, times the calls no seam exposes on twins
	// built from the op's inputs, after the op's window closed.
	twins func() error
	// cleanup releases what the op left behind, outside its timing.
	cleanup func()
}

func (r opResult) wall() float64 {
	var s float64
	for _, p := range r.phases {
		s += p
	}
	return s
}

// step is one traced call of a decomposed op; an unnamed step is glue
// the benchmark runs untimed.
type step struct {
	name string
	fn   func() error
}

func runSteps(tr *tracer, steps []step) error {
	for _, s := range steps {
		var err error
		if s.name == "" {
			err = s.fn()
		} else {
			err = tr.enter(s.name, s.fn)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// --- paper-roundtrip -----------------------------------------------------------

type roundtrip struct {
	sz     sizing
	in     inputs
	model  device.Model
	codec  ecc.Composite
	key    stegocrypt.Key
	msgLen int
}

type roundtripOut struct {
	Record core.Record
	Msg    []byte
}

func (w *roundtrip) setup(ctx context.Context, _ *tracer) error {
	m, err := device.ByName(w.sz.model)
	if err != nil {
		return err
	}
	w.model, w.codec, w.key = m, paperCodec(), w.in.key()
	w.msgLen = core.MaxMessageBytes(m.SRAMBytes, w.codec)
	_, err = w.op(ctx, -1, nil)
	return err
}

func (w *roundtrip) teardown() {}

func (w *roundtrip) opts() core.Options {
	return core.Options{Codec: w.codec, Key: &w.key, StressHours: carrierStressHours}
}

func (w *roundtrip) op(ctx context.Context, i int, tr *tracer) (opResult, error) {
	serial, msg := w.in.serial(i), w.in.message(i, w.msgLen)
	if tr != nil {
		return w.traced(ctx, i, tr, serial, msg)
	}
	opts := w.opts()
	t0 := time.Now()
	dev, err := device.New(w.model, serial)
	if err != nil {
		return opResult{}, err
	}
	r := rig.New(dev)
	rec, err := core.EncodeContext(ctx, r, msg, opts)
	if err != nil {
		return opResult{}, fmt.Errorf("hide: %w", err)
	}
	t1 := time.Now()
	got, err := core.DecodeContext(ctx, r, rec, opts)
	if err == nil {
		err = rec.VerifyMessage(got, &w.key)
	}
	t2 := time.Now()
	if err != nil {
		return opResult{}, fmt.Errorf("reveal: %w", err)
	}
	if !bytes.Equal(got, msg) {
		return opResult{}, errors.New("reveal: plaintext differs from the hidden message")
	}
	return opResult{
		phases: []float64{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()},
		out:    roundtripOut{*rec, got},
	}, nil
}

// traced makes the public calls core.EncodeContext and DecodeContext
// make, one at a time, each in its own span.
func (w *roundtrip) traced(ctx context.Context, i int, tr *tracer, serial string, msg []byte) (opResult, error) {
	opts, m := w.opts(), w.model
	var (
		dev        *device.Device
		r          *rig.Rig
		payload    []byte
		src        string
		prog, ret  *asm.Program
		sess       *core.EncodeSession
		rec        *core.Record
		maj, plain []byte
		got        []byte
	)
	nominal := func() error {
		r.SetTemperature(m.TNomC)
		return r.SetVoltage(m.VNomV)
	}
	hide := []step{
		{"device.new", func() (err error) {
			if dev, err = device.New(m, serial); err == nil {
				r = rig.New(dev)
			}
			return err
		}},
		{"core.build_payload", func() (err error) { payload, err = core.BuildPayload(msg, dev.DeviceID(), opts); return err }},
		{"", nominal},
		{"progen.writer", func() (err error) { src, err = progen.WriterProgram(payload); return err }},
		{"asm.assemble", func() (err error) { prog, err = progen.Assemble(src); return err }},
		{"rig.load_program", func() error { return r.LoadProgram(prog) }},
		{"sram.power_on", func() error { _, err := r.PowerOn(); return err }},
		{"cpu.run_firmware", func() error {
			reason, err := r.RunFirmware(maxFirmwareSteps)
			if err == nil && reason != cpu.StopBusyWait {
				err = fmt.Errorf("payload writer stopped with %v", reason)
			}
			return err
		}},
		{"", func() error {
			if m.RequiresRegulatorBypass {
				if err := r.BypassRegulator(); err != nil {
					return err
				}
			}
			if err := r.SetVoltage(m.VAccV); err != nil {
				return err
			}
			r.SetTemperature(m.TAccC)
			return nil
		}},
		// The payload is in SRAM and the chamber at the stress point: the
		// session resumes at zero applied hours exactly where BeginEncode
		// would have handed it over.
		{"core.session", func() (err error) { sess, err = core.ResumeEncode(ctx, r, msg, opts, 0); return err }},
		{"sram.stress", func() error { return sess.StressSlice(ctx, sess.TotalHours()) }},
		{"core.finish", func() (err error) { rec, err = sess.Finish(ctx); return err }},
	}
	reveal := []step{
		{"asm.assemble", func() (err error) { ret, err = progen.Assemble(progen.RetainerProgram()); return err }},
		{"rig.load_program", func() error { return r.LoadProgram(ret) }},
		{"", nominal},
		{"sram.capture", func() (err error) { maj, err = r.SampleMajorityContext(ctx, rec.Captures); return err }},
		{"stegocrypt.ctr", func() (err error) {
			inv := make([]byte, rec.PayloadBytes)
			for k := range inv {
				inv[k] = ^maj[k]
			}
			plain, err = stegocrypt.StreamXOR(w.key, rec.DeviceID, inv)
			return err
		}},
		{"ecc.decode", func() (err error) {
			got, err = w.codec.Decode(plain[:w.codec.EncodedLen(rec.MessageBytes)], rec.MessageBytes)
			return err
		}},
		{"core.verify", func() error { return rec.VerifyMessage(got, &w.key) }},
	}
	if m.FlashBytes == 0 {
		return opResult{}, fmt.Errorf("%s has no flash for a payload writer", m.Name)
	}
	tr.beginOp(i)
	t0 := time.Now()
	err := runSteps(tr, hide)
	t1 := time.Now()
	if err == nil {
		err = runSteps(tr, reveal)
	}
	t2 := time.Now()
	tr.endOp()
	if err != nil {
		return opResult{}, err
	}
	if !bytes.Equal(got, msg) {
		return opResult{}, errors.New("traced reveal: plaintext differs from the hidden message")
	}
	tr.count(i, "decode.captures", float64(rec.Captures))
	tr.count(i, "decode.escalated", 0)
	return opResult{
		phases: []float64{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()},
		out:    roundtripOut{*rec, got},
		twins: func() error {
			return countChannelError(tr, i, w.codec, &w.key, rec, maj, msg)
		},
	}, nil
}

// --- reveal-fleet --------------------------------------------------------------

type fleet struct {
	sz     sizing
	in     inputs
	codec  ecc.Composite
	key    stegocrypt.Key
	sets   [][]*carrier // measured; traced (seam injector mounted); replay twins
	shelfs []float64
}

type carrier struct {
	r     *rig.Rig
	rec   *core.Record
	msg   []byte
	votes []uint16
	arena *core.DecodeArena
}

type fleetOut struct {
	Msg    []byte
	Report core.DecodeReport
}

func (w *fleet) aopts() core.AdaptiveOptions {
	return core.AdaptiveOptions{Options: core.Options{Codec: w.codec, Key: &w.key, StressHours: carrierStressHours}}
}

// setup encodes the carriers, shelves the second half, and requires each
// carrier's first reveal to verify: a carrier that cannot is a set-up
// error, never a silently dropped op. A traced run builds the same
// fleet three times — measured, traced and replay twin — so each set
// sees the same reveal history.
func (w *fleet) setup(ctx context.Context, tr *tracer) error {
	m, err := device.ByName(w.sz.model)
	if err != nil {
		return err
	}
	w.codec, w.key = paperCodec(), w.in.key()
	msgLen := core.MaxMessageBytes(m.SRAMBytes, w.codec)
	sets := 1
	if tr != nil {
		sets = 3
	}
	w.sets, w.shelfs = make([][]*carrier, sets), make([]float64, fleetCarriers)
	for s := range w.sets {
		for c := 0; c < fleetCarriers; c++ {
			dev, err := device.New(m, w.in.serial(c))
			if err != nil {
				return err
			}
			var ropts []rig.Option
			if s == 1 {
				ropts = append(ropts, rig.WithInjector(&tracedInjector{tr: tr}))
			}
			r := rig.New(dev, ropts...)
			msg := w.in.message(c, msgLen)
			rec, err := core.EncodeContext(ctx, r, msg, w.aopts().Options)
			if err != nil {
				return fmt.Errorf("encode carrier %s: %w", dev.Serial, err)
			}
			if c >= fleetCarriers/2 {
				w.shelfs[c] = fleetShelfHours
				if err := r.ShelveAtFor(fleetShelfHours, fleetShelfTempC); err != nil {
					return err
				}
			}
			got, _, err := core.DecodeAdaptive(ctx, r, rec, w.aopts())
			if err == nil && !bytes.Equal(got, msg) {
				err = errors.New("plaintext differs")
			}
			if err != nil {
				return fmt.Errorf("set-up: carrier %s (shelved %g h at %d C) does not verify: %w",
					dev.Serial, w.shelfs[c], fleetShelfTempC, err)
			}
			w.sets[s] = append(w.sets[s], &carrier{r: r, rec: rec, msg: msg})
		}
	}
	return nil
}

func (w *fleet) teardown() { w.sets = nil }

func (w *fleet) carriers() []string {
	var out []string
	for c, k := range w.sets[0] {
		out = append(out, fmt.Sprintf("carrier %s shelved %g h at %d C", k.r.Device().Serial, w.shelfs[c], fleetShelfTempC))
	}
	return out
}

func (w *fleet) op(ctx context.Context, i int, tr *tracer) (opResult, error) {
	set := 0
	if tr != nil {
		set = 1
	}
	c := w.sets[set][i%fleetCarriers]
	var (
		got []byte
		rep *core.DecodeReport
	)
	tr.beginOp(i)
	t0 := time.Now()
	err := tr.enter("core.decode_adaptive", func() (err error) {
		got, rep, err = core.DecodeAdaptive(ctx, c.r, c.rec, w.aopts())
		return err
	})
	t1 := time.Now()
	tr.endOp()
	if err != nil {
		return opResult{}, err
	}
	if !bytes.Equal(got, c.msg) {
		return opResult{}, errors.New("reveal: plaintext differs from the hidden message")
	}
	res := opResult{phases: []float64{t1.Sub(t0).Seconds()}, out: fleetOut{got, *rep}}
	if tr != nil {
		escalated := 0.0
		if rep.Escalated() {
			escalated = 1
		}
		tr.count(i, "decode.captures", float64(rep.CapturesSpent))
		tr.count(i, "decode.escalated", escalated)
		res.twins = func() error { return w.replay(ctx, i, tr) }
	}
	return res, nil
}

// replay times what a reveal does inside DecodeAdaptive without a seam,
// on the replay twin of op i's carrier: the retainer firmware every
// reveal assembles before it loads it, then the ladder's first, hard
// rung — a capture burst into a reused buffer, the fused DecodeArena
// tail, and the same tail as separate public calls.
func (w *fleet) replay(ctx context.Context, i int, tr *tracer) error {
	err := tr.twin(i, "asm.assemble", func() error {
		_, err := progen.Assemble(progen.RetainerProgram())
		return err
	})
	if err != nil {
		return err
	}
	c := w.sets[2][i%fleetCarriers]
	n := core.DefaultInitialCaptures
	if c.votes == nil {
		c.votes = make([]uint16, c.r.Device().SRAM.Cells())
		c.arena = core.NewDecodeArena()
	}
	if err := c.r.SampleVotesIntoContext(ctx, n, c.votes); err != nil {
		return err
	}
	opts := w.aopts().Options
	opts.Arena = c.arena
	err = tr.twin(i, "core.decode_votes", func() error {
		_, err := c.arena.DecodeVotes(c.rec, c.votes, n, opts)
		return err
	})
	if err != nil && !errors.Is(err, core.ErrDigestMismatch) {
		return err
	}
	maj := majority(c.votes, n)
	var plain, got []byte
	steps := []step{
		{"stegocrypt.ctr", func() (err error) {
			inv := make([]byte, c.rec.PayloadBytes)
			for k := range inv {
				inv[k] = ^maj[k]
			}
			plain, err = stegocrypt.StreamXOR(w.key, c.rec.DeviceID, inv)
			return err
		}},
		{"ecc.decode", func() (err error) {
			got, err = w.codec.Decode(plain[:w.codec.EncodedLen(c.rec.MessageBytes)], c.rec.MessageBytes)
			return err
		}},
		{"core.verify", func() error { return c.rec.VerifyMessage(got, &w.key) }},
	}
	for _, s := range steps {
		if err := tr.twin(i, s.name, s.fn); err != nil && !errors.Is(err, core.ErrDigestMismatch) {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
	}
	return countChannelError(tr, i, w.codec, &w.key, c.rec, maj, c.msg)
}

// majority packs the hard decision of accumulated votes, LSB first: a
// cell reads 1 when most of its total power-ons did.
func majority(votes []uint16, total int) []byte {
	out := make([]byte, (len(votes)+7)/8)
	for k, v := range votes {
		if 2*int(v) > total {
			out[k/8] |= 1 << (k % 8)
		}
	}
	return out
}

// --- campaign-durable ----------------------------------------------------------

type campaignRun struct {
	sz    sizing
	in    inputs
	dir   string
	model device.Model
	codec ecc.Composite
	key   stegocrypt.Key
	fs    *tracedFS
}

type campaignOut struct {
	Result campaign.Result
	Msg    []byte
}

func (w *campaignRun) setup(ctx context.Context, tr *tracer) error {
	m, err := device.ByName(w.sz.model)
	if err != nil {
		return err
	}
	w.model, w.codec, w.key = m, paperCodec(), w.in.key()
	if tr != nil {
		w.fs = newTracedFS(tr)
	}
	r, err := w.op(ctx, -1, nil)
	if r.cleanup != nil {
		r.cleanup()
	}
	return err
}

func (w *campaignRun) teardown() {}

func (w *campaignRun) spec(i int) campaign.Spec {
	serials := make([]string, campaignCarriers)
	for s := range serials {
		serials[s] = w.in.serial(i*campaignCarriers + s)
	}
	return campaign.Spec{
		ID:      fmt.Sprintf("bench-%d", i),
		Model:   w.model.Name,
		Serials: serials,
		Message: w.in.message(i, w.sz.msgBytes),
		Codec:   "paper",
	}
}

func (w *campaignRun) op(ctx context.Context, i int, tr *tracer) (opResult, error) {
	spec := w.spec(i)
	dir := filepath.Join(w.dir, fmt.Sprintf("op%d", i))
	opts := campaign.Options{Key: &w.key, FS: newStateFS()}
	if tr != nil {
		dir += "-traced"
		opts.FS = w.fs
		// The kill-point hook sees every journal append and image write;
		// it only counts them.
		opts.Hook = func(point string) error {
			switch {
			case strings.HasPrefix(point, "journal/"):
				tr.count(-1, "campaign.journal_records", 1)
			case strings.HasPrefix(point, "image/ckpt/"):
				tr.count(-1, "campaign.checkpoints", 1)
			}
			return nil
		}
	}
	cleanup := func() { os.RemoveAll(dir) }
	var (
		res *campaign.Result
		got []byte
	)
	tr.beginOp(i)
	t0 := time.Now()
	err := tr.enter("campaign.run", func() (err error) {
		res, err = campaign.Run(ctx, dir, spec, opts)
		return err
	})
	t1 := time.Now()
	if err == nil {
		err = tr.enter("campaign.decode", func() (err error) {
			got, err = campaign.DecodeResult(ctx, dir, &w.key)
			return err
		})
	}
	t2 := time.Now()
	tr.endOp()
	if err != nil {
		return opResult{cleanup: cleanup}, err
	}
	if !bytes.Equal(got, spec.Message) {
		return opResult{cleanup: cleanup}, errors.New("decoded campaign differs from its message")
	}
	out := opResult{
		phases:  []float64{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()},
		out:     campaignOut{*res, got},
		cleanup: cleanup,
	}
	if tr != nil {
		out.twins = func() error { return w.twins(ctx, i, tr, spec, dir, res) }
	}
	return out, nil
}

// twins times what campaign.Run and DecodeCampaign do without a seam:
// instantiating each carrier and loading each final image. The first
// loaded image also gives the channel error counts.
func (w *campaignRun) twins(ctx context.Context, i int, tr *tracer, spec campaign.Spec, dir string, res *campaign.Result) error {
	for _, ser := range spec.Serials {
		if err := tr.twin(i, "device.new", func() error { _, err := device.New(w.model, ser); return err }); err != nil {
			return err
		}
	}
	for slot, img := range res.Images {
		if img == "" {
			continue
		}
		var d *device.Device
		if err := tr.twin(i, "device.load", func() (err error) { d, err = device.LoadFile(filepath.Join(dir, img)); return err }); err != nil {
			return err
		}
		if slot == 0 {
			if err := imageChannelError(ctx, tr, i, w.codec, &w.key, d, res.Records[0], spec.Message[:res.SegmentSizes[0]]); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- shared measurements -------------------------------------------------------

// imageChannelError reads a fresh 5-capture burst from a loaded carrier
// image and counts its channel error against the segment it holds.
func imageChannelError(ctx context.Context, tr *tracer, i int, codec ecc.Composite, key *stegocrypt.Key, d *device.Device, rec *core.Record, msg []byte) error {
	r := rig.New(d)
	r.SetTemperature(d.Model.TNomC)
	if err := r.SetVoltage(d.Model.VNomV); err != nil {
		return err
	}
	maj, err := r.SampleMajorityContext(ctx, rec.Captures)
	if err != nil {
		return err
	}
	return countChannelError(tr, i, codec, key, rec, maj, msg)
}

// countChannelError compares what a decode burst read back with what the
// encoder wrote and counts two bit error rates on op i. sim.raw_ber is
// the inverted hard majority against the written payload (ciphertext
// domain): the error the ECC starts from. sim.residual_ber is what is
// left after the inner repetition layer: the error the Hamming layer
// must correct.
func countChannelError(tr *tracer, i int, codec ecc.Composite, key *stegocrypt.Key, rec *core.Record, maj, msg []byte) error {
	payload, err := core.BuildPayload(msg, rec.DeviceID, core.Options{Codec: codec, Key: key})
	if err != nil {
		return err
	}
	got := make([]byte, len(payload))
	for k := range got {
		got[k] = ^maj[k]
	}
	plain, err := stegocrypt.StreamXOR(*key, rec.DeviceID, got)
	if err != nil {
		return err
	}
	mid, err := codec.Inner.Decode(plain[:codec.EncodedLen(len(msg))], codec.Outer.EncodedLen(len(msg)))
	if err != nil {
		return err
	}
	want, err := codec.Outer.Encode(msg)
	if err != nil {
		return err
	}
	tr.count(i, "sim.raw_ber", bitErrorRate(got, payload))
	tr.count(i, "sim.residual_ber", bitErrorRate(mid, want))
	return nil
}

func bitErrorRate(a, b []byte) float64 {
	diff := 0
	for k := range a {
		diff += bits.OnesCount8(a[k] ^ b[k])
	}
	return float64(diff) / float64(8*len(a))
}

// captureProbe times 5-capture bursts on a fresh twin of the workload's
// carrier model: the fewest allocations a burst made with the default
// nproc-wide worker pool, and how much faster that pool is than one
// worker. Some bursts allocate one object more than others, depending on
// how the runtime schedules the pool's goroutines; the fewest repeats
// exactly from run to run, the median did not.
func captureProbe(ctx context.Context, model, serial string, bursts int) (allocs, scaling float64, err error) {
	m, err := device.ByName(model)
	if err != nil {
		return 0, 0, err
	}
	d, err := device.New(m, serial)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]uint16, d.SRAM.Cells())
	burst := func() error { return d.SRAM.CaptureVotesInto(ctx, core.DefaultCaptures, m.TNomC, buf) }
	timed := func() (float64, error) {
		var ts []float64
		for k := 0; k < bursts; k++ {
			t0 := time.Now()
			if err := burst(); err != nil {
				return 0, err
			}
			ts = append(ts, time.Since(t0).Seconds())
		}
		return median(ts), nil
	}
	if err := burst(); err != nil { // first burst builds lazy per-array state
		return 0, 0, err
	}
	var counts []float64
	for k := 0; k < bursts; k++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := burst(); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&m1)
		counts = append(counts, float64(m1.Mallocs-m0.Mallocs))
	}
	wide, err := timed()
	if err != nil {
		return 0, 0, err
	}
	d.SRAM.SetPool(parallel.New(1))
	one, err := timed()
	if err != nil {
		return 0, 0, err
	}
	return slices.Min(counts), one / wide, nil
}
