package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"invisiblebits/internal/campaign"
	"invisiblebits/internal/device"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/stegocrypt"
)

// service drives the scheduler's HTTP front door. Its op is one tenant's
// campaign, submitted and awaited until done. After the closed loop, an
// open-loop steady phase and a burst measure admission latency and
// saturation throughput. A scheduler keeps every campaign it ever ran in
// memory (1.3 MB per MSP430G2553 carrier), so the loop moves to a fresh
// scheduler every sz.sessionOps ops and each open-loop phase gets its
// own: memory, and with it the run, stays steady.
type service struct {
	sz      sizing
	in      inputs
	dir     string
	seconds int
	// sessions are the measured and the traced scheduler; both see the
	// same submissions in the same order.
	sessions [2]*session
	opened   int
}

func (w *service) submission(k int) sched.Submission {
	id := w.in.serial(k)
	return sched.Submission{
		Tenant: fmt.Sprintf("tenant-%d-%02d", w.in.seed, (k+serviceTenants)%serviceTenants),
		Spec: campaign.Spec{
			ID:          id,
			Model:       w.sz.model,
			Serials:     []string{id},
			Message:     w.in.message(k, serviceMsgBytes),
			Codec:       "paper",
			StressHours: serviceStressHours,
			SliceHours:  serviceStressHours,
		},
	}
}

func (w *service) keyFor(tenant, id string) *stegocrypt.Key {
	k := w.in.key(tenant, id)
	return &k
}

// session is one scheduler behind its HTTP server on a loopback port,
// with one client over one keep-alive connection.
type session struct {
	dir    string
	s      *sched.Scheduler
	hs     *http.Server
	served chan error
	tp     *http.Transport
	client *sched.Client
	ended  int        // campaigns the scheduler has finished, as await last saw
	phase  *rand.Rand // delays each op's first poll (see servicePoll)
}

// start opens a scheduler in a fresh directory behind a fresh HTTP
// server. A traced session sees the scheduler's storage, its carriers'
// firmware loads, power-ons and captures, and the client's round trips.
func (w *service) start(tr *tracer) (*session, error) {
	w.opened++
	dir := filepath.Join(w.dir, "session"+strconv.Itoa(w.opened))
	cfg := sched.Config{KeyFor: w.keyFor, FS: newStateFS()}
	if tr != nil {
		cfg.FS = newTracedFS(tr)
		cfg.InjectorFor = func(string) faults.Injector { return &tracedInjector{tr: tr} }
	}
	s, err := sched.New(dir, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Stop(context.Background())
		return nil, err
	}
	ss := &session{
		dir:    dir,
		s:      s,
		hs:     &http.Server{Handler: sched.NewServer(s), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		tp:     &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		phase:  rand.New(rand.NewPCG(w.in.seed, uint64(w.opened))),
	}
	go func() { ss.served <- ss.hs.Serve(ln) }()
	var rt http.RoundTripper = ss.tp
	if tr != nil {
		rt = &tracedTransport{base: ss.tp, tr: tr}
	}
	ss.client = &sched.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: rt}}
	return ss, nil
}

// close stops the HTTP server, the client's connection and the
// scheduler loop, and waits for each to end.
func (ss *session) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ss.hs.Shutdown(ctx)
	if serr := <-ss.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	ss.tp.CloseIdleConnections()
	return errors.Join(err, ss.s.Stop(ctx))
}

// await submits sub and waits until its campaign, the only one in
// flight, is done. While the client waits, the scheduler runs the
// campaign: what the seams do not show of that is sched.await's self
// time. It polls /api/status rather than the campaign's own route:
// reading a campaign while a pass runs it is a data race in the
// scheduler, so the campaign is read once it has finished.
func (ss *session) await(ctx context.Context, tr *tracer, sub sched.Submission) (sched.CampaignStatus, error) {
	err := tr.enter("sched.submit", func() error { return ss.client.Submit(ctx, sub) })
	if err != nil {
		return sched.CampaignStatus{}, err
	}
	err = tr.enter("sched.await", func() error {
		wait := time.Duration(ss.phase.Int64N(int64(servicePoll)))
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			st, err := ss.client.Status(ctx)
			if err != nil {
				return err
			}
			if ended := st.Done + st.Failed + st.Quarantined; ended > ss.ended {
				ss.ended = ended
				return nil
			}
			wait = servicePoll
		}
	})
	if err != nil {
		return sched.CampaignStatus{}, err
	}
	cs, err := ss.client.Campaign(ctx, sub.Spec.ID)
	if err == nil && cs.State != "done" {
		err = fmt.Errorf("campaign %s ended %s: %s", sub.Spec.ID, cs.State, cs.Error)
	}
	return cs, err
}

// drain stops admission, waits until the scheduler is quiescent, and
// checks that every admitted campaign finished.
func (ss *session) drain(ctx context.Context, admitted int, res *runResult) (sched.Status, error) {
	if err := ss.client.Drain(ctx); err != nil {
		return sched.Status{}, err
	}
	st, err := ss.client.AwaitQuiescent(ctx, 10*time.Millisecond)
	if err != nil {
		return st, err
	}
	if st.Done != admitted || st.Failed != 0 {
		res.problem("scheduler finished %d of %d admitted campaigns, %d failed", st.Done, admitted, st.Failed)
	}
	return st, nil
}

// setup opens the measured scheduler (and, traced, its twin) and runs
// one campaign through each.
func (w *service) setup(ctx context.Context, tr *tracer) error {
	tracers := []*tracer{nil}
	if tr != nil {
		tracers = append(tracers, tr)
	}
	for k, t := range tracers {
		ss, err := w.start(t)
		if err != nil {
			return err
		}
		w.sessions[k] = ss
		if _, err := ss.await(ctx, nil, w.submission(-1)); err != nil {
			return fmt.Errorf("warm-up campaign: %w", err)
		}
	}
	return nil
}

func (w *service) teardown() {
	for k, ss := range w.sessions {
		if ss != nil {
			ss.close()
			w.sessions[k] = nil
		}
	}
}

func (w *service) op(ctx context.Context, i int, tr *tracer) (opResult, error) {
	k := 0
	if tr != nil {
		k = 1
	}
	if i > 0 && i%w.sz.sessionOps == 0 {
		if err := w.sessions[k].close(); err != nil {
			return opResult{}, err
		}
		ss, err := w.start(tr)
		if err != nil {
			return opResult{}, err
		}
		w.sessions[k] = ss
	}
	ss := w.sessions[k]
	sub := w.submission(i)
	tr.beginOp(i)
	t0 := time.Now()
	cs, err := ss.await(ctx, tr, sub)
	t1 := time.Now()
	tr.endOp()
	if err != nil {
		return opResult{}, err
	}
	res := opResult{phases: []float64{t1.Sub(t0).Seconds()}, out: cs}
	if tr != nil && i == 0 {
		res.twins = func() error { return w.countChannelError(ctx, ss.dir, tr, sub) }
	}
	return res, nil
}

// finish runs the open-loop phases after the closed loop, each on a
// fresh scheduler: steady submits at serviceRate, then as many back to
// back, drained to quiescence. Untraced, they give the workload's
// admission latency and saturation throughput; traced, the scheduler's
// batching metrics.
func (w *service) finish(ctx context.Context, tr *tracer, res *runResult) error {
	n := w.sz.openOps
	if n == 0 {
		n = 5 * w.seconds
	}
	var (
		lat         []float64
		late        time.Duration
		rate, drain float64
		st          sched.Status
	)
	for _, phase := range []func(*session) error{
		func(ss *session) (err error) {
			lat, late, err = w.steady(ctx, ss, n, res)
			return err
		},
		func(ss *session) (err error) {
			rate, drain, st, err = w.burst(ctx, ss, n, res)
			return err
		},
	} {
		ss, err := w.start(tr)
		if err != nil {
			return err
		}
		err = phase(ss)
		if cerr := ss.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if late > serviceLateLimit {
		res.problem("load generator fell behind its schedule by %v", late)
	}
	if tr == nil {
		res.Inputs = append(res.Inputs, fmt.Sprintf("%d steady submits at %g/s, then %d back to back", n, serviceRate, n))
		tail := tailPercentile(n)
		for _, p := range []float64{50, 90, tail} {
			if p <= tail {
				res.WorkloadMetrics["submit_ms.p"+strconv.FormatFloat(p, 'f', -1, 64)] = value{percentile(lat, p) * 1000, "ms"}
			}
		}
		res.WorkloadMetrics["campaigns_per_s"] = value{rate, "1/s"}
		return nil
	}
	set := func(name string, v float64) { res.Metrics[name] = value{v, unitOf(name)} }
	set("sched.drain_s", drain)
	set("loadgen.late_ms.max", float64(late)/1e6)
	if done := float64(st.Done); done > 0 {
		set("sched.passes", float64(st.Passes)/done)
		set("sched.batched_slices", float64(st.BatchedSlices)/done)
		set("sim.chamber_h_per_campaign", st.ChamberHours/done)
	}
	return nil
}

// steady sends n submits open loop at serviceRate from one goroutine,
// then drains. It returns each submit's latency from its due time and
// how late the generator sent.
func (w *service) steady(ctx context.Context, ss *session, n int, res *runResult) (lat []float64, late time.Duration, err error) {
	const first = 1 << 20 // campaign numbers apart from the closed loop's
	start := time.Now()
	prev := start
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / serviceRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sub := w.submission(first + k)
		res.Attempted++
		t0 := time.Now()
		err := ss.client.Submit(ctx, sub)
		t1 := time.Now()
		// A submit waits from its due time for the previous one to
		// return; that wait is the service's and counts. The sleep's
		// overshoot past that point is the generator's own and does not.
		ready := due
		if prev.After(due) {
			ready = prev
		}
		late = max(late, t0.Sub(due))
		prev = t1
		if err != nil {
			res.Failed++
			res.problem("submit %s: %v", sub.Spec.ID, err)
			continue
		}
		lat = append(lat, (t1.Sub(t0) + ready.Sub(due)).Seconds())
	}
	_, err = ss.drain(ctx, len(lat), res)
	return lat, late, err
}

// burst sends n submits back to back and drains. It returns the
// campaigns completed per second from the first submit to quiescence,
// and the seconds from the drain request to quiescence.
func (w *service) burst(ctx context.Context, ss *session, n int, res *runResult) (rate, drain float64, st sched.Status, err error) {
	const first = 2 << 20
	admitted := 0
	t0 := time.Now()
	for k := 0; k < n; k++ {
		sub := w.submission(first + k)
		res.Attempted++
		if err := ss.client.Submit(ctx, sub); err != nil {
			res.Failed++
			res.problem("submit %s: %v", sub.Spec.ID, err)
			continue
		}
		admitted++
	}
	t1 := time.Now()
	if st, err = ss.drain(ctx, admitted, res); err != nil {
		return 0, 0, st, err
	}
	t2 := time.Now()
	return float64(st.Done) / t2.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), st, nil
}

// countChannelError loads a done campaign's final image from its
// scheduler's state directory and counts its channel error on op 0.
func (w *service) countChannelError(ctx context.Context, dir string, tr *tracer, sub sched.Submission) error {
	cdir := filepath.Join(dir, "campaigns", sub.Spec.ID)
	b, _, err := ioatomic.ReadFileSealed(nil, filepath.Join(cdir, "result.json"))
	if err != nil {
		return err
	}
	var res campaign.Result
	if err := json.Unmarshal(b, &res); err != nil {
		return err
	}
	if len(res.Images) == 0 || res.Records[0] == nil {
		return fmt.Errorf("campaign %s has no final image", sub.Spec.ID)
	}
	d, err := device.LoadFile(filepath.Join(cdir, res.Images[0]))
	if err != nil {
		return err
	}
	return imageChannelError(ctx, tr, 0, paperCodec(), w.keyFor(sub.Tenant, sub.Spec.ID), d, res.Records[0], sub.Spec.Message)
}
