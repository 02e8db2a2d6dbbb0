package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runWorkload runs one workload once, untraced or traced. Failures are
// recorded on the result, never returned: the result always carries
// every metric of its kind.
func runWorkload(ctx context.Context, w workload, sz sizing, seed uint64, stateRoot string, seconds int, traced bool) (*runResult, *tracer) {
	res := &runResult{Workload: w.name, Traced: traced, Seed: seed, Seconds: seconds, Correct: true, Metrics: map[string]value{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	err := func() error {
		if err := os.MkdirAll(stateRoot, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(stateRoot, w.name+"-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		in := inputs{seed: seed, tag: w.name}
		dur := time.Duration(seconds) * time.Second
		if w.loopShare > 0 {
			dur = time.Duration(float64(dur) * w.loopShare)
		}
		cw := w.newClosed(sz, in, dir, seconds)
		if traced {
			err = runClosedTraced(ctx, cw, sz, in, dur, tr, res)
		} else {
			err = runClosedUntraced(ctx, w, cw, sz, dur, res)
		}
		if f, ok := cw.(finisher); ok && err == nil {
			err = f.finish(ctx, tr, res)
		}
		return err
	}()
	if err != nil {
		res.problem("%v", err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.Metrics[d.Name] = value{0, d.Unit}
		}
	}
	return res, tr
}

// finisher is a closed-loop workload with phases of its own after the
// loop; tr is nil in an untraced run.
type finisher interface {
	finish(ctx context.Context, tr *tracer, res *runResult) error
}

// describe records the input choices a workload reports, if any.
func describe(res *runResult, cw closedWorkload) {
	if d, ok := cw.(interface{ carriers() []string }); ok {
		res.Inputs = d.carriers()
	}
}

// runClosedUntraced times set-up sz.setups times, then runs ops back to
// back until both the duration and sz.minOps are reached.
func runClosedUntraced(ctx context.Context, w workload, cw closedWorkload, sz sizing, dur time.Duration, res *runResult) error {
	for k := 0; k < sz.setups; k++ {
		if k > 0 {
			// Collect the previous set-up now, so peak_rss_mb measures one
			// set-up's state, not several.
			cw.teardown()
			runtime.GC()
		}
		t0 := time.Now()
		if err := cw.setup(ctx, nil); err != nil {
			return err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer cw.teardown()
	describe(res, cw)
	var walls []float64
	phases := map[string][]float64{}
	start := time.Now()
	for i := 0; i < sz.minOps || time.Since(start) < dur; i++ {
		res.Attempted++
		r, err := cw.op(ctx, i, nil)
		if r.cleanup != nil {
			r.cleanup()
		}
		if err != nil {
			res.Failed++
			res.problem("op %d: %v", i, err)
			continue
		}
		walls = append(walls, r.wall())
		for p, name := range w.phases {
			phases[name] = append(phases[name], r.phases[p])
		}
	}
	elapsed := time.Since(start).Seconds()
	res.Ops = len(walls)
	endToEndMetrics(res, w, sz.minOps, walls, phases, float64(len(walls))/elapsed)
	return nil
}

// endToEndMetrics fills the untraced run's metrics: the shared endToEnd
// set, and the workload's own names for the same measurements. Tails
// are read at the highest percentile the workload's fixed op count
// supports (tailN ops), so a metric's name never depends on how many ops
// a run happened to fit.
func endToEndMetrics(res *runResult, w workload, tailN int, walls []float64, phases map[string][]float64, rate float64) {
	set := func(m map[string]value, name string, v float64, unit string) { m[name] = value{v, unit} }
	set(res.Metrics, "setup_s", median(res.SetupS), "s")
	set(res.Metrics, "op_s.p50", percentile(walls, 50), "s")
	set(res.Metrics, "ops_per_s", rate, "1/s")
	set(res.Metrics, "peak_rss_mb", peakRSSMB(), "MB")

	wm := map[string]value{}
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	set(wm, "failed_frac", failedFrac, "frac")
	tail := tailPercentile(tailN)
	ps := []float64{50}
	if tail > 90 {
		ps = append(ps, 90)
	}
	if tail > 50 {
		ps = append(ps, tail)
	}
	for name, xs := range phases {
		scale, unit := 1.0, "s"
		if strings.HasSuffix(name, "_ms") {
			scale, unit = 1000, "ms"
		}
		for _, p := range ps {
			set(wm, name+".p"+strconv.FormatFloat(p, 'f', -1, 64), percentile(xs, p)*scale, unit)
		}
	}
	if w.rate != "" {
		set(wm, w.rate, rate, "1/s")
	}
	res.WorkloadMetrics = wm
}

// runClosedTraced runs pairs of ops on identical inputs — the measured op
// untraced and the traced one — and requires equal outputs. The pairs
// give the tracing overhead; the traced ops, their twins and the seams
// give the per-layer metrics.
func runClosedTraced(ctx context.Context, cw closedWorkload, sz sizing, in inputs, dur time.Duration, tr *tracer, res *runResult) error {
	allocs, scaling, err := captureProbe(ctx, sz.model, in.serial(-2), sz.probe)
	if err != nil {
		return err
	}
	if err := cw.setup(ctx, tr); err != nil {
		return err
	}
	defer cw.teardown()
	describe(res, cw)
	var plain []float64
	var allocBytes, gcs float64
	start := time.Now()
	for i := 0; i < sz.exactOps || time.Since(start) < dur; i++ {
		var (
			m0, m1     runtime.MemStats
			a, b       opResult
			errA, errB error
		)
		untraced := func() {
			runtime.ReadMemStats(&m0)
			a, errA = cw.op(ctx, i, nil)
			runtime.ReadMemStats(&m1)
		}
		// The pair's order alternates, so that whatever the first op of a
		// pair pays for the second (a collection, cold caches) does not
		// bias the overhead.
		if i%2 == 0 {
			untraced()
		}
		b, errB = cw.op(ctx, i, tr)
		if i%2 == 1 {
			untraced()
		}
		if errB == nil && b.twins != nil {
			if err := b.twins(); err != nil {
				errB = fmt.Errorf("twins: %w", err)
			}
		}
		for _, r := range []opResult{a, b} {
			if r.cleanup != nil {
				r.cleanup()
			}
		}
		res.Attempted += 2
		for _, e := range []error{errA, errB} {
			if e != nil {
				res.Failed++
				res.problem("op %d: %v", i, e)
			}
		}
		if errA != nil || errB != nil {
			continue
		}
		if !reflect.DeepEqual(a.out, b.out) {
			res.problem("traced op %d gave a different output from the untraced op", i)
		}
		plain = append(plain, a.wall())
		allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		gcs += float64(m1.NumGC - m0.NumGC)
	}
	res.Ops = len(plain)
	if len(plain) == 0 {
		return errors.New("no op succeeded")
	}
	layerMetrics(res, tr, sz.exactOps, plain)
	n := float64(len(plain))
	for name, v := range map[string]float64{
		"sram.capture_allocs":  allocs,
		"sram.capture_scaling": scaling,
		"go.alloc_mb_per_op":   allocBytes / 1e6 / n,
		"go.gc_per_op":         gcs / n,
	} {
		res.Metrics[name] = value{v, unitOf(name)}
	}
	return nil
}

// layerSpan names the span a per-layer time metric reads its self time
// from: "sram.capture_s" reads "sram.capture", "campaign.run_self_s"
// reads "campaign.run".
func layerSpan(metric string) (string, bool) {
	for _, suffix := range []string{"_self_s", "_s"} {
		if s, ok := strings.CutSuffix(metric, suffix); ok {
			return s, true
		}
	}
	return "", false
}

// countMetrics maps per-layer count metrics to the per-op counts they
// average, with a scale factor.
var countMetrics = map[string]struct {
	key   string
	scale float64
}{
	"decode.captures_per_reveal":    {"decode.captures", 1},
	"decode.escalated_frac":         {"decode.escalated", 1},
	"campaign.journal_records":      {"campaign.journal_records", 1},
	"campaign.checkpoints":          {"campaign.checkpoints", 1},
	"storage.syncs_per_op":          {"storage.syncs", 1},
	"storage.image_write_mb_per_op": {"storage.image_bytes", 1e-6},
	"sim.raw_ber":                   {"sim.raw_ber", 1},
	"sim.residual_ber":              {"sim.residual_ber", 1},
}

// layerMetrics derives the per-layer metrics from a trace: span self
// times as medians over the traced ops; counts as means over the first
// exactOps ops (0: all), so they repeat exactly for one seed however
// many ops a run fits; coverage; and the overhead against the untraced
// ops' wall times plain.
func layerMetrics(res *runResult, tr *tracer, exactOps int, plain []float64) {
	spans, counts := tr.snapshot()
	ops := profiles(spans)
	ids := make([]int, 0, len(ops))
	for id := range ops {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	over := func(f func(p *opProfile) float64) float64 {
		xs := make([]float64, len(ids))
		for k, id := range ids {
			xs[k] = f(ops[id])
		}
		return median(xs)
	}
	set := func(name string, v float64) { res.Metrics[name] = value{v, unitOf(name)} }
	for _, d := range perLayer {
		if s, ok := layerSpan(d.Name); ok {
			set(d.Name, over(func(p *opProfile) float64 { return float64(p.selfTime[s]) / 1e9 }))
		}
	}
	set("trace.coverage_frac", over(func(p *opProfile) float64 { return float64(p.covered) / float64(p.wall) }))
	if m := median(plain); m > 0 {
		set("trace.overhead_frac", over(func(p *opProfile) float64 { return float64(p.wall) / 1e9 })/m-1)
	}
	set("http.submit_rtt_ms.p50", over(func(p *opProfile) float64 {
		if d := p.durs["http.submit"]; len(d) > 0 {
			return float64(d[0]) / 1e6
		}
		return 0
	}))

	exact := ids
	if exactOps > 0 && exactOps < len(ids) {
		exact = ids[:exactOps]
	}
	for name, c := range countMetrics {
		var sum float64
		n := 0
		for _, id := range exact {
			v, ok := counts[id][c.key]
			// A channel-error count is one measurement on the ops that
			// made one; the other counts read 0 on an op that saw none.
			if !ok && strings.HasPrefix(name, "sim.") {
				continue
			}
			sum += v
			n++
		}
		if n > 0 {
			set(name, sum/float64(n)*c.scale)
		}
	}
	res.Breakdown = breakdown(spans, ops, ids)
}

// breakdown is the "where does the time go" table: each span's median
// per-op self time as a share of the op's wall time, largest first, and
// the share no span covers.
func breakdown(spans []span, ops map[int]*opProfile, ids []int) []share {
	twin := map[string]bool{}
	for _, s := range spans {
		if s.Op >= 0 && !isRoot(s) {
			twin[s.Name] = s.Twin
		}
	}
	var rows []share
	for name, isTwin := range twin {
		xs := make([]float64, len(ids))
		for k, id := range ids {
			xs[k] = float64(ops[id].selfTime[name]) / float64(ops[id].wall)
		}
		if m := median(xs); m > 0 {
			rows = append(rows, share{Span: name, Share: m, Twin: isTwin})
		}
	}
	cov := make([]float64, len(ids))
	for k, id := range ids {
		cov[k] = float64(ops[id].covered) / float64(ops[id].wall)
	}
	rows = append(rows, share{Span: "(not in any span)", Share: 1 - median(cov)})
	sort.Slice(rows, func(i, j int) bool { return rows[i].Share > rows[j].Share })
	return rows
}

// unitOf is the declared unit of a metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
