package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 8, 7, 10, 9}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {90, 9}, {99, 10}, {10, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 4}, 1, 2, 4},
		{[]float64{5, 1, 3, 2, 8}, 1.5, 3, 6.5},
		{[]float64{3, 3}, 3, 3, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := relativeIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relativeIQR = %g, want 1", got)
	}
}

func TestSelfTimeWithNestedSpans(t *testing.T) {
	// op 0: root [0,100]; a [10,50] holds a1 [20,30]; b [40,70] runs
	// beside a (parallel slots); a twin [200,260] sits outside the op.
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "a", Start: 10, End: 50, Parent: 0, Op: 0},
		{Name: "a1", Start: 20, End: 30, Parent: 1, Op: 0},
		{Name: "b", Start: 40, End: 70, Parent: 0, Op: 0},
		{Name: "b", Start: 80, End: 85, Parent: 0, Op: 0},
		{Name: "twin", Start: 200, End: 260, Parent: -1, Op: 0, Twin: true},
	}
	self := selfTimes(spans)
	for i, want := range []int64{100 - 60 - 5, 40 - 10, 10, 30, 5, 60} {
		if self[i] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want)
		}
	}
	p := profiles(spans)[0]
	if p.wall != 100 || p.covered != 65 {
		t.Errorf("wall %d covered %d, want 100 and 65 (the twin is outside the op)", p.wall, p.covered)
	}
	if p.selfTime["b"] != 35 || p.selfTime["twin"] != 60 || p.selfTime["a"] != 30 {
		t.Errorf("per-name self times %v", p.selfTime)
	}
}

func TestTracerNestsSeamSpansUnderEntry(t *testing.T) {
	tr := newTracer()
	tr.beginOp(3)
	tr.enter("entry", func() error {
		tr.seam("seam", tr.now(), tr.now()+1)
		return tr.enter("inner", func() error { return nil })
	})
	tr.endOp()
	tr.seam("background", tr.now(), tr.now()+1)
	spans, _ := tr.snapshot()
	parent := map[string]int{}
	op := map[string]int{}
	for _, s := range spans {
		parent[s.Name], op[s.Name] = s.Parent, s.Op
	}
	if spans[parent["seam"]].Name != "entry" || spans[parent["inner"]].Name != "entry" || spans[parent["entry"]].Name != "op" {
		t.Errorf("parents: %v over %+v", parent, spans)
	}
	if op["background"] != -1 || parent["background"] != -1 || op["seam"] != 3 {
		t.Errorf("a seam span after the op must belong to no op: %+v", spans)
	}
}

// benchmarkFile mirrors the fields of ../BENCHMARK.json the benchmark
// itself defines.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, code %q %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: file has %d metrics, the code %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: file %+v, code %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced, and checks that each run is correct, fails no op, and reports
// every declared metric; traced runs also check that traced and
// untraced ops gave the same outputs.
func TestWorkloadsSmoke(t *testing.T) {
	start := time.Now()
	ctx := context.Background()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, _ := runWorkload(ctx, w, tinySizes[w.name], 3, t.TempDir(), 0, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d problems=%q",
					w.name, traced, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.Name, v, d.Unit)
				}
			}
			if traced {
				if c := res.Metrics["trace.coverage_frac"].Value; c < 0.9 {
					t.Errorf("%s: span coverage %.3f below 0.9", w.name, c)
				}
				continue
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %g", w.name, d.Name, res.Metrics[d.Name].Value)
				}
			}
			if v, ok := res.WorkloadMetrics["failed_frac"]; !ok || v.Value != 0 {
				t.Errorf("%s: failed_frac %+v", w.name, v)
			}
		}
	}
	t.Logf("all workloads, untraced and traced, in %v", time.Since(start))
}
