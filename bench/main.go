// Command bench is the repository's end-to-end benchmark: four
// workloads driven through the public entry points of core, campaign and
// sched (and the scheduler's HTTP front door over loopback), each
// checked for correct output, each reporting its end-to-end metrics from
// an untraced run and its per-layer metrics from a separate traced run.
// See README.md for the workloads and metrics.
//
// One workload, in this process:
//
//	bench -workload paper-roundtrip -seed 1 -seconds 20 -trace 0
//
// prints every metric with its unit, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}; it exits 1 when
// any output was wrong. Without -workload it runs the whole suite, each
// workload untraced and traced in a child process of its own, and with
// -runs N repeats it N times in alternating order and checks that every
// end-to-end metric repeats within its bound and every exact count
// repeats exactly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: the whole suite, one process per workload)")
		seed    = flag.Uint64("seed", 1, "workload seed: serials, messages, keys and tenants derive from it")
		seconds = flag.Int("seconds", 20, "how long each run measures")
		trace   = flag.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
		runs    = flag.Int("runs", 1, "suite only: repeat the suite this many times and check that it repeats")
		dir     = flag.String("dir", filepath.Join(".bench_build", "state"), "directory for campaign and scheduler state")
		out     = flag.String("o", "", "JSON report path (default .bench_build/report[-<workload>-trace<n>].json)")
		spans   = flag.String("spans", "", "traced run only: also write every span to this JSON file")
	)
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be at least 1, -trace 0 or 1")
		os.Exit(2)
	}
	ctx := context.Background()
	if *name != "" {
		os.Exit(single(ctx, *name, *seed, *seconds, *trace == 1, *dir, *out, *spans))
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "report.json")
	}
	os.Exit(suite(ctx, *seed, *seconds, *runs, *dir, *out))
}

// single runs one workload and prints the one-line JSON summary last.
func single(ctx context.Context, name string, seed uint64, seconds int, traced bool, dir, out, spansPath string) int {
	w, ok := workloadByName(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (known: %s)\n", name, strings.Join(names, ", "))
		return 2
	}
	res, tr := runWorkload(ctx, w, fullSizes[name], seed, dir, seconds, traced)
	if tr != nil && spansPath != "" {
		if err := tr.writeSpans(spansPath); err != nil {
			res.problem("write spans: %v", err)
		}
	}
	if out == "" {
		trace := 0
		if traced {
			trace = 1
		}
		out = filepath.Join(".bench_build", fmt.Sprintf("report-%s-trace%d.json", name, trace))
	}
	if err := writeReport(out, &report{Schema: schema, Host: host(dir), Runs: []runResult{*res}}); err != nil {
		res.problem("write report: %v", err)
	}
	printRun(os.Stdout, res)
	line, err := res.summaryLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printRun prints a run's metrics, one per line, with units.
func printRun(wr io.Writer, r *runResult) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(wr, "== %s (%s, seed %d, %d s): %d ops timed, %d of %d attempted failed\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Ops, r.Failed, r.Attempted)
	for _, in := range r.Inputs {
		fmt.Fprintf(wr, "   input: %s\n", in)
	}
	printMetrics(wr, r.Metrics)
	if len(r.WorkloadMetrics) > 0 {
		fmt.Fprintln(wr, "   -- the same run in the workload's own terms")
		printMetrics(wr, r.WorkloadMetrics)
	}
	if len(r.Breakdown) > 0 {
		fmt.Fprintln(wr, "   -- where the time of a traced op goes (median self time / op wall time)")
		for _, s := range r.Breakdown {
			note := ""
			if s.Twin {
				note = " (twin, outside the op)"
			}
			fmt.Fprintf(wr, "   %-34s %6.1f%%%s\n", s.Span, 100*s.Share, note)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(wr, "   PROBLEM: %s\n", p)
	}
}

func printMetrics(wr io.Writer, m map[string]value) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(wr, "   %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// suite runs every workload untraced and traced, each in a child process
// of its own, runs times in alternating order.
func suite(ctx context.Context, seed uint64, seconds, runs int, dir, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	failed := false
	var all []runResult
	for r := 0; r < runs; r++ {
		order := slices.Clone(workloads)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			for _, trace := range []int{0, 1} {
				path := filepath.Join(".bench_build", "runs", fmt.Sprintf("%d-%s-trace%d.json", r, w.name, trace))
				cmd := exec.CommandContext(ctx, exe, "-workload", w.name,
					"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds),
					"-trace", strconv.Itoa(trace), "-dir", dir, "-o", path)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				runErr := cmd.Run()
				rep, err := readReport(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s trace %d: %v (%v)\n", w.name, trace, err, runErr)
					failed = true
					continue
				}
				all = append(all, rep.Runs...)
				if runErr != nil {
					failed = true
				}
			}
		}
	}
	rep := &report{Schema: schema, Host: host(dir), Runs: all}
	if runs > 1 {
		rep.Summary = summarize(all)
		fmt.Printf("== %d runs, seed %d: median and spread (IQR / median) per metric\n", runs, seed)
		for _, row := range rep.Summary {
			verdict := ""
			switch {
			case !row.OK && row.Exact:
				verdict = "  FAIL: exact count differs between runs"
			case !row.OK:
				verdict = fmt.Sprintf("  FAIL: spread above bound %g", row.Bound)
			}
			fmt.Printf("   %-16s %-34s %14.6g %-10s %7.2f%%%s\n",
				row.Workload, row.Metric, row.Median, row.Unit, 100*row.IQRFrac, verdict)
			if !row.OK {
				failed = true
			}
		}
	}
	if err := writeReport(out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", out)
	if failed {
		return 1
	}
	return 0
}

// summarize groups the runs' metrics by workload and checks the
// repeatability criterion: each end-to-end metric's spread within its
// bound (set-up time excepted, as it is only compared by its median),
// each exact count identical, and no op failed.
func summarize(runs []runResult) []summaryRow {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[key]string{}
	kinds := map[key]string{} // "e2e", "workload" or "layer"
	for _, r := range runs {
		add := func(kind string, m map[string]value) {
			for n, v := range m {
				k := key{r.Workload, n}
				values[k] = append(values[k], v.Value)
				units[k], kinds[k] = v.Unit, kind
			}
		}
		if r.Traced {
			add("layer", r.Metrics)
			continue
		}
		add("e2e", r.Metrics)
		add("workload", r.WorkloadMetrics)
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if kinds[keys[i]] != kinds[keys[j]] {
			return kinds[keys[i]] < kinds[keys[j]]
		}
		return keys[i].metric < keys[j].metric
	})
	rows := make([]summaryRow, 0, len(keys))
	for _, k := range keys {
		xs := values[k]
		row := summaryRow{Workload: k.workload, Metric: k.metric, Unit: units[k], Values: xs,
			Median: median(xs), IQRFrac: relativeIQR(xs), OK: true}
		switch kinds[k] {
		case "e2e":
			row.Bound = boundOf(k.metric)
		case "workload":
			row.Bound = workloadBound(k.metric)
		case "layer":
			row.Exact = isExact(k.workload, k.metric)
		}
		switch {
		case k.metric == "failed_frac":
			row.OK = slices.Max(xs) == 0
		case row.Exact:
			row.OK = slices.Min(xs) == slices.Max(xs)
		case row.Bound > 0 && k.metric != "setup_s":
			row.OK = row.IQRFrac <= row.Bound
		}
		rows = append(rows, row)
	}
	return rows
}
