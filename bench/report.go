package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// schema names the report format. Rows of different schemas, or of
// different hosts, are not comparable.
const schema = "invisiblebits/bench/v8"

// metricDef declares a metric: its unit, which direction is better, and
// for end-to-end metrics the bound — the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports from an untraced run.
// An op is the workload's unit of work as its user waits for it: one
// round trip, one reveal, one campaign run and decoded, one campaign
// submitted over HTTP and awaited. ops_per_s is the closed loop's rate.
// The bounds are set by the run-to-run spread measured over ten seeds
// on a shared 2-CPU host (README.md): op times spread by 2-23% there,
// depending on the hour, so a tighter bound would flag noise.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_s.p50", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// workloadBound is the bound of a workload's own end-to-end metric
// (WorkloadMetrics): a phase median or a rate repeats like the shared
// metric it refines and takes its bound. Tails and the service's
// open-loop metrics did not repeat within any usable bound over ten
// seeds, so they are reported but not gated (0).
func workloadBound(metric string) float64 {
	switch {
	case strings.HasSuffix(metric, ".p50") && !strings.HasPrefix(metric, "submit_ms"):
		return boundOf("op_s.p50")
	case metric == "reveals_per_s":
		return boundOf("ops_per_s")
	}
	return 0
}

func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	return 0
}

// perLayer are the metrics every workload reports from a traced run. A
// metric ending in _s is the median over traced ops of the op's self
// time in that layer; a layer a workload never enters reads 0.
var perLayer = []metricDef{
	{"device.new_s", "s", "lower", 0},
	{"device.load_s", "s", "lower", 0},
	{"progen.writer_s", "s", "lower", 0},
	{"asm.assemble_s", "s", "lower", 0},
	{"rig.load_program_s", "s", "lower", 0},
	{"cpu.run_firmware_s", "s", "lower", 0},
	{"sram.power_on_s", "s", "lower", 0},
	{"sram.stress_s", "s", "lower", 0},
	{"sram.capture_s", "s", "lower", 0},
	{"sram.capture_allocs", "count", "lower", 0},
	{"sram.capture_scaling", "ratio", "higher", 0},
	{"core.build_payload_s", "s", "lower", 0},
	{"core.finish_s", "s", "lower", 0},
	{"ecc.decode_s", "s", "lower", 0},
	{"stegocrypt.ctr_s", "s", "lower", 0},
	{"core.decode_votes_s", "s", "lower", 0},
	{"core.verify_s", "s", "lower", 0},
	{"core.decode_adaptive_self_s", "s", "lower", 0},
	{"decode.captures_per_reveal", "count", "lower", 0},
	{"decode.escalated_frac", "frac", "lower", 0},
	{"campaign.run_self_s", "s", "lower", 0},
	{"campaign.decode_self_s", "s", "lower", 0},
	{"campaign.journal_records", "count", "lower", 0},
	{"campaign.checkpoints", "count", "lower", 0},
	{"storage.journal_sync_s", "s", "lower", 0},
	{"storage.syncs_per_op", "count", "lower", 0},
	{"storage.image_write_s", "s", "lower", 0},
	{"storage.image_write_mb_per_op", "MB", "lower", 0},
	{"http.submit_rtt_ms.p50", "ms", "lower", 0},
	{"sched.drain_s", "s", "lower", 0},
	{"sched.passes", "1/campaign", "lower", 0},
	{"sched.batched_slices", "1/campaign", "higher", 0},
	{"sim.chamber_h_per_campaign", "h", "lower", 0},
	{"loadgen.late_ms.max", "ms", "lower", 0},
	{"go.alloc_mb_per_op", "MB", "lower", 0},
	{"go.gc_per_op", "count", "lower", 0},
	{"sim.raw_ber", "frac", "lower", 0},
	{"sim.residual_ber", "frac", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.coverage_frac", "frac", "higher", 0},
}

// exactMetrics are per-layer counts that a run with the same seed must
// reproduce bit for bit: a change that only speeds up the simulator
// leaves them unchanged. storage.syncs_per_op is exact only where the
// workload's ops do all their own writes (campaign-durable).
var exactMetrics = map[string]bool{
	"sram.capture_allocs":           true,
	"decode.captures_per_reveal":    true,
	"decode.escalated_frac":         true,
	"campaign.journal_records":      true,
	"campaign.checkpoints":          true,
	"storage.image_write_mb_per_op": true,
	"sim.raw_ber":                   true,
	"sim.residual_ber":              true,
}

func isExact(workload, metric string) bool {
	return exactMetrics[metric] || metric == "storage.syncs_per_op" && workload == "campaign-durable"
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// share is one row of a "where does the time go" table: a span's median
// per-op self time as a share of the op's wall time.
type share struct {
	Span  string  `json:"span"`
	Share float64 `json:"share"`
	Twin  bool    `json:"twin,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Ops is the number of ops the timings are taken over.
	Ops int `json:"ops"`
	// SetupS lists each timed set-up; setup_s is their median.
	SetupS []float64 `json:"setup_runs_s,omitempty"`
	// Inputs records input choices worth seeing, such as the fleet's
	// carriers and shelf times.
	Inputs []string `json:"inputs,omitempty"`
	// Metrics holds the endToEnd metrics (untraced) or the perLayer
	// metrics (traced).
	Metrics map[string]value `json:"metrics"`
	// WorkloadMetrics holds the workload's own end-to-end metrics, named
	// after what its user waits for (hide_s, reveal_s, submit_ms, ...).
	WorkloadMetrics map[string]value `json:"workload_metrics,omitempty"`
	Breakdown       []share          `json:"breakdown,omitempty"`
}

// maxProblems bounds the problems a run lists; the first ones explain
// the rest.
const maxProblems = 20

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// summaryLine is the one-line summary printed last by a single-workload
// run.
func (r *runResult) summaryLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// hostInfo pins a report to the machine that produced it.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// AVX512 reports the avx512f, avx512dq and avx512vl CPU flags the
	// capture kernel's vector path needs.
	AVX512  bool   `json:"avx512"`
	StateFS string `json:"state_fs"`
}

func host(stateDir string) hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		AVX512:     hasAVX512(),
		StateFS:    fsType(stateDir),
	}
}

func hasAVX512() bool {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		flags := map[string]bool{}
		for _, f := range strings.Fields(line) {
			flags[f] = true
		}
		return flags["avx512f"] && flags["avx512dq"] && flags["avx512vl"]
	}
	return false
}

// fsType names the filesystem holding dir, from the longest matching
// mount point in /proc/self/mounts ("unknown" off Linux).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		within := abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")
		if within && len(mnt) > len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / 1e6
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// summaryRow is one metric of one workload across the runs of a -runs
// check.
type summaryRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	IQRFrac  float64   `json:"iqr_frac"`
	Bound    float64   `json:"bound,omitempty"`
	Exact    bool      `json:"exact,omitempty"`
	OK       bool      `json:"ok"`
}

// report is the JSON document every invocation writes.
type report struct {
	Schema  string       `json:"schema"`
	Host    hostInfo     `json:"host"`
	Runs    []runResult  `json:"runs"`
	Summary []summaryRow `json:"summary,omitempty"`
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rep, nil
}
