package invisiblebits

// One benchmark per table/figure of the paper's evaluation. Each bench
// runs the corresponding experiment harness end to end (device fleet
// instantiation, encoding soaks, power-on sampling, statistics) and
// reports the headline measurement via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the full evaluation and
// bench_output.txt doubles as a results log. EXPERIMENTS.md maps each
// bench to the paper's numbers.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"invisiblebits/internal/experiments"
	"invisiblebits/internal/sram"
)

// benchConfig keeps per-iteration cost low while staying inside every
// acceptance band (per-cell statistics on 4 KB arrays have ~0.25 pp
// standard error).
func benchConfig() experiments.Config {
	return experiments.Config{SRAMLimitBytes: 4 << 10, Captures: 5, FleetSeed: "bench"}
}

// runExperiment executes the experiment b.N times and returns the last
// result for metric extraction.
func runExperiment(b *testing.B, id string) experiments.Result {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkFig1VisualPipeline(b *testing.B) {
	res := runExperiment(b, "fig1").(*experiments.Fig1Result)
	b.ReportMetric(100*res.ReceivedError, "received-pixel-err-%")
	b.ReportMetric(res.EncBias, "encrypted-bias")
}

func BenchmarkFig2StartupTransient(b *testing.B) {
	res := runExperiment(b, "fig2").(*experiments.Fig2Result)
	b.ReportMetric(res.SettlePostNanos, "settle-ns")
}

func BenchmarkFig3AccelerationKnobs(b *testing.B) {
	res := runExperiment(b, "fig3").(*experiments.Fig3Result)
	last := len(res.StressHrs) - 1
	b.ReportMetric(res.PctOnes[3][last], "accel-4h-pct-ones")
}

func BenchmarkFig6ErrorVsStressTime(b *testing.B) {
	res := runExperiment(b, "fig6").(*experiments.Fig6Result)
	b.ReportMetric(100*res.Mean[len(res.Mean)-1], "err-10h-%")
	b.ReportMetric(100*res.Mean[0], "err-2h-%")
}

func BenchmarkTable2SpatialAutocorrelation(b *testing.B) {
	res := runExperiment(b, "tab2").(*experiments.Table2Result)
	maxI := 0.0
	for _, row := range res.Rows {
		if row.MoranI > maxI {
			maxI = row.MoranI
		}
	}
	b.ReportMetric(maxI, "max-moran-I")
}

func BenchmarkFig7NaturalRecovery(b *testing.B) {
	res := runExperiment(b, "fig7").(*experiments.Fig7Result)
	b.ReportMetric(res.NormalizedError[4], "err-factor-4wk")
	b.ReportMetric(res.NormalizedError[14], "err-factor-14wk")
}

func BenchmarkNormalOperation(b *testing.B) {
	res := runExperiment(b, "sec514").(*experiments.Sec514Result)
	b.ReportMetric(res.OperationFactor, "err-factor-op-1wk")
	b.ReportMetric(res.ShelfFactor, "err-factor-shelf-1wk")
}

func BenchmarkFig8RepetitionVisual(b *testing.B) {
	res := runExperiment(b, "fig8").(*experiments.Fig8Result)
	b.ReportMetric(100*res.Errors[len(res.Errors)-1], "pixel-err-7copies-%")
}

func BenchmarkFig9CopiesTimesStress(b *testing.B) {
	res := runExperiment(b, "fig9").(*experiments.Fig9Result)
	lastHour := res.Errors[len(res.Errors)-1]
	b.ReportMetric(100*lastHour[len(lastHour)-1], "err-6h-19copies-%")
}

func BenchmarkFig10HammingPlusRepetition(b *testing.B) {
	res := runExperiment(b, "fig10").(*experiments.Fig10Result)
	b.ReportMetric(100*res.SingleCopyMean, "single-copy-err-%")
	b.ReportMetric(float64(res.ZeroErrorAt), "zero-at-copies")
}

func BenchmarkTable3Comparison(b *testing.B) {
	res := runExperiment(b, "tab3").(*experiments.Table3Result)
	b.ReportMetric(100*res.ZuckErrAfterRewrite, "zuck-err-post-rewrite-%")
	b.ReportMetric(100*res.IBErrAfterRewrite, "ib-err-post-rewrite-%")
}

func BenchmarkTable4DeviceSummary(b *testing.B) {
	res := runExperiment(b, "tab4").(*experiments.Table4Result)
	for _, row := range res.Rows {
		if row.Device == "MSP432P401" {
			b.ReportMetric(100*row.BitRate, "msp432-bitrate-%")
		}
	}
}

func BenchmarkFig11HammingWeightDensity(b *testing.B) {
	res := runExperiment(b, "fig11").(*experiments.Fig11Result)
	b.ReportMetric(res.MeanPlain, "plain-mean-hw")
	b.ReportMetric(res.MeanEncrypted, "encrypted-mean-hw")
}

func BenchmarkFig12Entropy(b *testing.B) {
	res := runExperiment(b, "fig12").(*experiments.Fig12Result)
	b.ReportMetric(res.NormEncrypted, "encrypted-norm-entropy")
	b.ReportMetric(res.NormPlain, "plain-norm-entropy")
}

func BenchmarkTable5Deniability(b *testing.B) {
	res := runExperiment(b, "tab5").(*experiments.Table5Result)
	var maxPlain float64
	for _, row := range res.Rows {
		if row.MoranI > maxPlain {
			maxPlain = row.MoranI
		}
	}
	b.ReportMetric(maxPlain, "max-plain-moran-I")
}

func BenchmarkWelchTTest(b *testing.B) {
	res := runExperiment(b, "sec6").(*experiments.WelchResult)
	b.ReportMetric(res.Test.POneTailed, "p-one-tailed")
}

func BenchmarkFig14MultiSnapshot(b *testing.B) {
	res := runExperiment(b, "fig14").(*experiments.Fig14Result)
	b.ReportMetric(res.MaxMoranI, "max-moran-I")
}

func BenchmarkFig15ErrorCapacity(b *testing.B) {
	res := runExperiment(b, "fig15").(*experiments.Fig15Result)
	b.ReportMetric(100*res.SingleErrors[1], "msp432-single-err-%")
}

func BenchmarkCapacityComparison(b *testing.B) {
	res := runExperiment(b, "sec53").(*experiments.Sec53Result)
	b.ReportMetric(res.FactorVsWang5, "capacity-factor-x")
	b.ReportMetric(res.FactorVsWangBest, "best-device-factor-x")
}

func BenchmarkAdversarialAging(b *testing.B) {
	res := runExperiment(b, "sec74").(*experiments.Sec74Result)
	b.ReportMetric(res.AttackFactor, "attack-factor")
	b.ReportMetric(res.RepairFactor, "repair-factor")
}

func BenchmarkModelValidation(b *testing.B) {
	res := runExperiment(b, "modelcheck").(*experiments.ModelCheckResult)
	b.ReportMetric(100*res.RaceAgreement, "race-agreement-%")
}

func BenchmarkFirmwareOperation(b *testing.B) {
	res := runExperiment(b, "fwop").(*experiments.FirmwareOpResult)
	b.ReportMetric(res.FirmwareFactor, "firmware-err-factor")
	b.ReportMetric(res.ModelFactor, "model-err-factor")
}

// --- ablation benches (DESIGN.md §5) ------------------------------------------

// BenchmarkAblationCaptureCount quantifies the §4.3 claim that five
// power-on captures suffice.
func BenchmarkAblationCaptureCount(b *testing.B) {
	res := runExperiment(b, "abl-captures").(*experiments.AblCapturesResult)
	for i, n := range res.Captures {
		b.ReportMetric(100*res.Errors[i], fmt.Sprintf("err-%dcap-%%", n))
	}
}

// BenchmarkAblationSoftDecoding contrasts hard majority voting with
// soft-decision combining on a weak (2h, 3-copy) encoding.
func BenchmarkAblationSoftDecoding(b *testing.B) {
	res := runExperiment(b, "abl-soft").(*experiments.AblSoftResult)
	b.ReportMetric(100*res.HardError, "hard-err-%")
	b.ReportMetric(100*res.SoftError, "soft-err-%")
}

// BenchmarkAblationECCOrder measures footnote 7: repetition∘Hamming vs
// Hamming∘repetition on the same channel.
func BenchmarkAblationECCOrder(b *testing.B) {
	res := runExperiment(b, "abl-eccorder").(*experiments.AblECCOrderResult)
	b.ReportMetric(100*res.HamThenRep, "ham-rep-err-%")
	b.ReportMetric(100*res.RepThenHam, "rep-ham-err-%")
}

// BenchmarkAblationCipherChoice contrasts CTR vs CBC error amplification
// (§4.1) on a synthetic 0.8% channel.
func BenchmarkAblationCipherChoice(b *testing.B) {
	res := runExperiment(b, "abl-cipher").(*experiments.AblCipherResult)
	b.ReportMetric(100*res.CTRError, "ctr-err-%")
	b.ReportMetric(100*res.CBCError, "cbc-err-%")
}

// --- capture-path benches (PR 3 tentpole) -------------------------------------

// newCaptureArray builds an aged array of the given size wired to a
// private pool, so worker counts can be compared without disturbing the
// process-wide shared pool.
func newCaptureArray(b *testing.B, bytes, workers int) *sram.Array {
	b.Helper()
	spec := sram.DefaultSpec()
	spec.Rows = 256
	spec.Cols = bytes * 8 / spec.Rows
	spec.Seed = 0xbe2c
	spec.Workers = workers
	a, err := sram.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := a.PowerOn(25); err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkCapturePath measures the raw capture engine: a full
// power-cycle burst with per-cell counter-derived noise, across array
// size × burst length × worker count. The CaptureVotePlaneInto arm is
// the burst alone, which counts into a bit-sliced plane; the
// CaptureVotesInto arm adds the unpack to per-cell uint16 counts.
// BENCH_3.json records the same grid for per-cell counts, taken by the
// since-retired cmd/ibbench; bash bench/run.sh times captures end to
// end.
func BenchmarkCapturePath(b *testing.B) {
	workerGrid := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerGrid = append(workerGrid, n)
	}
	ctx := context.Background()
	for _, size := range []struct {
		name  string
		bytes int
	}{{"4KiB", 4 << 10}, {"64KiB", 64 << 10}} {
		for _, captures := range []int{5, 25} {
			for _, workers := range workerGrid {
				for _, arm := range []string{"CaptureVotePlaneInto", "CaptureVotesInto"} {
					b.Run(fmt.Sprintf("%s/%dcap/%dw/%s", size.name, captures, workers, arm), func(b *testing.B) {
						a := newCaptureArray(b, size.bytes, workers)
						var plane sram.VotePlane
						burst := func() error { return a.CaptureVotePlaneInto(ctx, captures, 25, &plane) }
						if arm == "CaptureVotesInto" {
							votes := make([]uint16, a.Cells())
							burst = func() error { return a.CaptureVotesInto(ctx, captures, 25, votes) }
						}
						b.SetBytes(int64(size.bytes * captures))
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if err := burst(); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}

// --- aging-path benches (PR 4 tentpole) ---------------------------------------

// BenchmarkStressPath measures the encoding soak hot loop — the per-cell
// defect-pool growth that dominates Hide() — across array size. BENCH_3
// only timed captures; the aging engine was invisible to it. BENCH_4.json
// records the same loop against the legacy per-cell-Pow engine, now the
// test-only StressReference oracle.
func BenchmarkStressPath(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"4KiB", 4 << 10}, {"64KiB", 64 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			a := newCaptureArray(b, size.bytes, 0)
			cond := a.Spec().Aging.Ref
			b.SetBytes(int64(size.bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Stress(cond, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShelvePath measures unpowered shelf decay — recoverable-pool
// relaxation plus the bias-plane rebuild — the other per-cell aging loop
// Hide()/retention probes lean on.
func BenchmarkShelvePath(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"4KiB", 4 << 10}, {"64KiB", 64 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			a := newCaptureArray(b, size.bytes, 0)
			cond := a.Spec().Aging.Ref
			if err := a.Stress(cond, 2); err != nil {
				b.Fatal(err)
			}
			a.PowerOff(true)
			b.SetBytes(int64(size.bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Shelve(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
