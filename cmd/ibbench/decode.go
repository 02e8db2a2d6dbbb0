// Decode-grid mode (-decodegrid): benchmarks the word-parallel decode
// pipeline — vote counters to verified plaintext — against the retained
// scalar decoders and records the trajectory as BENCH_7.json.
//
// Layers under test, one contract:
//
//   - ecc.Pipeline    — LUT Hamming(7,4), bit-sliced repetition
//     majority, cached interleave permutations, zero-alloc scratch.
//   - core.DecodeArena — the fused decode tail: branchless
//     hard-decision, cached CTR keystream, compiled pipeline, alloc-free
//     digest verify.
//   - stats plane kernels — packed Moran's I and vote-histogram health
//     aggregation, the fleet-sweep statistics.
//
// Before timing, equivalence is gated: every pipeline decode must be
// bit-identical to ecc.DecodeScalar (the pre-pipeline implementation,
// retained verbatim), the arena tail must reproduce the scalar tail's
// plaintext exactly, and an adaptive decode on a pooled arena must
// produce a deeply equal DecodeReport to one on a caller-owned arena.
// Warm arena decodes are additionally gated on zero allocations per op.
// Either gate failing aborts the run, so a BENCH_7.json with
// "decode_bit_identical": true is itself the equivalence certificate.
// The scalar ns/op recorded in every row is the pre-pipeline baseline
// timed on the same host in the same process.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/stegocrypt"
)

type decodePoint struct {
	Name     string  `json:"name"`
	MsgBytes int     `json:"message_bytes,omitempty"`
	Payload  int     `json:"payload_bytes,omitempty"`
	Cells    int     `json:"cells,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"bytes_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
	// ScalarNsPerOp is the pre-pipeline scalar implementation timed on
	// the same host for the same row — the pre-PR baseline.
	ScalarNsPerOp   float64 `json:"scalar_ns_per_op,omitempty"`
	SpeedupVsScalar float64 `json:"speedup_vs_scalar,omitempty"`
}

type decodeReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick,omitempty"`
	// Equivalent: every pipeline/arena decode was bit-identical to the
	// scalar chain (plaintext, unresolved masks, errors, adaptive
	// reports). Checked before any timing.
	Equivalent bool `json:"decode_bit_identical"`
	// ZeroAlloc: warm arena decodes and warm pipeline decodes performed
	// zero heap allocations per op.
	ZeroAlloc  bool          `json:"warm_decode_zero_alloc"`
	DecodeTail []decodePoint `json:"decode_tail_grid"`
	VotesTail  []decodePoint `json:"votes_tail_grid"`
	Workers    []decodePoint `json:"decode_workers_grid"`
	SweepStats []decodePoint `json:"sweep_stats_grid"`
}

// decodeCodecs is the benched codec ladder: the bare Hamming code, the
// paper's concatenation (Hamming(7,4) over 7-way repetition), and the
// full interleaved stack the 5× gate targets.
func decodeCodecs() []ecc.Codec {
	rep7, err := ecc.NewRepetition(7)
	if err != nil {
		fail(err)
	}
	inner := ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep7}
	return []ecc.Codec{
		ecc.Hamming74{},
		inner,
		ecc.Interleaver{Depth: 8, Next: inner},
	}
}

// msgBytesForPayload returns the largest message size whose coded form
// fits in target payload bytes.
func msgBytesForPayload(c ecc.Codec, target int) int {
	m := 1
	for c.EncodedLen(m+1) <= target {
		m++
	}
	return m
}

// scalarVotesTail is the pre-PR decode tail reproduced from exported
// pieces: per-bit hard decision (payload bit set iff 2·votes < total),
// allocate-and-decrypt via StreamXOR, scalar ECC decode, digest verify.
// The equivalence gate proves it agrees with the arena tail before
// either is timed.
func scalarVotesTail(rec *core.Record, codec ecc.Codec, votes []uint16, total int, key *stegocrypt.Key) ([]byte, error) {
	payload := make([]byte, rec.PayloadBytes)
	for i := 0; i < rec.PayloadBytes*8; i++ {
		if 2*int(votes[i]) < total {
			payload[i/8] |= 1 << (i % 8)
		}
	}
	if rec.Encrypted {
		var err error
		payload, err = stegocrypt.StreamXOR(*key, rec.DeviceID, payload)
		if err != nil {
			return nil, err
		}
	}
	codedLen := codec.EncodedLen(rec.MessageBytes)
	msg, err := ecc.DecodeScalar(codec, payload[:codedLen], rec.MessageBytes)
	if err != nil {
		return nil, err
	}
	if rec.HasDigest() {
		if err := rec.VerifyMessage(msg, key); err != nil {
			return nil, err
		}
	}
	return msg, nil
}

// decodeRig encodes a message filling an sramBytes device and samples a
// capture burst, returning everything the tail rows need.
func decodeRig(serial string, sramBytes int, codec ecc.Codec, key *stegocrypt.Key) (*core.Record, []uint16, core.Options, error) {
	m, err := device.ByName("MSP432P401")
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	d, err := device.New(m, serial, device.WithSRAMLimit(sramBytes))
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	r := rig.New(d)
	opts := core.Options{Codec: codec, Key: key}
	msgBytes := core.MaxMessageBytes(sramBytes, codec)
	msg := make([]byte, msgBytes)
	rng.NewSource(benchSeed).Bytes(msg)
	rec, err := core.Encode(r, msg, opts)
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	votes, err := r.SampleVotes(core.DefaultCaptures)
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	return rec, votes, opts, nil
}

// checkDecodeEquivalence is the gate the v7 numbers rest on.
func checkDecodeEquivalence() error {
	// ECC layer: pipeline == scalar on clean codewords, corrupted
	// codewords and arbitrary garbage, and the erasure fast paths agree
	// with the scalar erasure oracle, across word-boundary sizes.
	src := rng.NewSource(benchSeed)
	for _, codec := range decodeCodecs() {
		p := ecc.NewPipeline(codec)
		for _, msgBytes := range []int{1, 7, 8, 9, 64, 65, 257} {
			payload := make([]byte, codec.EncodedLen(msgBytes))
			for trial := 0; trial < 6; trial++ {
				if trial < 3 {
					msg := make([]byte, msgBytes)
					src.Bytes(msg)
					coded, err := codec.Encode(msg)
					if err != nil {
						return err
					}
					copy(payload, coded)
					for f := 0; f < trial*len(payload)/4; f++ {
						bit := src.Intn(len(payload) * 8)
						payload[bit/8] ^= 1 << (bit % 8)
					}
				} else {
					src.Bytes(payload)
				}
				want, wantErr := ecc.DecodeScalar(codec, payload, msgBytes)
				got, gotErr := codec.Decode(payload, msgBytes)
				if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
					return fmt.Errorf("%s/%dB: Decode diverges from scalar", codec.Name(), msgBytes)
				}
				dst := make([]byte, msgBytes)
				if err := p.DecodeInto(dst, payload, msgBytes); err != nil || !bytes.Equal(dst, want) {
					return fmt.Errorf("%s/%dB: pipeline diverges from scalar (err %v)", codec.Name(), msgBytes, err)
				}
				if dec, ok := codec.(ecc.ErasureDecoder); ok {
					mask := make([]bool, len(payload)*8)
					for i := range mask {
						mask[i] = src.Intn(4) == 0
					}
					wm, wu, we := ecc.DecodeErasureScalar(codec, payload, mask, msgBytes)
					gm, gu, ge := dec.DecodeErasure(payload, mask, msgBytes)
					if (ge == nil) != (we == nil) || !bytes.Equal(gm, wm) || !reflect.DeepEqual(gu, wu) {
						return fmt.Errorf("%s/%dB: erasure decode diverges from scalar", codec.Name(), msgBytes)
					}
				}
			}
		}
	}

	// Core tail: the arena's fused votes→plaintext must reproduce the
	// scalar tail exactly, encrypted (HMAC digest) and plain (CRC).
	key := stegocrypt.KeyFromPassphrase("bench7-tail")
	codec := decodeCodecs()[2]
	for _, enc := range []struct {
		name string
		key  *stegocrypt.Key
	}{{"hmac", &key}, {"crc", nil}} {
		rec, votes, opts, err := decodeRig("bench7-eq-"+enc.name, 4<<10, codec, enc.key)
		if err != nil {
			return err
		}
		want, err := scalarVotesTail(rec, codec, votes, core.DefaultCaptures, enc.key)
		if err != nil {
			return fmt.Errorf("scalar tail (%s): %w", enc.name, err)
		}
		arena := core.NewDecodeArena()
		for rep := 0; rep < 3; rep++ { // warm reuse must stay identical
			got, err := arena.DecodeVotes(rec, votes, core.DefaultCaptures, opts)
			if err != nil {
				return fmt.Errorf("arena tail (%s): %w", enc.name, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("arena tail (%s) diverges from scalar tail", enc.name)
			}
		}
	}

	// Adaptive ladder: decodes of twin hostile rigs on a pooled arena
	// (nil Options.Arena) and on a caller-owned arena must agree on
	// plaintext AND the full DecodeReport.
	run := func(callerArena bool) ([]byte, *core.DecodeReport, error) {
		m, err := device.ByName("MSP432P401")
		if err != nil {
			return nil, nil, err
		}
		d, err := device.New(m, "bench7-ladder", device.WithSRAMLimit(4<<10))
		if err != nil {
			return nil, nil, err
		}
		r := rig.New(d, rig.WithInjector(faults.New(faults.Profile{Seed: 7, WeakFrac: 0.14}, d.Serial)))
		opts := core.Options{Codec: decodeCodecs()[1], Key: &key, StressHours: 14}
		msg := make([]byte, 192)
		rng.NewSource(benchSeed + 1).Bytes(msg)
		rec, err := core.Encode(r, msg, opts)
		if err != nil {
			return nil, nil, err
		}
		if err := r.ShelveFor(2 * 365 * 24); err != nil {
			return nil, nil, err
		}
		if callerArena {
			opts.Arena = core.NewDecodeArena()
		}
		got, rep, err := core.DecodeAdaptive(context.Background(), r, rec, core.AdaptiveOptions{Options: opts})
		if err != nil {
			return nil, nil, err
		}
		out := make([]byte, len(got))
		copy(out, got)
		return out, rep, nil
	}
	pooledMsg, pooledRep, err := run(false)
	if err != nil {
		return fmt.Errorf("adaptive pooled arena: %w", err)
	}
	ownMsg, ownRep, err := run(true)
	if err != nil {
		return fmt.Errorf("adaptive caller-owned arena: %w", err)
	}
	if !bytes.Equal(pooledMsg, ownMsg) || !reflect.DeepEqual(pooledRep, ownRep) {
		return fmt.Errorf("adaptive decode diverges between pooled and caller-owned arena (report or plaintext)")
	}

	// Sweep stats: packed Moran agrees with the expanded oracle to
	// float rounding, health tables are exact by construction (gated in
	// the unit suite).
	snap := make([]byte, 8<<10)
	rng.NewSource(benchSeed + 2).Bytes(snap)
	rows, cols := 256, len(snap)*8/256
	want, err := stats.MoranIBits(expandPlane(snap), rows, cols)
	if err != nil {
		return err
	}
	got, err := stats.MoranIPacked(snap, rows, cols)
	if err != nil {
		return err
	}
	if rel := math.Abs(got.I-want.I) / math.Max(math.Abs(want.I), 1e-9); rel > 1e-9 {
		return fmt.Errorf("packed Moran I %v vs expanded %v (rel %v)", got.I, want.I, rel)
	}
	return nil
}

// checkDecodeZeroAlloc gates the warm paths on zero allocations per op.
func checkDecodeZeroAlloc() error {
	for _, codec := range decodeCodecs() {
		const msgBytes = 257
		p := ecc.NewPipeline(codec)
		payload := make([]byte, codec.EncodedLen(msgBytes))
		dst := make([]byte, msgBytes)
		if err := p.DecodeInto(dst, payload, msgBytes); err != nil {
			return err
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := p.DecodeInto(dst, payload, msgBytes); err != nil {
				panic(err)
			}
		}); n != 0 {
			return fmt.Errorf("warm pipeline decode of %s allocates %.1f objects/op, want 0", codec.Name(), n)
		}
	}
	key := stegocrypt.KeyFromPassphrase("bench7-alloc")
	rec, votes, opts, err := decodeRig("bench7-alloc", 4<<10, decodeCodecs()[2], &key)
	if err != nil {
		return err
	}
	arena := core.NewDecodeArena()
	if _, err := arena.DecodeVotes(rec, votes, core.DefaultCaptures, opts); err != nil {
		return err
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := arena.DecodeVotes(rec, votes, core.DefaultCaptures, opts); err != nil {
			panic(err)
		}
	}); n != 0 {
		return fmt.Errorf("warm arena DecodeVotes allocates %.1f objects/op, want 0", n)
	}
	return nil
}

func expandPlane(snap []byte) []byte {
	out := make([]byte, len(snap)*8)
	for i := range out {
		if snap[i/8]&(1<<(i%8)) != 0 {
			out[i] = 1
		}
	}
	return out
}

func runDecodeBench(path string, workerGrid []int, quick bool) {
	if err := checkDecodeEquivalence(); err != nil {
		fail(fmt.Errorf("decode equivalence check failed: %w", err))
	}
	fmt.Println("equivalence gates passed: pipeline == scalar (plaintext, erasures, adaptive reports)")
	if err := checkDecodeZeroAlloc(); err != nil {
		fail(fmt.Errorf("zero-alloc gate failed: %w", err))
	}
	fmt.Println("zero-alloc gates passed: warm pipeline and arena decodes do not touch the heap")

	report := decodeReport{
		Schema:     "invisiblebits/bench/v7",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Equivalent: true,
		ZeroAlloc:  true,
	}
	emit := func(dst *[]decodePoint, pt decodePoint) {
		*dst = append(*dst, pt)
		fmt.Printf("%-38s %12.0f ns/op %3d allocs %10.0f scalar %7.2fx\n",
			pt.Name, pt.NsPerOp, pt.AllocsOp, pt.ScalarNsPerOp, pt.SpeedupVsScalar)
	}
	if quick {
		// CI smoke: the gates above are the point; write the
		// certificate without the timing grids.
		writeDecodeReport(path, &report)
		return
	}

	payloadTargets := []struct {
		name  string
		bytes int
	}{{"4KiB", 4 << 10}, {"64KiB", 64 << 10}}

	// --- decode tail grid: codec × payload size, pipeline vs scalar -------
	src := rng.NewSource(benchSeed + 3)
	var headline float64
	for _, codec := range decodeCodecs() {
		for _, target := range payloadTargets {
			msgBytes := msgBytesForPayload(codec, target.bytes)
			msg := make([]byte, msgBytes)
			src.Bytes(msg)
			payload, err := codec.Encode(msg)
			if err != nil {
				fail(err)
			}
			for f := 0; f < len(payload)/100; f++ { // ~1% channel error
				bit := src.Intn(len(payload) * 8)
				payload[bit/8] ^= 1 << (bit % 8)
			}
			scalar := bench(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ecc.DecodeScalar(codec, payload, msgBytes); err != nil {
						b.Fatal(err)
					}
				}
			})
			p := ecc.NewPipeline(codec)
			dst := make([]byte, msgBytes)
			res := bench(func(b *testing.B) {
				b.SetBytes(int64(len(payload)))
				for i := 0; i < b.N; i++ {
					if err := p.DecodeInto(dst, payload, msgBytes); err != nil {
						b.Fatal(err)
					}
				}
			})
			nsop := float64(res.NsPerOp())
			speedup := float64(scalar.NsPerOp()) / nsop
			emit(&report.DecodeTail, decodePoint{
				Name:            fmt.Sprintf("%s/%s/pipeline", target.name, codec.Name()),
				MsgBytes:        msgBytes,
				Payload:         len(payload),
				NsPerOp:         nsop,
				BPerOp:          res.AllocedBytesPerOp(),
				AllocsOp:        res.AllocsPerOp(),
				MBPerSec:        float64(len(payload)) / nsop * 1e3,
				ScalarNsPerOp:   float64(scalar.NsPerOp()),
				SpeedupVsScalar: speedup,
			})
			if target.bytes == 64<<10 && codec.Name() == decodeCodecs()[2].Name() {
				headline = speedup
			}
		}
	}
	if headline < 5 {
		fail(fmt.Errorf("decode-tail gate: 64KiB interleaved stack speedup %.2fx, need >= 5x", headline))
	}

	// --- votes tail grid: full arena tail vs scalar tail ------------------
	key := stegocrypt.KeyFromPassphrase("bench7-votes")
	for _, target := range payloadTargets {
		codec := decodeCodecs()[2]
		rec, votes, opts, err := decodeRig(fmt.Sprintf("bench7-votes-%s", target.name), target.bytes, codec, &key)
		if err != nil {
			fail(err)
		}
		scalar := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scalarVotesTail(rec, codec, votes, core.DefaultCaptures, &key); err != nil {
					b.Fatal(err)
				}
			}
		})
		arena := core.NewDecodeArena()
		res := bench(func(b *testing.B) {
			b.SetBytes(int64(rec.PayloadBytes))
			for i := 0; i < b.N; i++ {
				if _, err := arena.DecodeVotes(rec, votes, core.DefaultCaptures, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		nsop := float64(res.NsPerOp())
		emit(&report.VotesTail, decodePoint{
			Name:            fmt.Sprintf("%s/%s/arena-votes-tail", target.name, codec.Name()),
			MsgBytes:        rec.MessageBytes,
			Payload:         rec.PayloadBytes,
			Cells:           len(votes),
			Workers:         1,
			NsPerOp:         nsop,
			BPerOp:          res.AllocedBytesPerOp(),
			AllocsOp:        res.AllocsPerOp(),
			MBPerSec:        float64(rec.PayloadBytes) / nsop * 1e3,
			ScalarNsPerOp:   float64(scalar.NsPerOp()),
			SpeedupVsScalar: float64(scalar.NsPerOp()) / nsop,
		})
	}

	// --- workers grid: fleet receiver, one arena per worker ---------------
	{
		codec := decodeCodecs()[2]
		rec, votes, opts, err := decodeRig("bench7-workers", 64<<10, codec, &key)
		if err != nil {
			fail(err)
		}
		for _, w := range workerGrid {
			w := w
			res := bench(func(b *testing.B) {
				b.SetBytes(int64(rec.PayloadBytes))
				var wg sync.WaitGroup
				per := b.N / w
				extra := b.N % w
				for g := 0; g < w; g++ {
					n := per
					if g < extra {
						n++
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						arena := core.NewDecodeArena()
						o := opts
						o.Arena = arena
						for i := 0; i < n; i++ {
							if _, err := arena.DecodeVotes(rec, votes, core.DefaultCaptures, o); err != nil {
								panic(err)
							}
						}
					}(n)
				}
				wg.Wait()
			})
			nsop := float64(res.NsPerOp())
			emit(&report.Workers, decodePoint{
				Name:     fmt.Sprintf("64KiB/%s/%dw", codec.Name(), w),
				MsgBytes: rec.MessageBytes,
				Payload:  rec.PayloadBytes,
				Cells:    len(votes),
				Workers:  w,
				NsPerOp:  nsop,
				BPerOp:   res.AllocedBytesPerOp(),
				AllocsOp: res.AllocsPerOp(),
				MBPerSec: float64(rec.PayloadBytes) / nsop * 1e3,
			})
		}
	}

	// --- fleet-sweep stats grid: packed kernels vs expanded loops ---------
	snap := make([]byte, 64<<10)
	rng.NewSource(benchSeed + 4).Bytes(snap)
	rows, cols := 256, len(snap)*8/256
	scalarMoran := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stats.MoranIBits(expandPlane(snap), rows, cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	packedMoran := bench(func(b *testing.B) {
		b.SetBytes(int64(len(snap)))
		for i := 0; i < b.N; i++ {
			if _, err := stats.MoranIPacked(snap, rows, cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	nsop := float64(packedMoran.NsPerOp())
	moranSpeedup := float64(scalarMoran.NsPerOp()) / nsop
	emit(&report.SweepStats, decodePoint{
		Name:            "64KiB/moran-i/packed",
		Payload:         len(snap),
		Cells:           len(snap) * 8,
		NsPerOp:         nsop,
		BPerOp:          packedMoran.AllocedBytesPerOp(),
		AllocsOp:        packedMoran.AllocsPerOp(),
		MBPerSec:        float64(len(snap)) / nsop * 1e3,
		ScalarNsPerOp:   float64(scalarMoran.NsPerOp()),
		SpeedupVsScalar: moranSpeedup,
	})

	const captures = 15
	cells := len(snap) * 8
	votesPlane := make([]uint16, cells)
	vsrc := rng.NewSource(benchSeed + 5)
	for i := range votesPlane {
		votesPlane[i] = uint16(vsrc.Intn(captures + 1))
	}
	scalarHealth := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sumM, sumH float64
			weak := 0
			for _, v := range votesPlane {
				p := float64(v) / captures
				m := math.Abs(2*p - 1)
				sumM += m
				sumH += stats.BitEntropy(p)
				if m < rig.WeakCellMargin {
					weak++
				}
			}
			if sumM < 0 || weak < 0 || sumH < 0 {
				b.Fatal("impossible")
			}
		}
	})
	tab := stats.NewVoteTable(captures)
	hist := make([]int, captures+1)
	packedHealth := bench(func(b *testing.B) {
		b.SetBytes(int64(cells))
		for i := 0; i < b.N; i++ {
			tab.Histogram(votesPlane, hist)
			var sumM, sumH float64
			weak := 0
			for v, c := range hist {
				fc := float64(c)
				sumM += fc * tab.Margin[v]
				sumH += fc * tab.Entropy[v]
				if tab.Margin[v] < rig.WeakCellMargin {
					weak += c
				}
			}
			if sumM < 0 || weak < 0 || sumH < 0 {
				b.Fatal("impossible")
			}
		}
	})
	nsop = float64(packedHealth.NsPerOp())
	emit(&report.SweepStats, decodePoint{
		Name:            "64KiB/health-margin/histogram",
		Cells:           cells,
		NsPerOp:         nsop,
		BPerOp:          packedHealth.AllocedBytesPerOp(),
		AllocsOp:        packedHealth.AllocsPerOp(),
		ScalarNsPerOp:   float64(scalarHealth.NsPerOp()),
		SpeedupVsScalar: float64(scalarHealth.NsPerOp()) / nsop,
	})
	if moranSpeedup < 10 {
		fail(fmt.Errorf("sweep-stats gate: packed Moran speedup %.2fx, need >= 10x", moranSpeedup))
	}

	writeDecodeReport(path, &report)
}

func writeDecodeReport(path string, report *decodeReport) {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := ioatomic.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Println("wrote", path)
}
