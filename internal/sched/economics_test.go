package sched

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/storage"
)

// BenchmarkBatchingEconomics is the scheduler at scale: n tenants, each
// submitting one single-board MSP430G2553 campaign that soaks one 2.5 h
// slice at the shared (3.6 V, 85 °C) operating point, drained through
// the default 16 chamber slots with cross-campaign batching on and off.
//
// The economics are in simulated chamber time, so the reported metrics
// are exact and host-independent: total chamber hours, chamber hours per
// campaign, passes, and (on the batching=off arm) the fraction of
// chamber time batching saved at the same tenancy. Every campaign is
// admitted before the scheduling loop starts, so each batched pass
// fills the 16 slots and a run costs one 0.5 h setup plus ⌈n/16⌉ passes
// of 2.5 h: at 1000 tenants 158.0 h over 63 passes batched against
// 2500.5 h over 1000 unbatched, 93.7% saved, and at 10000 tenants
// 1563.0 h over 625 passes against 25000.5 h. BENCH_5.json's rows are
// one pass higher (160.5 h, 1565.5 h): that run admitted tenants while
// its loop was already planning passes. ns/op is the wall time of one
// whole run: the scheduler keeping up. Every fsync returns at once (unsyncedFS), so it
// measures scheduling, not disk. The scheduler keeps each finished
// campaign's rig in memory; heap-MB/campaign reads 0.14 MB at 1000
// and 10000 tenants since the capture layout holds only the noisy cells
// (0.21 MB while it held every cell, 0.33 MB before aging state lived
// as history classes, 1.34 MB while every device also built an analog
// Flash model), so the 10000-tenant level holds some 1.4 GB live, and
// the default GOGC lets the heap grow to about twice that before a
// collection. The command below runs only the 1000-tenant level.
//
//	go test -run '^$' -bench 'BatchingEconomics/tenants=1000$' -benchtime 1x ./internal/sched
func BenchmarkBatchingEconomics(b *testing.B) {
	for _, tenants := range []int{1000, 10000} {
		var batchedHours float64
		for _, batching := range []bool{true, false} {
			arm := "off"
			if batching {
				arm = "on"
			}
			b.Run(fmt.Sprintf("tenants=%d/batching=%s", tenants, arm), func(b *testing.B) {
				var st Status
				var heapMB float64
				for i := 0; i < b.N; i++ {
					st, heapMB = economicsRun(b, tenants, batching)
				}
				b.ReportMetric(heapMB/float64(tenants), "heap-MB/campaign")
				b.ReportMetric(st.ChamberHours, "chamber-h")
				b.ReportMetric(st.ChamberHours/float64(tenants), "chamber-h/campaign")
				b.ReportMetric(float64(st.Passes), "passes")
				if batching {
					batchedHours = st.ChamberHours
				} else if batchedHours > 0 {
					b.ReportMetric(1-batchedHours/st.ChamberHours, "saved-frac")
				}
			})
		}
	}
}

// economicsRun admits tenants one-slice campaigns to a fresh scheduler
// before its loop starts, so every run plans the same passes, drains
// it, and fails unless every campaign ended done. It also returns the
// heap the drained scheduler holds, in MB: HeapInuse after Drain less
// HeapInuse before New, each read after a full collection.
func economicsRun(tb testing.TB, tenants int, batching bool) (Status, float64) {
	tb.Helper()
	dir, err := os.MkdirTemp(tb.TempDir(), "run-")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	key := stegocrypt.KeyFromPassphrase("batching-economics")
	subs := make([]Submission, tenants)
	for i := range subs {
		subs[i] = Submission{
			Tenant: fmt.Sprintf("tenant-%05d", i),
			Spec: Spec{
				ID:          fmt.Sprintf("bench-%05d", i),
				Model:       "MSP430G2553",
				Serials:     []string{fmt.Sprintf("bch%05d", i)},
				Message:     []byte("bench payload"),
				StressHours: 2.5,
				SliceHours:  2.5,
			},
		}
	}
	heapBefore := heapInuse()
	s := newQueued(tb, dir, Config{
		KeyFor:          func(string, string) *stegocrypt.Key { return &key },
		MaxQueued:       tenants,
		DisableBatching: !batching,
		FS:              unsyncedFS{storage.OS()},
	}, subs)
	if err := s.Drain(context.Background()); err != nil {
		tb.Fatal(err)
	}
	heapMB := float64(heapInuse()-heapBefore) / (1 << 20)
	st := s.Status()
	if st.Done != tenants || st.Failed != 0 || st.Quarantined != 0 {
		tb.Fatalf("%d of %d campaigns done (%d failed, %d quarantined)", st.Done, tenants, st.Failed, st.Quarantined)
	}
	return st, heapMB
}

// TestEconomicsRunIsReproducible runs one tenancy twice the way
// BenchmarkBatchingEconomics does and requires the same Status: with
// every campaign admitted before the loop starts, each pass fills the
// chamber's 16 slots, so 128 one-slice campaigns take 8 passes of 2.5 h
// after one 0.5 h setup.
func TestEconomicsRunIsReproducible(t *testing.T) {
	const tenants = 128
	first, _ := economicsRun(t, tenants, true)
	second, _ := economicsRun(t, tenants, true)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs of one tenancy differ:\n%+v\n%+v", first, second)
	}
	if first.Passes != 8 || first.ChamberHours != 20.5 {
		t.Fatalf("%d passes over %.1f chamber hours, want 8 over 20.5", first.Passes, first.ChamberHours)
	}
}

// heapInuse collects garbage and returns the bytes in in-use heap spans.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// unsyncedFS is the real filesystem with every fsync returning at once,
// as on tmpfs: writes, renames and their order are unchanged, so a run
// journals exactly what a synced one does, only without waiting on the
// disk.
type unsyncedFS struct{ storage.FS }

func (f unsyncedFS) OpenFile(path string, flag int, perm os.FileMode) (storage.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{file}, nil
}

func (f unsyncedFS) CreateTemp(dir, pattern string) (storage.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{file}, nil
}

func (unsyncedFS) SyncDir(string) error { return nil }

type unsyncedFile struct{ storage.File }

func (unsyncedFile) Sync() error { return nil }
