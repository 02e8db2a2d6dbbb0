package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 7, 64, 1000} {
			p := New(workers)
			var mu sync.Mutex
			seen := make([]int, n)
			if err := p.Run(context.Background(), n, 8, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestRunAlignment(t *testing.T) {
	p := New(3)
	if err := p.Run(context.Background(), 100, 8, func(lo, hi int) {
		if lo%8 != 0 {
			t.Errorf("chunk start %d not aligned to 8", lo)
		}
		if hi != 100 && hi%8 != 0 {
			t.Errorf("chunk end %d not aligned to 8", hi)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChunkedOddAndEvenSplits(t *testing.T) {
	for _, chunk := range []int{1, 2, 3, 7, 10, 999, 1000, 1001} {
		p := New(4)
		var total atomic.Int64
		if err := p.RunChunked(context.Background(), 1000, chunk, func(lo, hi int) {
			total.Add(int64(hi - lo))
		}); err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if total.Load() != 1000 {
			t.Fatalf("chunk=%d covered %d of 1000 items", chunk, total.Load())
		}
	}
}

func TestRunCancellation(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := p.RunChunked(ctx, 1000, 10, func(lo, hi int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() >= 100 {
		t.Fatalf("cancellation did not stop dispatch: %d chunks ran", ran.Load())
	}
}

func TestRunEmptyAndCancelledUpfront(t *testing.T) {
	p := New(4)
	if err := p.Run(context.Background(), 0, 1, func(lo, hi int) {
		t.Error("fn called for empty range")
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	if err := p.Run(ctx, 10, 1, func(lo, hi int) { called = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_ = called // a chunk may or may not have been dispatched before the check; both are valid
}

func TestSharedPoolIsBounded(t *testing.T) {
	p := Shared()
	if p.Workers() < 1 {
		t.Fatalf("shared pool has %d workers", p.Workers())
	}
	if Shared() != p {
		t.Fatal("Shared() is not a singleton")
	}
	// Concurrent Runs from many goroutines must all complete (no token
	// leak, no deadlock) while sharing one budget.
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Run(context.Background(), 64, 8, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}()
	}
	wg.Wait()
	if total.Load() != 8*64 {
		t.Fatalf("concurrent shared runs covered %d items, want %d", total.Load(), 8*64)
	}
}

// TestWorkersBoundConcurrencyAcrossCallers: however many goroutines
// call Run at once, no more than Workers chunks execute concurrently.
func TestWorkersBoundConcurrencyAcrossCallers(t *testing.T) {
	const workers = 3
	p := New(workers)
	var live, peak atomic.Int64
	fn := func(lo, hi int) {
		n := live.Add(1)
		for {
			m := peak.Load()
			if n <= m || peak.CompareAndSwap(m, n) {
				break
			}
		}
		for i := 0; i < 2000; i++ {
			_ = i * i
		}
		live.Add(-1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if err := p.RunChunked(context.Background(), 64, 4, fn); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if peak.Load() > workers {
		t.Fatalf("%d chunks ran at once on a %d-worker pool", peak.Load(), workers)
	}
}

// TestRunDispatchAllocatesNothing: a warm Run hands its chunks to the
// persistent workers without allocating.
func TestRunDispatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := New(4)
	var total atomic.Int64
	fn := func(lo, hi int) { total.Add(int64(hi - lo)) }
	run := func() {
		if err := p.Run(context.Background(), 1000, 8, fn); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("Run allocates %.1f objects per call", avg)
	}
}

// TestUnreachablePoolReleasesWorkers: once a pool is unreachable its
// channel is closed and its worker goroutines exit.
func TestUnreachablePoolReleasesWorkers(t *testing.T) {
	// Let pools from earlier tests finish dying first, so the count
	// below can only fall back by this pool's workers exiting.
	settle := func() int {
		n := -1
		for stable := 0; stable < 3; {
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				stable++
			} else {
				n, stable = m, 0
			}
		}
		return n
	}
	before := settle()
	jobs := func() chan job {
		p := New(16)
		if err := p.Run(context.Background(), 64, 1, func(lo, hi int) {}); err != nil {
			t.Fatal(err)
		}
		return p.jobs
	}()
	if runtime.NumGoroutine() < before+16 {
		t.Fatalf("%d goroutines with a 16-worker pool alive, %d before", runtime.NumGoroutine(), before)
	}
	for i := 0; i < 200; i++ {
		runtime.GC()
		select {
		case _, ok := <-jobs:
			if ok {
				t.Fatal("received a job from an idle pool")
			}
			if after := settle(); after > before {
				t.Fatalf("%d goroutines after the pool was released, %d before", after, before)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the channel of an unreachable pool was never closed")
}

// TestFinishedJobsAreReleased: once Run returns, the persistent workers
// hold no reference to its chunk function, so whatever the function
// captured (a whole SRAM array, for a capture burst) can be collected.
func TestFinishedJobsAreReleased(t *testing.T) {
	p := New(2)
	var freed atomic.Bool
	func() {
		buf := new([1 << 16]byte)
		runtime.SetFinalizer(buf, func(*[1 << 16]byte) { freed.Store(true) })
		if err := p.Run(context.Background(), 64, 1, func(lo, hi int) { buf[lo]++ }); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 100 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("a finished Run's chunk function is still reachable from the pool's workers")
	}
	runtime.KeepAlive(p)
}
