// Package parallel provides the bounded worker pool behind the SRAM
// capture engine. A Pool is a concurrency *budget*: it owns a fixed set
// of worker goroutines, and every Run hands its chunks to them as value
// descriptors over one channel, so at most Workers chunks execute at
// once across all callers. Because the workers belong to the Pool — not
// the call — a fleet pointing many devices at one Pool gets fleet-wide
// bounded parallelism for free: ten concurrent capture bursts share the
// same worker budget instead of oversubscribing the machine tenfold.
// Dispatch allocates nothing, so a warm capture burst stays at zero
// allocations at any width. A Pool's workers exit once the Pool is
// unreachable.
//
// Correctness never depends on the pool: the capture engine derives all
// randomness from counter-based streams (rng.Stream), so any worker
// count and any chunk size produce bit-identical results.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Pool bounds data-parallel work. The zero value is not usable; use New
// or Shared.
type Pool struct {
	workers int
	jobs    chan job
}

// job is one chunk of a Run: fn over [lo, hi), reported to wg.
type job struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// waitGroups recycles the per-Run WaitGroup: a stack WaitGroup would
// escape through the jobs channel and cost one allocation per Run.
var waitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// New builds a pool with the given concurrency budget; workers <= 0
// means runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		// One slot per worker: a Run hands out a whole round of chunks
		// without waiting for each worker to reach the channel.
		p.jobs = make(chan job, workers)
		for i := 0; i < workers; i++ {
			go work(p.jobs)
		}
		// The workers hold only the channel, so an unreachable Pool is
		// collected and its finalizer releases them.
		runtime.SetFinalizer(p, func(p *Pool) { close(p.jobs) })
	}
	return p
}

// work runs chunks until the pool's channel closes.
func work(jobs <-chan job) {
	for j := range jobs {
		j.fn(j.lo, j.hi)
		j.wg.Done()
	}
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide default pool (GOMAXPROCS workers).
// Every SRAM array uses it unless explicitly given its own pool, so
// concurrent fleet operations are machine-bounded by default.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = New(0) })
	return shared
}

// Workers returns the pool's concurrency budget.
func (p *Pool) Workers() int { return p.workers }

// chunkFor splits n items over the worker budget, rounding the chunk up
// to a multiple of align (so byte-packed bit arrays shard on byte
// boundaries and workers never write the same byte).
func (p *Pool) chunkFor(n, align int) int {
	if align < 1 {
		align = 1
	}
	chunk := (n + p.workers - 1) / p.workers
	if rem := chunk % align; rem != 0 {
		chunk += align - rem
	}
	if chunk < align {
		chunk = align
	}
	return chunk
}

// Run splits [0, n) into per-worker chunks aligned to align and calls
// fn(lo, hi) for each, concurrently, bounded by the pool budget. It
// returns ctx.Err() if the context is cancelled; chunks already
// dispatched run to completion (fn must not block indefinitely), chunks
// not yet dispatched are skipped. fn must be safe to call concurrently
// on disjoint ranges.
func (p *Pool) Run(ctx context.Context, n, align int, fn func(lo, hi int)) error {
	return p.RunChunked(ctx, n, p.chunkFor(n, align), fn)
}

// RunChunked is Run with an explicit chunk size — exposed so the
// equivalence tests can drive odd and even splits; Run chooses the
// chunk from the worker budget.
func (p *Pool) RunChunked(ctx context.Context, n, chunk int, fn func(lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if chunk <= 0 {
		chunk = n
	}
	if chunk >= n || p.jobs == nil {
		// Serial fast path: no hand-off to the workers.
		for lo := 0; lo < n; lo += chunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(lo, min(lo+chunk, n))
		}
		return ctx.Err()
	}
	wg := waitGroups.Get().(*sync.WaitGroup)
	for lo := 0; lo < n; lo += chunk {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		p.jobs <- job{fn: fn, lo: lo, hi: min(lo+chunk, n), wg: wg}
	}
	wg.Wait()
	waitGroups.Put(wg)
	return ctx.Err()
}
