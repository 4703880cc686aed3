package core

import (
	"context"
	"runtime"
	"sync"
)

// Pool is the bounded worker pool shared by every parallel layer of the
// compiler: CompilePortfolio's per-interval variant race and the
// daemon's admission control draw slots from one Pool, so a
// process-wide parallelism budget holds no matter how the layers nest.
//
// The Pool is a counting semaphore, not a goroutine registry: Acquire
// blocks for a slot, TryAcquire never blocks, and Release returns one.
// The nesting discipline that keeps stacked layers deadlock-free is
// Fan: the calling goroutine always participates as worker 0 without
// consuming a slot (it already holds whatever slot admitted it), and
// extra workers join only when TryAcquire succeeds — an exhausted pool
// degrades every layer to sequential execution instead of wedging it.
type Pool struct {
	sem  chan struct{}
	size int
}

// NewPool returns a pool of n slots; n <= 0 means GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, n), size: n}
}

// Size reports the pool's slot count.
func (p *Pool) Size() int { return p.size }

// Acquire blocks until a slot is free or ctx is done, reporting ctx's
// error in the latter case. Layers that must not stall (nested fan-out)
// use TryAcquire instead.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot iff one is free.
func (p *Pool) TryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by Acquire or TryAcquire.
func (p *Pool) Release() { <-p.sem }

// Fan runs fn concurrently on up to n workers and returns when all have
// finished. Worker 0 is always the calling goroutine and needs no pool
// slot; workers 1..n-1 start only if TryAcquire grants them one, so a
// Fan nested under another Fan (or under the daemon's admission) can
// never deadlock — at worst it runs alone on the caller.
func (p *Pool) Fan(n int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		if !p.TryAcquire() {
			break
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer p.Release()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}
