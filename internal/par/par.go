// Package par provides the bounded fork-join helpers the compilation flow
// uses to exploit host parallelism where the paper's decomposition makes
// work independent: the sibling subproblems of one hierarchy level, the
// feedback variants and the points of a design-space sweep fan out
// across cores. One beam search runs on one goroutine. A global worker
// budget keeps nested fan-outs (a sweep point running subproblems
// running their children) from oversubscribing the machine. When no
// budget is available the work runs inline on the caller's goroutine,
// which also makes the helpers deadlock-free under arbitrary nesting.
//
// The budget tracks runtime.GOMAXPROCS at acquire time rather than a
// boot-time core count: a caller that lowers GOMAXPROCS to 1 (a
// cgroup-limited container, a serial ablation) gets a fully inline,
// goroutine-free execution, and raising it mid-process widens the very
// next fan-out. The budget is additionally capped at runtime.NumCPU:
// Ps beyond the physical core count cannot add throughput, only
// scheduling overhead and cache traffic, so GOMAXPROCS=4 on a one-core
// container still runs fully inline (tests that need real worker
// goroutines regardless of the host pin the width with ForceWidthForTest).
//
// Callers keep determinism by writing only to their own index of a
// pre-sized result slice.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// extra counts the helper goroutines currently running across every
// concurrent fan-out in the process. The caller's own goroutine is free,
// so the budget is width()-1 extras.
var extra atomic.Int32

// forcedWidth, when positive, overrides the computed worker width. Set
// only through ForceWidthForTest.
var forcedWidth atomic.Int32

// width returns the process-wide worker budget including the caller's
// goroutine: min(GOMAXPROCS, NumCPU) read at call time, at least 1, or
// the test-forced value.
func width() int {
	if w := int(forcedWidth.Load()); w > 0 {
		return w
	}
	w := runtime.GOMAXPROCS(0)
	if ncpu := runtime.NumCPU(); w > ncpu {
		w = ncpu
	}
	if w < 1 {
		w = 1
	}
	return w
}

// tryAcquire claims one extra-worker slot if the process-wide budget
// (width()-1, read at call time) has room.
func tryAcquire() bool {
	for {
		limit := int32(width() - 1)
		cur := extra.Load()
		if cur >= limit {
			return false
		}
		if extra.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func release() { extra.Add(-1) }

// ForceWidthForTest pins the worker width to n regardless of GOMAXPROCS
// and the core count, and returns a restore func. It exists for
// tests that must drive real worker goroutines on hosts with fewer
// cores than the scenario under test; production code never calls it.
func ForceWidthForTest(n int) (restore func()) {
	forcedWidth.Store(int32(n))
	return func() { forcedWidth.Store(0) }
}

// ForEach runs fn(0..n-1), each call exactly once, using spare cores when
// available and the calling goroutine otherwise. It returns when every
// call has finished. fn must confine its writes to per-index data.
func ForEach(n int, fn func(int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if tryAcquire() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer release()
				fn(i)
			}(i)
		} else {
			fn(i)
		}
	}
	wg.Wait()
}

// ForEachCtx is ForEach with a cancellation cut: once ctx is done, items
// not yet scheduled are skipped entirely; items already started always
// finish. It returns ctx.Err() if any item was skipped (or the context
// was done on return), nil when everything ran. Cancellation latency is
// therefore one item, not the remaining width of the fan-out. Like
// ForEach it never fails the items themselves — fn observes ctx through
// its closure if it wants to stop early too.
func ForEachCtx(ctx context.Context, n int, fn func(int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			wg.Wait()
			return err
		}
		if tryAcquire() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer release()
				fn(i)
			}(i)
		} else {
			fn(i)
		}
	}
	wg.Wait()
	return ctx.Err()
}
