// Package sharecap exercises the captured-write discipline for
// closures handed to the par entrypoints.
package sharecap

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

type telemetry struct {
	rollbacks int
	evals     int
}

type engine struct {
	tel telemetry
	mu  sync.Mutex
}

// --- violations ---

func sharedCounter(n int) int {
	count := 0
	par.ForEach(n, func(i int) {
		count++ // want `closure passed to par.ForEach writes captured variable count`
	})
	return count
}

func sharedAppend(n int) []int {
	var out []int
	par.ForEach(n, func(i int) {
		out = append(out, i) // want `closure passed to par.ForEach writes captured variable out`
	})
	return out
}

func sharedTelemetry(ctx context.Context, e *engine, n int) {
	par.ForEachCtx(ctx, n, func(i int) {
		e.tel.evals++ // want `closure passed to par.ForEachCtx writes captured variable e`
	})
}

func sharedMapByLocalKey(n int, m map[int]int) {
	par.ForEach(n, func(i int) {
		// Distinct keys do not make concurrent map writes safe.
		m[i] = i * i // want `closure passed to par.ForEach writes captured variable m`
	})
}

func sharedFixedSlot(n int, out []int) {
	par.ForEach(n, func(i int) {
		out[0] = i // want `closure passed to par.ForEach writes captured variable out`
	})
}

// --- sanctioned patterns ---

func perSlotWrites(n int, vs []int) []int {
	out := make([]int, n)
	par.ForEach(n, func(i int) {
		out[i] = vs[i] * 2 // one slot per worker: fine
	})
	return out
}

func perSlotScratch(ctx context.Context, n int) []int {
	out := make([]int, n)
	par.ForEachCtx(ctx, n, func(i int) {
		acc := 0 // closure-local scratch
		for j := 0; j <= i; j++ {
			acc += j
		}
		out[i] = acc
	})
	return out
}

func mutexGuarded(e *engine, n int) {
	par.ForEach(n, func(i int) {
		e.mu.Lock()
		e.tel.evals++ // guarded by the Lock above
		e.mu.Unlock()
	})
}

func atomicCounter(n int) int64 {
	var count int64
	par.ForEach(n, func(i int) {
		atomic.AddInt64(&count, 1) // a call, not an assignment
	})
	return atomic.LoadInt64(&count)
}

func channelFanIn(n int) int {
	ch := make(chan int, n)
	par.ForEach(n, func(i int) {
		ch <- i // sends synchronize
	})
	total := 0
	for j := 0; j < n; j++ {
		total += <-ch
	}
	return total
}

func goOutsideScope(n int) {
	// This fixture package does not match internal/see or internal/core,
	// so bare go statements are out of sharecap's scope here.
	count := 0
	done := make(chan struct{})
	go func() {
		count = n
		close(done)
	}()
	<-done
	_ = count
}
