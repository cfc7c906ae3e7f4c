package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// spinLimit bounds every busy-wait on the worker budget, so a budget
// leaked by an earlier test fails the waiting test instead of hanging it.
const spinLimit = 10 * time.Second

// checkBudgetReleased fails t if any extra-worker slot is still held when
// t ends: every fan-out a test starts must have returned by then.
func checkBudgetReleased(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		if n := extra.Load(); n != 0 {
			t.Errorf("%d extra-worker slots still held at test end", n)
		}
	})
}

func TestForEachRunsAll(t *testing.T) {
	checkBudgetReleased(t)
	const n = 1000
	var hits [n]int32
	ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestForEachSmall(t *testing.T) {
	checkBudgetReleased(t)
	ran := false
	ForEach(1, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("n=1 did not run")
	}
	ForEach(0, func(i int) { t.Fatal("n=0 ran") })
}

func TestForEachNestedNoDeadlock(t *testing.T) {
	checkBudgetReleased(t)
	var total int64
	ForEach(8, func(i int) {
		ForEach(8, func(j int) {
			ForEach(4, func(k int) {
				atomic.AddInt64(&total, 1)
			})
		})
	})
	if total != 8*8*4 {
		t.Fatalf("total = %d", total)
	}
}

func TestForEachCtxRunsAllWhenLive(t *testing.T) {
	checkBudgetReleased(t)
	const n = 500
	var hits [n]int32
	if err := ForEachCtx(context.Background(), n, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	checkBudgetReleased(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachCtx(ctx, 8, func(i int) { t.Errorf("item %d ran under cancelled ctx", i) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := ForEachCtx(ctx, 0, func(int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("n=0 err = %v, want context.Canceled", err)
	}
}

// TestForEachCtxCancelMidFanout pins the cancellation cut: items started
// before cancel finish, items not yet scheduled never run. The gate
// blocks every started item (token goroutines plus the caller's inline
// slot), so exactly width() items are in flight when cancel hits.
func TestForEachCtxCancelMidFanout(t *testing.T) {
	checkBudgetReleased(t)
	n := width() * 4
	gate := make(chan struct{})
	var started int32
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ForEachCtx(ctx, n, func(i int) {
			atomic.AddInt32(&started, 1)
			<-gate
		})
	}()
	// Wait until the fan-out is saturated: width()-1 token goroutines
	// blocked plus the caller blocked inline on item width()-1.
	for deadline := time.Now().Add(spinLimit); atomic.LoadInt32(&started) != int32(width()); {
		if time.Now().After(deadline) {
			stuck := atomic.LoadInt32(&started)
			cancel()
			close(gate)
			<-done
			t.Fatalf("fan-out stuck at %d of width()=%d items after %v with %d extra workers held",
				stuck, width(), spinLimit, extra.Load())
		}
		runtime.Gosched()
	}
	cancel()
	close(gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&started); got != int32(width()) {
		t.Fatalf("%d items ran, want exactly width()=%d", got, width())
	}
}

func TestForEachCtxNestedNoDeadlock(t *testing.T) {
	checkBudgetReleased(t)
	ctx := context.Background()
	var total int64
	err := ForEachCtx(ctx, 8, func(i int) {
		if err := ForEachCtx(ctx, 8, func(j int) {
			ForEach(4, func(k int) { atomic.AddInt64(&total, 1) })
		}); err != nil {
			t.Errorf("inner: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("outer: %v", err)
	}
	if total != 8*8*4 {
		t.Fatalf("total = %d", total)
	}
}

func TestForEachPerIndexWritesUnsynced(t *testing.T) {
	checkBudgetReleased(t)
	// The documented pattern: per-index slots need no synchronization.
	out := make([]int, 64)
	ForEach(64, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
