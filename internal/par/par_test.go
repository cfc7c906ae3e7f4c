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
// slot), so exactly Width() items are in flight when cancel hits.
func TestForEachCtxCancelMidFanout(t *testing.T) {
	checkBudgetReleased(t)
	n := Width() * 4
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
	// Wait until the fan-out is saturated: Width()-1 token goroutines
	// blocked plus the caller blocked inline on item Width()-1.
	for deadline := time.Now().Add(spinLimit); atomic.LoadInt32(&started) != int32(Width()); {
		if time.Now().After(deadline) {
			stuck := atomic.LoadInt32(&started)
			cancel()
			close(gate)
			<-done
			t.Fatalf("fan-out stuck at %d of Width()=%d items after %v with %d extra workers held",
				stuck, Width(), spinLimit, extra.Load())
		}
		runtime.Gosched()
	}
	cancel()
	close(gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&started); got != int32(Width()) {
		t.Fatalf("%d items ran, want exactly Width()=%d", got, Width())
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

// TestChunkBoundsPartition pins that NumChunks/ChunkBounds produce a
// gapless, overlap-free, ordered partition of [0, n) for every (n,
// minChunk) shape the engine uses, and that the minimum-chunk-size
// guarantee holds: no chunk is smaller than minChunk (so tiny fan-outs
// never pay a dispatch per item).
func TestChunkBoundsPartition(t *testing.T) {
	checkBudgetReleased(t)
	for n := 0; n <= 97; n++ {
		for _, minChunk := range []int{0, 1, 2, 3, 7, 16, 100} {
			chunks := NumChunks(n, minChunk)
			if n == 0 {
				if chunks != 0 {
					t.Fatalf("NumChunks(0, %d) = %d", minChunk, chunks)
				}
				continue
			}
			if chunks < 1 || chunks > Width() {
				t.Fatalf("NumChunks(%d, %d) = %d outside [1, Width()=%d]", n, minChunk, chunks, Width())
			}
			eff := minChunk
			if eff < 1 {
				eff = 1
			}
			next := 0
			for i := 0; i < chunks; i++ {
				lo, hi := ChunkBounds(n, chunks, i)
				if lo != next || hi <= lo {
					t.Fatalf("n=%d chunks=%d: chunk %d = [%d,%d), want lo=%d and hi>lo", n, chunks, i, lo, hi, next)
				}
				if chunks > 1 && hi-lo < eff {
					t.Fatalf("n=%d minChunk=%d: chunk %d has %d items < minChunk", n, minChunk, i, hi-lo)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d chunks=%d: partition ends at %d", n, chunks, next)
			}
		}
	}
}

func TestForEachChunkedCtxRunsAll(t *testing.T) {
	checkBudgetReleased(t)
	for _, n := range []int{1, 2, 7, 63, 64, 1000} {
		for _, minChunk := range []int{1, 4, 17} {
			hits := make([]int32, n)
			err := ForEachChunkedCtx(context.Background(), n, minChunk, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if err != nil {
				t.Fatalf("n=%d minChunk=%d: %v", n, minChunk, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d minChunk=%d: item %d ran %d times", n, minChunk, i, h)
				}
			}
		}
	}
	if err := ForEachChunkedCtx(context.Background(), 0, 1, func(lo, hi int) {
		t.Fatal("n=0 ran a chunk")
	}); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

func TestForEachChunkedCtxPreCancelled(t *testing.T) {
	checkBudgetReleased(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachChunkedCtx(ctx, 64, 1, func(lo, hi int) {
		t.Errorf("chunk [%d,%d) ran under cancelled ctx", lo, hi)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The single-chunk fast path must observe cancellation too.
	if err := ForEachChunkedCtx(ctx, 1, 1, func(lo, hi int) {
		t.Error("single chunk ran under cancelled ctx")
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("single-chunk err = %v, want context.Canceled", err)
	}
}

// TestForEachChunkedCtxNested pins deadlock-freedom under nesting: the
// worker budget is try-acquire, so an inner chunked fan-out running on a
// borrowed worker falls back to inline execution instead of blocking.
func TestForEachChunkedCtxNested(t *testing.T) {
	checkBudgetReleased(t)
	ctx := context.Background()
	var total int64
	err := ForEachChunkedCtx(ctx, 16, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := ForEachChunkedCtx(ctx, 16, 2, func(jlo, jhi int) {
				atomic.AddInt64(&total, int64(jhi-jlo))
			}); err != nil {
				t.Errorf("inner: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatalf("outer: %v", err)
	}
	if total != 16*16 {
		t.Fatalf("total = %d, want %d", total, 16*16)
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
