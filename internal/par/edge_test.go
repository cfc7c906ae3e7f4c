package par

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestChunkedCtxMinChunkLargerThanN: when minChunk exceeds n the whole
// range must collapse to exactly one inline fn(0, n) call — no
// fragmentation, no goroutine.
func TestChunkedCtxMinChunkLargerThanN(t *testing.T) {
	checkBudgetReleased(t)
	restore := ForceWidthForTest(8)
	defer restore()

	var mu sync.Mutex
	var calls [][2]int
	err := ForEachChunkedCtx(context.Background(), 5, 100, func(lo, hi int) {
		mu.Lock()
		calls = append(calls, [2]int{lo, hi})
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if len(calls) != 1 || calls[0] != [2]int{0, 5} {
		t.Fatalf("calls = %v, want exactly [0,5)", calls)
	}
}

// TestChunkedCtxZeroItems: n == 0 must make no calls and report only the
// context's own state.
func TestChunkedCtxZeroItems(t *testing.T) {
	checkBudgetReleased(t)
	calls := 0
	if err := ForEachChunkedCtx(context.Background(), 0, 4, func(lo, hi int) { calls++ }); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times for n=0", calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEachChunkedCtx(ctx, 0, 4, func(lo, hi int) { calls++ }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled n=0: err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times on pre-cancelled n=0", calls)
	}
}

// TestChunkedCtxPreCancelled: a context already done before the call
// must suppress even the single-chunk inline path.
func TestChunkedCtxPreCancelled(t *testing.T) {
	checkBudgetReleased(t)
	restore := ForceWidthForTest(4)
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := ForEachChunkedCtx(ctx, 16, 1, func(lo, hi int) { calls++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times under a pre-cancelled context", calls)
	}
}

// TestChunkedCtxCancelBetweenChunks drives the between-chunk
// cancellation cut deterministically: with the width pinned to 2 and the
// single extra-worker slot held by a blocked ForEach, every chunk of the
// tested call runs inline on the calling goroutine in order. The first
// chunk cancels the context, so the second chunk must be skipped and the
// error reported.
func TestChunkedCtxCancelBetweenChunks(t *testing.T) {
	checkBudgetReleased(t)
	restore := ForceWidthForTest(2)
	defer restore()

	// Occupy the one extra slot: a 2-item ForEach whose items both block
	// until the test finishes. One item lands on the helper goroutine
	// (the slot), one runs inline in this throwaway goroutine; held is
	// closed once both are running, i.e. the slot is definitely taken.
	// The holder must have returned, and so released the slot, before
	// the width is restored: a later test would otherwise find the
	// budget still taken.
	hold := make(chan struct{})
	held := make(chan struct{})
	holderDone := make(chan struct{})
	var running sync.WaitGroup
	running.Add(2)
	go func() {
		defer close(holderDone)
		ForEach(2, func(i int) {
			running.Done()
			if i == 1 {
				running.Wait()
				close(held)
			}
			<-hold
		})
	}()
	<-held
	defer func() {
		close(hold)
		<-holderDone
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var calls [][2]int
	err := ForEachChunkedCtx(ctx, 4, 1, func(lo, hi int) {
		mu.Lock()
		calls = append(calls, [2]int{lo, hi})
		mu.Unlock()
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Width 2 → NumChunks(4, 1) = 2 chunks of [0,2) and [2,4); the
	// inline first chunk cancels, so only it may have run.
	if len(calls) != 1 || calls[0] != [2]int{0, 2} {
		t.Fatalf("calls = %v, want exactly [0,2)", calls)
	}
}

// TestChunkedCtxCompleteRunCoversRange: sanity companion to the edge
// cases — an uncancelled run over an awkward n must cover [0, n) exactly
// once with chunks of at least minChunk items.
func TestChunkedCtxCompleteRunCoversRange(t *testing.T) {
	checkBudgetReleased(t)
	restore := ForceWidthForTest(3)
	defer restore()

	const n, minChunk = 11, 2
	var mu sync.Mutex
	seen := make([]int, n)
	err := ForEachChunkedCtx(context.Background(), n, minChunk, func(lo, hi int) {
		if hi-lo < minChunk {
			t.Errorf("chunk [%d,%d) below minChunk %d", lo, hi, minChunk)
		}
		mu.Lock()
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d covered %d times", i, c)
		}
	}
}
