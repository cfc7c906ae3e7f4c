package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/pg"
	"repro/internal/see"
	"repro/internal/trace"
)

// A context that is already cancelled must abort the run before any
// work starts: no span reaches the recorder.
func TestHCAContextPreCancelled(t *testing.T) {
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 64, Seed: 1, RecLatency: 3})
	mc := machine.DSPFabric64(8, 8, 8)
	rec := trace.New()
	ctx, cancel := context.WithCancel(trace.With(context.Background(), rec))
	cancel()
	_, err := HCA(ctx, d, mc, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if phases := rec.Summary().Phases; len(phases) != 0 {
		t.Errorf("a pre-cancelled compile recorded %d span phases, want none: %+v", len(phases), phases)
	}
}

// Cancelling mid-flight stops the descent early. The cancel fires from
// inside the run, on the first candidate the beam search scores in the
// first subproblem, so the compile cannot finish first however fast
// the machine is; a nil error would mean the run completed anyway.
func TestHCAContextCancelAbortsEarly(t *testing.T) {
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 2048, Seed: 3, RecLatency: 3})
	mc := machine.DSPFabric64(8, 8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{SEE: see.Config{Criteria: cancelOnFirstCall(cancel)}}
	start := time.Now()
	if _, err := HCA(ctx, d, mc, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	t.Logf("aborted after %v", time.Since(start))
}

// An expired deadline behaves like a cancel and reports DeadlineExceeded.
// The 16384-op DDG takes seconds to compile (about 5 s on a 2-CPU
// x86-64 box), so no plausible machine finishes inside the 50-ms
// deadline, and the deadline bounds how long the test runs.
func TestHCAContextDeadline(t *testing.T) {
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 16384, Seed: 3, RecLatency: 3})
	mc := machine.DSPFabric64(8, 8, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := HCA(ctx, d, mc, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// A cancelled attempt ends the retry ladder: solveLevel returns
// ctx's error without starting another rung, the partition seed or the
// mapper. The criterion cancels from inside the first attempt, and the
// trace must hold that attempt's see.solve span alone.
func TestSolveLevelStopsLadderOnCancel(t *testing.T) {
	d := kernels.Fir2Dim()
	mc := machine.DSPFabric64(8, 8, 8)
	crit, err := see.AnalyzeDDG(d)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	ctx, cancel := context.WithCancel(trace.With(context.Background(), rec))
	defer cancel()
	opt := Options{SEE: see.Config{Criteria: cancelOnFirstCall(cancel)}, useSeed: true, crit: crit}
	res := &Result{Machine: mc, DDG: d, CN: make([]int, d.Len())}
	res.MII.Rec = d.MIIRec()
	ws := make([]graph.NodeID, d.Len())
	for i := range ws {
		ws[i] = graph.NodeID(i)
	}
	if err := solveLevel(ctx, res, d, mc, opt, 0, nil, ws, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	spans := map[string]int{}
	for _, p := range rec.Summary().Phases {
		spans[p.Name] = p.Count
	}
	if spans["see.solve"] != 1 || spans["partition.seed"] != 0 || spans["mapper.map"] != 0 {
		t.Fatalf("spans see.solve=%d partition.seed=%d mapper.map=%d, want 1, 0, 0",
			spans["see.solve"], spans["partition.seed"], spans["mapper.map"])
	}
}

// cancelOnFirstCall returns the default cost model plus a zero-weight
// custom criterion that calls cancel whenever it scores a candidate, so
// ctx is done from the first scored candidate on.
func cancelOnFirstCall(cancel context.CancelFunc) []see.Criterion {
	return append(see.DefaultCriteria(), see.Criterion{Name: "cancel", Eval: func(*pg.Flow) float64 {
		cancel()
		return 0
	}})
}
