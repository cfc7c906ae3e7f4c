package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/pg"
	"repro/internal/see"
)

// resultSignature serializes everything downstream consumers read from a
// Result, so memo-on and memo-off runs can be compared bit-for-bit.
func resultSignature(r *Result) string {
	s := fmt.Sprintf("cn=%v;recvs=%d;mii=%+v;stats=%+v;legal=%v;levels=", r.CN, r.Recvs, r.MII, r.Stats, r.Legal)
	for _, ls := range r.Levels {
		s += fmt.Sprintf("[%s:mii%d,cp%d,w%d]", ls.ID(), ls.Flow.EstimateMII(), ls.Flow.TotalCopies(), len(ls.Mapping.Wires))
	}
	return s
}

// TestMemoOnOffIdentical pins the memo's core contract: caching changes
// which work runs, never the answer. Every paper kernel must produce a
// bit-identical Result with the memo on (default) and off.
func TestMemoOnOffIdentical(t *testing.T) {
	mc := machine.DSPFabric64(8, 8, 8)
	for _, k := range kernels.All() {
		d := k.Build()
		on, err := HCA(context.Background(), d, mc, Options{})
		if err != nil {
			t.Fatalf("%s memo on: %v", k.Name, err)
		}
		off, err := HCA(context.Background(), d, mc, Options{DisableMemo: true})
		if err != nil {
			t.Fatalf("%s memo off: %v", k.Name, err)
		}
		if a, b := resultSignature(on), resultSignature(off); a != b {
			t.Errorf("%s: memo changed the result:\n  on: %s\n off: %s", k.Name, a, b)
		}
	}
}

// TestMemoHitsAcrossPasses pins the intended sharing: the seeded and the
// pure internal pass descend through identical subproblems, so the
// second pass must hit the per-run memo.
func TestMemoHitsAcrossPasses(t *testing.T) {
	m := NewMemo(0)
	d := kernels.Fir2Dim()
	if _, err := HCA(context.Background(), d, machine.DSPFabric64(8, 8, 8), Options{Memo: m}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Hits == 0 {
		t.Fatalf("no memo hits across the two ladder passes: %+v", st)
	}
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("implausible memo stats: %+v", st)
	}
}

// TestMemoSharedAcrossRuns pins cross-solve sharing, the service's
// use-case: a second identical HCA run against the same memo is answered
// almost entirely from cache, and its result stays identical.
func TestMemoSharedAcrossRuns(t *testing.T) {
	m := NewMemo(0)
	mc := machine.DSPFabric64(8, 8, 8)
	d := kernels.FFT8()
	first, err := HCA(context.Background(), d, mc, Options{Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	h0 := m.Stats().Hits
	second, err := HCA(context.Background(), d, mc, Options{Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Hits <= h0 {
		t.Fatalf("second run gained no hits: %+v", m.Stats())
	}
	if a, b := resultSignature(first), resultSignature(second); a != b {
		t.Errorf("memoized rerun diverged:\n first: %s\nsecond: %s", a, b)
	}
}

// TestMemoBypassedForCustomCriteria: closures have no content address,
// so user-supplied criteria must disable memoization rather than risk a
// false share.
func TestMemoBypassedForCustomCriteria(t *testing.T) {
	m := NewMemo(0)
	d := kernels.Fir2Dim()
	opt := Options{Memo: m}
	opt.SEE.Criteria = withCriticalCopyCriterion(opt.SEE, d, nil).Criteria
	if _, err := HCA(context.Background(), d, machine.DSPFabric64(8, 8, 8), opt); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("custom criteria reached the memo: %+v", st)
	}
}

// memoSubproblem returns a start flow and working set for driving
// Memo.attempt directly.
func memoSubproblem(t *testing.T, issue int) (*pg.Flow, []graph.NodeID) {
	t.Helper()
	topo := pg.NewTopology("memo-test", 4, issue, 8, 0)
	topo.AllToAll()
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 16, Seed: 5, RecLatency: 2})
	return pg.NewFlow(topo, d), []graph.NodeID{1, 2, 3}
}

// engineFunc is an Engine whose Solve is a test's attempt body.
type engineFunc func() (*EngineResult, error)

func (engineFunc) Name() string { return "test" }

func (f engineFunc) Solve(context.Context, *pg.Flow, []graph.NodeID, see.Config) (*EngineResult, error) {
	return f()
}

// deadEnd is an engine that fails the way a dead-ended search does,
// counting its runs.
func deadEnd(runs *atomic.Int32) engineFunc {
	return func() (*EngineResult, error) {
		runs.Add(1)
		return nil, errors.New("dead end")
	}
}

// TestMemoSingleFlight: concurrent attempts of one key run it exactly
// once; the others wait for the leader and get its published outcome.
func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo(0)
	start, ws := memoSubproblem(t, 16)
	key := attemptKey{DDG: "x", Beam: 8, Cand: 4, Engine: "see"}
	const workers = 16
	var runs atomic.Int32
	release := make(chan struct{})
	run := engineFunc(func() (*EngineResult, error) {
		runs.Add(1)
		<-release
		return nil, errors.New("dead end")
	})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = m.attempt(context.Background(), key, run, start, ws, see.Config{})
		}(i)
	}
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("attempt ran %d times, want exactly 1", n)
	}
	for i, err := range errs {
		if err == nil || err.Error() != "dead end" {
			t.Errorf("caller %d got %v, want the leader's dead end", i, err)
		}
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != workers-1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 miss, %d hits, 1 entry", st, workers-1)
	}
}

// TestMemoFollowerCancellation: a follower whose context dies while the
// leader computes gets the context error instead of blocking forever,
// and does not run the attempt itself.
func TestMemoFollowerCancellation(t *testing.T) {
	m := NewMemo(0)
	start, ws := memoSubproblem(t, 16)
	key := attemptKey{DDG: "y", Engine: "see"}
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, _, err := m.attempt(context.Background(), key, engineFunc(func() (*EngineResult, error) {
			close(entered)
			<-release
			return nil, errors.New("dead end")
		}), start, ws, see.Config{})
		done <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int32
	if _, _, err := m.attempt(ctx, key, deadEnd(&runs), start, ws, see.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	if runs.Load() != 0 {
		t.Fatal("a cancelled follower ran the attempt")
	}
	close(release)
	if err := <-done; err == nil || err.Error() != "dead end" {
		t.Fatalf("leader err = %v", err)
	}
	if st := m.Stats(); st.Entries != 1 || st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats %+v, want the leader's one miss and entry", st)
	}
}

// TestMemoLeaderCancellation: a leader whose context ends inside its
// attempt publishes nothing: the next identical attempt leads again, and
// the entry count never includes the cancelled attempt.
func TestMemoLeaderCancellation(t *testing.T) {
	m := NewMemo(0)
	start, ws := memoSubproblem(t, 16)
	key := attemptKey{DDG: "z", Engine: "see"}
	ctx, cancel := context.WithCancel(context.Background())
	_, entry, err := m.attempt(ctx, key, engineFunc(func() (*EngineResult, error) {
		cancel() // the search notices the cancellation and gives up
		return nil, ctx.Err()
	}), start, ws, see.Config{})
	if !errors.Is(err, context.Canceled) || entry != nil {
		t.Fatalf("cancelled leader: err %v, entry %v; want context.Canceled and no entry", err, entry)
	}
	if st := m.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after a cancelled leader, want 0", st.Entries)
	}
	var runs atomic.Int32
	if _, _, err := m.attempt(context.Background(), key, deadEnd(&runs), start, ws, see.Config{}); err == nil || runs.Load() != 1 {
		t.Fatalf("the next attempt did not lead: err %v, %d runs", err, runs.Load())
	}
	if st := m.Stats(); st.Entries != 1 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats %+v after the re-led attempt, want 1 entry and 2 misses", st)
	}
}

// TestMemoLRUBound: the published-entry count never exceeds the cap, and
// evicted keys recompute (a fresh attempt leads again).
func TestMemoLRUBound(t *testing.T) {
	m := NewMemo(2)
	ctx := context.Background()
	start, ws := memoSubproblem(t, 16)
	var runs atomic.Int32
	for i := 0; i < 5; i++ {
		m.attempt(ctx, attemptKey{DDG: fmt.Sprint(i), Engine: "see"}, deadEnd(&runs), start, ws, see.Config{})
	}
	if runs.Load() != 5 {
		t.Fatalf("%d runs for 5 distinct keys", runs.Load())
	}
	st := m.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (cap)", st.Entries)
	}
	if st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
	m.attempt(ctx, attemptKey{DDG: "0", Engine: "see"}, deadEnd(&runs), start, ws, see.Config{})
	if runs.Load() != 6 {
		t.Fatal("evicted key did not re-lead")
	}
}

// TestMemoFailSafeCompare: a key collision (same key, different actual
// subproblem) must be caught by the full compare and answered with a
// local solve, never with the cached flow, and must leave the cache
// alone.
func TestMemoFailSafeCompare(t *testing.T) {
	m := NewMemo(0)
	ctx := context.Background()
	startA, ws := memoSubproblem(t, 16)
	startB, _ := memoSubproblem(t, 8) // different issue slots
	key := attemptKey{DDG: "c", Engine: "see"}
	solve := func(score float64) engineFunc {
		return func() (*EngineResult, error) {
			return &EngineResult{Flow: startA.Clone(), Score: score, Winner: "see"}, nil
		}
	}
	if res, _, err := m.attempt(ctx, key, solve(1), startA, ws, see.Config{}); err != nil || res.Score != 1 {
		t.Fatalf("leader: %v, %v", res, err)
	}
	for _, c := range []struct {
		name  string
		start *pg.Flow
		ws    []graph.NodeID
	}{
		{"different topology", startB, ws},
		{"shorter working set", startA, []graph.NodeID{1, 2}},
		{"different working set", startA, []graph.NodeID{1, 2, 4}},
	} {
		res, entry, err := m.attempt(ctx, key, solve(2), c.start, c.ws, see.Config{})
		if err != nil || res.Score != 2 || entry != nil {
			t.Errorf("%s matched the cached attempt: result %+v, entry %v, err %v", c.name, res, entry, err)
		}
	}
	res, entry, err := m.attempt(ctx, key, solve(3), startA, ws, see.Config{})
	if err != nil || res.Score != 1 || entry == nil {
		t.Fatalf("identical subproblem did not hit: result %+v, entry %v, err %v", res, entry, err)
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 4 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit, 4 misses, 1 entry", st)
	}
}

// TestWSFingerprintOrderSensitive: the working-set hash must distinguish
// both content and order (the list order seeds the priority sort).
func TestWSFingerprintOrderSensitive(t *testing.T) {
	a := wsFingerprint([]graph.NodeID{1, 2, 3})
	b := wsFingerprint([]graph.NodeID{3, 2, 1})
	c := wsFingerprint([]graph.NodeID{1, 2})
	if a == b || a == c || b == c {
		t.Fatalf("ws hashes collide: %x %x %x", a, b, c)
	}
	if a != wsFingerprint([]graph.NodeID{1, 2, 3}) {
		t.Fatal("ws hash not deterministic")
	}
}
