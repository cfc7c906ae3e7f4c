package see

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/pg"
)

// flowFingerprint serializes everything the search result is judged by:
// per-node cluster assignments, every real arc with its ordered copy
// list, and the objective inputs. Two flows with equal fingerprints are
// interchangeable downstream (modsched, emit, reporting).
func flowFingerprint(f *pg.Flow) string {
	var b strings.Builder
	for n := 0; n < f.D.Len(); n++ {
		fmt.Fprintf(&b, "n%d@%d;", n, f.Assignment(graph.NodeID(n)))
	}
	f.RealArcs(func(from, to pg.ClusterID, vals []pg.ValueID) {
		fmt.Fprintf(&b, "arc%d>%d=%v;", from, to, vals)
	})
	fmt.Fprintf(&b, "mii=%d;copies=%d", f.EstimateMII(), f.TotalCopies())
	return b.String()
}

// assertEquivalent runs the equivalence oracle in both contract modes.
//
// Strict: with frontier dedup off, the delta engine must reproduce the
// clone-per-candidate reference byte-identically — same error (or none),
// same winning assignment, same score, same Stats.
//
// Relaxed: with dedup on (the default), the engine drops permutation
// twins, which can only widen effective beam coverage — the result must
// still be a valid complete assignment whose objective cost is ≤ the
// reference cost.
func assertEquivalent(t *testing.T, label string, start *pg.Flow, ws []graph.NodeID, cfg Config) {
	t.Helper()
	ctx := context.Background()
	strict := cfg
	strict.DisableDedup = true
	got, gotErr := Solve(ctx, start, ws, strict)
	want, wantErr := SolveReference(ctx, start, ws, strict)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: delta err %v, reference err %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text diverged:\n delta: %v\n  ref: %v", label, gotErr, wantErr)
		}
	} else {
		if got.Score != want.Score {
			t.Errorf("%s: score %v != reference %v", label, got.Score, want.Score)
		}
		if got.Stats != want.Stats {
			t.Errorf("%s: stats %+v != reference %+v", label, got.Stats, want.Stats)
		}
		gf, wf := flowFingerprint(got.Flow), flowFingerprint(want.Flow)
		if gf != wf {
			t.Errorf("%s: flows diverged:\n delta: %s\n  ref: %s", label, gf, wf)
		}
		if err := got.Flow.Verify(); err != nil {
			t.Errorf("%s: delta result fails Verify: %v", label, err)
		}
	}

	relaxed := cfg
	relaxed.DisableDedup = false
	rgot, rErr := Solve(ctx, start, ws, relaxed)
	if wantErr != nil {
		if rErr == nil {
			t.Errorf("%s: dedup solve succeeded where the reference failed", label)
		}
		return
	}
	if rErr != nil {
		t.Fatalf("%s: dedup solve failed: %v", label, rErr)
	}
	if rgot.Score > want.Score {
		t.Errorf("%s: dedup score %v > reference %v", label, rgot.Score, want.Score)
	}
	if err := rgot.Flow.Verify(); err != nil {
		t.Errorf("%s: dedup result fails Verify: %v", label, err)
	}
}

func TestDeltaMatchesReferenceOnPaperKernels(t *testing.T) {
	for _, k := range kernels.All() {
		d := k.Build()
		f := pg.NewFlow(level0Topology(8), d)
		f.MIIRecStatic = d.MIIRec()
		assertEquivalent(t, k.Name, f, wsAll(d), Config{})
	}
}

func TestDeltaMatchesReferenceAcrossConfigs(t *testing.T) {
	d := kernels.Fir2Dim()
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"defaults", Config{}},
		{"narrow-beam", Config{BeamWidth: 1, CandWidth: 1}},
		{"wide-beam", Config{BeamWidth: 16, CandWidth: 8}},
	}
	for _, c := range cfgs {
		f := pg.NewFlow(level0Topology(8), d)
		f.MIIRecStatic = d.MIIRec()
		assertEquivalent(t, "fir2dim/"+c.name, f, wsAll(d), c.cfg)
	}
}

func TestDeltaMatchesReferenceOnStarvedPorts(t *testing.T) {
	// maxIn 1-2 forces frequent no-candidate impasses, so the routed
	// (maxHops 0) phase and its stats accounting get real coverage.
	for _, maxIn := range []int{1, 2} {
		for _, k := range kernels.All() {
			d := k.Build()
			f := pg.NewFlow(level0Topology(maxIn), d)
			f.MIIRecStatic = d.MIIRec()
			assertEquivalent(t, fmt.Sprintf("%s/maxIn%d", k.Name, maxIn), f, wsAll(d), Config{})
		}
	}
}

func TestDeltaMatchesReferenceOnSyntheticDDGs(t *testing.T) {
	// The randomized half of the equivalence oracle: 50+ generated loop
	// bodies across several topology shapes, some with a recurrence.
	shapes := []struct {
		clusters, slots, maxIn int
	}{
		{4, 16, 8},
		{4, 8, 3},
		{2, 24, 2},
		{6, 8, 4},
	}
	for seed := int64(0); seed < 52; seed++ {
		cfg := kernels.SynthConfig{
			Ops:  16 + int(seed%5)*12,
			Seed: seed,
		}
		if seed%3 == 0 {
			cfg.RecLatency = 3 + int(seed%4)
		}
		d := kernels.Synthetic(cfg)
		sh := shapes[seed%int64(len(shapes))]
		tp := pg.NewTopology(fmt.Sprintf("synth-t%d", seed), sh.clusters, sh.slots, sh.maxIn, 0)
		tp.AllToAll()
		f := pg.NewFlow(tp, d)
		f.MIIRecStatic = d.MIIRec()
		assertEquivalent(t, fmt.Sprintf("seed%d", seed), f, wsAll(d), Config{})
	}
}

func TestDeltaMatchesReferenceWithCriticalityCache(t *testing.T) {
	// The cached Slack/Depth arrays must not change results relative to
	// per-call recomputation (Crit == nil).
	d := kernels.IDCTHor()
	crit, err := AnalyzeDDG(d)
	if err != nil {
		t.Fatal(err)
	}
	f := pg.NewFlow(level0Topology(8), d)
	f.MIIRecStatic = d.MIIRec()
	ws := wsAll(d)
	cached, err := Solve(context.Background(), f, ws, Config{Crit: crit})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Solve(context.Background(), f, ws, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := flowFingerprint(cached.Flow), flowFingerprint(fresh.Flow); a != b {
		t.Errorf("criticality cache changed the result:\ncached: %s\n fresh: %s", a, b)
	}
	if cached.Score != fresh.Score || cached.Stats != fresh.Stats {
		t.Errorf("criticality cache changed score/stats: %+v vs %+v", cached, fresh)
	}
}

func TestSolveLeavesStartUntouched(t *testing.T) {
	// The in-place evaluation path works directly on frontier flows; the
	// caller's start flow must still come back unmodified and with its
	// journal off.
	d := ddg.New("chain")
	prev := d.AddConst(1, "c")
	for i := 0; i < 6; i++ {
		m := d.AddOp(ddg.OpAbs, "m")
		d.AddDep(prev, m, 0, 0)
		prev = m
	}
	f := pg.NewFlow(level0Topology(8), d)
	if _, err := Solve(context.Background(), f, wsAll(d), Config{}); err != nil {
		t.Fatal(err)
	}
	if f.NumAssigned() != 0 {
		t.Errorf("start flow mutated: %d nodes assigned", f.NumAssigned())
	}
	if f.Journaling() {
		t.Error("start flow left journaling")
	}
}
