package dse

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/kernels"
	"repro/internal/par"
	"repro/internal/see"
)

func TestExpandDefaultsAndOrder(t *testing.T) {
	pts, err := Grid{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("zero grid expanded to %d points", len(pts))
	}
	if pts[0].Machine.Name != "dspfabric64-n8-m8-k8" || pts[0].Engine != "see" {
		t.Fatalf("zero grid point = %s/%s", pts[0].Machine.Name, pts[0].Engine)
	}

	g := Grid{N: []int{8, 6}, K: []int{8, 4}, Engines: []string{"see", "exact"}}
	pts, err = g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("expanded to %d points, want 8", len(pts))
	}
	// Engines outermost, then n, then k.
	want := []string{
		"see:dspfabric64-n8-m8-k8", "see:dspfabric64-n8-m8-k4",
		"see:dspfabric64-n6-m8-k8", "see:dspfabric64-n6-m8-k4",
		"exact:dspfabric64-n8-m8-k8", "exact:dspfabric64-n8-m8-k4",
		"exact:dspfabric64-n6-m8-k8", "exact:dspfabric64-n6-m8-k4",
	}
	for i, p := range pts {
		if got := p.Engine + ":" + p.Machine.Name; got != want[i] {
			t.Errorf("point %d = %s, want %s", i, got, want[i])
		}
		if p.Index != i {
			t.Errorf("point %d carries Index %d", i, p.Index)
		}
	}
}

func TestExpandTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		g     Grid
		field string
	}{
		{"bad type", Grid{Type: "torus"}, "grid.type"},
		{"bad engine", Grid{Engines: []string{"quantum"}}, "engine"},
		{"flat axes on dspfabric", Grid{Clusters: []int{8}}, "grid.clusters"},
		{"dsp axes on rcp", Grid{Type: "rcp", N: []int{8}}, "grid.n"},
		{"flat axis on dspfabric", Grid{Neighbors: []int{3}}, "grid.clusters"},
		{"dsp axis on linear", Grid{Type: "linear", OutPorts: []int{2}}, "grid.n"},
		{"too many clusters", Grid{Type: "rcp", Clusters: []int{128}}, "grid.clusters"},
		{"one cluster past the limit", Grid{Type: "linear", Clusters: []int{64, 65}}, "grid.clusters"},
		{"one CN in-port", Grid{InPorts: []int{1}}, "grid.in_ports"},
		{"invalid machine", Grid{N: []int{-3}}, "grid"},
		{"ring neighborhood too wide", Grid{Type: "rcp", Neighbors: []int{8}}, "grid"},
		{"memory CN out of range", Grid{Type: "rcp", MemCNs: [][]int{{8}}}, "grid"},
	}
	for _, tc := range cases {
		_, err := tc.g.Expand()
		var oe *see.OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: err = %v, want *see.OptionError", tc.name, err)
			continue
		}
		if oe.Field != tc.field {
			t.Errorf("%s: field = %q, want %q", tc.name, oe.Field, tc.field)
		}
	}
}

func TestSweepMaxPointsBound(t *testing.T) {
	d := kernels.Fir2Dim()
	g := Grid{K: []int{8, 6, 4, 2}}
	_, err := Sweep(context.Background(), d, g, Options{MaxPoints: 3})
	var oe *see.OptionError
	if !errors.As(err, &oe) || oe.Field != "grid" {
		t.Fatalf("err = %v, want typed grid bound error", err)
	}
	if _, err := Sweep(context.Background(), d, g, Options{MaxPoints: 4}); err != nil {
		t.Fatalf("sweep at the bound failed: %v", err)
	}
}

// NumPoints counts from the axis lengths: it agrees with Expand on
// valid grids, saturates instead of overflowing, and lets Sweep turn an
// oversized grid away without building a point.
func TestNumPointsBeforeExpand(t *testing.T) {
	for _, g := range []Grid{
		{},
		{K: []int{8, 6, 4, 2}},
		{Type: "rcp", Neighbors: []int{2, 4}, Ports: []int{1, 2, 3}},
		{N: []int{4, 8}, Engines: []string{"see", "exact"}, MemCNs: [][]int{nil, {0, 1}}},
	} {
		pts, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if n := g.NumPoints(); n != len(pts) {
			t.Errorf("%+v: NumPoints %d, Expand %d points", g, n, len(pts))
		}
	}
	axis := func(n int) []int {
		a := make([]int, n)
		for i := range a {
			a[i] = 8 // repeated axis values are valid
		}
		return a
	}
	thousand := axis(1000)
	huge := Grid{N: thousand, M: thousand, K: thousand, InPorts: thousand, OutPorts: thousand, Clusters: thousand, Neighbors: thousand}
	if n := huge.NumPoints(); n != math.MaxInt {
		t.Errorf("1000^7 grid counts %d points, want the saturated %d", n, math.MaxInt)
	}
	cube := Grid{N: axis(64), M: axis(64), K: axis(64)}
	d := kernels.Fir2Dim()
	allocs := testing.AllocsPerRun(5, func() {
		_, err := Sweep(context.Background(), d, cube, Options{MaxPoints: 64})
		var oe *see.OptionError
		if !errors.As(err, &oe) || oe.Field != "grid" || oe.Value != 64*64*64 {
			t.Fatalf("err = %v, want the typed grid bound error", err)
		}
	})
	if allocs > 16 { // building the 262,144 points takes at least one each
		t.Errorf("rejecting a 64^3 grid took %v allocations", allocs)
	}
}

// TestSweepDedupCollapsesSaturatedRings: rcp neighborhoods at or past
// clusters/2 are structurally one fabric and must solve once, with the
// duplicates pointing at their canonical sibling and carrying its full
// result.
func TestSweepDedupCollapsesSaturatedRings(t *testing.T) {
	d := kernels.Fir2Dim()
	g := Grid{Type: "rcp", Neighbors: []int{2, 4, 7}}
	res, err := Sweep(context.Background(), d, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points != 3 || res.Stats.Unique != 2 || res.Stats.Deduped != 1 {
		t.Fatalf("stats = %+v, want 3 points / 2 unique / 1 deduped", res.Stats)
	}
	nb4, nb7 := res.Points[1], res.Points[2]
	if nb7.Canonical != nb4.Index {
		t.Fatalf("nb=7 canonical = %d, want %d (nb=4)", nb7.Canonical, nb4.Index)
	}
	if nb7.Fingerprint != nb4.Fingerprint {
		t.Fatal("deduped point's fingerprint differs from its canonical")
	}
	if nb7.MIIFinal != nb4.MIIFinal || nb7.Legal != nb4.Legal {
		t.Fatal("deduped point did not inherit the canonical result")
	}
	if res.Points[0].Canonical != 0 {
		t.Fatalf("nb=2 wrongly deduped onto %d", res.Points[0].Canonical)
	}
	// Same shapes under different engines must NOT collapse.
	g2 := Grid{Type: "rcp", Neighbors: []int{4, 7}, Engines: []string{"see", "exact"}}
	pts, err := g2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Sweep(context.Background(), d, g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 || res2.Stats.Unique != 2 {
		t.Fatalf("engine-split dedup: %d points / %d unique, want 4/2", len(pts), res2.Stats.Unique)
	}
	for _, p := range res2.Points {
		canon := res2.Points[p.Canonical]
		if canon.Engine != p.Engine {
			t.Fatalf("point %d (%s) deduped onto %d (%s): engines must match",
				p.Index, p.Engine, canon.Index, canon.Engine)
		}
	}
}

// TestSweepDeterministicAcrossWidths is the byte-determinism acceptance
// check: the canonical output must be identical at any worker count and
// across repeated runs (memo state notwithstanding).
func TestSweepDeterministicAcrossWidths(t *testing.T) {
	d := kernels.Fir2Dim()
	g := Grid{N: []int{8, 6}, K: []int{8, 6, 4, 2}, MemCNs: [][]int{nil, {0, 1, 2, 3}}}
	var first []byte
	for _, w := range []int{1, 4, 16} {
		restore := par.ForceWidthForTest(w)
		for rep := 0; rep < 2; rep++ {
			res, err := Sweep(context.Background(), d, g, Options{})
			if err != nil {
				restore()
				t.Fatalf("width %d: %v", w, err)
			}
			b, err := res.CanonicalJSON()
			if err != nil {
				restore()
				t.Fatal(err)
			}
			if first == nil {
				first = b
			} else if !bytes.Equal(first, b) {
				restore()
				t.Fatalf("width %d rep %d: canonical output diverged", w, rep)
			}
		}
		restore()
	}
}

// TestSweepSharedMemoMatchesPerPoint: sharing the memo across points is
// a pure performance play — every solved point must equal a standalone
// core.HCA compile of the same machine and engine, which runs on a memo
// of its own. That holds for failed points too: h264deblocking fails on
// both n=40 and n=64 in a subproblem whose failed attempts the two
// points share, and each point's error must still name its own machine.
func TestSweepSharedMemoMatchesPerPoint(t *testing.T) {
	ctx := context.Background()
	const budget = 512
	for _, tc := range []struct {
		d *ddg.DDG
		g Grid
	}{
		{kernels.Fir2Dim(), Grid{N: []int{8, 6}, M: []int{8, 6}, K: []int{8, 4}, Engines: []string{"see", "exact"}}},
		{kernels.H264Deblock(), Grid{N: []int{40, 64}}},
	} {
		res, err := Sweep(ctx, tc.d, tc.g, Options{ExactBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		pts, err := tc.g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range res.Points {
			if p.Canonical != p.Index {
				continue
			}
			alone, err := core.HCA(ctx, tc.d, pts[i].Machine, core.Options{Engine: pts[i].Engine, ExactBudget: budget})
			if err != nil {
				if p.Error != err.Error() {
					t.Errorf("%s point %d (%s, %s): sweep error %q, standalone %v", tc.d.Name, i, p.Engine, p.Machine, p.Error, err)
				}
				continue
			}
			want := p
			want.MIIRec, want.MIIRes = alone.MII.Rec, alone.MII.Res
			want.MIIFinal, want.MIIAllLevels = alone.MII.Final, alone.MII.AllLevels
			want.Receives, want.Legal = alone.Recvs, alone.Legal
			want.Winner, want.Error = topWinner(alone.EngineWins), ""
			if p != want {
				t.Errorf("%s point %d (%s, %s): sweep %+v, standalone %+v", tc.d.Name, i, p.Engine, p.Machine, p, want)
			}
		}
		if res.Stats.Memo.Hits == 0 {
			t.Fatalf("%s: shared memo recorded no cross-point hits", tc.d.Name)
		}
	}
}

// TestSweepFailedPointsDeterministic: a sweep whose points fail in
// shared subproblems renders the same CanonicalJSON on every run and at
// any GOMAXPROCS, whichever point's attempt the memo cached first.
func TestSweepFailedPointsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	d := kernels.H264Deblock()
	g := Grid{N: []int{40, 64}}
	var want []byte
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 5; run++ {
			res, err := Sweep(context.Background(), d, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Failed != 2 {
				t.Fatalf("%d of 2 points failed; the case no longer exercises shared failures", res.Stats.Failed)
			}
			got, err := res.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d run %d diverged:\n%s\nwant:\n%s", procs, run, got, want)
			}
		}
	}
}

// TestSweepParetoFront pins the skyline definition on a sweep with real
// cost spread: ascending cost, strictly descending MII, only canonical
// legal points, no dominated member.
func TestSweepParetoFront(t *testing.T) {
	d := kernels.Fir2Dim()
	g := Grid{Type: "rcp", Clusters: []int{4, 8}, Neighbors: []int{1, 2}}
	res, err := Sweep(context.Background(), d, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front on an all-legal sweep")
	}
	for i, f := range res.Front {
		p := res.Points[f.Index]
		if p.Canonical != p.Index || !p.Legal || p.Error != "" {
			t.Errorf("front member %d is not a canonical legal point", f.Index)
		}
		if p.MIIFinal != f.MII || p.Cost.Total != f.Cost {
			t.Errorf("front member %d disagrees with its point", f.Index)
		}
		if i > 0 {
			prev := res.Front[i-1]
			if f.Cost <= prev.Cost || f.MII >= prev.MII {
				t.Errorf("front not strictly improving: %+v after %+v", f, prev)
			}
		}
	}
	// No successful canonical point may dominate a front member.
	for _, p := range res.Points {
		if p.Canonical != p.Index || !p.Legal || p.Error != "" {
			continue
		}
		for _, f := range res.Front {
			if p.Cost.Total <= f.Cost && p.MIIFinal <= f.MII &&
				(p.Cost.Total < f.Cost || p.MIIFinal < f.MII) {
				t.Errorf("point %d (mii %d, cost %d) dominates front member %d (mii %d, cost %d)",
					p.Index, p.MIIFinal, p.Cost.Total, f.Index, f.MII, f.Cost)
			}
		}
	}
}

// TestWarmOrderDeterministicAndComplete: the scheduler must visit every
// canonical point exactly once, identically on every call, grouping the
// engine axis (no interleaving back and forth between engines).
func TestWarmOrderDeterministicAndComplete(t *testing.T) {
	g := Grid{N: []int{8, 6}, K: []int{8, 6, 4}, Engines: []string{"see", "exact"}}
	pts, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(pts))
	for i := range pts {
		idx[i] = i
	}
	first := warmOrder(pts, idx)
	if len(first) != len(pts) {
		t.Fatalf("order has %d entries, want %d", len(first), len(pts))
	}
	seen := make(map[int]bool, len(first))
	for _, i := range first {
		if seen[i] {
			t.Fatalf("point %d visited twice", i)
		}
		seen[i] = true
	}
	for rep := 0; rep < 3; rep++ {
		again := warmOrder(pts, idx)
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("warm order not deterministic at position %d", i)
			}
		}
	}
	// Engine grouping: once the engine changes, it never changes back.
	switches := 0
	for i := 1; i < len(first); i++ {
		if pts[first[i]].Engine != pts[first[i-1]].Engine {
			switches++
		}
	}
	if switches != 1 {
		t.Fatalf("engine axis interleaved: %d switches, want 1", switches)
	}
}

// TestSweepConcurrentDeterministic runs two sweeps against one shared
// memo concurrently — the `make race` coverage for the sweep path — and
// checks both still produce the canonical output.
func TestSweepConcurrentDeterministic(t *testing.T) {
	d := kernels.Fir2Dim()
	g := Grid{N: []int{8, 6}, K: []int{8, 4}}
	memo := core.NewMemo(0)
	want, err := Sweep(context.Background(), d, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := want.CanonicalJSON()

	results := make([][]byte, 4)
	errs := make([]error, 4)
	par.ForEach(len(results), func(i int) {
		res, err := Sweep(context.Background(), d, g, Options{Memo: memo})
		if err != nil {
			errs[i] = err
			return
		}
		results[i], errs[i] = res.CanonicalJSON()
	})
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent sweep %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], wb) {
			t.Fatalf("concurrent sweep %d diverged", i)
		}
	}
}

// TestSweepCancellation: a pre-cancelled context must abort with its
// error before any solving.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, kernels.Fir2Dim(), Grid{}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("n=8,6; m=8 ;k=8,6,4,2;engines=see,exact;mem=all|0.4")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.N) != 2 || len(g.M) != 1 || len(g.K) != 4 || len(g.Engines) != 2 {
		t.Fatalf("parsed %+v", g)
	}
	if len(g.MemCNs) != 2 || g.MemCNs[0] != nil || len(g.MemCNs[1]) != 2 {
		t.Fatalf("mem mixes = %v", g.MemCNs)
	}
	if g2, err := ParseGrid("type=rcp;clusters=8;neighbors=2,4"); err != nil || g2.Type != "rcp" || len(g2.Neighbors) != 2 {
		t.Fatalf("rcp spec: %+v, %v", g2, err)
	}
	for _, bad := range []string{"n", "n=x", "warp=9", "n="} {
		if _, err := ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) accepted", bad)
		} else {
			var oe *see.OptionError
			if !errors.As(err, &oe) {
				t.Errorf("ParseGrid(%q): err %v not typed", bad, err)
			}
		}
	}
	if _, err := ParseGrid(""); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}
