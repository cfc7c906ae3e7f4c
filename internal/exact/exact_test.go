package exact

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/pg"
	"repro/internal/see"
)

func wsAll(d *ddg.DDG) []graph.NodeID {
	ws := make([]graph.NodeID, d.Len())
	for i := range ws {
		ws[i] = graph.NodeID(i)
	}
	return ws
}

func topo(k, issue, maxIn int) *pg.Topology {
	t := pg.NewTopology("t", k, issue, maxIn, 0)
	t.AllToAll()
	return t
}

// tinyDDG builds a small random DAG of two-operand adds over two
// constants — small enough for the exhaustive oracle below.
func tinyDDG(t *testing.T, seed int64, n int) *ddg.DDG {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := ddg.New(fmt.Sprintf("tiny-%d", seed))
	ids := []graph.NodeID{d.AddConst(1, "c0"), d.AddConst(2, "c1")}
	for len(ids) < n {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		op := d.AddOp(ddg.OpAdd, fmt.Sprintf("v%d", len(ids)))
		d.AddDep(a, op, 0, 0)
		d.AddDep(b, op, 1, 0)
		ids = append(ids, op)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// bruteMin exhaustively enumerates the same assignment space the solver
// explores — every cluster under the direct-pattern bound, the route
// allocator only when no direct candidate exists — and returns the
// minimum objective score, or +Inf if no complete assignment exists.
func bruteMin(f *pg.Flow, order []graph.NodeID, idx int, criteria []see.Criterion) float64 {
	if idx == len(order) {
		return see.ScoreFlow(f, criteria)
	}
	n := order[idx]
	try := func(maxHops int) (float64, bool) {
		best, any := math.Inf(1), false
		for c := 0; c < f.T.NumRegular(); c++ {
			mark := f.Checkpoint()
			f.SetMaxHops(maxHops)
			err := f.Assign(n, pg.ClusterID(c))
			f.SetMaxHops(0)
			if err != nil {
				f.Rollback(mark)
				continue
			}
			any = true
			if sub := bruteMin(f, order, idx+1, criteria); sub < best {
				best = sub
			}
			f.Rollback(mark)
		}
		return best, any
	}
	if best, any := try(1); any {
		return best
	}
	best, _ := try(0)
	return best
}

func TestSolveMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, k := range []int{2, 3} {
			d := tinyDDG(t, seed, 9)
			tp := topo(k, 2, 4)
			f := pg.NewFlow(tp, d)
			ws := wsAll(d)
			cfg := see.Config{}.WithDefaults()
			order, err := see.PriorityListCached(nil, f, ws)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteMin(f.Clone(), order, 0, cfg.Criteria)

			res, err := Solve(context.Background(), f, ws, Config{See: cfg})
			label := fmt.Sprintf("seed=%d k=%d", seed, k)
			if math.IsInf(want, 1) {
				if err == nil {
					t.Errorf("%s: solver found a flow where brute force found none", label)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !res.Proved {
				t.Errorf("%s: not proved on a %d-node instance", label, len(ws))
			}
			if res.Score != want {
				t.Errorf("%s: score %v, brute force %v", label, res.Score, want)
			}
			if res.Bound != res.Score {
				t.Errorf("%s: proved bound %v != score %v", label, res.Bound, res.Score)
			}
			if err := res.Flow.Verify(); err != nil {
				t.Errorf("%s: result fails Verify: %v", label, err)
			}
			res.Flow.Release()
		}
	}
}

func TestSolveNeverWorseThanBeam(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := tinyDDG(t, 100+seed, 11)
		f := pg.NewFlow(topo(3, 2, 4), d)
		ws := wsAll(d)
		beam, berr := see.Solve(context.Background(), f, ws, see.Config{})
		res, xerr := Solve(context.Background(), f, ws, Config{})
		if berr != nil || xerr != nil {
			// The beam can dead-end where the backtracking solver does
			// not; only a solver failure alongside a beam success is
			// suspicious.
			if berr == nil && xerr != nil {
				t.Fatalf("seed %d: beam ok but exact failed: %v", seed, xerr)
			}
			continue
		}
		if res.Score > beam.Score {
			t.Errorf("seed %d: exact score %v worse than beam %v", seed, res.Score, beam.Score)
		}
		beam.Flow.Release()
		res.Flow.Release()
	}
}

func TestSolveChainZeroCopies(t *testing.T) {
	d := ddg.New("chain")
	prev := d.AddConst(1, "c")
	for i := 0; i < 6; i++ {
		m := d.AddOp(ddg.OpMov, "m")
		d.AddDep(prev, m, 0, 0)
		prev = m
	}
	f := pg.NewFlow(topo(4, 16, 8), d)
	res, err := Solve(context.Background(), f, wsAll(d), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Error("chain not proved")
	}
	if res.Flow.TotalCopies() != 0 {
		t.Errorf("optimal chain assignment has %d copies, want 0", res.Flow.TotalCopies())
	}
	res.Flow.Release()
}

func TestSolveEmptyWorkingSet(t *testing.T) {
	d := tinyDDG(t, 1, 8)
	f := pg.NewFlow(topo(2, 2, 4), d)
	res, err := Solve(context.Background(), f, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved || res.Score != 0 || res.Flow == nil {
		t.Errorf("empty ws: got score %v proved %v flow %v", res.Score, res.Proved, res.Flow != nil)
	}
	res.Flow.Release()
}

func TestSolveCancelledContext(t *testing.T) {
	d := tinyDDG(t, 2, 12)
	f := pg.NewFlow(topo(3, 2, 4), d)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, f, wsAll(d), Config{}); err != context.Canceled {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestSolveBudgetExhaustion(t *testing.T) {
	d := tinyDDG(t, 3, 12)
	f := pg.NewFlow(topo(4, 2, 4), d)
	res, err := Solve(context.Background(), f, wsAll(d), Config{NodeBudget: 20})
	if err != nil {
		// Legal: the budget died before the first complete dive.
		return
	}
	if res.Proved {
		t.Errorf("proved with a 20-expansion budget on a 12-node instance (used %d)", res.Expansions)
	}
	if res.Flow != nil {
		if err := res.Flow.Verify(); err != nil {
			t.Errorf("unproved incumbent fails Verify: %v", err)
		}
		res.Flow.Release()
	}
}

// An incumbent that is the proved optimum leaves nothing strictly
// better: the solver proves the caller's solution optimal and returns no
// flow. One unit above the optimum, it finds and returns the optimum.
func TestControlIncumbentProvesCallerOptimal(t *testing.T) {
	d := tinyDDG(t, 5, 9)
	f := pg.NewFlow(topo(3, 2, 4), d)
	ws := wsAll(d)
	// First solve to learn the true optimum.
	ref, err := Solve(context.Background(), f, ws, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt := ref.Score
	ref.Flow.Release()
	res, err := Solve(context.Background(), f, ws, Config{Incumbent: &opt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved || res.Flow != nil || res.Score != opt || res.Bound != opt {
		t.Errorf("optimum as incumbent: proved %v flow %v score %v bound %v (want proved, nil, %v, %v)",
			res.Proved, res.Flow != nil, res.Score, res.Bound, opt, opt)
	}
	above := opt + 1
	res, err = Solve(context.Background(), f, ws, Config{Incumbent: &above})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved || res.Flow == nil || res.Score != opt {
		t.Fatalf("beatable incumbent: proved %v flow %v score %v (want proved, a flow, %v)",
			res.Proved, res.Flow != nil, res.Score, opt)
	}
	res.Flow.Release()
}

// TestSearchIdentityPin pins the search itself, not just its optimum:
// whole kernels on a 4-cluster all-to-all topology with two input ports
// per cluster (so the route allocator and the dominance set both fire)
// exhaust a 4096-node budget, and the incumbent they stop at, the
// candidate count and the prune counts are the values the search
// produced before children were ruled out on their floor. A floor that
// skipped a child the search would have descended into, or changed the
// router rule, moves these. The custom rows add a closure criterion,
// whose floor is its value on the parent state.
func TestSearchIdentityPin(t *testing.T) {
	pins := []struct {
		kernel             string
		custom             bool
		score              float64
		proved             bool
		expansions         int64
		router, dups, cand int
		fp                 pg.Fingerprint
	}{
		{"fir2dim", false, 4208.6, false, 4096, 0, 0, 16384, pg.Fingerprint{Hi: 0x78817af39e6ce18a, Lo: 0x2453bddd81355525}},
		{"idcthor", false, 9344.6, false, 4096, 0, 0, 16384, pg.Fingerprint{Hi: 0xf8e721f966019f3e, Lo: 0x23debdf929b5e53c}},
		{"mpeg2inter", false, 4226.8, false, 4096, 17, 0, 16452, pg.Fingerprint{Hi: 0x880e65a15ccb1392, Lo: 0x40c7a274f0397d59}},
		{"h264deblocking", false, 12939.8, false, 4096, 0, 0, 16384, pg.Fingerprint{Hi: 0xae1402ae59e58930, Lo: 0xc6b7c55238d07649}},
		{"fft8", false, 5203.2, false, 4096, 0, 185, 16384, pg.Fingerprint{Hi: 0xe5037492c0a3c332, Lo: 0xe1f39343246c4814}},
		{"sad16", false, 7349.7, false, 4096, 2, 0, 16392, pg.Fingerprint{Hi: 0xdd94066eae2fdcd9, Lo: 0xc5f604b88bf78dd3}},
		{"fir2dim", true, 5402.8, false, 4096, 0, 0, 16384, pg.Fingerprint{Hi: 0xf932bb72abc76e64, Lo: 0x1bc20927323fcf5d}},
		{"mpeg2inter", true, 6175.5, false, 4096, 0, 0, 16384, pg.Fingerprint{Hi: 0x1891a1c3714448c3, Lo: 0x2d8978e8b905e41f}},
		{"fft8", true, 6139.2, false, 4096, 0, 134, 16384, pg.Fingerprint{Hi: 0xc1a81165df892ca3, Lo: 0x18fef46a52d8377b}},
	}
	// A positive charge per copy, like core's scheduling-aware
	// criterion: monotone under Assign, as custom criteria must be.
	withCustom := append(see.DefaultCriteria(), see.Criterion{Name: "critical-copies", Weight: 120, Eval: func(f *pg.Flow) float64 {
		s := 0.0
		f.ForEachCopy(func(_, _ pg.ClusterID, v pg.ValueID) { s += 1 / float64(1+int(v)%3) })
		return s
	}})
	for _, p := range pins {
		k, err := kernels.ByName(p.kernel)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{NodeBudget: 4096}
		if p.custom {
			cfg.See.Criteria = withCustom
		}
		d := k.Build()
		res, err := Solve(context.Background(), pg.NewFlow(topo(4, 16, 2), d), wsAll(d), cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.kernel, err)
		}
		label := fmt.Sprintf("%s custom=%v", p.kernel, p.custom)
		if res.Score != p.score || res.Proved != p.proved || res.Expansions != p.expansions {
			t.Errorf("%s: score %v proved %v expansions %d, want %v %v %d",
				label, res.Score, res.Proved, res.Expansions, p.score, p.proved, p.expansions)
		}
		if st := res.Stats; st.RouterInvocations != p.router || st.DuplicatesPruned != p.dups || st.CandidatesTried != p.cand {
			t.Errorf("%s: router %d dominance %d candidates %d, want %d %d %d",
				label, st.RouterInvocations, st.DuplicatesPruned, st.CandidatesTried, p.router, p.dups, p.cand)
		}
		if fp := res.Flow.Fingerprint(); fp != p.fp {
			t.Errorf("%s: result fingerprint %#x, want %#x", label, fp, p.fp)
		}
		res.Flow.Release()
	}
}

// TestStoppedSolveCountsOnlyRunExpansions pins that a stopped solve
// reports only the expansions that ran: a budget stop reports exactly
// NodeBudget, with or without an incumbent, and under an incumbent the
// stopped solve returns either a strictly better flow or none.
func TestStoppedSolveCountsOnlyRunExpansions(t *testing.T) {
	d := kernels.Fir2Dim()
	ws := wsAll(d)
	const budget = 300
	res, err := Solve(context.Background(), pg.NewFlow(topo(4, 16, 2), d), ws, Config{NodeBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proved || res.Expansions != budget {
		t.Errorf("budget stop: proved %v expansions %d, want unproved at exactly %d", res.Proved, res.Expansions, budget)
	}
	inc := res.Score
	res.Flow.Release()

	const short = 200
	res, err = Solve(context.Background(), pg.NewFlow(topo(4, 16, 2), d), ws, Config{NodeBudget: short, Incumbent: &inc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proved || res.Expansions != short {
		t.Errorf("budget stop under an incumbent: proved %v expansions %d, want unproved at exactly %d", res.Proved, res.Expansions, short)
	}
	switch {
	case res.Flow == nil && res.Score != inc:
		t.Errorf("no flow, but score %v is not the incumbent %v", res.Score, inc)
	case res.Flow != nil && !(res.Score < inc):
		t.Errorf("returned a flow scoring %v, not below the incumbent %v", res.Score, inc)
	}
	if res.Flow != nil {
		res.Flow.Release()
	}
}
