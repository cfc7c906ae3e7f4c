package see

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/pg"
)

func wsAll(d *ddg.DDG) []graph.NodeID {
	ws := make([]graph.NodeID, d.Len())
	for i := range ws {
		ws[i] = graph.NodeID(i)
	}
	return ws
}

func level0Topology(maxIn int) *pg.Topology {
	t := pg.NewTopology("lvl0", 4, 16, maxIn, 0)
	t.AllToAll()
	return t
}

func TestSolveTinyChain(t *testing.T) {
	d := ddg.New("chain")
	prev := d.AddConst(1, "c")
	for i := 0; i < 5; i++ {
		m := d.AddOp(ddg.OpMov, "m")
		d.AddDep(prev, m, 0, 0)
		prev = m
	}
	f := pg.NewFlow(level0Topology(8), d)
	res, err := Solve(context.Background(), f, wsAll(d), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A pure chain has no parallelism: best solution is one cluster, zero copies.
	if res.Flow.TotalCopies() != 0 {
		t.Errorf("chain produced %d copies", res.Flow.TotalCopies())
	}
	if err := res.Flow.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesAssigned != 6 {
		t.Errorf("NodesAssigned = %d", res.Stats.NodesAssigned)
	}
}

func TestSolveSpreadsParallelWork(t *testing.T) {
	// 32 independent chains on 4 single-issue clusters: load must balance
	// (8 instructions per cluster) for the MII term to be minimal.
	d := ddg.New("par")
	for i := 0; i < 32; i++ {
		d.AddConst(int64(i), "c")
	}
	tp := pg.NewTopology("t", 4, 1, 8, 0)
	tp.AllToAll()
	f := pg.NewFlow(tp, d)
	res, err := Solve(context.Background(), f, wsAll(d), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for c := pg.ClusterID(0); c < 4; c++ {
		if got := res.Flow.Load(c); got != 8 {
			t.Errorf("Load(%d) = %d, want 8", c, got)
		}
	}
	if got := res.Flow.EstimateMII(); got != 8 {
		t.Errorf("EstimateMII = %d, want 8", got)
	}
}

func TestSolveAllKernelsLevel0(t *testing.T) {
	// Every paper kernel must clusterize legally on the level-0 view of
	// DSPFabric (4 clusters of 16 CNs, 8 wires).
	for _, k := range kernels.All() {
		d := k.Build()
		f := pg.NewFlow(level0Topology(8), d)
		f.MIIRecStatic = d.MIIRec()
		res, err := Solve(context.Background(), f, wsAll(d), Config{})
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		if res.Flow.NumAssigned() != d.Len() {
			t.Errorf("%s: assigned %d of %d", k.Name, res.Flow.NumAssigned(), d.Len())
		}
		if err := res.Flow.Verify(); err != nil {
			t.Errorf("%s: Verify: %v", k.Name, err)
		}
	}
}

func TestPriorityListProducersFirst(t *testing.T) {
	d := ddg.New("p")
	a := d.AddConst(1, "a")
	b := d.AddOp(ddg.OpAbs, "b")
	c := d.AddOp(ddg.OpAbs, "c")
	d.AddDep(a, b, 0, 0)
	d.AddDep(b, c, 0, 0)
	f := pg.NewFlow(level0Topology(8), d)
	order, err := PriorityList(f, wsAll(d))
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != a || order[1] != b || order[2] != c {
		t.Errorf("order = %v", order)
	}
}

func TestPriorityListCriticalFirstAtSameDepth(t *testing.T) {
	// Two roots at depth 0; the one on the longer path has less slack and
	// must come first.
	d := ddg.New("p")
	slow := d.AddConst(1, "slow")
	fast := d.AddConst(2, "fast")
	x := d.AddOp(ddg.OpAbs, "x")
	y := d.AddOp(ddg.OpAbs, "y")
	d.AddDep(slow, x, 0, 0)
	d.AddDep(x, y, 0, 0)
	sink := d.AddOp(ddg.OpAdd, "s")
	d.AddDep(y, sink, 0, 0)
	d.AddDep(fast, sink, 1, 0)
	f := pg.NewFlow(level0Topology(8), d)
	order, err := PriorityList(f, wsAll(d))
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != slow {
		t.Errorf("critical root not first: %v", order)
	}
}

func TestNoCandidatesAnywhere(t *testing.T) {
	// Disconnected topology: a cross-cluster dependence with all clusters
	// already... simplest: 2 clusters, no arcs, a chain that must split
	// because cluster capacity is irrelevant — force split via criteria?
	// Instead: one regular cluster unreachable from input node carrying
	// the only operand. Build: no potential arcs, operand on input node.
	// Two isolated clusters (no inter-cluster arcs), one input node that
	// can broadcast anywhere. v2 needs both ext (input node) and u; once u
	// is pinned on cluster 0, only cluster 0 can host v2.
	d := ddg.New("x")
	ext := d.AddConst(1, "ext")
	u := d.AddOp(ddg.OpAbs, "u")
	d.AddDep(ext, u, 0, 0)
	v2 := d.AddOp(ddg.OpAdd, "v2")
	d.AddDep(ext, v2, 0, 0)
	d.AddDep(u, v2, 1, 0)
	tp := pg.NewTopology("iso", 2, 4, 2, 0) // no inter-cluster arcs
	tp.AddInputNode([]pg.ValueID{ext})
	f := pg.NewFlow(tp, d)
	if err := f.Assign(u, 0); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), f, []graph.NodeID{v2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow.Assignment(v2) != 0 {
		t.Errorf("v2 on %d, want 0", res.Flow.Assignment(v2))
	}
}

func TestRouterEscapesImpasse(t *testing.T) {
	// Figure 6 scenario on a one-directional ring 0→1→2→3→0 with MaxIn 1:
	// u = v0 + v2 with v0 on cluster 0 and v2 on cluster 2. Whatever
	// cluster hosts u can receive at most one operand over a direct
	// pattern, so the first (direct-only) phase finds no candidate and the
	// route allocator must forward one operand around the ring.
	d := ddg.New("ring")
	v0 := d.AddConst(1, "v0")
	v2 := d.AddConst(2, "v2")
	u := d.AddOp(ddg.OpAdd, "u")
	d.AddDep(v0, u, 0, 0)
	d.AddDep(v2, u, 1, 0)
	tp := pg.NewTopology("ring", 4, 1, 1, 0)
	for i := 0; i < 4; i++ {
		tp.SetPotential(pg.ClusterID(i), pg.ClusterID((i+1)%4), true)
	}
	f := pg.NewFlow(tp, d)
	if err := f.Assign(v0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Assign(v2, 2); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), f, []graph.NodeID{u}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RouterInvocations == 0 {
		t.Error("router was not invoked")
	}
	// The best placements collocate u with one operand, so the other must
	// travel two hops around the ring: exactly two copy pairs, and some
	// intermediate cluster pays a forwarding re-send.
	if res.Flow.TotalCopies() != 2 {
		t.Errorf("TotalCopies = %d, want 2", res.Flow.TotalCopies())
	}
	fwd := 0
	for c := pg.ClusterID(0); c < 4; c++ {
		fwd += res.Flow.Load(c)
	}
	// Loads: 3 instructions + 2 receives + 1 forwarding send = 6.
	if fwd != 6 {
		t.Errorf("total load = %d, want 6 (includes forward re-send)", fwd)
	}
	if err := res.Flow.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDisableRouterFails(t *testing.T) {
	// Same ring, but u has TWO operands on clusters 0 and 1, MaxIn=1:
	// no cluster can receive both directly.
	d := ddg.New("ring")
	v0 := d.AddConst(1, "v0")
	v1 := d.AddConst(2, "v1")
	u := d.AddOp(ddg.OpAdd, "u")
	d.AddDep(v0, u, 0, 0)
	d.AddDep(v1, u, 1, 0)
	tp := pg.NewTopology("ring", 4, 1, 1, 0)
	for i := 0; i < 4; i++ {
		tp.SetPotential(pg.ClusterID(i), pg.ClusterID((i+1)%4), true)
	}
	f := pg.NewFlow(tp, d)
	if err := f.Assign(v0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Assign(v1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(context.Background(), f, []graph.NodeID{u}, Config{DisableRouter: true}); err == nil {
		t.Fatal("expected failure with router disabled")
	}
	res, err := Solve(context.Background(), f, []graph.NodeID{u}, Config{})
	if err != nil {
		t.Fatalf("router could not escape: %v", err)
	}
	if err := res.Flow.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBeamWidthOneStillLegal(t *testing.T) {
	d := kernels.Fir2Dim()
	f := pg.NewFlow(level0Topology(8), d)
	res, err := Solve(context.Background(), f, wsAll(d), Config{BeamWidth: 1, CandWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Flow.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWiderBeamNeverWorse(t *testing.T) {
	d := kernels.MPEG2Inter()
	f := pg.NewFlow(level0Topology(8), d)
	f.MIIRecStatic = d.MIIRec()
	narrow, err := Solve(context.Background(), f, wsAll(d), Config{BeamWidth: 1, CandWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Solve(context.Background(), f, wsAll(d), Config{BeamWidth: 16, CandWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Flow.EstimateMII() > narrow.Flow.EstimateMII() {
		t.Errorf("wider beam worse: %d > %d", wide.Flow.EstimateMII(), narrow.Flow.EstimateMII())
	}
}

func TestSolveDeterministic(t *testing.T) {
	d := kernels.IDCTHor()
	run := func() []pg.ClusterID {
		f := pg.NewFlow(level0Topology(8), d)
		res, err := Solve(context.Background(), f, wsAll(d), Config{})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]pg.ClusterID, d.Len())
		for i := range out {
			out[i] = res.Flow.Assignment(graph.NodeID(i))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic assignment at node %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	var s Stats
	s.Add(Stats{StatesExplored: 2, CandidatesTried: 5, RouterInvocations: 1, NodesAssigned: 3})
	s.Add(Stats{StatesExplored: 1, CandidatesTried: 2, NodesAssigned: 1})
	if s.StatesExplored != 3 || s.CandidatesTried != 7 || s.RouterInvocations != 1 || s.NodesAssigned != 4 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestCustomCriteria(t *testing.T) {
	// A criterion that hates cluster 0 must push work to other clusters.
	d := ddg.New("c")
	for i := 0; i < 4; i++ {
		d.AddConst(int64(i), "k")
	}
	tp := pg.NewTopology("t", 2, 8, 4, 0)
	tp.AllToAll()
	f := pg.NewFlow(tp, d)
	avoid0 := []Criterion{{Name: "avoid0", Weight: 1, Eval: func(fl *pg.Flow) float64 {
		return float64(fl.Load(0))
	}}}
	res, err := Solve(context.Background(), f, wsAll(d), Config{Criteria: avoid0})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Flow.Load(0); got != 0 {
		t.Errorf("Load(0) = %d, want 0", got)
	}
}

func TestRouterOnlyMode(t *testing.T) {
	// RouterOnly must produce a legal solution without the direct-first
	// phase (stats show zero router "invocations" because routing is the
	// only mode).
	d := kernels.Fir2Dim()
	f := pg.NewFlow(level0Topology(8), d)
	res, err := Solve(context.Background(), f, wsAll(d), Config{RouterOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Flow.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.RouterInvocations != 0 {
		t.Errorf("RouterInvocations = %d in RouterOnly mode", res.Stats.RouterInvocations)
	}
}

func TestPriorityListRejectsCyclicDDG(t *testing.T) {
	d := ddg.New("cyc")
	a := d.AddOp(ddg.OpMov, "a")
	b := d.AddOp(ddg.OpMov, "b")
	d.AddDep(a, b, 0, 0)
	d.AddDep(b, a, 0, 0)
	f := pg.NewFlow(level0Topology(8), d)
	if _, err := PriorityList(f, wsAll(d)); err == nil {
		t.Fatal("cyclic DDG accepted")
	}
}

func TestDefaultCriteriaShape(t *testing.T) {
	crit := DefaultCriteria()
	if len(crit) != 4 {
		t.Fatalf("criteria = %d", len(crit))
	}
	names := map[string]bool{}
	for _, c := range crit {
		names[c.Name] = true
		if c.Weight <= 0 {
			t.Errorf("%s: weight %v", c.Name, c.Weight)
		}
	}
	for _, want := range []string{"mii", "copies", "balance", "ports"} {
		if !names[want] {
			t.Errorf("missing criterion %q", want)
		}
	}
}

// TestDedupFiresOnSymmetricTopology pins that frontier dedup actually
// triggers where it is designed to: on a homogeneous all-to-all level,
// the first beam expansions produce permutation twins, and the pruned
// count must show up in Stats.
func TestDedupFiresOnSymmetricTopology(t *testing.T) {
	d := kernels.Fir2Dim()
	f := pg.NewFlow(level0Topology(8), d)
	f.MIIRecStatic = d.MIIRec()
	res, err := Solve(context.Background(), f, wsAll(d), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DuplicatesPruned == 0 {
		t.Fatal("expected duplicate pruning on an all-to-all homogeneous topology")
	}
	off, err := Solve(context.Background(), f, wsAll(d), Config{DisableDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.DuplicatesPruned != 0 {
		t.Fatalf("DisableDedup still pruned %d duplicates", off.Stats.DuplicatesPruned)
	}
	if res.Score > off.Score {
		t.Fatalf("dedup score %v worse than dedup-off score %v", res.Score, off.Score)
	}
}

// TestSolveCancelStopsAtNextNode pins the beam engine's cancellation
// contract: a criterion that cancels ctx on its first call lets the
// running expansion finish, and Solve returns context.Canceled before
// it evaluates any candidate of the next priority-list node. The
// criterion's call count must equal that of a solve whose working set
// is the first node alone: one expansion's grid.
func TestSolveCancelStopsAtNextNode(t *testing.T) {
	d := kernels.Fir2Dim()
	f := pg.NewFlow(level0Topology(8), d)
	f.MIIRecStatic = d.MIIRec()
	order, err := PriorityList(f, wsAll(d))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	var onCall func()
	cfg := Config{Criteria: append(DefaultCriteria(), Criterion{Name: "probe", Eval: func(*pg.Flow) float64 {
		calls++
		onCall()
		return 0
	}})}

	onCall = func() {}
	first, err := Solve(context.Background(), f, order[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid := calls
	first.Flow.Release()
	if grid == 0 || grid > f.T.NumRegular() {
		t.Fatalf("first node evaluated %d candidates, want 1..%d", grid, f.T.NumRegular())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls, onCall = 0, cancel
	if _, err := Solve(ctx, f, order, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if calls != grid {
		t.Fatalf("criterion ran %d times after cancelling, want %d (the first node's grid only)", calls, grid)
	}
}
