package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
)

func TestHCAAllKernelsDSPFabric(t *testing.T) {
	// Table 1's headline claim: every kernel clusterizes legally on the
	// 64-CN DSPFabric with N=M=K=8.
	mc := machine.DSPFabric64(8, 8, 8)
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			d := k.Build()
			res, err := HCA(context.Background(), d, mc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Legal {
				t.Fatal("result not legal")
			}
			if res.MII.Rec != k.WantMIIRec || res.MII.Res != k.WantMIIRes {
				t.Errorf("MIIRec/Res = %d/%d, want %d/%d", res.MII.Rec, res.MII.Res, k.WantMIIRec, k.WantMIIRes)
			}
			if res.MII.Final < res.MII.Rec {
				t.Errorf("Final MII %d below recurrence bound %d", res.MII.Final, res.MII.Rec)
			}
			if res.MII.AllLevels < res.MII.Final {
				t.Errorf("AllLevels %d below Final %d", res.MII.AllLevels, res.MII.Final)
			}
			// The paper-definition Final MII must land near Table 1's value
			// (shape reproduction: within a factor of two).
			if res.MII.Final > 2*k.PaperFinalMII {
				t.Errorf("Final MII %d more than 2x paper's %d", res.MII.Final, k.PaperFinalMII)
			}
			t.Logf("%s: MII rec=%d res=%d final=%d all=%d (paper final %d), %d recvs, %d levels, %d states",
				k.Name, res.MII.Rec, res.MII.Res, res.MII.Final, res.MII.AllLevels, k.PaperFinalMII,
				res.Recvs, len(res.Levels), res.Stats.StatesExplored)
		})
	}
}

func TestHCATinyChainPipelines(t *testing.T) {
	// A serial chain offers no intra-iteration parallelism, but modulo
	// scheduling overlaps iterations: spreading the chain across CNs
	// pipelines it, so the Final MII (a throughput bound) must beat the
	// single-CN serial load of 5 — each CN carries at most one mov plus
	// one receive.
	d := ddg.New("chain")
	prev := d.AddConst(1, "c")
	for i := 0; i < 4; i++ {
		m := d.AddOp(ddg.OpMov, "m")
		d.AddDep(prev, m, 0, 0)
		prev = m
	}
	res, err := HCA(context.Background(), d, machine.DSPFabric64(8, 8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MII.AllLevels > 2 {
		t.Errorf("AllLevels MII = %d, want <= 2 (pipelined chain)", res.MII.AllLevels)
	}
	if !res.Legal {
		t.Fatal("not legal")
	}
}

func TestHCASpreadsIndependentWork(t *testing.T) {
	// 64 independent constants on 64 CNs: perfect spread gives MII 1.
	d := ddg.New("par")
	for i := 0; i < 64; i++ {
		d.AddConst(int64(i), "c")
	}
	res, err := HCA(context.Background(), d, machine.DSPFabric64(8, 8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MII.AllLevels != 1 {
		t.Errorf("AllLevels MII = %d, want 1", res.MII.AllLevels)
	}
	seen := map[int]int{}
	for _, cn := range res.CN {
		seen[cn]++
	}
	for cn, n := range seen {
		if n != 1 {
			t.Errorf("CN %d hosts %d instructions", cn, n)
		}
	}
}

func TestHCAOnRCPRing(t *testing.T) {
	// The flat RCP machine (Figure 1) is the degenerate one-level case.
	d := kernels.Fir2Dim()
	mc := machine.RCP(8, 2, 2)
	res, err := HCA(context.Background(), d, mc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legal {
		t.Fatal("not legal")
	}
	if len(res.Levels) != 1 {
		t.Errorf("levels = %d, want 1", len(res.Levels))
	}
	for _, cn := range res.CN {
		if cn < 0 || cn >= 8 {
			t.Errorf("bad CN %d", cn)
		}
	}
}

func TestHCAInvalidDDGRejected(t *testing.T) {
	d := ddg.New("bad")
	d.AddOp(ddg.OpAdd, "a") // missing operands
	if _, err := HCA(context.Background(), d, machine.DSPFabric64(8, 8, 8), Options{}); err == nil {
		t.Fatal("accepted invalid DDG")
	}
}

func TestHCAInvalidMachineRejected(t *testing.T) {
	d := kernels.Fir2Dim()
	mc := &machine.Config{Name: "broken"}
	if _, err := HCA(context.Background(), d, mc, Options{}); err == nil {
		t.Fatal("accepted invalid machine")
	}
}

func TestCNIndexRoundTrip(t *testing.T) {
	mc := machine.DSPFabric64(8, 8, 8)
	seen := map[int]bool{}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 4; c++ {
				idx := cnIndex(mc, []int{a, b}, c)
				if idx != a*16+b*4+c {
					t.Fatalf("cnIndex(%d,%d,%d) = %d", a, b, c, idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate CN index %d", idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestCopyLatency(t *testing.T) {
	mc := machine.DSPFabric64(8, 8, 8)
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{0, 1, 1},  // same leaf crossbar
		{0, 4, 2},  // same set, different subgroup
		{0, 16, 3}, // across the level-0 switch
		{63, 0, 3},
		{17, 18, 1},
	}
	for _, c := range cases {
		if got := copyLatency(mc, c.a, c.b); got != c.want {
			t.Errorf("copyLatency(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevelParams(t *testing.T) {
	mc := machine.DSPFabric64(8, 4, 2)
	maxIn, outW, inW := levelParams(mc, 0)
	if maxIn != 8 || outW != 8 || inW != 8 {
		t.Errorf("level0 = %d/%d/%d", maxIn, outW, inW)
	}
	maxIn, outW, inW = levelParams(mc, 1)
	if maxIn != 2 || inW != 2 || outW != 4 { // min(M=4, K=2)
		t.Errorf("level1 = %d/%d/%d", maxIn, outW, inW)
	}
	maxIn, outW, inW = levelParams(mc, 2)
	if maxIn != 2 || outW != 1 || inW != 2 { // CN ports
		t.Errorf("level2 = %d/%d/%d", maxIn, outW, inW)
	}
	rcp := machine.RCP(8, 2, 3)
	maxIn, _, _ = levelParams(rcp, 0)
	if maxIn != 3 {
		t.Errorf("rcp maxIn = %d", maxIn)
	}
}

func TestHCAFinalDDGExecutes(t *testing.T) {
	// The post-processed DDG (with receive primitives) must still compute
	// the kernel: interpret both and compare memory.
	d := kernels.Fir2Dim()
	res, err := HCA(context.Background(), d, machine.DSPFabric64(8, 8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recvs == 0 {
		t.Skip("no receives inserted; nothing to compare")
	}
	mem1 := ddg.MapMemory{}
	mem2 := ddg.MapMemory{}
	for i := int64(0); i < 3*kernels.FirStride; i++ {
		mem1[i] = i % 97
		mem2[i] = i % 97
	}
	if _, err := d.Interpret(mem1, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Final.Interpret(mem2, 20); err != nil {
		t.Fatal(err)
	}
	for a, v := range mem1 {
		if mem2[a] != v {
			t.Fatalf("final DDG diverges at mem[%d]: %d vs %d", a, mem2[a], v)
		}
	}
}

func TestHCASyntheticScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mc := machine.DSPFabric64(8, 8, 8)
	for _, ops := range []int{64, 128, 256} {
		d := kernels.Synthetic(kernels.SynthConfig{Ops: ops, Seed: 1, RecLatency: 3})
		res, err := HCA(context.Background(), d, mc, Options{})
		if err != nil {
			t.Fatalf("ops=%d: %v", ops, err)
		}
		if !res.Legal {
			t.Fatalf("ops=%d: illegal", ops)
		}
	}
}

func TestLevelSolutionID(t *testing.T) {
	cases := []struct {
		path []int
		want string
	}{
		{nil, "0"},
		{[]int{2}, "0,2"},
		{[]int{2, 1}, "0,2,1"},
	}
	for _, c := range cases {
		ls := &LevelSolution{Path: c.path}
		if got := ls.ID(); got != c.want {
			t.Errorf("ID(%v) = %q, want %q", c.path, got, c.want)
		}
	}
}

func TestHCABandwidthSweepDegrades(t *testing.T) {
	// §5: "lower bandwidths cause a rapid degradation of the clusterization
	// quality". Final MII with N=M=K=2 must be >= the MII with 8.
	if testing.Short() {
		t.Skip("short mode")
	}
	d := kernels.MPEG2Inter
	wide, err := HCA(context.Background(), d(), machine.DSPFabric64(8, 8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := HCA(context.Background(), d(), machine.DSPFabric64(2, 2, 2), Options{})
	if err != nil {
		// Very low bandwidth may be outright infeasible — that is the
		// degradation in its extreme form.
		t.Logf("N=M=K=2 infeasible: %v", err)
		return
	}
	if narrow.MII.Final < wide.MII.Final {
		t.Errorf("narrower fabric got better MII: %d < %d", narrow.MII.Final, wide.MII.Final)
	}
}

func ExampleHCA() {
	d := kernels.Fir2Dim()
	res, err := HCA(context.Background(), d, machine.DSPFabric64(8, 8, 8), Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("legal:", res.Legal)
	fmt.Println("instructions:", d.Len())
	// Output:
	// legal: true
	// instructions: 57
}

var _ = graph.NodeID(0)

func TestHCAScalesToDeeperHierarchies(t *testing.T) {
	// §7: the decomposition "easily scales with the architecture". A
	// 256-CN, 4-level fabric must clusterize a 256-op workload legally.
	if testing.Short() {
		t.Skip("short mode")
	}
	mc := machine.Hierarchical([]int{4, 4, 4, 4}, []int{8, 8, 8, 8})
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 256, Seed: 2, RecLatency: 3})
	res, err := HCA(context.Background(), d, mc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legal {
		t.Fatal("not legal")
	}
	for _, cn := range res.CN {
		if cn < 0 || cn >= 256 {
			t.Fatalf("bad CN %d", cn)
		}
	}
	t.Logf("256-CN fabric: Final MII %d, AllLevels %d, %d subproblems", res.MII.Final, res.MII.AllLevels, len(res.Levels))
}

func TestHCAOnLinearArray(t *testing.T) {
	// RaPiD / PipeRench-style open linear array (§6): kernels must map as
	// pipelines along the array.
	mc := machine.LinearArray(8, 2, 3)
	for _, name := range []string{"fir2dim", "idcthor"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := HCA(context.Background(), k.Build(), mc, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Legal {
			t.Fatalf("%s: not legal", name)
		}
	}
}

func TestHCAOnLargerRing(t *testing.T) {
	mc := machine.RCP(16, 2, 3)
	res, err := HCA(context.Background(), kernels.MPEG2Inter(), mc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legal {
		t.Fatal("not legal")
	}
	for _, cn := range res.CN {
		if cn < 0 || cn >= 16 {
			t.Fatalf("bad CN %d", cn)
		}
	}
}

func TestCoherencyCheckCatchesCorruption(t *testing.T) {
	// Failure injection: a tampered CN assignment must be rejected by the
	// coherency checker (the value never flowed to the new group).
	res, err := HCA(context.Background(), kernels.IDCTHor(), machine.DSPFabric64(8, 8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Find a non-rematerializable node with a consumer and move it to a
	// distant CN.
	moved := false
	for i := range res.DDG.Nodes {
		op := res.DDG.Nodes[i].Op
		if op == ddg.OpConst || op == ddg.OpIV || op == ddg.OpStore {
			continue
		}
		if res.DDG.G.OutDegree(res.DDG.Nodes[i].ID) == 0 {
			continue
		}
		res.CN[i] = (res.CN[i] + 32) % 64
		moved = true
		break
	}
	if !moved {
		t.Fatal("no movable node found")
	}
	if err := CoherencyCheck(res); err == nil {
		t.Fatal("coherency checker accepted a corrupted assignment")
	}
}

func TestCoherencyCheckCatchesMissingLevel(t *testing.T) {
	res, err := HCA(context.Background(), kernels.Fir2Dim(), machine.DSPFabric64(8, 8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Levels = res.Levels[1:] // drop the root solution
	if err := CoherencyCheck(res); err == nil {
		t.Fatal("coherency checker accepted a result missing its root level")
	}
}
