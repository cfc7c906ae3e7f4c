package modsched

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
)

func mcStd() *machine.Config { return machine.DSPFabric64(8, 8, 8) }

func TestScheduleTinyChainOneCN(t *testing.T) {
	d := ddg.New("chain")
	prev := d.AddConst(1, "c")
	for i := 0; i < 3; i++ {
		m := d.AddOp(ddg.OpMov, "m")
		d.AddDep(prev, m, 0, 0)
		prev = m
	}
	cn := []int{0, 0, 0, 0}
	s, err := Run(context.Background(), d, cn, mcStd(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 ops on one single-issue CN: II = 4.
	if s.II != 4 {
		t.Errorf("II = %d, want 4", s.II)
	}
	if err := Verify(d, s, mcStd()); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleChainAcrossCNsPipelines(t *testing.T) {
	d := ddg.New("chain")
	prev := d.AddConst(1, "c")
	for i := 0; i < 3; i++ {
		m := d.AddOp(ddg.OpMov, "m")
		d.AddDep(prev, m, 0, 0)
		prev = m
	}
	cn := []int{0, 1, 2, 3}
	s, err := Run(context.Background(), d, cn, mcStd(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 1 {
		t.Errorf("II = %d, want 1 (pipelined)", s.II)
	}
	if s.Stages < 4 {
		t.Errorf("Stages = %d, want >= 4", s.Stages)
	}
}

func TestScheduleRespectsRecurrence(t *testing.T) {
	// Cycle of latency 5 over distance 1 pins II at 5 even with free CNs.
	d := ddg.New("rec")
	a := d.AddOpLatency(ddg.OpMul, "a", 3)
	b := d.AddOpLatency(ddg.OpAdd, "b", 2)
	d.AddDep(a, b, 0, 0)
	d.AddDep(b, a, 0, 1)
	c := d.AddConst(0, "c")
	d.AddDep(c, a, 1, 0)
	d.AddDep(c, b, 1, 0)
	s, err := Run(context.Background(), d, []int{0, 1, 2}, mcStd(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 5 {
		t.Errorf("II = %d, want 5", s.II)
	}
}

func TestScheduleDMALimit(t *testing.T) {
	// 16 loads on 16 different CNs: issue would allow II=1, but 8 DMA
	// ports force II=2.
	d := ddg.New("mem")
	iv := d.AddIV(0, 16, "iv")
	cn := []int{63}
	for i := 0; i < 16; i++ {
		ld := d.AddOp(ddg.OpLoad, "ld")
		d.AddDep(iv, ld, 0, 0)
		cn = append(cn, i)
	}
	s, err := Run(context.Background(), d, cn, mcStd(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 2 {
		t.Errorf("II = %d, want 2 (DMA bound)", s.II)
	}
	if err := Verify(d, s, mcStd()); err != nil {
		t.Fatal(err)
	}
}

func TestMinII(t *testing.T) {
	d := ddg.New("x")
	a := d.AddOp(ddg.OpMov, "a")
	b := d.AddOp(ddg.OpMov, "b")
	c := d.AddConst(0, "c")
	d.AddDep(c, a, 0, 0)
	d.AddDep(c, b, 0, 0)
	// Same CN: issue bound 3 (incl. const).
	if got := MinII(d, []int{0, 0, 0}, mcStd()); got != 3 {
		t.Errorf("MinII = %d, want 3", got)
	}
	// Spread: bound 1.
	if got := MinII(d, []int{0, 1, 2}, mcStd()); got != 1 {
		t.Errorf("MinII = %d, want 1", got)
	}
}

func TestScheduleAllKernelsAfterHCA(t *testing.T) {
	// End-to-end: HCA then modulo scheduling of the final DDG (with
	// receives). The achieved II must be >= the HCA AllLevels bound's
	// per-CN component and within a sane multiple of the paper MII.
	mc := mcStd()
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			res, err := core.HCA(context.Background(), k.Build(), mc, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Run(context.Background(), res.Final, res.FinalCN, mc, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(res.Final, s, mc); err != nil {
				t.Fatal(err)
			}
			if s.II < res.MII.Rec {
				t.Errorf("II %d below MIIRec %d", s.II, res.MII.Rec)
			}
			t.Logf("%s: scheduled II=%d (MII lower bound %d, paper MII %d), %d stages, %d tries",
				k.Name, s.II, res.MII.Final, k.PaperFinalMII, s.Stages, s.Tries)
		})
	}
}

func TestVerifyCatchesBadSchedule(t *testing.T) {
	d := ddg.New("v")
	a := d.AddConst(1, "a")
	b := d.AddOp(ddg.OpMov, "b")
	d.AddDep(a, b, 0, 0)
	s := &Schedule{II: 2, Time: []int{1, 0}, CN: []int{0, 1}} // b before a+lat
	if err := Verify(d, s, mcStd()); err == nil {
		t.Fatal("accepted dependence violation")
	}
	s2 := &Schedule{II: 2, Time: []int{0, 2}, CN: []int{0, 0}} // same CN slot 0
	if err := Verify(d, s2, mcStd()); err == nil {
		t.Fatal("accepted CN slot conflict")
	}
	s3 := &Schedule{II: 2, Time: []int{0, 1}, CN: []int{0, 1}}
	if err := Verify(d, s3, mcStd()); err != nil {
		t.Fatalf("rejected legal schedule: %v", err)
	}
}

func TestScheduleMismatchedAssignment(t *testing.T) {
	d := ddg.New("x")
	d.AddConst(1, "a")
	if _, err := Run(context.Background(), d, nil, mcStd(), Config{}); err == nil {
		t.Fatal("accepted missing assignment")
	}
}

func TestSlot(t *testing.T) {
	s := &Schedule{II: 3, Time: []int{0, 4, 7}}
	wants := []int{0, 1, 1}
	for i, w := range wants {
		if got := s.Slot(graph.NodeID(i)); got != w {
			t.Errorf("Slot(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	mc := mcStd()
	res, err := core.HCA(context.Background(), kernels.Fir2Dim(), mc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), res.Final, res.FinalCN, mc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), res.Final, res.FinalCN, mc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.II != b.II {
		t.Fatal("nondeterministic II")
	}
	for i := range a.Time {
		if a.Time[i] != b.Time[i] {
			t.Fatalf("nondeterministic time at node %d", i)
		}
	}
}

func TestRegPressureSimple(t *testing.T) {
	// v produced at t=0, last use at t=5 with II=2 → ceil-ish (5/2)+1 = 3
	// registers; consumer holds its own value 1 register.
	d := ddg.New("rp")
	v := d.AddConst(1, "v")
	u := d.AddOp(ddg.OpMov, "u")
	d.AddDep(v, u, 0, 0)
	s := &Schedule{II: 2, Stages: 3, Time: []int{0, 5}, CN: []int{0, 1}}
	p := RegPressure(d, s, 2)
	if p[0] != 3 { // lifetime 5 → 5/2+1 = 3
		t.Errorf("press[0] = %d, want 3", p[0])
	}
	if p[1] != 1 {
		t.Errorf("press[1] = %d, want 1", p[1])
	}
	if MaxRegPressure(d, s, 2) != 3 {
		t.Error("MaxRegPressure wrong")
	}
}

func TestRegPressureLoopCarried(t *testing.T) {
	// Distance-2 consumer: lifetime includes 2*II.
	d := ddg.New("rp2")
	v := d.AddConst(1, "v")
	u := d.AddOp(ddg.OpMov, "u")
	d.AddDep(v, u, 0, 2)
	s := &Schedule{II: 3, Stages: 1, Time: []int{0, 1}, CN: []int{0, 0}}
	p := RegPressure(d, s, 1)
	// v: last use 1+3*2=7 → 7/3+1 = 3 regs; u: 1 reg.
	if p[0] != 4 {
		t.Errorf("press[0] = %d, want 4", p[0])
	}
}

func TestRegPressureAllKernels(t *testing.T) {
	mc := mcStd()
	for _, k := range kernels.All() {
		res, err := core.HCA(context.Background(), k.Build(), mc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Run(context.Background(), res.Final, res.FinalCN, mc, Config{})
		if err != nil {
			t.Fatal(err)
		}
		max := MaxRegPressure(res.Final, s, mc.TotalCNs())
		if max < 1 {
			t.Errorf("%s: MaxRegPressure = %d", k.Name, max)
		}
		t.Logf("%s: II=%d max rotating registers per CN = %d", k.Name, s.II, max)
	}
}

func TestMRTPlaceRemoveConflict(t *testing.T) {
	m := newMRT(2, 4, 1)
	if !m.fits(0, 2, true) {
		t.Fatal("empty MRT rejects")
	}
	m.place(7, 0, 2, true)
	if m.conflictAt(0, 2) != 7 {
		t.Errorf("conflictAt = %d", m.conflictAt(0, 2))
	}
	if m.fits(0, 2, false) {
		t.Error("occupied slot accepted")
	}
	// DMA port full in slot 0: another mem op on a different CN rejected.
	if m.fits(0, 3, true) {
		t.Error("DMA-full slot accepted mem op")
	}
	if !m.fits(0, 3, false) {
		t.Error("non-mem op rejected by DMA")
	}
	m.remove(7, 0, 2, true)
	if m.conflictAt(0, 2) != -1 {
		t.Error("remove did not clear")
	}
	if !m.fits(0, 3, true) {
		t.Error("DMA not released")
	}
	// Removing a non-occupant is a no-op.
	m.place(9, 1, 1, false)
	m.remove(7, 1, 1, false)
	if m.conflictAt(1, 1) != 9 {
		t.Error("remove evicted wrong occupant")
	}
}

func TestEvictDMAPicksLatest(t *testing.T) {
	d := ddg.New("ev")
	iv := d.AddIV(0, 1, "iv")
	l1 := d.AddOp(ddg.OpLoad, "l1")
	d.AddDep(iv, l1, 0, 0)
	l2 := d.AddOp(ddg.OpLoad, "l2")
	d.AddDep(iv, l2, 0, 0)
	cn := []int{0, 1, 2}
	m := newMRT(2, 4, 2)
	time := []int{0, 1, 3} // l2 scheduled later
	placed := []bool{true, true, true}
	m.place(1, 1, 1, true)
	m.place(2, 1, 2, true)
	pending := 0
	evictDMA(d, cn, m, 1, placed, &pending, time)
	if placed[2] {
		t.Error("latest mem op not evicted")
	}
	if placed[1] == false {
		t.Error("earlier mem op evicted")
	}
	if pending != 1 {
		t.Errorf("pending = %d", pending)
	}
}

func TestRunInvalidDDG(t *testing.T) {
	d := ddg.New("bad")
	d.AddOp(ddg.OpAdd, "a") // unconnected operands
	if _, err := Run(context.Background(), d, []int{0}, mcStd(), Config{}); err == nil {
		t.Fatal("invalid DDG accepted")
	}
}

func TestRunMaxIICap(t *testing.T) {
	// An impossible cap forces the search to give up.
	d := ddg.New("cap")
	prev := d.AddConst(1, "c")
	for i := 0; i < 5; i++ {
		m := d.AddOp(ddg.OpMov, "m")
		d.AddDep(prev, m, 0, 0)
		prev = m
	}
	cn := []int{0, 0, 0, 0, 0, 0}
	if _, err := Run(context.Background(), d, cn, mcStd(), Config{MaxII: 2}); err == nil {
		t.Fatal("expected MaxII failure (issue bound is 6)")
	}
}

// TestRunDefaultCapCoversMinII: the default II cap must not fall below
// MinII. Both compiles have a MinII above 4*critical path + 16 and failed
// without trying a single II while the cap ignored MinII.
func TestRunDefaultCapCoversMinII(t *testing.T) {
	for _, tc := range []struct {
		ops int
		mc  *machine.Config
	}{
		{400, machine.RCP(8, 2, 2)},
		{1600, mcStd()},
	} {
		d := kernels.Synthetic(kernels.SynthConfig{Ops: tc.ops, Seed: 1, RecLatency: 3})
		t.Run(d.Name+"@"+tc.mc.Name, func(t *testing.T) {
			res, err := core.HCA(context.Background(), d, tc.mc, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cp, err := res.Final.G.CriticalPathLength()
			if err != nil {
				t.Fatal(err)
			}
			if minII := MinII(res.Final, res.FinalCN, tc.mc); minII <= 4*cp+16 {
				t.Fatalf("MinII %d within the critical-path cap %d: the case no longer reaches the MinII cap", minII, 4*cp+16)
			}
			s, err := Run(context.Background(), res.Final, res.FinalCN, tc.mc, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(res.Final, s, tc.mc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunCancelled(t *testing.T) {
	d := ddg.New("chain")
	prev := d.AddConst(1, "c")
	m := d.AddOp(ddg.OpMov, "m")
	d.AddDep(prev, m, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, d, []int{0, 1}, mcStd(), Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestVerifyUnscheduledNode(t *testing.T) {
	d := ddg.New("u")
	d.AddConst(1, "c")
	s := &Schedule{II: 1, Time: []int{-1}, CN: []int{0}}
	if err := Verify(d, s, mcStd()); err == nil {
		t.Fatal("unscheduled node accepted")
	}
	s2 := &Schedule{II: 0, Time: []int{0}, CN: []int{0}}
	if err := Verify(d, s2, mcStd()); err == nil {
		t.Fatal("II=0 accepted")
	}
}

func TestListScheduleChain(t *testing.T) {
	// Serial chain of 4 unit-latency ops: makespan 4 regardless of CNs.
	d := ddg.New("lc")
	prev := d.AddConst(1, "c")
	for i := 0; i < 3; i++ {
		m := d.AddOp(ddg.OpMov, "m")
		d.AddDep(prev, m, 0, 0)
		prev = m
	}
	ls, err := RunList(d, []int{0, 1, 2, 3}, mcStd())
	if err != nil {
		t.Fatal(err)
	}
	if ls.Makespan != 4 {
		t.Errorf("Makespan = %d, want 4", ls.Makespan)
	}
}

func TestListScheduleRespectsResources(t *testing.T) {
	// 6 independent consts on one CN: one per cycle.
	d := ddg.New("res")
	for i := 0; i < 6; i++ {
		d.AddConst(int64(i), "c")
	}
	ls, err := RunList(d, []int{0, 0, 0, 0, 0, 0}, mcStd())
	if err != nil {
		t.Fatal(err)
	}
	if ls.Makespan != 6 {
		t.Errorf("Makespan = %d, want 6", ls.Makespan)
	}
	seen := map[int]bool{}
	for _, tm := range ls.Time {
		if seen[tm] {
			t.Fatalf("two ops at cycle %d on one CN", tm)
		}
		seen[tm] = true
	}
}

func TestListScheduleValidOrdering(t *testing.T) {
	mc := mcStd()
	for _, k := range kernels.All() {
		res, err := core.HCA(context.Background(), k.Build(), mc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := RunList(res.Final, res.FinalCN, mc)
		if err != nil {
			t.Fatal(err)
		}
		var verr error
		res.Final.G.Edges(func(e graph.Edge) {
			if e.Distance != 0 || verr != nil {
				return
			}
			if ls.Time[e.To] < ls.Time[e.From]+e.Weight {
				verr = fmt.Errorf("%s: edge %d→%d violated", k.Name, e.From, e.To)
			}
		})
		if verr != nil {
			t.Error(verr)
		}
		// Modulo scheduling must beat (or tie) the non-pipelined loop.
		s, err := Run(context.Background(), res.Final, res.FinalCN, mc, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if s.II > ls.Makespan {
			t.Errorf("%s: modulo II %d worse than list makespan %d", k.Name, s.II, ls.Makespan)
		}
		t.Logf("%s: list %d cycles/iter vs modulo II %d (%.1fx)", k.Name, ls.Makespan, s.II, float64(ls.Makespan)/float64(s.II))
	}
}
