package baseline

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/see"
)

func TestFlatICARuns(t *testing.T) {
	d := kernels.Fir2Dim()
	mc := machine.DSPFabric64(8, 8, 8)
	a, err := FlatICA(context.Background(), d, mc, see.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CN) != d.Len() {
		t.Fatal("wrong length")
	}
	for _, c := range a.CN {
		if c < 0 || c >= 64 {
			t.Fatalf("bad CN %d", c)
		}
	}
	if a.Stats.CandidatesTried == 0 {
		t.Error("no stats recorded")
	}
}

func TestFlatExploresMoreStatesThanHCA(t *testing.T) {
	// E4: the flat K64 search tries candidates over 64 clusters per node;
	// HCA's per-level problems have 4. The flat candidate count must be
	// substantially larger.
	d := kernels.IDCTHor()
	mc := machine.DSPFabric64(8, 8, 8)
	flat, err := FlatICA(context.Background(), d, mc, see.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.HCA(context.Background(), kernels.IDCTHor(), mc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Stats.CandidatesTried <= h.Stats.CandidatesTried {
		t.Errorf("flat tried %d candidates <= HCA %d", flat.Stats.CandidatesTried, h.Stats.CandidatesTried)
	}
	t.Logf("flat: %d candidates; HCA: %d candidates", flat.Stats.CandidatesTried, h.Stats.CandidatesTried)
}

func TestEvaluateBasics(t *testing.T) {
	d := ddg.New("e")
	a := d.AddOp(ddg.OpMov, "a")
	b := d.AddOp(ddg.OpMov, "b")
	c := d.AddConst(0, "c")
	d.AddDep(c, a, 0, 0)
	d.AddDep(a, b, 0, 0)
	mc := machine.DSPFabric64(8, 8, 8)
	// a on CN0, b on CN16 (across level 0), c on CN0.
	m := Evaluate(d, []int{0, 16, 0}, mc)
	if m.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1 (const excluded)", m.Migrations)
	}
	if m.MaxPerCN != 2 {
		t.Errorf("MaxPerCN = %d, want 2", m.MaxPerCN)
	}
	if m.WireViolations != 0 {
		t.Errorf("WireViolations = %d", m.WireViolations)
	}
	if m.EstII < 2 {
		t.Errorf("EstII = %d", m.EstII)
	}
}

func TestEvaluateDetectsWireViolations(t *testing.T) {
	// One CN receiving from 3 distinct sibling CNs in its leaf group:
	// budget is CNInPorts = 2 → violation.
	d := ddg.New("v")
	sinkOps := []ddg.Op{ddg.OpClip} // 3 operands
	_ = sinkOps
	v0 := d.AddOp(ddg.OpMov, "v0")
	v1 := d.AddOp(ddg.OpMov, "v1")
	v2 := d.AddOp(ddg.OpMov, "v2")
	c := d.AddConst(0, "c")
	d.AddDep(c, v0, 0, 0)
	d.AddDep(c, v1, 0, 0)
	d.AddDep(c, v2, 0, 0)
	sink := d.AddOp(ddg.OpClip, "s")
	d.AddDep(v0, sink, 0, 0)
	d.AddDep(v1, sink, 1, 0)
	d.AddDep(v2, sink, 2, 0)
	mc := machine.DSPFabric64(8, 8, 8)
	// v0,v1,v2 on CNs 0,1,2; sink on CN 3 — same leaf group, 3 sources > 2 ports.
	m := Evaluate(d, []int{0, 1, 2, 0, 3}, mc)
	if m.WireViolations != 1 {
		t.Errorf("WireViolations = %d, want 1", m.WireViolations)
	}
	if m.WorstOversubscription < 1.5 {
		t.Errorf("WorstOversubscription = %v", m.WorstOversubscription)
	}
}

func TestFlatICARingFallback(t *testing.T) {
	// A dense kernel on the flat K64 view with 2-port CNs dead-ends the
	// direct search; the ring fallback must still produce an assignment.
	d := kernels.H264Deblock()
	mc := machine.DSPFabric64(8, 8, 8)
	a, err := FlatICA(context.Background(), d, mc, see.Config{BeamWidth: 1, CandWidth: 1})
	if err != nil {
		t.Fatalf("flat ICA with ring fallback failed: %v", err)
	}
	if len(a.CN) != d.Len() {
		t.Fatal("incomplete assignment")
	}
}
