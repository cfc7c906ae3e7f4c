package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/machine"
)

func TestTable1AllLegal(t *testing.T) {
	rows := Table1(context.Background())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Loop, r.Err)
			continue
		}
		if !r.Legal {
			t.Errorf("%s: not legal", r.Loop)
		}
		if r.SchedII < r.FinalMII {
			t.Errorf("%s: scheduled II %d below MII %d", r.Loop, r.SchedII, r.FinalMII)
		}
	}
	s := FormatTable1(rows)
	for _, want := range []string{"fir2dim", "h264deblocking", "Final MII"} {
		if !strings.Contains(s, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestSweepBandwidthMonotoneish(t *testing.T) {
	rows := SweepBandwidth(context.Background(), []int{8, 4})
	byLoop := map[string]map[int]SweepRow{}
	for _, r := range rows {
		if byLoop[r.Loop] == nil {
			byLoop[r.Loop] = map[int]SweepRow{}
		}
		byLoop[r.Loop][r.N] = r
	}
	for loop, m := range byLoop {
		wide, narrow := m[8], m[4]
		if wide.Err != "" {
			t.Errorf("%s at bw=8 failed: %s", loop, wide.Err)
			continue
		}
		// Beam search is a heuristic: tolerate one unit of noise, but a
		// markedly better result on the narrower fabric would mean the
		// degradation claim fails to reproduce.
		if narrow.Err == "" && narrow.AllLevels+1 < wide.AllLevels {
			t.Errorf("%s: narrower fabric markedly better (%d vs %d)", loop, narrow.AllLevels, wide.AllLevels)
		}
	}
	_ = FormatSweep(rows)
}

func TestUnifiedBound(t *testing.T) {
	rows := UnifiedBound(context.Background())
	for _, r := range rows {
		if r.HCAMII == 0 {
			t.Errorf("%s: HCA failed", r.Loop)
			continue
		}
		if r.Ratio < 1.0 {
			t.Errorf("%s: HCA beats the unified bound (%v)", r.Loop, r.Ratio)
		}
		// §5: "quite close to the theoretical optimum".
		if r.Ratio > 3.0 {
			t.Errorf("%s: ratio %v too far from unified bound", r.Loop, r.Ratio)
		}
	}
	_ = FormatUnified(rows)
}

func TestStateSpaceHCASmaller(t *testing.T) {
	rows := StateSpace(context.Background(), []int{96})
	for _, r := range rows {
		if r.FlatErr != "" {
			continue // flat failing IS a result (reported, not asserted)
		}
		if r.HCACands >= r.FlatCands {
			t.Errorf("%s: HCA candidates %d >= flat %d", r.Workload, r.HCACands, r.FlatCands)
		}
	}
	_ = FormatStateSpace(rows)
}

func TestRouting(t *testing.T) {
	rows := Routing(context.Background(), []int{4, 2})
	legal := 0
	for _, r := range rows {
		if r.Legal {
			legal++
		}
	}
	if legal == 0 {
		t.Error("no RCP configuration clusterized legally")
	}
	_ = FormatRouting(rows)
}

func TestMapperBalance(t *testing.T) {
	row, err := MapperBalance(context.Background(), 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if row.MaxLoad >= row.SerialLoad {
		t.Errorf("balancing did not reduce wire load: %d vs %d", row.MaxLoad, row.SerialLoad)
	}
	if row.BroadcastWires != 1 {
		t.Errorf("broadcast wires = %d, want 1", row.BroadcastWires)
	}
	_ = FormatMapper([]MapperRow{row})
}

func TestBeamWidthRows(t *testing.T) {
	rows := BeamWidth(context.Background(), []int{1, 8})
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FinalMII == 0 {
			t.Errorf("%s beam=%d failed", r.Loop, r.Beam)
		}
	}
	_ = FormatBeam(rows)
}

func TestScheduleAll(t *testing.T) {
	rows, err := ScheduleAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SchedII < r.MII {
			t.Errorf("%s: II %d < MII %d", r.Loop, r.SchedII, r.MII)
		}
	}
	_ = FormatSched(rows)
}

func TestSimulateAllCorrect(t *testing.T) {
	rows := Simulate(context.Background(), 24)
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Loop, r.Err)
			continue
		}
		if !r.Correct {
			t.Errorf("%s: incorrect execution", r.Loop)
		}
		if r.PeakDMA > 8 {
			t.Errorf("%s: peak DMA %d", r.Loop, r.PeakDMA)
		}
	}
	_ = FormatSim(rows)
}

func TestRematAblation(t *testing.T) {
	rows := RematAblation(context.Background())
	for _, r := range rows {
		if r.WithoutErr != "" {
			continue // infeasibility without remat is itself the result
		}
		if r.WithMII == 0 || r.WithoutMII == 0 {
			t.Errorf("%s: ablation row incomplete: %+v", r.Loop, r)
		}
	}
	_ = FormatRemat(rows)
}

func TestRegisterPressureRows(t *testing.T) {
	rows := RegisterPressure(context.Background())
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Loop, r.Err)
			continue
		}
		if r.MaxRegs < 1 || r.AvgRegs <= 0 {
			t.Errorf("%s: regs %d/%.1f", r.Loop, r.MaxRegs, r.AvgRegs)
		}
	}
	if !strings.Contains(FormatRegPressure(rows), "max regs") {
		t.Error("format missing header")
	}
}

func TestSchedulingAwareRows(t *testing.T) {
	rows := SchedulingAware(context.Background())
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Loop, r.Err)
			continue
		}
		if r.BaseII < 1 || r.AwareII < 1 {
			t.Errorf("%s: IIs %d/%d", r.Loop, r.BaseII, r.AwareII)
		}
	}
	_ = FormatSchedAware(rows)
}

func TestHeterogeneousRows(t *testing.T) {
	rows := Heterogeneous(context.Background(), []int{8, 2})
	legal := 0
	for _, r := range rows {
		if r.Legal {
			legal++
		}
	}
	if legal < len(rows)/2 {
		t.Errorf("only %d/%d heterogeneous configs legal", legal, len(rows))
	}
	_ = FormatHetero(rows)
}

func TestDMAProgrammingRows(t *testing.T) {
	rows := DMAProgramming(context.Background())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Programmable {
			t.Errorf("%s: not programmable", r.Loop)
		}
		if r.Linear+r.Modular != r.Streams {
			t.Errorf("%s: %d+%d != %d", r.Loop, r.Linear, r.Modular, r.Streams)
		}
	}
	if !strings.Contains(FormatDMA(rows), "programmable") {
		t.Error("format broken")
	}
}

func TestArchitectureScaleRows(t *testing.T) {
	rows := ArchitectureScale(context.Background())
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%d CNs ops=%d: %s", r.CNs, r.Ops, r.Err)
			continue
		}
		if !r.Legal {
			t.Errorf("%d CNs ops=%d: illegal", r.CNs, r.Ops)
		}
	}
	if !strings.Contains(FormatScale(rows), "levels") {
		t.Error("format broken")
	}
}

func TestRegAllocRows(t *testing.T) {
	rows := RegAlloc(context.Background(), 64)
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Loop, r.Err)
			continue
		}
		if !r.Fits {
			t.Errorf("%s: does not fit %d-capacity file", r.Loop, r.Capacity)
		}
	}
	if !strings.Contains(FormatRegAlloc(rows), "capacity") {
		t.Error("format broken")
	}
}

// TestExploreNMKSmall runs E17 on a 2-value grid through dse.Sweep and
// checks every row against a standalone core.HCA of the same fabric.
func TestExploreNMKSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	rows, best, err := ExploreNMK(ctx, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*8 {
		t.Fatalf("rows = %d, want 32", len(rows))
	}
	for _, r := range rows {
		k, _ := kernels.ByName(r.Loop)
		want := ExploreRow{Loop: r.Loop, N: r.N, M: r.M, K: r.K}
		if res, err := core.HCA(ctx, k.Build(), machine.DSPFabric64(r.N, r.M, r.K), core.Options{}); err == nil {
			want.Legal, want.FinalMII, want.AllLevels = res.Legal, res.MII.Final, res.MII.AllLevels
		}
		if r != want {
			t.Errorf("sweep row %+v, standalone compile %+v", r, want)
		}
	}
	for _, k := range []string{"fir2dim", "idcthor", "mpeg2inter", "h264deblocking"} {
		if _, ok := best[k]; !ok {
			t.Errorf("%s: no legal configuration found", k)
		}
	}
	if !strings.Contains(FormatExplore(rows, best), "best") {
		t.Error("format broken")
	}
}

func TestGeneralizationRows(t *testing.T) {
	rows := Generalization(context.Background())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Loop, r.Err)
			continue
		}
		if !r.Legal || !r.Correct {
			t.Errorf("%s: legal=%v correct=%v", r.Loop, r.Legal, r.Correct)
		}
	}
	_ = FormatGeneralize(rows)
}

func TestPipeliningGainRows(t *testing.T) {
	rows := PipeliningGain(context.Background())
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Loop, r.Err)
			continue
		}
		if r.Speedup < 1.0 {
			t.Errorf("%s: modulo scheduling slower than list (%.2fx)", r.Loop, r.Speedup)
		}
	}
	_ = FormatPipelining(rows)
}

func TestFeedbackRows(t *testing.T) {
	rows := Feedback(context.Background())
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Loop, r.Err)
			continue
		}
		if r.BestII > r.DefaultII {
			t.Errorf("%s: feedback II %d worse than default %d", r.Loop, r.BestII, r.DefaultII)
		}
	}
	_ = FormatFeedback(rows)
}
