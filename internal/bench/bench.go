// Package bench is the experiment harness: one runner per table, figure
// or quantitative claim of the paper's evaluation (§5), as indexed in
// DESIGN.md. Each runner returns structured rows plus a formatter that
// prints them the way the paper reports them. Experiments lists them in
// print order: cmd/hcabench prints them, testdata/experiments.golden
// pins their rows, and EXPERIMENTS.md records paper-vs-measured.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/see"
)

// Table1Row reproduces one row of the paper's Table 1, extended with this
// reproduction's additional figures.
type Table1Row struct {
	Loop      string
	NInstr    int
	MIIRec    int
	MIIRes    int
	Legal     bool
	FinalMII  int // paper's §4.2 definition (level-0 bound)
	PaperMII  int // the value Table 1 prints
	AllLevels int // extension: every level's pressure folded in
	SchedII   int // extension: achieved II after modulo scheduling
	Err       string
}

// Table1 runs HCA on the four paper kernels over the N=M=K=8 DSPFabric
// (the paper's best configuration) and modulo-schedules each result.
func Table1(ctx context.Context) []Table1Row {
	mc := machine.DSPFabric64(8, 8, 8)
	var rows []Table1Row
	for _, k := range kernels.All() {
		d := k.Build()
		row := Table1Row{Loop: k.Name, NInstr: d.Len(), MIIRec: d.MIIRec(),
			MIIRes: d.MIIRes(kernels.PaperResources), PaperMII: k.PaperFinalMII}
		res, err := core.HCA(ctx, d, mc, core.Options{})
		if err != nil {
			row.Err = err.Error()
			rows = append(rows, row)
			continue
		}
		row.Legal = res.Legal
		row.FinalMII = res.MII.Final
		row.AllLevels = res.MII.AllLevels
		if s, err := modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{}); err == nil {
			row.SchedII = s.II
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable1 prints rows in the paper's column layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: HCA test on four multimedia application loops (N=M=K=8)\n")
	fmt.Fprintf(&b, "%-16s %7s %6s %6s %6s %9s %8s %9s %8s\n",
		"Loop", "N_Instr", "MIIRec", "MIIRes", "Legal", "Final MII", "(paper)", "AllLevels", "SchedII")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-16s %7d %6d %6d  ERROR: %s\n", r.Loop, r.NInstr, r.MIIRec, r.MIIRes, r.Err)
			continue
		}
		legal := "no"
		if r.Legal {
			legal = "yes"
		}
		fmt.Fprintf(&b, "%-16s %7d %6d %6d %6s %9d %8d %9d %8d\n",
			r.Loop, r.NInstr, r.MIIRec, r.MIIRes, legal, r.FinalMII, r.PaperMII, r.AllLevels, r.SchedII)
	}
	return b.String()
}

// SweepRow is one point of the bandwidth exploration (E2): the paper's
// claim that "lower bandwidths cause a rapid degradation of the
// clusterization quality".
type SweepRow struct {
	Loop      string
	N, M, K   int
	Legal     bool
	FinalMII  int
	AllLevels int
	Err       string
}

// SweepBandwidth clusterizes every kernel over DSPFabric instances with
// N=M=K in bws (the paper explored several and reports only the best,
// N=M=K=8).
func SweepBandwidth(ctx context.Context, bws []int) []SweepRow {
	var rows []SweepRow
	for _, k := range kernels.All() {
		for _, bw := range bws {
			mc := machine.DSPFabric64(bw, bw, bw)
			row := SweepRow{Loop: k.Name, N: bw, M: bw, K: bw}
			res, err := core.HCA(ctx, k.Build(), mc, core.Options{})
			if err != nil {
				row.Err = shortErr(err)
			} else {
				row.Legal = res.Legal
				row.FinalMII = res.MII.Final
				row.AllLevels = res.MII.AllLevels
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FormatSweep prints the bandwidth sweep.
func FormatSweep(rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2: bandwidth sweep (N=M=K); infeasible = degradation in the extreme\n")
	fmt.Fprintf(&b, "%-16s %4s %6s %9s %9s\n", "Loop", "N/M/K", "Legal", "Final MII", "AllLevels")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-16s %4d %6s  %s\n", r.Loop, r.N, "no", r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-16s %4d %6s %9d %9d\n", r.Loop, r.N, "yes", r.FinalMII, r.AllLevels)
	}
	return b.String()
}

// UnifiedRow compares HCA's result against the theoretical optimum on an
// equivalent-issue-width unified machine (E3, §5).
type UnifiedRow struct {
	Loop       string
	UnifiedMII int // max(MIIRec, MIIRes) on the unified 64-issue machine
	HCAMII     int
	Ratio      float64
}

// UnifiedBound measures how close HCA's MII sits to the unified bound.
func UnifiedBound(ctx context.Context) []UnifiedRow {
	mc := machine.DSPFabric64(8, 8, 8)
	var rows []UnifiedRow
	for _, k := range kernels.All() {
		d := k.Build()
		uni := d.MII(kernels.PaperResources)
		row := UnifiedRow{Loop: k.Name, UnifiedMII: uni}
		if res, err := core.HCA(ctx, d, mc, core.Options{}); err == nil {
			row.HCAMII = res.MII.Final
			row.Ratio = float64(row.HCAMII) / float64(uni)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatUnified prints the unified-bound comparison.
func FormatUnified(rows []UnifiedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E3: HCA MII vs theoretical optimum on unified 64-issue machine\n")
	fmt.Fprintf(&b, "%-16s %11s %8s %7s\n", "Loop", "Unified MII", "HCA MII", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %11d %8d %7.2f\n", r.Loop, r.UnifiedMII, r.HCAMII, r.Ratio)
	}
	return b.String()
}

// StateSpaceRow compares HCA against flat single-level ICA (E4, §7:
// "considerably cuts the state-space exploration").
type StateSpaceRow struct {
	Workload   string
	Ops        int
	HCACands   int
	FlatCands  int
	HCAStates  int
	FlatStates int
	HCAms      float64
	Flatms     float64
	FlatViol   int // wire violations of the flat result (hierarchy-blind)
	FlatErr    string
}

// StateSpace runs HCA and flat ICA over the paper kernels plus synthetic
// DDGs of growing size.
func StateSpace(ctx context.Context, synthetic []int) []StateSpaceRow {
	mc := machine.DSPFabric64(8, 8, 8)
	var rows []StateSpaceRow
	run := func(name string, build func() *ddg.DDG) {
		d := build()
		row := StateSpaceRow{Workload: name, Ops: d.Len()}
		t0 := time.Now()
		if res, err := core.HCA(ctx, build(), mc, core.Options{}); err == nil {
			row.HCAms = float64(time.Since(t0).Microseconds()) / 1000
			row.HCACands = res.Stats.CandidatesTried
			row.HCAStates = res.Stats.StatesExplored
		}
		t0 = time.Now()
		flat, err := baseline.FlatICA(ctx, d, mc, see.Config{})
		if err != nil {
			row.FlatErr = shortErr(err)
		} else {
			row.Flatms = float64(time.Since(t0).Microseconds()) / 1000
			row.FlatCands = flat.Stats.CandidatesTried
			row.FlatStates = flat.Stats.StatesExplored
			row.FlatViol = baseline.Evaluate(d, flat.CN, mc).WireViolations
		}
		rows = append(rows, row)
	}
	for _, k := range kernels.All() {
		run(k.Name, k.Build)
	}
	for _, ops := range synthetic {
		ops := ops
		run(fmt.Sprintf("synth-%d", ops), func() *ddg.DDG {
			return kernels.Synthetic(kernels.SynthConfig{Ops: ops, Seed: 1, RecLatency: 3})
		})
	}
	return rows
}

// FormatStateSpace prints the exploration comparison.
func FormatStateSpace(rows []StateSpaceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4: state-space exploration, HCA vs flat K64 ICA\n")
	fmt.Fprintf(&b, "%-16s %5s %10s %10s %9s %9s %9s %9s %9s\n",
		"Workload", "ops", "HCA cands", "flat cands", "HCA st", "flat st", "HCA ms", "flat ms", "flatViol")
	for _, r := range rows {
		if r.FlatErr != "" {
			fmt.Fprintf(&b, "%-16s %5d %10d %10s %9d %9s %9.1f %9s  flat: %s\n",
				r.Workload, r.Ops, r.HCACands, "-", r.HCAStates, "-", r.HCAms, "-", r.FlatErr)
			continue
		}
		fmt.Fprintf(&b, "%-16s %5d %10d %10d %9d %9d %9.1f %9.1f %9d\n",
			r.Workload, r.Ops, r.HCACands, r.FlatCands, r.HCAStates, r.FlatStates, r.HCAms, r.Flatms, r.FlatViol)
	}
	return b.String()
}

func shortErr(err error) string {
	s := err.Error()
	if len(s) > 72 {
		s = s[:72] + "..."
	}
	return s
}
