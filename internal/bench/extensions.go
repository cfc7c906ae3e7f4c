package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/dma"
	"repro/internal/driver"
	"repro/internal/dse"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/regalloc"
	"repro/internal/sim"
)

// SchedAwareRow compares scheduling-unaware and scheduling-aware
// clustering (E12): the paper's §7 ongoing-research direction, measured
// by the achieved modulo-schedule II.
type SchedAwareRow struct {
	Loop       string
	BaseII     int
	AwareII    int
	BaseRecvs  int
	AwareRecvs int
	BaseRegs   int // max rotating registers per CN
	AwareRegs  int
	BaseMII    int
	AwareMII   int
	Err        string
}

// SchedulingAware runs both variants on every kernel.
func SchedulingAware(ctx context.Context) []SchedAwareRow {
	mc := machine.DSPFabric64(8, 8, 8)
	var rows []SchedAwareRow
	for _, k := range kernels.All() {
		row := SchedAwareRow{Loop: k.Name}
		runOne := func(aware bool) (ii, recvs, regs, mii int, err error) {
			res, err := core.HCA(ctx, k.Build(), mc, core.Options{SchedulingAware: aware})
			if err != nil {
				return 0, 0, 0, 0, err
			}
			s, err := modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{})
			if err != nil {
				return 0, 0, 0, 0, err
			}
			return s.II, res.Recvs, modsched.MaxRegPressure(res.Final, s, mc.TotalCNs()), res.MII.Final, nil
		}
		var err error
		if row.BaseII, row.BaseRecvs, row.BaseRegs, row.BaseMII, err = runOne(false); err != nil {
			row.Err = shortErr(err)
		}
		if row.AwareII, row.AwareRecvs, row.AwareRegs, row.AwareMII, err = runOne(true); err != nil {
			row.Err = shortErr(err)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatSchedAware prints the E12 comparison.
func FormatSchedAware(rows []SchedAwareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E12: scheduling-aware clustering (§7 ongoing research) vs baseline\n")
	fmt.Fprintf(&b, "%-16s %8s %8s %9s %9s %9s %9s\n",
		"Loop", "base II", "aware II", "base rcv", "aware rcv", "base reg", "aware reg")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-16s ERROR: %s\n", r.Loop, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-16s %8d %8d %9d %9d %9d %9d\n",
			r.Loop, r.BaseII, r.AwareII, r.BaseRecvs, r.AwareRecvs, r.BaseRegs, r.AwareRegs)
	}
	return b.String()
}

// RegPressureRow reports the rotating-register demand of the scheduled
// kernels (E11): the §4.2/§5 cost factor the paper defers.
type RegPressureRow struct {
	Loop    string
	II      int
	MaxRegs int
	AvgRegs float64
	Err     string
}

// RegisterPressure measures per-CN rotating-register demand.
func RegisterPressure(ctx context.Context) []RegPressureRow {
	mc := machine.DSPFabric64(8, 8, 8)
	var rows []RegPressureRow
	for _, k := range kernels.All() {
		row := RegPressureRow{Loop: k.Name}
		res, err := core.HCA(ctx, k.Build(), mc, core.Options{})
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		s, err := modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{})
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		press := modsched.RegPressure(res.Final, s, mc.TotalCNs())
		total, used := 0, 0
		for _, p := range press {
			if p > row.MaxRegs {
				row.MaxRegs = p
			}
			if p > 0 {
				total += p
				used++
			}
		}
		if used > 0 {
			row.AvgRegs = float64(total) / float64(used)
		}
		row.II = s.II
		rows = append(rows, row)
	}
	return rows
}

// FormatRegPressure prints the E11 table.
func FormatRegPressure(rows []RegPressureRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E11: rotating-register pressure of the scheduled kernels\n")
	fmt.Fprintf(&b, "%-16s %4s %9s %9s\n", "Loop", "II", "max regs", "avg regs")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-16s ERROR: %s\n", r.Loop, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-16s %4d %9d %9.1f\n", r.Loop, r.II, r.MaxRegs, r.AvgRegs)
	}
	return b.String()
}

// HeteroRow measures the §2.1 heterogeneous-RCP scenario (E13): memory
// ops restricted to a subset of clusters.
type HeteroRow struct {
	Loop     string
	MemCNs   int
	Legal    bool
	FinalMII int
	Err      string
}

// Heterogeneous sweeps the number of memory-capable clusters on an
// 8-cluster RCP ring.
func Heterogeneous(ctx context.Context, memCounts []int) []HeteroRow {
	var rows []HeteroRow
	for _, k := range kernels.All() {
		for _, n := range memCounts {
			memCNs := make([]int, n)
			for i := range memCNs {
				memCNs[i] = i * (8 / n) // spread around the ring
			}
			mc := machine.RCPHetero(8, 2, 3, memCNs)
			row := HeteroRow{Loop: k.Name, MemCNs: n}
			res, err := core.HCA(ctx, k.Build(), mc, core.Options{})
			if err != nil {
				row.Err = shortErr(err)
			} else {
				row.Legal = res.Legal
				row.FinalMII = res.MII.Final
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FormatHetero prints the E13 table.
func FormatHetero(rows []HeteroRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E13: heterogeneous RCP (§2.1) — memory ops restricted to a cluster subset\n")
	fmt.Fprintf(&b, "%-16s %7s %6s %9s\n", "Loop", "mem CNs", "Legal", "Final MII")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-16s %7d %6s  %s\n", r.Loop, r.MemCNs, "no", r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-16s %7d %6s %9d\n", r.Loop, r.MemCNs, "yes", r.FinalMII)
	}
	return b.String()
}

// DMARow reports the DMA programmability analysis (E14).
type DMARow struct {
	Loop         string
	Streams      int
	Linear       int
	Modular      int
	Programmable bool
}

// DMAProgramming analyzes every kernel's memory streams.
func DMAProgramming(ctx context.Context) []DMARow {
	var rows []DMARow
	for _, k := range kernels.All() {
		p := dma.Analyze(k.Build())
		row := DMARow{Loop: k.Name, Streams: len(p.Descriptors), Programmable: p.Programmable}
		for _, d := range p.Descriptors {
			switch d.Kind {
			case dma.Linear:
				row.Linear++
			case dma.Modular:
				row.Modular++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatDMA prints the E14 table.
func FormatDMA(rows []DMARow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E14: DMA stream programmability (§5 future work, implemented)\n")
	fmt.Fprintf(&b, "%-16s %8s %7s %8s %13s\n", "Loop", "streams", "linear", "modular", "programmable")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %7d %8d %13v\n", r.Loop, r.Streams, r.Linear, r.Modular, r.Programmable)
	}
	return b.String()
}

// ScaleRow measures architecture scaling (E15): HCA on deeper hierarchies.
type ScaleRow struct {
	CNs      int
	Levels   int
	Ops      int
	Legal    bool
	FinalMII int
	States   int
	Millis   float64
	Err      string
}

// ArchitectureScale runs synthetic workloads over growing fabrics.
func ArchitectureScale(ctx context.Context) []ScaleRow {
	configs := []*machine.Config{
		machine.DSPFabric64(8, 8, 8),
		machine.Hierarchical([]int{4, 4, 4, 4}, []int{8, 8, 8, 8}),
	}
	var rows []ScaleRow
	for _, mc := range configs {
		for _, ops := range []int{128, 256} {
			d := kernels.Synthetic(kernels.SynthConfig{Ops: ops, Seed: 3, RecLatency: 3})
			row := ScaleRow{CNs: mc.TotalCNs(), Levels: mc.NumLevels(), Ops: ops}
			t0 := time.Now()
			res, err := core.HCA(ctx, d, mc, core.Options{})
			row.Millis = float64(time.Since(t0).Microseconds()) / 1000
			if err != nil {
				row.Err = shortErr(err)
			} else {
				row.Legal = res.Legal
				row.FinalMII = res.MII.Final
				row.States = res.Stats.StatesExplored
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FormatScale prints the E15 table.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E15: architecture scaling — HCA over deeper hierarchies (§7)\n")
	fmt.Fprintf(&b, "%5s %7s %5s %6s %9s %8s %9s\n", "CNs", "levels", "ops", "Legal", "Final MII", "states", "ms")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%5d %7d %5d %6s  %s\n", r.CNs, r.Levels, r.Ops, "no", r.Err)
			continue
		}
		fmt.Fprintf(&b, "%5d %7d %5d %6s %9d %8d %9.1f\n", r.CNs, r.Levels, r.Ops, "yes", r.FinalMII, r.States, r.Millis)
	}
	return b.String()
}

// RegAllocRow is the register-allocation experiment (E16): the last of
// §5's deferred phases.
type RegAllocRow struct {
	Loop     string
	II       int
	MaxRegs  int
	Capacity int
	Fits     bool
	Err      string
}

// RegAlloc allocates rotating registers for every scheduled kernel.
func RegAlloc(ctx context.Context, regFileSize int) []RegAllocRow {
	mc := machine.DSPFabric64(8, 8, 8)
	var rows []RegAllocRow
	for _, k := range kernels.All() {
		row := RegAllocRow{Loop: k.Name}
		res, err := core.HCA(ctx, k.Build(), mc, core.Options{})
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		s, err := modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{})
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		alloc, err := regalloc.Run(res.Final, s, mc, regFileSize)
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		row.II = s.II
		row.MaxRegs = alloc.MaxRegs
		row.Capacity = alloc.Capacity
		row.Fits = alloc.Fits()
		rows = append(rows, row)
	}
	return rows
}

// FormatRegAlloc prints the E16 table.
func FormatRegAlloc(rows []RegAllocRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E16: rotating-register allocation (§5 future work, implemented)\n")
	fmt.Fprintf(&b, "%-16s %4s %9s %9s %6s\n", "Loop", "II", "max regs", "capacity", "fits")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-16s ERROR: %s\n", r.Loop, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-16s %4d %9d %9d %6v\n", r.Loop, r.II, r.MaxRegs, r.Capacity, r.Fits)
	}
	return b.String()
}

// ExploreRow is one point of the (N, M, K) architecture exploration the
// paper alludes to (§5: "the complete gamma of architecture exploration
// ... experiments we have performed", reported only as N=M=K=8 being
// best).
type ExploreRow struct {
	Loop      string
	N, M, K   int
	Legal     bool
	FinalMII  int
	AllLevels int
}

// ExploreNMK sweeps the three MUX capacities independently over the
// given values, one dse.Sweep per kernel, and returns every (kernel,
// config) result in grid order (N outermost, K innermost), plus the
// best configuration per kernel: minimal AllLevels MII, ties to the
// cheaper fabric N+M+K, then to the earlier grid point.
func ExploreNMK(ctx context.Context, values []int) (rows []ExploreRow, best map[string]ExploreRow, err error) {
	best = map[string]ExploreRow{}
	nv := len(values)
	g := dse.Grid{N: values, M: values, K: values}
	for _, k := range kernels.All() {
		res, err := dse.Sweep(ctx, k.Build(), g, dse.Options{})
		if err != nil {
			return nil, nil, err
		}
		for i, p := range res.Points {
			row := ExploreRow{Loop: k.Name, N: values[i/(nv*nv)], M: values[i/nv%nv], K: values[i%nv],
				Legal: p.Legal, FinalMII: p.MIIFinal, AllLevels: p.MIIAllLevels}
			rows = append(rows, row)
			if !row.Legal {
				continue
			}
			b, ok := best[k.Name]
			better := !ok || row.AllLevels < b.AllLevels ||
				(row.AllLevels == b.AllLevels && row.N+row.M+row.K < b.N+b.M+b.K)
			if better {
				best[k.Name] = row
			}
		}
	}
	return rows, best, nil
}

// FormatExplore prints the per-kernel best configurations and the legal
// fraction of the swept space.
func FormatExplore(rows []ExploreRow, best map[string]ExploreRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E17: (N,M,K) architecture exploration (§5's design-space study)\n")
	legal := 0
	for _, r := range rows {
		if r.Legal {
			legal++
		}
	}
	fmt.Fprintf(&b, "swept %d configurations, %d legal\n", len(rows), legal)
	fmt.Fprintf(&b, "%-16s %5s %9s %9s\n", "Loop", "best", "Final MII", "AllLevels")
	for _, k := range kernels.All() {
		r, ok := best[k.Name]
		if !ok {
			fmt.Fprintf(&b, "%-16s  none legal\n", k.Name)
			continue
		}
		fmt.Fprintf(&b, "%-16s %d/%d/%d %9d %9d\n", r.Loop, r.N, r.M, r.K, r.FinalMII, r.AllLevels)
	}
	return b.String()
}

// GeneralizeRow runs the beyond-paper kernels through the full flow
// (E18): evidence the system is a general compiler, not a four-kernel
// special case.
type GeneralizeRow struct {
	Loop     string
	NInstr   int
	MIIRec   int
	Legal    bool
	FinalMII int
	SchedII  int
	Correct  bool
	Err      string
}

// Generalization compiles, schedules and simulates the extra kernels.
func Generalization(ctx context.Context) []GeneralizeRow {
	mc := machine.DSPFabric64(8, 8, 8)
	var rows []GeneralizeRow
	for _, k := range kernels.Extras() {
		d := k.Build()
		row := GeneralizeRow{Loop: k.Name, NInstr: d.Len(), MIIRec: d.MIIRec()}
		res, err := core.HCA(ctx, d, mc, core.Options{})
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		row.Legal = res.Legal
		row.FinalMII = res.MII.Final
		s, err := modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{})
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		row.SchedII = s.II
		mem := extraMemory(k.Name, 16)
		if _, err := sim.Check(res.Final, s, mc, mem, 16, sim.Config{}); err != nil {
			row.Err = shortErr(err)
		} else {
			row.Correct = true
		}
		rows = append(rows, row)
	}
	return rows
}

func extraMemory(name string, iters int) ddg.MapMemory {
	rng := rand.New(rand.NewSource(77))
	mem := ddg.MapMemory{}
	switch name {
	case "fft8":
		for i := int64(0); i < int64(16*iters); i++ {
			mem[i] = int64(rng.Intn(512) - 256)
		}
	case "sad16":
		for i := int64(0); i < int64(16*iters); i++ {
			mem[kernels.SadCur+i] = int64(rng.Intn(256))
			mem[kernels.SadRef+i] = int64(rng.Intn(256))
		}
	}
	return mem
}

// FormatGeneralize prints the E18 table.
func FormatGeneralize(rows []GeneralizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E18: beyond-paper kernels through the full flow\n")
	fmt.Fprintf(&b, "%-10s %7s %6s %6s %9s %8s %8s\n", "Loop", "N_Instr", "MIIRec", "Legal", "Final MII", "SchedII", "correct")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-10s %7d %6d  ERROR: %s\n", r.Loop, r.NInstr, r.MIIRec, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-10s %7d %6d %6v %9d %8d %8v\n", r.Loop, r.NInstr, r.MIIRec, r.Legal, r.FinalMII, r.SchedII, r.Correct)
	}
	return b.String()
}

// PipelineRow compares non-pipelined list scheduling with the kernel-only
// modulo schedule (E19): the throughput case for software pipelining on
// the fabric.
type PipelineRow struct {
	Loop     string
	ListCPI  int // cycles/iteration without overlap
	ModuloII int
	Speedup  float64
	Err      string
}

// PipeliningGain measures both schedules for every kernel.
func PipeliningGain(ctx context.Context) []PipelineRow {
	mc := machine.DSPFabric64(8, 8, 8)
	var rows []PipelineRow
	for _, k := range kernels.All() {
		row := PipelineRow{Loop: k.Name}
		res, err := core.HCA(ctx, k.Build(), mc, core.Options{})
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		ls, err := modsched.RunList(res.Final, res.FinalCN, mc)
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		s, err := modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{})
		if err != nil {
			row.Err = shortErr(err)
			rows = append(rows, row)
			continue
		}
		row.ListCPI = ls.Makespan
		row.ModuloII = s.II
		row.Speedup = float64(ls.Makespan) / float64(s.II)
		rows = append(rows, row)
	}
	return rows
}

// FormatPipelining prints the E19 table.
func FormatPipelining(rows []PipelineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E19: modulo scheduling vs non-pipelined list scheduling\n")
	fmt.Fprintf(&b, "%-16s %9s %9s %8s\n", "Loop", "list CPI", "modulo II", "speedup")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-16s ERROR: %s\n", r.Loop, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-16s %9d %9d %7.1fx\n", r.Loop, r.ListCPI, r.ModuloII, r.Speedup)
	}
	return b.String()
}

// FeedbackRow is the closed-loop selection experiment (E20).
type FeedbackRow struct {
	Loop      string
	DefaultII int
	BestII    int
	Variant   string
	Err       string
}

// Feedback runs the closed-loop driver on every kernel.
func Feedback(ctx context.Context) []FeedbackRow {
	mc := machine.DSPFabric64(8, 8, 8)
	var rows []FeedbackRow
	for _, k := range kernels.All() {
		row := FeedbackRow{Loop: k.Name}
		res, err := core.HCA(ctx, k.Build(), mc, core.Options{})
		if err == nil {
			if s, serr := modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{}); serr == nil {
				row.DefaultII = s.II
			}
		}
		fb, err := driver.HCAWithFeedback(ctx, k.Build(), mc, core.Options{})
		if err != nil {
			row.Err = shortErr(err)
		} else {
			row.BestII = fb.Schedule.II
			row.Variant = fb.Variant
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatFeedback prints the E20 table.
func FormatFeedback(rows []FeedbackRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E20: closed-loop variant selection by achieved II\n")
	fmt.Fprintf(&b, "%-16s %10s %8s %12s\n", "Loop", "default II", "best II", "variant")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-16s ERROR: %s\n", r.Loop, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-16s %10d %8d %12s\n", r.Loop, r.DefaultII, r.BestII, r.Variant)
	}
	return b.String()
}
