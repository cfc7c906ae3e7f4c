package bench

import (
	"context"
	"strings"
)

// Experiment is one table of the evaluation: Table 1 or one of E2–E20.
// cmd/hcabench prints Experiments in order, and
// testdata/experiments.golden pins that output.
type Experiment struct {
	// Name selects the experiment with hcabench -exp.
	Name string
	// Run computes the rows and formats them as the table prints.
	Run func(ctx context.Context) (string, error)
	// Timing names the header of every column that holds a wall-clock
	// time. Those figures change from run to run, so the golden test
	// masks them; every other column is deterministic.
	Timing []string
}

// rows adapts a runner that cannot fail.
func rows(f func(ctx context.Context) string) func(context.Context) (string, error) {
	return func(ctx context.Context) (string, error) { return f(ctx), nil }
}

// Experiments is the evaluation in print order.
var Experiments = []Experiment{
	{Name: "table1", Run: rows(func(ctx context.Context) string { return FormatTable1(Table1(ctx)) })},
	{Name: "sweep", Run: rows(func(ctx context.Context) string { return FormatSweep(SweepBandwidth(ctx, []int{2, 4, 8})) })},
	{Name: "unified", Run: rows(func(ctx context.Context) string { return FormatUnified(UnifiedBound(ctx)) })},
	{Name: "statespace", Timing: []string{"HCA ms", "flat ms"}, Run: rows(func(ctx context.Context) string {
		return FormatStateSpace(StateSpace(ctx, []int{64, 128, 256}))
	})},
	{Name: "routing", Run: rows(func(ctx context.Context) string { return FormatRouting(Routing(ctx, []int{4, 3, 2})) })},
	{Name: "mapper", Run: func(ctx context.Context) (string, error) {
		var rows []MapperRow
		for _, v := range []int{3, 6, 12} {
			row, err := MapperBalance(ctx, v, 4)
			if err != nil {
				return "", err
			}
			rows = append(rows, row)
		}
		return FormatMapper(rows), nil
	}},
	{Name: "beam", Run: rows(func(ctx context.Context) string { return FormatBeam(BeamWidth(ctx, []int{1, 2, 4, 8, 16})) })},
	{Name: "sched", Run: func(ctx context.Context) (string, error) {
		rows, err := ScheduleAll(ctx)
		return FormatSched(rows), err
	}},
	{Name: "sim", Run: rows(func(ctx context.Context) string { return FormatSim(Simulate(ctx, 32)) })},
	{Name: "remat", Run: rows(func(ctx context.Context) string { return FormatRemat(RematAblation(ctx)) })},
	{Name: "regpressure", Run: rows(func(ctx context.Context) string { return FormatRegPressure(RegisterPressure(ctx)) })},
	{Name: "schedaware", Run: rows(func(ctx context.Context) string { return FormatSchedAware(SchedulingAware(ctx)) })},
	{Name: "hetero", Run: rows(func(ctx context.Context) string { return FormatHetero(Heterogeneous(ctx, []int{8, 4, 2})) })},
	{Name: "dma", Run: rows(func(ctx context.Context) string { return FormatDMA(DMAProgramming(ctx)) })},
	{Name: "scale", Timing: []string{"ms"}, Run: rows(func(ctx context.Context) string { return FormatScale(ArchitectureScale(ctx)) })},
	{Name: "regalloc", Run: rows(func(ctx context.Context) string { return FormatRegAlloc(RegAlloc(ctx, 64)) })},
	{Name: "explore", Run: func(ctx context.Context) (string, error) {
		rows, best, err := ExploreNMK(ctx, []int{2, 4, 8})
		return FormatExplore(rows, best), err
	}},
	{Name: "generalize", Run: rows(func(ctx context.Context) string { return FormatGeneralize(Generalization(ctx)) })},
	{Name: "pipelining", Run: rows(func(ctx context.Context) string { return FormatPipelining(PipeliningGain(ctx)) })},
	{Name: "feedback", Run: rows(func(ctx context.Context) string { return FormatFeedback(Feedback(ctx)) })},
}

// ExperimentNames lists the names of Experiments, comma-separated.
func ExperimentNames() string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}
