package graph_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// TestMaxCycleRatioMatchesReferenceOnDDGs checks the per-component search
// against the whole-graph reference on real dependence graphs: the six
// named kernels and the post-processed DDGs core.HCA makes of them on
// DSPFabric 8/8/8, DSPFabric 4/4/2 and RCP 8/2/2, and the twenty
// synthetic DDGs of 200 to 800 instructions with a latency-3 recurrence
// (generator seeds 1 to 4 of each size) with their post-processed DDGs on
// DSPFabric 8/8/8.
func TestMaxCycleRatioMatchesReferenceOnDDGs(t *testing.T) {
	check := func(name string, d *ddg.DDG) {
		t.Helper()
		got, ok := d.G.MaxCycleRatio()
		want, wantOK := graph.MaxCycleRatioReference(d.G)
		if got != want || ok != wantOK {
			t.Errorf("%s (%d nodes): MaxCycleRatio = %d,%v, reference %d,%v", name, d.Len(), got, ok, want, wantOK)
		}
	}
	mcs := []*machine.Config{machine.DSPFabric64(8, 8, 8), machine.DSPFabric64(4, 4, 2), machine.RCP(8, 2, 2)}
	for _, k := range append(kernels.All(), kernels.Extras()...) {
		d := k.Build()
		check(k.Name, d)
		for _, mc := range mcs {
			res, err := core.HCA(context.Background(), d, mc, core.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", k.Name, mc.Name, err)
			}
			check(k.Name+" final on "+mc.Name, res.Final)
		}
	}
	for _, ops := range []int{200, 350, 500, 650, 800} {
		for seed := int64(1); seed <= 4; seed++ {
			d := kernels.Synthetic(kernels.SynthConfig{Ops: ops, Seed: seed, RecLatency: 3})
			check(d.Name, d)
			res, err := core.HCA(context.Background(), d, mcs[0], core.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", d.Name, mcs[0].Name, err)
			}
			check(d.Name+" final on "+mcs[0].Name, res.Final)
		}
	}
}

// BenchmarkMIIRec times the recurrence bound of synthetic DDGs of 800 and
// 6400 instructions with a latency-3 recurrence.
func BenchmarkMIIRec(b *testing.B) {
	for _, ops := range []int{800, 6400} {
		d := kernels.Synthetic(kernels.SynthConfig{Ops: ops, Seed: 1, RecLatency: 3})
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d.MIIRec() != 3 {
					b.Fatal("MIIRec != 3")
				}
			}
		})
	}
}
