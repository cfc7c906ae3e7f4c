package see

import (
	"context"
	"testing"

	"repro/internal/kernels"
	"repro/internal/pg"
)

// BenchmarkSolve measures the delta-engine beam search on one level-0
// subproblem (fir2dim on 4×16 clusters). Compare allocs/op against
// BenchmarkSolveReference: the incremental assign/undo path is the whole
// point of the delta engine.
func BenchmarkSolve(b *testing.B) {
	d := kernels.Fir2Dim()
	f := pg.NewFlow(level0Topology(8), d)
	f.MIIRecStatic = d.MIIRec()
	ws := wsAll(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), f, ws, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveReference is the clone-per-candidate oracle on the same
// problem: the in-binary baseline BenchmarkSolve is judged against.
func BenchmarkSolveReference(b *testing.B) {
	d := kernels.Fir2Dim()
	f := pg.NewFlow(level0Topology(8), d)
	f.MIIRecStatic = d.MIIRec()
	ws := wsAll(d)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveReference(ctx, f, ws, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
