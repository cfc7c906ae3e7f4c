package core_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/report"
)

// Every engine gives the same report bytes for the same input at any
// worker count: ten compiles at GOMAXPROCS 1 and ten at GOMAXPROCS 4
// must all encode identically. The exact row compiles idcthor at a
// 4096-node budget, since h264deblocking at that budget is slow.
func TestHCADeterministic(t *testing.T) {
	rows := map[string]struct {
		kernel string
		budget int64
	}{
		"see":       {"h264deblocking", 0},
		"exact":     {"idcthor", 4096},
		"portfolio": {"h264deblocking", 0},
	}
	mc := machine.DSPFabric64(8, 8, 8)
	for _, engine := range core.EngineNames() {
		row, ok := rows[engine]
		if !ok {
			t.Fatalf("no determinism row for engine %q", engine)
		}
		t.Run(engine, func(t *testing.T) {
			k, err := kernels.ByName(row.kernel)
			if err != nil {
				t.Fatal(err)
			}
			d := k.Build()
			opt := core.Options{Engine: engine, ExactBudget: row.budget}
			want := reportAt(t, 1, d, mc, opt)
			for _, procs := range []int{1, 4} {
				for i := 0; i < 10; i++ {
					if got := reportAt(t, procs, d, mc, opt); !bytes.Equal(got, want) {
						t.Fatalf("compile %d at GOMAXPROCS %d differs from the first at GOMAXPROCS 1:\n%s\nwant:\n%s", i, procs, got, want)
					}
				}
			}
		})
	}
}

// reportAt compiles d at the given GOMAXPROCS and returns the report's
// JSON bytes.
func reportAt(t *testing.T, procs int, d *ddg.DDG, mc *machine.Config, opt core.Options) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res, err := core.HCA(context.Background(), d, mc, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := report.Build(res, nil, "", nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
