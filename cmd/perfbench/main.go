// Command perfbench measures the hot paths the delta-based SEE rewrite
// and the fingerprint/memo work target, and writes the machine-readable
// performance scorecard (BENCH_10.json on the current trajectory; see
// README's Performance section for how to read it):
//
//   - the beam-search microbenchmark, delta engine vs the retained
//     clone-per-candidate reference engine (ns/op and allocs/op);
//   - the pg mutation-journal cycle (checkpoint → assign → rollback) and
//     the incremental EstimateMII read;
//   - end-to-end HCA wall time per Table-1 kernel, compared against the
//     pre-rewrite figures recorded below;
//   - end-to-end HCAWithFeedback per Table-1 kernel with frontier dedup
//     and the subproblem memo ON versus both OFF, plus the memo's
//     hit/miss traffic for the ON configuration;
//   - the service batch endpoint against a cold durable store (every
//     entry compiles) versus the same batch after a daemon restart on
//     the same data dir (every entry served from the warmed store);
//   - the engine-portfolio section: end-to-end HCA per Table-1 kernel
//     under each registered engine (beam, budgeted exact B&B, and the
//     portfolio that runs the beam and then exact from its score per
//     subproblem), recording wall time, solution quality (final MII,
//     receives), the exact engine's optimality certificates, and the
//     portfolio's overhead over the faster single engine;
//   - the design-space exploration section: the 16-point h264deblocking
//     capacity sweep with the cross-configuration shared memo versus
//     the same sweep with per-point memos and versus S independent cold
//     single solves, plus the shared memo's hit ratio.
//
// Every report carries a provenance block (go version, GOOS/GOARCH,
// GOMAXPROCS, CPU count, git SHA) so scorecards from different
// containers are never silently compared — in -quick smoke mode too.
//
// Usage:
//
//	go run ./cmd/perfbench -out BENCH_10.json
//	go run ./cmd/perfbench -quick -out -   # smoke mode: fir2dim only
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/driver"
	"repro/internal/dse"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/pg"
	"repro/internal/see"
	"repro/internal/service"
	"repro/internal/store"
)

// prePR holds the BenchmarkTable1 figures measured at the commit before
// the delta rewrite (clone-per-candidate engine, go test -bench
// Table1 -benchtime 3x on the same container class); the end-to-end
// speedup column is computed against these.
var prePR = map[string]Metric{
	"fir2dim":        {NsPerOp: 38944263, AllocsPerOp: 326061},
	"idcthor":        {NsPerOp: 70591828, AllocsPerOp: 510693},
	"mpeg2inter":     {NsPerOp: 48217206, AllocsPerOp: 380963},
	"h264deblocking": {NsPerOp: 765426458, AllocsPerOp: 5017624},
}

// Metric is one benchmark's cost.
type Metric struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Comparison pairs the rewritten path with its baseline.
type Comparison struct {
	Current  Metric  `json:"current"`
	Baseline Metric  `json:"baseline"`
	Speedup  float64 `json:"speedup"`
	AllocCut float64 `json:"alloc_cut"`
}

// FeedbackComparison is one kernel's HCAWithFeedback cost with dedup and
// the subproblem memo on (current) versus both disabled (baseline),
// measured back to back in the same process, plus the memo traffic of a
// representative ON run against a fresh memo — the hits come from
// cross-variant and cross-pass sharing inside one feedback pipeline.
type FeedbackComparison struct {
	Comparison
	MemoHits     int64   `json:"memo_hits"`
	MemoMisses   int64   `json:"memo_misses"`
	MemoHitRatio float64 `json:"memo_hit_ratio"`
}

// Provenance records where a scorecard came from, so figures from
// different machines or toolchains are never silently compared.
type Provenance struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// GitSHA is the short commit the binary was built from (-git-sha
	// flag, else `git rev-parse --short HEAD`, else "unknown").
	GitSHA      string `json:"git_sha"`
	GeneratedAt string `json:"generated_at"`
}

// Report is the scorecard (BENCH_N.json) schema.
type Report struct {
	Note       string     `json:"note"`
	Provenance Provenance `json:"provenance"`
	// Solve compares the delta beam search against the in-binary
	// reference engine on the fir2dim level-0 subproblem.
	Solve Comparison `json:"solve_fir2dim_level0"`
	// Journal microcosts (current engine only; the baseline had no
	// journal — every candidate paid a full Clone instead).
	AssignRollback Metric `json:"assign_rollback"`
	EstimateMII    Metric `json:"estimate_mii"`
	// Table1 is end-to-end core.HCA per paper kernel vs the recorded
	// pre-rewrite figures.
	Table1 map[string]Comparison `json:"table1_end_to_end"`
	// Feedback is end-to-end driver.HCAWithFeedback per paper kernel,
	// dedup+memo on vs off, measured back to back in this process.
	Feedback map[string]FeedbackComparison `json:"feedback_end_to_end"`
	// ServiceBatch is one POST /v1/compile/batch over HTTP against a
	// cold durable store vs the identical batch after a restart on the
	// same data dir.
	ServiceBatch ServiceBatch `json:"service_batch"`
	// EnginePortfolio compares the registered engines end to end per
	// Table-1 kernel: beam vs budgeted exact B&B vs the portfolio.
	EnginePortfolio EnginePortfolio `json:"engine_portfolio"`
	// DSESweep is the design-space exploration section: one grid sweep
	// with the cross-configuration shared memo vs the same sweep with
	// per-point memos, and vs S independent cold single solves.
	DSESweep DSESweep `json:"dse_sweep"`
}

// EngineRun is one engine's end-to-end core.HCA cost and solution
// quality on one kernel. Proved/Subproblems count the exact-engine
// optimality certificates carried by the run's winning attempts; Gap is
// the relative optimality gap (score over proved lower bound), present
// only when every subproblem was proved. Wins is the per-engine
// subproblem win tally ("seed" = the min-cut partition seed beat every
// engine attempt).
type EngineRun struct {
	Ns          int64          `json:"ns"`
	FinalMII    int            `json:"final_mii"`
	Receives    int            `json:"receives"`
	Proved      int            `json:"proved_subproblems"`
	Subproblems int            `json:"subproblems"`
	Gap         *float64       `json:"optimality_gap,omitempty"`
	Wins        map[string]int `json:"engine_wins,omitempty"`
}

// EngineKernel is one kernel's three-way engine comparison.
// PortfolioOverBest is the portfolio's wall time over the faster single
// engine — the cost of its exact step, whose node budget is sized from
// the beam's own work.
// Where the exact engine exhausts its node budget before proving a
// subproblem, proved < subproblems and no gap is recorded — the true
// beam-vs-optimal gap on full kernels is then open, which this section
// documents rather than hides (the gap-to-optimal *tests* prove it on
// dependency-closed kernel prefixes and a synthetic corpus instead).
type EngineKernel struct {
	See               EngineRun `json:"see"`
	Exact             EngineRun `json:"exact"`
	Portfolio         EngineRun `json:"portfolio"`
	PortfolioOverBest float64   `json:"portfolio_over_best_single"`
}

// PrefixGap is the proved beam-vs-optimal gap on one kernel's
// dependency-closed 12-instruction prefix over a 4-cluster pattern
// (the gap-to-optimal tests' instance family): the exact engine proves
// the optimum outright on every kernel at this size, so Gap is a true
// gap against a proved lower bound — the figure the full-kernel rows
// above cannot provide where their node budget runs out.
type PrefixGap struct {
	ExactScore float64 `json:"exact_score"`
	BeamScore  float64 `json:"beam_score"`
	Gap        float64 `json:"gap"`
}

// EnginePortfolio is the engine comparison section. ExactNodeBudget is
// the per-subproblem B&B node budget of the solo exact runs, and the
// cap on the portfolio's exact steps (full kernels are far beyond what
// an unbudgeted exhaustive search could finish). KernelPrefixGaps
// documents the true, proved beam gap per kernel on the prefix family.
type EnginePortfolio struct {
	ExactNodeBudget  int64                   `json:"exact_node_budget"`
	Kernels          map[string]EngineKernel `json:"kernels"`
	KernelPrefixGaps map[string]PrefixGap    `json:"kernel_prefix_gaps"`
}

// benchEnginePortfolio times end-to-end core.HCA per kernel under each
// engine. Exact runs pay the full node budget on every unproved
// subproblem, so a b.N loop is unaffordable — each figure is the best
// of a few hand-timed solves (one for exact on the big kernels), which
// is noise-robust enough for the ratio the section exists to record.
func benchEnginePortfolio(quick bool) EnginePortfolio {
	const budget = 1 << 16
	mc := machine.DSPFabric64(8, 8, 8)
	ep := EnginePortfolio{
		ExactNodeBudget: budget,
		Kernels:         make(map[string]EngineKernel),
	}
	for _, k := range kernels.All() {
		if _, ok := prePR[k.Name]; !ok {
			continue
		}
		if quick && k.Name != "fir2dim" {
			continue
		}
		var row EngineKernel
		for _, eng := range []string{"see", "exact", "portfolio"} {
			fmt.Fprintf(os.Stderr, "perfbench: engine %s %s...\n", eng, k.Name)
			opt := core.Options{Engine: eng, ExactBudget: budget}
			runs := 3
			if eng == "exact" && !quick {
				runs = 1
			}
			best := int64(1<<63 - 1)
			var res *core.Result
			for i := 0; i < runs; i++ {
				start := time.Now()
				r, err := core.HCA(context.Background(), k.Build(), mc, opt)
				ns := time.Since(start).Nanoseconds()
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: engine %s %s: %v\n", eng, k.Name, err)
					os.Exit(1)
				}
				if ns < best {
					best = ns
					res = r
				}
			}
			run := EngineRun{
				Ns:          best,
				FinalMII:    res.MII.Final,
				Receives:    res.Recvs,
				Proved:      res.Optimality.Proved,
				Subproblems: res.Optimality.Subproblems,
				Wins:        res.EngineWins,
			}
			if gap, ok := res.Optimality.Gap(); ok {
				g := gap
				run.Gap = &g
			}
			switch eng {
			case "see":
				row.See = run
			case "exact":
				row.Exact = run
			case "portfolio":
				row.Portfolio = run
			}
		}
		bestSingle := row.See.Ns
		if row.Exact.Ns < bestSingle {
			bestSingle = row.Exact.Ns
		}
		if bestSingle > 0 {
			row.PortfolioOverBest = round2(float64(row.Portfolio.Ns) / float64(bestSingle))
		}
		ep.Kernels[k.Name] = row
	}
	ep.KernelPrefixGaps = benchPrefixGaps(quick)
	return ep
}

// benchPrefixGaps proves the optimum of each kernel's dependency-closed
// 12-instruction prefix on a 4-cluster all-to-all pattern and records
// the beam engine's gap against it (construction order is topological,
// so a prefix is dependency-closed).
func benchPrefixGaps(quick bool) map[string]PrefixGap {
	const prefix = 12
	out := make(map[string]PrefixGap)
	topo := pg.NewTopology("prefix-gap", 4, 4, 8, 0)
	topo.AllToAll()
	for _, k := range kernels.All() {
		if _, ok := prePR[k.Name]; !ok {
			continue
		}
		if quick && k.Name != "fir2dim" {
			continue
		}
		d := k.Build()
		f := pg.NewFlow(topo, d)
		f.MIIRecStatic = d.MIIRec()
		ws := make([]graph.NodeID, prefix)
		for i := range ws {
			ws[i] = graph.NodeID(i)
		}
		solve := func(name string) float64 {
			eng, err := core.EngineByName(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: prefix gap %s: %v\n", k.Name, err)
				os.Exit(1)
			}
			res, err := eng.Solve(context.Background(), f, ws, see.Config{})
			if err != nil || (name == "exact" && !res.Proved) {
				fmt.Fprintf(os.Stderr, "perfbench: prefix gap %s %s: err=%v\n", k.Name, name, err)
				os.Exit(1)
			}
			sc := res.Score
			res.Flow.Release()
			return sc
		}
		ex, beam := solve("exact"), solve("see")
		out[k.Name] = PrefixGap{
			ExactScore: round2(ex),
			BeamScore:  round2(beam),
			Gap:        round2((beam - ex) / ex),
		}
	}
	return out
}

// DSESweep records the exploration sweep's cost against its two
// ablations: the identical sweep with a fresh memo per point (isolating
// what cross-configuration sharing buys — the PR's acceptance line is
// shared ≤ 0.6× per-point on the 16-point grid), and S independent cold
// single solves (what a naive script looping `hca` per configuration
// would pay, with no dedup and no sharing of any kind). Memo traffic is
// from one representative shared run against a fresh memo.
type DSESweep struct {
	Kernel             string  `json:"kernel"`
	Points             int     `json:"points"`
	Unique             int     `json:"unique"`
	SharedNs           int64   `json:"shared_memo_ns"`
	PerPointNs         int64   `json:"per_point_memo_ns"`
	SharedOverPerPoint float64 `json:"shared_over_per_point"`
	ColdSolveNs        int64   `json:"cold_single_solve_ns"`
	SweepOverSCold     float64 `json:"sweep_over_s_cold_solves"`
	MemoHits           int64   `json:"memo_hits"`
	MemoMisses         int64   `json:"memo_misses"`
	MemoHitRatio       float64 `json:"memo_hit_ratio"`
}

// benchDSESweep times the 16-point h264deblocking capacity sweep
// (n,m ∈ {8,6}, k ∈ {8,6,4,2}) — the solver-dominated Table-1 kernel,
// where cross-configuration sharing carries the wall time rather than
// the per-point fixed costs (flow construction, seeding, mapping) that
// dilute it on the small kernels. -quick shrinks the section to a
// 4-point fir2dim k-axis sweep, cheap enough for every CI push. Sweep
// seeds a fresh memo per call when none is injected, so every timed
// iteration pays the cold cost and earns only within-sweep sharing —
// exactly the figure the per-point ablation is compared against.
func benchDSESweep(quick bool) DSESweep {
	name := "h264deblocking"
	g := dse.Grid{N: []int{8, 6}, M: []int{8, 6}, K: []int{8, 6, 4, 2}}
	if quick {
		name = "fir2dim"
		g = dse.Grid{K: []int{8, 6, 4, 2}}
	}
	var d *ddg.DDG
	for _, k := range kernels.All() {
		if k.Name == name {
			d = k.Build()
		}
	}
	ctx := context.Background()

	fmt.Fprintln(os.Stderr, "perfbench: dse sweep (shared memo)...")
	shared := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dse.Sweep(ctx, d, g, dse.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	fmt.Fprintln(os.Stderr, "perfbench: dse sweep (per-point memos)...")
	perPoint := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dse.Sweep(ctx, d, g, dse.Options{PerPointMemo: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	fmt.Fprintln(os.Stderr, "perfbench: dse cold single solve...")
	mc := machine.DSPFabric64(8, 8, 8)
	cold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.HCA(ctx, d, mc, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Memo traffic and point counts from one representative shared run.
	res, err := dse.Sweep(ctx, d, g, dse.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: dse sweep:", err)
		os.Exit(1)
	}
	ds := DSESweep{
		Kernel:       name,
		Points:       res.Stats.Points,
		Unique:       res.Stats.Unique,
		SharedNs:     shared.NsPerOp(),
		PerPointNs:   perPoint.NsPerOp(),
		ColdSolveNs:  cold.NsPerOp(),
		MemoHits:     res.Stats.Memo.Hits,
		MemoMisses:   res.Stats.Memo.Misses,
		MemoHitRatio: res.Stats.MemoHitRatio,
	}
	if ds.PerPointNs > 0 {
		ds.SharedOverPerPoint = round2(float64(ds.SharedNs) / float64(ds.PerPointNs))
	}
	if sCold := ds.ColdSolveNs * int64(ds.Points); sCold > 0 {
		ds.SweepOverSCold = round2(float64(ds.SharedNs) / float64(sCold))
	}
	return ds
}

// ServiceBatch records the batch endpoint's cold-vs-warm cost. Cold is
// a single timed batch against an empty store (every unique entry
// compiles); Warm re-times the identical batch after the service is
// closed and reopened on the same data dir, so every entry is served
// from the durable store the restart warmed.
type ServiceBatch struct {
	Entries int     `json:"entries"`
	Unique  int     `json:"unique"`
	ColdNs  int64   `json:"cold_ns"`
	Warm    Metric  `json:"warm"`
	Speedup float64 `json:"speedup"`
}

func metric(r testing.BenchmarkResult) Metric {
	return Metric{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp()}
}

func compare(current, baseline Metric) Comparison {
	c := Comparison{Current: current, Baseline: baseline}
	if current.NsPerOp > 0 {
		c.Speedup = round2(float64(baseline.NsPerOp) / float64(current.NsPerOp))
	}
	if current.AllocsPerOp > 0 {
		c.AllocCut = round2(float64(baseline.AllocsPerOp) / float64(current.AllocsPerOp))
	}
	return c
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

// provenance assembles the environment block. sha overrides discovery
// when non-empty (the Makefile passes it so the recorded commit never
// depends on the benchmark binary finding git on PATH).
func provenance(sha string) Provenance {
	if sha == "" {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			sha = strings.TrimSpace(string(out))
		}
	}
	if sha == "" {
		sha = "unknown"
	}
	return Provenance{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GitSHA:      sha,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// benchServiceBatch measures the batch endpoint over real HTTP: a
// durable-store-backed service in a temp dir, one batch of the Table-1
// kernels (each listed twice, exercising the dedup path), cold then —
// after a simulated daemon restart on the same dir — warm.
func benchServiceBatch(quick bool) ServiceBatch {
	names := []string{"fir2dim", "idcthor", "mpeg2inter", "h264deblocking"}
	if quick {
		names = names[:1]
	}
	var entries []map[string]any
	for _, n := range names {
		entries = append(entries, map[string]any{"kernel": n}, map[string]any{"kernel": n})
	}
	body, err := json.Marshal(map[string]any{"entries": entries})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service batch:", err)
		os.Exit(1)
	}

	dir, err := os.MkdirTemp("", "perfbench-store-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service batch:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)

	open := func() *service.Service {
		rs, err := store.Open(filepath.Join(dir, "results"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: service batch:", err)
			os.Exit(1)
		}
		js, err := store.OpenJobs(filepath.Join(dir, "jobs.jsonl"), 1024)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: service batch:", err)
			os.Exit(1)
		}
		return service.New(service.Config{Workers: runtime.GOMAXPROCS(0), Store: rs, Journal: js})
	}
	post := func(ts *httptest.Server) service.BatchResponse {
		resp, err := ts.Client().Post(ts.URL+"/v1/compile/batch", "application/json", strings.NewReader(string(body)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: service batch:", err)
			os.Exit(1)
		}
		defer resp.Body.Close()
		var br service.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != 200 {
			fmt.Fprintf(os.Stderr, "perfbench: service batch: status %d (%v)\n", resp.StatusCode, err)
			os.Exit(1)
		}
		return br
	}

	// Cold: empty store, every unique entry compiles. One timed run —
	// compiles cost milliseconds to seconds, so a single sample is
	// representative and a b.N loop would only re-measure the warm path.
	svc := open()
	ts := httptest.NewServer(svc.Handler())
	start := time.Now()
	br := post(ts)
	coldNs := time.Since(start).Nanoseconds()
	ts.Close()
	svc.Close()

	// Warm: restart on the same dir; the store now holds every result.
	svc2 := open()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	defer svc2.Close()
	warm := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(ts2)
		}
	})

	sb := ServiceBatch{
		Entries: len(entries),
		Unique:  br.Unique,
		ColdNs:  coldNs,
		Warm:    metric(warm),
	}
	if w := warm.NsPerOp(); w > 0 {
		sb.Speedup = round2(float64(coldNs) / float64(w))
	}
	return sb
}

func main() {
	out := flag.String("out", "BENCH_10.json", "output file (- for stdout)")
	gitSHA := flag.String("git-sha", "", "git commit to record in the provenance block (default: ask git)")
	quick := flag.Bool("quick", false, "smoke mode: restrict the end-to-end sections to fir2dim")
	flag.Parse()

	rep := Report{
		Note: "delta-based SEE vs clone-per-candidate baseline; " +
			"frontier dedup + subproblem memo vs both disabled; " +
			"pre-rewrite Table-1 figures recorded at the pre-delta commit; " +
			"engine portfolio: beam vs budgeted exact B&B vs beam-then-exact per subproblem; " +
			"dse sweep: shared cross-configuration memo vs per-point memos vs S cold solves",
		Provenance: provenance(*gitSHA),
	}

	// Beam-search microbenchmark: one level-0 subproblem, both engines.
	d := kernels.Fir2Dim()
	tp := pg.NewTopology("lvl0", 4, 16, 8, 0)
	tp.AllToAll()
	ws := make([]graph.NodeID, d.Len())
	for i := range ws {
		ws[i] = graph.NodeID(i)
	}
	mkFlow := func() *pg.Flow {
		f := pg.NewFlow(tp, d)
		f.MIIRecStatic = d.MIIRec()
		return f
	}
	fmt.Fprintln(os.Stderr, "perfbench: see.Solve (delta engine)...")
	delta := testing.Benchmark(func(b *testing.B) {
		f := mkFlow()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := see.Solve(context.Background(), f, ws, see.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	fmt.Fprintln(os.Stderr, "perfbench: see.SolveReference (clone engine)...")
	ref := testing.Benchmark(func(b *testing.B) {
		f := mkFlow()
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := see.SolveReference(ctx, f, ws, see.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.Solve = compare(metric(delta), metric(ref))

	// Journal cycle: checkpoint → assign (with routing) → rollback on a
	// half-assigned fir2dim flow, and the incremental objective read.
	fmt.Fprintln(os.Stderr, "perfbench: pg journal cycle...")
	{
		f := mkFlow()
		var next graph.NodeID
		var cc pg.ClusterID
		place := func(n graph.NodeID) (pg.ClusterID, bool) {
			for c := pg.ClusterID(0); c < 4; c++ {
				if f.Assign(n, c) == nil {
					return c, true
				}
			}
			return 0, false
		}
		for n := graph.NodeID(0); n < graph.NodeID(d.Len()/2); n++ {
			if _, ok := place(n); !ok {
				fmt.Fprintf(os.Stderr, "perfbench: setup: node %d unplaceable\n", n)
				os.Exit(1)
			}
		}
		next = graph.NodeID(d.Len() / 2)
		mark := f.Checkpoint()
		cc, _ = place(next)
		f.Rollback(mark)
		f.DropJournal()

		rep.AssignRollback = metric(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := f.Checkpoint()
				if err := f.Assign(next, cc); err != nil {
					b.Fatal(err)
				}
				f.Rollback(m)
			}
		}))
		rep.EstimateMII = metric(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			s := 0
			for i := 0; i < b.N; i++ {
				s += f.EstimateMII()
			}
			_ = s
		}))
	}

	// End-to-end Table 1 vs the recorded pre-rewrite figures, and the
	// feedback pipeline dedup+memo ablation.
	rep.Table1 = make(map[string]Comparison)
	rep.Feedback = make(map[string]FeedbackComparison)
	mc := machine.DSPFabric64(8, 8, 8)
	for _, k := range kernels.All() {
		base, ok := prePR[k.Name]
		if !ok {
			continue // beyond-paper extras have no recorded baseline
		}
		if *quick && k.Name != "fir2dim" {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: HCA %s...\n", k.Name)
		cur := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.HCA(context.Background(), k.Build(), mc, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Table1[k.Name] = compare(metric(cur), base)

		// Feedback pipeline, dedup+memo on vs off. The ON configuration is
		// the default (RunVariants seeds a fresh memo per call, so every
		// timed iteration pays the cold cost and earns only within-run
		// sharing — no cross-iteration warmup flatters the number); the
		// OFF baseline disables both.
		fmt.Fprintf(os.Stderr, "perfbench: feedback %s (dedup+memo on)...\n", k.Name)
		on := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := driver.HCAWithFeedback(context.Background(), k.Build(), mc, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Fprintf(os.Stderr, "perfbench: feedback %s (dedup+memo off)...\n", k.Name)
		off := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			opt := core.Options{DisableMemo: true, SEE: see.Config{DisableDedup: true}}
			for i := 0; i < b.N; i++ {
				if _, err := driver.HCAWithFeedback(context.Background(), k.Build(), mc, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Memo traffic of one representative ON run against a fresh memo.
		memo := core.NewMemo(0)
		if _, err := driver.HCAWithFeedback(context.Background(), k.Build(), mc, core.Options{Memo: memo}); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: feedback %s: %v\n", k.Name, err)
			os.Exit(1)
		}
		ms := memo.Stats()
		fc := FeedbackComparison{
			Comparison: compare(metric(on), metric(off)),
			MemoHits:   ms.Hits,
			MemoMisses: ms.Misses,
		}
		if total := ms.Hits + ms.Misses; total > 0 {
			fc.MemoHitRatio = round2(float64(ms.Hits) / float64(total))
		}
		rep.Feedback[k.Name] = fc
	}

	fmt.Fprintln(os.Stderr, "perfbench: service batch cold vs warm store...")
	rep.ServiceBatch = benchServiceBatch(*quick)

	rep.EnginePortfolio = benchEnginePortfolio(*quick)

	rep.DSESweep = benchDSESweep(*quick)

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", *out)
}
