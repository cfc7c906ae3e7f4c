package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/pg"
	"repro/internal/see"
)

func TestEngineByName(t *testing.T) {
	for _, name := range append(EngineNames(), "") {
		eng, err := EngineByName(name)
		if err != nil || eng == nil {
			t.Errorf("EngineByName(%q) = %v, %v", name, eng, err)
		}
	}
	if eng, err := EngineByName(""); err != nil || eng.Name() != "see" {
		t.Errorf("empty selection resolved to %v, %v; want the beam default", eng, err)
	}
	_, err := EngineByName("annealing")
	var oe *see.OptionError
	if !errors.As(err, &oe) || oe.Field != "engine" {
		t.Errorf("unknown engine error %v is not a typed engine OptionError", err)
	}
}

func TestAttemptKeyEngineDiscriminator(t *testing.T) {
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 16, Seed: 9, RecLatency: 2})
	f := pg.NewFlow(engineTopo(4, 4, 8), d)
	f.MIIRecStatic = d.MIIRec()
	ws := engineWS(d.Len())
	cfg := see.Config{}
	base := Options{ddgFP: d.Fingerprint()}
	exactOpt := base
	exactOpt.Engine = "exact"
	kSee := attemptKeyFor(base, f, ws, cfg, 0, false)
	kExact := attemptKeyFor(exactOpt, f, ws, cfg, 0, false)
	if kSee == kExact {
		t.Fatal("beam and exact attempts share a memo key: cross-engine replay possible")
	}
	kSee.Engine, kSee.Budget = kExact.Engine, kExact.Budget
	if kSee != kExact {
		t.Error("keys differ beyond the engine discriminator: content address drifted")
	}
}

func engineTopo(k, issue, maxIn int) *pg.Topology {
	t := pg.NewTopology("engine-test", k, issue, maxIn, 0)
	t.AllToAll()
	return t
}

func engineWS(n int) []graph.NodeID {
	ws := make([]graph.NodeID, n)
	for i := range ws {
		ws[i] = graph.NodeID(i)
	}
	return ws
}

// solveWith runs one engine on one subproblem instance.
func solveWith(t *testing.T, name string, f *pg.Flow, ws []graph.NodeID) (*EngineResult, error) {
	t.Helper()
	eng, err := EngineByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Solve(context.Background(), f, ws, see.Config{})
}

// The exact engine must prove optimal cost on working-set prefixes of
// all four Table-1 kernels (small widths: the dependency-closed first
// 12 instructions on a 4-cluster pattern graph), and the beam engine
// must land within the recorded gap of that proved optimum.
func TestExactProvesKernelPrefixes(t *testing.T) {
	const prefix = 12
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			d := k.Build()
			f := pg.NewFlow(engineTopo(4, 4, 8), d)
			f.MIIRecStatic = d.MIIRec()
			ws := engineWS(prefix) // construction order is topological: a prefix is dependency-closed
			ex, err := solveWith(t, "exact", f, ws)
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			if !ex.Proved {
				t.Fatalf("exact did not prove a %d-instruction prefix", prefix)
			}
			if ex.Bound != ex.Score {
				t.Errorf("proved bound %v != score %v", ex.Bound, ex.Score)
			}
			beam, err := solveWith(t, "see", f, ws)
			if err != nil {
				t.Fatalf("beam: %v", err)
			}
			if beam.Score < ex.Score {
				t.Fatalf("beam score %v beats a proved optimum %v", beam.Score, ex.Score)
			}
			// The recorded per-kernel gap. idcthor's prefix is a real
			// beam miss (MII 2 against a proved MII-1 optimum), which is
			// exactly the kind of instance the exact engine exists to
			// expose; the ≤5% acceptance bound is asserted on the
			// synthetic corpus aggregate below and documented for the
			// full kernels in BENCH_8.json by cmd/perfbench.
			gap := (beam.Score - ex.Score) / ex.Score
			t.Logf("%s: exact %.2f, beam %.2f, gap %.2f%%", k.Name, ex.Score, beam.Score, gap*100)
			ex.Flow.Release()
			beam.Flow.Release()
		})
	}
}

// Gap-to-optimal over a synthetic corpus: the exact engine proves every
// instance, the beam never beats a proof, and the corpus-aggregate beam
// gap stays within the recorded bound.
func TestExactSyntheticCorpusGap(t *testing.T) {
	const instances = 20
	var scoreSum, boundSum float64
	for seed := int64(0); seed < instances; seed++ {
		d := kernels.Synthetic(kernels.SynthConfig{Ops: 16, Seed: seed, RecLatency: 2})
		f := pg.NewFlow(engineTopo(4, 4, 8), d)
		f.MIIRecStatic = d.MIIRec()
		ws := engineWS(d.Len())
		ex, err := solveWith(t, "exact", f, ws)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		if !ex.Proved {
			t.Fatalf("seed %d: not proved", seed)
		}
		beam, err := solveWith(t, "see", f, ws)
		if err != nil {
			t.Fatalf("seed %d: beam: %v", seed, err)
		}
		if beam.Score < ex.Score {
			t.Fatalf("seed %d: beam %v beats proved optimum %v", seed, beam.Score, ex.Score)
		}
		scoreSum += beam.Score
		boundSum += ex.Bound
		ex.Flow.Release()
		beam.Flow.Release()
	}
	gap := (scoreSum - boundSum) / boundSum
	t.Logf("corpus of %d: aggregate beam gap %.2f%%", instances, gap*100)
	if gap > 0.05 {
		t.Errorf("aggregate beam gap %.2f%% exceeds the 5%% acceptance bound", gap*100)
	}
}

// The portfolio must never return a worse score than the beam alone on
// the same subproblem, and where it reports Proved, its score must be
// exact alone's proved optimum. It is not held to exact alone's score:
// its exact step runs on a budget sized from the beam's work (the
// 128-expansion floor here), which proves none of the whole 16-op
// synthetic instances. The named kernels' 10-instruction prefixes
// include instances it proves, so the Proved clause is exercised.
func TestPortfolioNeverWorseEngineLevel(t *testing.T) {
	type instance struct {
		label string
		d     *ddg.DDG
		n     int // working-set prefix length
	}
	var cases []instance
	for seed := int64(200); seed < 208; seed++ {
		d := kernels.Synthetic(kernels.SynthConfig{Ops: 16, Seed: seed, RecLatency: 2})
		cases = append(cases, instance{fmt.Sprintf("synthetic seed %d", seed), d, d.Len()})
	}
	for _, k := range append(kernels.All(), kernels.Extras()...) {
		cases = append(cases, instance{k.Name + " prefix", k.Build(), 10})
	}
	proofs := 0
	for _, c := range cases {
		f := pg.NewFlow(engineTopo(4, 4, 8), c.d)
		f.MIIRecStatic = c.d.MIIRec()
		ws := engineWS(c.n) // construction order is topological: a prefix is dependency-closed
		beam, berr := solveWith(t, "see", f, ws)
		ex, xerr := solveWith(t, "exact", f, ws)
		port, perr := solveWith(t, "portfolio", f, ws)
		if perr != nil {
			if berr == nil || xerr == nil {
				t.Fatalf("%s: portfolio failed (%v) though a single engine succeeded", c.label, perr)
			}
			continue
		}
		if port.Flow == nil {
			t.Fatalf("%s: portfolio returned no flow", c.label)
		}
		if berr == nil && port.Score > beam.Score {
			t.Errorf("%s: portfolio %v worse than beam alone %v", c.label, port.Score, beam.Score)
		}
		if port.Proved {
			proofs++
			if xerr != nil || !ex.Proved || port.Score != ex.Score {
				t.Errorf("%s: portfolio proved %v, exact alone %v (proved %v, err %v)", c.label, port.Score, ex.Score, xerr == nil && ex.Proved, xerr)
			}
		}
		if berr == nil {
			beam.Flow.Release()
		}
		if xerr == nil {
			ex.Flow.Release()
		}
		port.Flow.Release()
	}
	if proofs == 0 {
		t.Error("the portfolio proved no instance: the Proved clause checked nothing")
	}
}

// Full-stack engine selection: HCA under each engine yields a legal
// clusterization, stamps the engine on the result, and accounts every
// subproblem's winning engine.
func TestHCAEngineSelection(t *testing.T) {
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 24, Seed: 7, RecLatency: 3})
	mc := machine.DSPFabric64(8, 8, 8)
	for _, engine := range EngineNames() {
		t.Run(engine, func(t *testing.T) {
			res, err := HCA(context.Background(), d, mc, Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Legal {
				t.Error("result not legal")
			}
			if res.Engine != engine {
				t.Errorf("result engine %q, want %q", res.Engine, engine)
			}
			wins := 0
			for _, n := range res.EngineWins {
				wins += n
			}
			if wins != res.Optimality.Subproblems || wins == 0 {
				t.Errorf("engine wins %d != subproblems %d", wins, res.Optimality.Subproblems)
			}
			if engine == "see" && res.Optimality.Proved != 0 {
				t.Errorf("beam-only run reports %d proved subproblems", res.Optimality.Proved)
			}
			if gap, ok := res.Optimality.Gap(); ok && gap < 0 {
				t.Errorf("negative optimality gap %v", gap)
			}
		})
	}
}

// The exact engine through the full HCA stack must never yield a worse
// clusterization than the beam on an instance it can prove end to end,
// and the proved gap must be reported.
func TestHCAExactReportsGap(t *testing.T) {
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 16, Seed: 11, RecLatency: 2})
	mc := machine.DSPFabric64(8, 8, 8)
	res, err := HCA(context.Background(), d, mc, Options{Engine: "exact", DisableSeeding: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimality.Proved != res.Optimality.Subproblems {
		t.Fatalf("exact engine proved %d of %d subproblems", res.Optimality.Proved, res.Optimality.Subproblems)
	}
	gap, ok := res.Optimality.Gap()
	if !ok {
		t.Fatal("fully proved run reports no gap")
	}
	if gap != 0 {
		t.Errorf("exact engine's own gap = %v, want 0", gap)
	}
}

// A relaxed-mode exact result must never replay into a strict-mode beam
// solve through a shared memo: with the engine discriminator in the
// attempt key, a strict beam run against a memo pre-populated by an
// exact run is byte-identical to a fresh strict beam run.
func TestMemoNoCrossEngineReplay(t *testing.T) {
	d := kernels.Synthetic(kernels.SynthConfig{Ops: 24, Seed: 3, RecLatency: 2})
	mc := machine.DSPFabric64(8, 8, 8)
	strict := func(memo SubproblemMemo) *Result {
		t.Helper()
		res, err := HCA(context.Background(), d, mc, Options{
			SEE:  see.Config{DisableDedup: true}, // strict reproduction mode
			Memo: memo,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := strict(nil)

	shared := NewMemo(0)
	if _, err := HCA(context.Background(), d, mc, Options{Engine: "exact", Memo: shared}); err != nil {
		t.Fatal(err)
	}
	if shared.Stats().Entries == 0 {
		t.Fatal("exact run populated no memo entries; the test exercises nothing")
	}
	poisoned := strict(shared)

	if fmt.Sprint(fresh.CN) != fmt.Sprint(poisoned.CN) {
		t.Errorf("strict-mode CN assignment changed behind a memo shared with an exact run:\n fresh: %v\nshared: %v", fresh.CN, poisoned.CN)
	}
	if fresh.MII != poisoned.MII || fresh.Recvs != poisoned.Recvs {
		t.Errorf("strict-mode result drifted: MII %+v vs %+v, recvs %d vs %d",
			fresh.MII, poisoned.MII, fresh.Recvs, poisoned.Recvs)
	}
}
