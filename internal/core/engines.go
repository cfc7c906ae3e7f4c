package core

import (
	"context"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/pg"
	"repro/internal/see"
)

// The engine abstraction: the HCA descent solves every per-level ICA
// subproblem through a pluggable Engine instead of a hard-wired beam
// search. The registry holds three:
//
//	see        the SEE beam search (§3), the paper's heuristic
//	exact      branch-and-bound over the same assignment space
//	           (internal/exact), proving optimality when its node
//	           budget suffices
//	portfolio  both raced per subproblem: first valid finisher wins,
//	           the loser is cancelled (beam: at chunk granularity via
//	           the par machinery; exact: at a node-count grace), and
//	           the beam's score is injected into the exact solver's
//	           pruning bound the moment the beam leg finishes
//
// Engine.Solve has the beam engine's contract: assign every node of ws
// onto start's topology, return the best complete flow with its
// objective score. Pass-through routing of ILI values stays in the
// core attempt layer above (runAttempt), identically for every engine.

// Engine discriminator values for AttemptKey.Engine. The memo must
// never replay one engine's result into another engine's attempt —
// most acutely, a relaxed exact result into a strict-mode beam solve —
// so the key carries the engine identity.
const (
	engineSee uint8 = iota
	engineExact
	enginePortfolio

	numEngines // count of discriminator values, for per-engine counters
)

// engineTag maps a discriminator back onto its registry name, for
// observability surfaces (per-engine memo stats).
func engineTag(e uint8) string {
	switch e {
	case engineExact:
		return "exact"
	case enginePortfolio:
		return "portfolio"
	default:
		return "see"
	}
}

// EngineResult is one engine's solution for one subproblem.
type EngineResult struct {
	// Flow is the committed solution (caller-owned). The portfolio race
	// can leave it nil when the exact leg proved the beam's own result
	// unbeatable and the beam leg errored away — callers treat nil as
	// "no flow produced".
	Flow  *pg.Flow
	Score float64
	Stats see.Stats
	// Proved reports a completed exact search: Bound is a true lower
	// bound over the subproblem's assignment space, and Score == Bound
	// when Flow is the engine's own optimum.
	Proved bool
	Bound  float64
	// Volatile marks a result that depended on cross-engine racing and
	// must not enter content-addressed caches.
	Volatile bool
	// Winner names the engine that produced Flow; for the portfolio it
	// is the winning leg ("see" or "exact").
	Winner string
}

// Engine solves one per-level ICA subproblem. Implementations must be
// safe for concurrent use: the descent solves sibling subproblems in
// parallel through one Engine value.
type Engine interface {
	Name() string
	Solve(ctx context.Context, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (*EngineResult, error)
}

// EngineNames lists the registered engines in stable order.
func EngineNames() []string { return []string{"see", "exact", "portfolio"} }

// EngineByName resolves an engine name ("" selects the beam default)
// with default tuning; unknown names return a typed *see.OptionError,
// which the compilation daemon maps to HTTP 400.
func EngineByName(name string) (Engine, error) { return engineFor(name, 0) }

// engineFor resolves an engine name with an explicit exact-node budget
// (<= 0 selects exact.DefaultNodeBudget).
func engineFor(name string, exactBudget int64) (Engine, error) {
	switch name {
	case "", "see":
		return beamEngine{}, nil
	case "exact":
		return exactEngine{budget: exactBudget}, nil
	case "portfolio":
		return &portfolioEngine{budget: exactBudget}, nil
	}
	return nil, &see.OptionError{
		Field: "engine", Str: name,
		Reason: "unknown engine (have " + strings.Join(EngineNames(), ", ") + ")",
	}
}

// beamEngine wraps the SEE beam search.
type beamEngine struct{}

func (beamEngine) Name() string { return "see" }

func (beamEngine) Solve(ctx context.Context, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (*EngineResult, error) {
	sol, err := see.Solve(ctx, start, ws, cfg)
	if err != nil {
		return nil, err
	}
	return &EngineResult{Flow: sol.Flow, Score: sol.Score, Stats: sol.Stats, Winner: "see"}, nil
}

// exactEngine wraps the branch-and-bound solver. ctrl is non-nil only
// on a portfolio leg, where the race couples the two engines.
type exactEngine struct {
	budget int64
	ctrl   *exact.Control
}

func (exactEngine) Name() string { return "exact" }

func (e exactEngine) Solve(ctx context.Context, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (*EngineResult, error) {
	res, err := exact.Solve(ctx, start, ws, exact.Config{See: cfg, NodeBudget: e.budget, Control: e.ctrl})
	if err != nil {
		return nil, err
	}
	return &EngineResult{
		Flow: res.Flow, Score: res.Score, Stats: res.Stats,
		Proved: res.Proved, Bound: res.Bound, Volatile: res.Volatile,
		Winner: "exact",
	}, nil
}

// portfolioGrace is the node-count grace the exact leg receives once
// the beam leg finishes when the portfolio runs as a raw Engine on a
// single subproblem: enough to finish proving small trees (making
// small-instance portfolio runs deterministic regardless of goroutine
// scheduling). Inside an HCA run the grace is metered per race by the
// race-tax meter below instead, with this as the ceiling.
const portfolioGrace = 4096

// The race-tax meter. A grace-stopped exact leg is pure overhead — the
// beam result was already in hand — and one full-grace leg on a
// branching-factor-k subproblem costs grace·k child evaluations,
// comparable to an entire beam solve of the same subproblem. A few
// stubborn never-proving legs per run would therefore multiply the
// portfolio's end-to-end wall time over the pure beam engine. The meter
// bounds that structurally: across one HCA run the exact legs may spend
// at most beamEvals/portfolioTaxDen + portfolioTaxAllowance child
// evaluations (both sides measured in the same units — one speculative
// assign→score→rollback), so the portfolio's wall time is pinned to a
// small fixed tax over the beam engine's regardless of kernel and of
// how many subproblems refuse to prove. Each race's grace is the
// meter's remaining affordance divided by k, so a single race can never
// overshoot the budget by more than one expansion's worth of children.
const (
	// portfolioTaxDen caps cumulative exact-leg work at 1/16 of
	// cumulative beam-leg work (child evaluations, run-wide).
	portfolioTaxDen = 16
	// portfolioTaxAllowance seeds the meter so the first subproblems of
	// a run — when no beam work has accrued yet — still race.
	portfolioTaxAllowance = 2048
	// portfolioMinGrace is the smallest grace worth spawning the exact
	// leg for: below it the DFS cannot even complete one greedy dive on
	// the subproblem sizes the race admits, let alone improve on the
	// beam. Out of meter, the attempt degenerates to the beam leg alone.
	portfolioMinGrace = 128
)

// portfolioExactMaxBits bounds the subproblems the exact leg is raced
// on by their raw assignment-space size: the race is admitted only when
// n·log₂(k) — the space k^n measured in bits — is small enough that a
// pruned search plausibly proves an optimum within the grace. A plain
// node-count cutoff is wrong here because the branching factor matters
// as much as the depth (and each B&B expansion evaluates k children, so
// a stubborn leg's grace overhang also scales with k): measured on
// h264deblocking (k=8), racing 12–16-node subproblems that never prove
// multiplied the end-to-end portfolio wall time several-fold over the
// pure beam engine for nothing. Past the bound the portfolio
// degenerates to the beam leg alone; within it (where exact proofs
// actually land, and where the gap-to-optimal tests operate — 16 nodes
// on k=4 sits exactly at the bound) the race runs.
const portfolioExactMaxBits = 32

// raceAdmitted reports whether the exact leg stands a realistic chance
// on this subproblem (see portfolioExactMaxBits).
func raceAdmitted(start *pg.Flow, ws []graph.NodeID) bool {
	k := start.T.NumRegular()
	if k < 2 {
		return true
	}
	return float64(len(ws))*math.Log2(float64(k)) <= portfolioExactMaxBits
}

// portfolioEngine races the beam and exact engines per subproblem. One
// instance spans one HCA run (both descent passes and every ladder
// rung), carrying the run's race-tax meter; the zero meter is ready to
// use.
type portfolioEngine struct {
	budget int64

	// Race-tax meter (see the constants above): cumulative child
	// evaluations spent by fresh beam solves and by exact race legs.
	// Updated by concurrent sibling subproblems; the admission read is
	// deliberately racy — the worst case is one extra metered race.
	beamEvals  atomic.Int64
	exactEvals atomic.Int64
}

func (*portfolioEngine) Name() string { return "portfolio" }

// raceGrace returns the exact-leg grace (in node expansions) the meter
// currently affords on a branching-factor-k subproblem, 0 when the
// race should be skipped. The returned grace converts back to at most
// the meter's remaining child evaluations, so overhang cannot compound
// past the tax no matter how many legs never prove.
func (p *portfolioEngine) raceGrace(k int) int64 {
	if k < 1 {
		k = 1
	}
	rem := portfolioTaxAllowance + p.beamEvals.Load()/portfolioTaxDen - p.exactEvals.Load()
	g := rem / int64(k)
	if g > portfolioGrace {
		g = portfolioGrace
	}
	if g < portfolioMinGrace {
		return 0
	}
	return g
}

// Solve races the two engines without a memo (the raw Engine contract;
// the HCA descent goes through raceAttempt instead, which shares the
// subproblem memo with the single-engine paths).
func (p *portfolioEngine) Solve(ctx context.Context, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (*EngineResult, error) {
	if !raceAdmitted(start, ws) {
		// Too big for the exact leg to matter: the beam leg runs alone,
		// and the result is as deterministic as the beam engine's own.
		out := engineOutcome(ctx, beamEngine{}, start, ws, cfg)
		if out.err != nil {
			return nil, out.err
		}
		return &EngineResult{Flow: out.flow, Score: out.score, Stats: out.stats, Winner: "see"}, nil
	}
	ctrl := exact.NewControl()
	win := raceLegs(ctx, ctrl, portfolioGrace,
		func(c context.Context) legResult {
			return legResult{out: engineOutcome(c, beamEngine{}, start, ws, cfg)}
		},
		func(c context.Context) legResult {
			return legResult{out: engineOutcome(c, exactEngine{budget: p.budget, ctrl: ctrl}, start, ws, cfg)}
		})
	if win.out.err != nil {
		return nil, win.out.err
	}
	return &EngineResult{
		Flow: win.out.flow, Score: win.out.score, Stats: win.out.stats,
		Proved: win.out.proved, Bound: win.out.bound,
		Volatile: true, Winner: win.out.engine,
	}, nil
}

// raceAttempt is the memo-aware portfolio race the HCA descent uses:
// each leg runs a full retry-ladder attempt (engine solve plus
// pass-through routing) behind the shared subproblem memo under its own
// engine-discriminated key, so a portfolio run reuses — and, for the
// deterministic legs, feeds — the same cache entries as pure see and
// pure exact runs of the same subproblem.
func (p *portfolioEngine) raceAttempt(ctx context.Context, memo SubproblemMemo, key AttemptKey, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (attemptOutcome, *MemoEntry) {
	kSee, kExact := key, key
	kSee.Engine, kSee.Budget = engineSee, 0
	kExact.Engine, kExact.Budget = engineExact, exact.EffectiveBudget(p.budget)
	k := start.T.NumRegular()
	var grace int64
	if raceAdmitted(start, ws) {
		grace = p.raceGrace(k)
	}
	if grace == 0 {
		// Beyond the exact leg's reach (portfolioExactMaxBits) or out of
		// race-tax meter: the beam attempt runs alone under its own memo
		// key, non-volatile. Fresh beam work still feeds the meter so
		// later subproblems can afford to race again.
		out, e, fresh := soloAttempt(ctx, memo, kSee, beamEngine{}, start, ws, cfg)
		if fresh && out.err == nil {
			p.beamEvals.Add(int64(out.stats.CandidatesTried))
		}
		return out, e
	}
	ctrl := exact.NewControl()
	var seeEvals int64 // written by the inline beam leg, read after the race
	win := raceLegs(ctx, ctrl, grace,
		func(c context.Context) legResult {
			out, e, fresh := soloAttempt(c, memo, kSee, beamEngine{}, start, ws, cfg)
			if fresh && out.err == nil {
				seeEvals = int64(out.stats.CandidatesTried)
			}
			return legResult{out: out, entry: e}
		},
		func(c context.Context) legResult {
			out, e, _ := soloAttempt(c, memo, kExact, exactEngine{budget: p.budget, ctrl: ctrl}, start, ws, cfg)
			return legResult{out: out, entry: e}
		})
	// Charge the meter: the beam leg's fresh work grows the affordance,
	// the exact leg's expansions (k child evaluations each, whether it
	// proved, improved, or burned its grace) consume it. A memoized
	// exact proof replays with zero expansions and is rightly free.
	p.beamEvals.Add(seeEvals)
	p.exactEvals.Add(ctrl.Expansions() * int64(k))
	return win.out, win.entry
}

// legResult couples one leg's outcome with its memo entry (nil on the
// raw engine path and on memo misses).
type legResult struct {
	out   attemptOutcome
	entry *MemoEntry
}

// engineOutcome adapts one raw engine solve into an attemptOutcome.
func engineOutcome(ctx context.Context, eng Engine, start *pg.Flow, ws []graph.NodeID, cfg see.Config) attemptOutcome {
	res, err := eng.Solve(ctx, start, ws, cfg)
	if err != nil {
		return attemptOutcome{err: err, engine: eng.Name()}
	}
	return attemptOutcome{
		flow: res.Flow, stats: res.Stats, score: res.Score,
		proved: res.Proved, bound: res.Bound, volatile: res.Volatile,
		engine: res.Winner,
	}
}

// raceLegs runs the beam and exact legs concurrently and returns the
// winner under the portfolio's selection rule:
//
//   - the exact leg finishing first with a proved optimum wins outright;
//     the beam leg is cancelled (its chunked expansion stops at chunk
//     granularity) and drained;
//   - the beam leg finishing first publishes its score as the exact
//     leg's incumbent and grants it the given node-count grace
//     (StopAfter), so a nearly-done proof still lands; then the better
//     result wins,
//     ties to the beam (keeping portfolio output aligned with the
//     default engine when exact brings no improvement);
//   - a leg that errors loses to any leg that succeeds; both failing
//     surfaces the beam's error.
//
// Both legs are always drained before returning — no goroutine and no
// flow outlives the race — and the loser's flow is released to the pg
// slabs.
//
// The beam leg runs inline on the calling goroutine and only the exact
// leg is spawned: the beam is the cheap, near-always-first finisher,
// and on a single-P runtime spawning both would let the exact leg
// monopolize the processor for a full preemption quantum before the
// beam leg was ever scheduled — turning the race's overhead from "one
// grace budget" into "most of an exact solve" per attempt. The exact
// leg still wins outright when it proves its optimum first: it cancels
// the beam leg's context, which stops the chunked expansion at chunk
// granularity.
func raceLegs(ctx context.Context, ctrl *exact.Control, grace int64, runSee, runExact func(context.Context) legResult) legResult {
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	ectx, ecancel := context.WithCancel(ctx)
	defer ecancel()
	ch := make(chan legResult, 1)
	go func() {
		leg := runExact(ectx)
		if leg.out.err == nil && leg.out.proved && leg.out.flow != nil {
			// Exact proved its optimum before the beam finished: nothing
			// the beam returns can score lower. Stop it.
			scancel()
		}
		ch <- leg
	}()
	seeLeg := runSee(sctx)
	if seeLeg.out.err == nil {
		ctrl.PublishIncumbent(seeLeg.out.score)
	}
	ctrl.StopAfter(grace)
	exLeg := <-ch
	return pickLeg(seeLeg, exLeg)
}

// pickLeg merges the two finished legs into the portfolio's outcome.
func pickLeg(seeLeg, exLeg legResult) legResult {
	if seeLeg.out.err != nil && exLeg.out.err != nil {
		discardLeg(&exLeg)
		return seeLeg // both failed: surface the canonical engine's error
	}
	if seeLeg.out.err != nil {
		if exLeg.out.flow == nil {
			// Exact only certified an incumbent the beam never delivered.
			discardLeg(&exLeg)
			return seeLeg
		}
		discardLeg(&seeLeg)
		exLeg.out.volatile = true
		return exLeg
	}
	if exLeg.out.err != nil {
		discardLeg(&exLeg)
		seeLeg.out.volatile = true
		seeLeg.out.stats.Add(exLeg.out.stats)
		return seeLeg
	}
	// Both legs succeeded.
	if exLeg.out.flow == nil {
		// Exact proved the beam's incumbent unbeatable: the beam's flow
		// is optimal; carry the proof onto it.
		out := seeLeg.out
		out.proved, out.bound = exLeg.out.proved, exLeg.out.bound
		out.stats.Add(exLeg.out.stats)
		out.volatile = true
		return legResult{out: out, entry: seeLeg.entry}
	}
	if exLeg.out.score < seeLeg.out.score {
		discardLeg(&seeLeg)
		exLeg.out.stats.Add(seeLeg.out.stats)
		exLeg.out.volatile = true
		return exLeg
	}
	out := seeLeg.out
	if exLeg.out.proved && exLeg.out.score == seeLeg.out.score {
		// Tie with a proved exact optimum: the beam's flow achieves it.
		out.proved, out.bound = true, exLeg.out.bound
	}
	out.stats.Add(exLeg.out.stats)
	out.volatile = true
	discardLeg(&exLeg)
	return legResult{out: out, entry: seeLeg.entry}
}

// discardLeg releases a losing leg's flow back to the pg slabs, unless
// the leg's memo entry holds that very flow: a fresh leader result is
// the entry's flow, which later hits clone.
func discardLeg(l *legResult) {
	if l.out.flow != nil && (l.entry == nil || l.entry.flow != l.out.flow) {
		l.out.flow.Release()
	}
	l.out.flow = nil
}
