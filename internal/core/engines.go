package core

import (
	"context"
	"math"
	"strings"

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
//	portfolio  the beam search, then on small subproblems the exact
//	           engine started from the beam's score under a node budget
//	           sized from the beam's own work; a strictly better exact
//	           flow wins
//
// Engine.Solve has the beam engine's contract: assign every node of ws
// onto start's topology, return the best complete flow with its
// objective score. Pass-through routing of ILI values stays in the
// core attempt layer above (runAttempt), identically for every engine.

// EngineResult is one engine's solution for one subproblem.
type EngineResult struct {
	// Flow is the committed solution (caller-owned).
	Flow  *pg.Flow
	Score float64
	Stats see.Stats
	// Proved reports a completed exact search: Bound is a true lower
	// bound over the subproblem's assignment space, and Score == Bound
	// when Flow is the engine's own optimum.
	Proved bool
	Bound  float64
	// Winner names the engine that produced Flow; for the portfolio it
	// is the step whose flow was kept ("see" or "exact"), and for a
	// min-cut partition seed that beat the ladder it is "seed".
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
		return portfolioEngine{budget: exactBudget}, nil
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

// exactEngine wraps the branch-and-bound solver.
type exactEngine struct{ budget int64 }

func (exactEngine) Name() string { return "exact" }

func (e exactEngine) Solve(ctx context.Context, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (*EngineResult, error) {
	res, err := exact.Solve(ctx, start, ws, exact.Config{See: cfg, NodeBudget: e.budget})
	if err != nil {
		return nil, err
	}
	return &EngineResult{
		Flow: res.Flow, Score: res.Score, Stats: res.Stats,
		Proved: res.Proved, Bound: res.Bound, Winner: "exact",
	}, nil
}

// The portfolio's exact step gets a node budget sized from the beam
// attempt's own work: the beam's candidate evaluations over k. One
// expansion evaluates up to k children, so above the floor the exact
// step costs about one more beam solve. The budget is clamped to
// [portfolioMinGrace, portfolioGrace] and to the configured exact
// budget.
const (
	// portfolioMinGrace is the floor, and the budget after a beam dead
	// end: below it the DFS cannot even complete one greedy dive on the
	// subproblem sizes the exact step is admitted to.
	portfolioMinGrace = 128
	// portfolioGrace is the ceiling, enough to finish proving small
	// trees.
	portfolioGrace = 4096
)

// portfolioExactMaxBits bounds the subproblems the exact step runs on by
// their raw assignment-space size: it is admitted only when n·log₂(k) —
// the space k^n measured in bits — is small enough that a pruned search
// plausibly proves an optimum within the budget. A plain node-count
// cutoff is wrong here because the branching factor matters as much as
// the depth: measured on h264deblocking (k=8), running exact on
// 12–16-node subproblems that never prove multiplied the end-to-end
// portfolio wall time several-fold over the pure beam engine for
// nothing. Past the bound the portfolio is the beam alone; within it
// (where exact proofs actually land, and where the gap-to-optimal tests
// operate — 16 nodes on k=4 sits exactly at the bound) exact runs.
const portfolioExactMaxBits = 32

// exactAdmitted reports whether the exact step stands a realistic chance
// on this subproblem (see portfolioExactMaxBits).
func exactAdmitted(start *pg.Flow, ws []graph.NodeID) bool {
	k := start.T.NumRegular()
	if k < 2 {
		return true
	}
	return float64(len(ws))*math.Log2(float64(k)) <= portfolioExactMaxBits
}

// portfolioEngine runs the beam search and then, on subproblems
// exactAdmitted lets through, the exact engine started from the beam's
// score. Both steps run in sequence on the calling goroutine, so the
// result depends on the subproblem alone and is memoized like any other
// engine's.
type portfolioEngine struct{ budget int64 }

func (portfolioEngine) Name() string { return "portfolio" }

// Solve keeps the beam's flow unless exact finds a strictly better one;
// a kept beam flow carries exact's proof when exact exhausted its tree.
// On a beam dead end exact still runs, at the floor budget, and its
// flow wins if it finds one; otherwise the beam's error surfaces.
func (p portfolioEngine) Solve(ctx context.Context, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (*EngineResult, error) {
	beam, berr := beamEngine{}.Solve(ctx, start, ws, cfg)
	if (berr != nil && ctx.Err() != nil) || !exactAdmitted(start, ws) {
		return beam, berr
	}
	budget := int64(portfolioMinGrace)
	xcfg := exact.Config{See: cfg}
	if berr == nil {
		perNode := int64(beam.Stats.CandidatesTried / start.T.NumRegular())
		budget = min(max(perNode, portfolioMinGrace), portfolioGrace)
		xcfg.Incumbent = &beam.Score
	}
	xcfg.NodeBudget = min(budget, exact.EffectiveBudget(p.budget))
	ex, xerr := exact.Solve(ctx, start, ws, xcfg)
	switch {
	case xerr != nil && berr != nil:
		return nil, berr // both failed: surface the beam's error
	case xerr != nil:
		beam.Flow.Release()
		return nil, xerr // cancelled during the exact step
	case ex.Flow == nil:
		beam.Stats.Add(ex.Stats)
		beam.Proved, beam.Bound = ex.Proved, ex.Bound
		return beam, nil
	}
	if beam != nil {
		beam.Flow.Release()
		ex.Stats.Add(beam.Stats)
	}
	return &EngineResult{
		Flow: ex.Flow, Score: ex.Score, Stats: ex.Stats,
		Proved: ex.Proved, Bound: ex.Bound, Winner: "exact",
	}, nil
}
