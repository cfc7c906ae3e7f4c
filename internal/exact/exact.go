// Package exact implements an exact solver for the per-level ICA
// subproblem: depth-first branch-and-bound over cluster assignments on
// the packed pg.Flow state.
//
// The solver explores exactly the solution space the SEE beam search
// samples — instructions are assigned in the same priority-list order,
// and each partial state's children are generated by the same
// no-candidates policy (direct communication patterns first, the route
// allocator only at an impasse) — so "optimal" here means optimal over
// the deterministic-routing assignment space the whole reproduction
// works in, and an exact score is a true lower bound for any beam
// result of the same subproblem.
//
// Three prunes keep the tree tractable:
//
//   - branch-and-bound: every Kind-tagged criterion (MII, copies,
//     balance, ports) is monotone non-decreasing under Assign — the
//     mutation journal only ever adds load, copies and port facts — so
//     a partial state's score is already a valid lower bound for every
//     completion, strengthened by the resource floors ceil(total/Σissue)
//     on the MII term and ceil(total/k) on the balance term. Subtrees
//     whose bound cannot beat the incumbent are cut. Custom criteria
//     are assumed monotone as well (all in-repo customs are: they sum
//     positive per-copy charges).
//   - dominance: the 128-bit symmetry-canonical state fingerprint keyed
//     by depth. Two states at the same depth carry the same assigned
//     node set, so an equal fingerprint means an identical state (up to
//     cluster relabeling when the topology is symmetric — the
//     fingerprint canonicalizes labels only then, and on a symmetric
//     topology the cost-to-go is relabeling-invariant), and the twin's
//     subtree is skipped. This trusts the fingerprint the same way the
//     beam's frontier dedup does (~2^-128 per-pair collision odds).
//   - feasibility: a node with no feasible cluster dead-ends the branch
//     and the solver backtracks — where the beam search would fail the
//     whole solve.
//
// Before it assigns a child, the solver reads pg.(*Flow).AssignFloor: a
// read-only lower bound on each objective term of the child plus a test
// that can prove the assignment fails. A child the test rules out would
// have failed Assign, and a child whose floor score already reaches the
// incumbent would have been cut by branch-and-bound (its bound is at
// least its score, which is at least its floor score), so neither is
// assigned. The search visits the same nodes in the same order as one
// that assigns every child.
//
// The search is budgeted: after NodeBudget expansions the solver stops
// and returns its best incumbent unproved (Result.Proved == false), so
// the exact engine degrades into an anytime heuristic on instances it
// cannot finish. Config.Incumbent starts the search from the score of a
// solution the caller already holds — the portfolio engine passes the
// beam's — so only strictly better assignments are explored.
package exact

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/pg"
	"repro/internal/see"
	"repro/internal/trace"
)

// DefaultNodeBudget bounds the number of node expansions when
// Config.NodeBudget is zero. One expansion considers every regular
// cluster (floor, then assign → score → rollback for each cluster the
// floor does not rule out), so the default caps a solve at a few
// seconds of work on paper-sized subproblems.
const DefaultNodeBudget = 1 << 20

// dedupCap bounds the dominance set: beyond it, visited fingerprints
// stop being recorded (existing entries keep pruning), trading some
// re-exploration for bounded memory.
const dedupCap = 1 << 20

// EffectiveBudget normalizes a configured node budget: non-positive
// selects the default. Exported so the memo key and the solver agree on
// the canonical value.
func EffectiveBudget(b int64) int64 {
	if b <= 0 {
		return DefaultNodeBudget
	}
	return b
}

// Config tunes the exact solver. The beam/candidate widths of See are
// ignored; its criteria, router flags and criticality cache are honored
// so the exact engine scores and generates candidates exactly like the
// beam engine.
type Config struct {
	See see.Config
	// NodeBudget caps node expansions (<= 0 selects DefaultNodeBudget).
	// An exhausted budget returns the best incumbent with Proved false.
	NodeBudget int64
	// Incumbent, when set, is the score of a solution the caller already
	// holds. The search prunes against it from the first node and
	// returns a flow only if it finds one that scores strictly below it.
	Incumbent *float64
}

// Result is the solver's outcome.
type Result struct {
	// Flow is the best complete assignment found (a materialized clone;
	// the caller owns it). Nil only when Config.Incumbent was set and
	// nothing in the explored space beats it; Score is then the
	// incumbent.
	Flow  *pg.Flow
	Score float64
	Stats see.Stats
	// Proved reports that the search tree was exhausted: no assignment
	// in the explored space scores below Bound.
	Proved bool
	// Bound is the proved lower bound; equal to Score when Proved.
	// Meaningless when Proved is false.
	Bound float64
	// Expansions is the number of node expansions performed.
	Expansions int64
}

// errStop unwinds the DFS on budget exhaustion; the incumbent found so
// far is still returned.
var errStop = fmt.Errorf("exact: budget exhausted")

// Solve exhaustively assigns every node of ws (in priority order) onto
// the regular clusters of start's topology and returns the best
// complete flow, proved optimal when the budget sufficed. start is not
// modified. Without an incumbent it fails if no complete assignment
// exists in the explored space; it also fails if ctx is cancelled (the
// context is checked every few dozen expansions).
func Solve(ctx context.Context, start *pg.Flow, ws []graph.NodeID, cfg Config) (*Result, error) {
	if err := cfg.See.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scfg := cfg.See.WithDefaults()
	ctx, sp := trace.Start(ctx, "exact.solve")
	defer sp.End()
	order, err := see.PriorityListCached(scfg.Crit, start, ws)
	if err != nil {
		return nil, err
	}
	best := math.Inf(1)
	if cfg.Incumbent != nil {
		best = *cfg.Incumbent
	}
	if len(order) == 0 {
		// Nothing to assign: mirror the beam engine's convention (the
		// untouched start state with score 0) so the portfolio compares
		// like with like.
		if best <= 0 {
			return &Result{Score: best, Proved: true, Bound: best}, nil
		}
		return &Result{Flow: start.Clone(), Score: 0, Proved: true, Bound: 0}, nil
	}
	s := &solver{
		f:         start.Clone(),
		order:     order,
		cfg:       scfg,
		k:         start.T.NumRegular(),
		budget:    EffectiveBudget(cfg.NodeBudget),
		best:      best,
		seen:      make(map[pg.Fingerprint]struct{}, 1024),
		scratch:   make([][]childEval, len(order)),
		floorCuts: true,
	}
	sumIssue := 0
	for c := 0; c < s.k; c++ {
		sumIssue += start.T.Cluster(pg.ClusterID(c)).IssueSlots
	}
	total := start.NumAssigned() + len(order)
	s.miiFloor, s.balFloor = ceilDiv(total, sumIssue), ceilDiv(total, s.k)
	for i := range scfg.Criteria {
		cr := &scfg.Criteria[i]
		switch cr.Kind {
		case see.CritMII:
			s.wMII += cr.Weight
		case see.CritBalance:
			s.wBal += cr.Weight
		case see.CritCustom:
			if s.custom == nil {
				s.custom = make([]float64, len(scfg.Criteria))
			}
		}
		if !(cr.Weight >= 0) {
			// A negative weight makes a smaller term a larger score,
			// so the floor score would not bound the child's score.
			s.floorCuts = false
		}
	}
	defer s.f.Release()
	dfsErr := s.dfs(ctx, 0, terms(s.f))

	s.stats.NodesAssigned = len(order)
	res := &Result{Stats: s.stats, Expansions: s.expansions}
	sp.SetInt("expansions", int64(s.expansions))
	sp.SetInt("dominance_pruned", int64(s.stats.DuplicatesPruned))
	sp.SetInt("floor_skipped", s.floorSkipped)
	sp.SetInt("floor_infeasible", s.floorInfeasible)
	switch {
	case dfsErr == nil:
		res.Proved = true
		sp.SetBool("proved", true)
	case dfsErr == errStop:
		// Budget stop: the incumbent (if any) survives unproved.
	default:
		if s.bestFlow != nil {
			s.bestFlow.Release()
		}
		return nil, dfsErr
	}
	if s.bestFlow == nil && cfg.Incumbent == nil {
		if res.Proved {
			return nil, fmt.Errorf("exact: no feasible assignment for %d instructions", len(order))
		}
		return nil, fmt.Errorf("exact: budget exhausted after %d expansions with no complete assignment", s.expansions)
	}
	// Without a flow of its own the search beat nothing of the caller's:
	// Score stays the incumbent, proved optimal when the tree was
	// exhausted.
	res.Flow, res.Score = s.bestFlow, s.best
	if res.Proved {
		res.Bound = s.best
	}
	return res, nil
}

// childEval is one feasible (cluster, routing-bound) child of a partial
// state: its score, its objective terms (the parent terms of its own
// expansion) and the resulting state's fingerprint.
type childEval struct {
	score float64
	fp    pg.Fingerprint
	terms pg.Terms
	c     int8
	hops  int8
}

type solver struct {
	f     *pg.Flow // the single working flow, mutated through the journal
	order []graph.NodeID
	cfg   see.Config
	k     int

	budget     int64
	expansions int64

	// Resource floors every complete assignment reaches: the MII and
	// balance terms once all instructions are placed.
	miiFloor, balFloor int
	wMII, wBal         float64

	// floorCuts enables cutting children on their floor score; off when
	// some criterion has a negative weight.
	floorCuts bool
	// custom holds each custom criterion's value on the state being
	// expanded (nil without custom criteria): the floor score's stand-in
	// for the child's value, which is at least as large.
	custom []float64

	floorSkipped    int64 // children cut on their floor score
	floorInfeasible int64 // children the floor proved infeasible

	best     float64 // incumbent score: bestFlow's, else Config.Incumbent's
	bestFlow *pg.Flow

	seen map[pg.Fingerprint]struct{}

	scratch [][]childEval // per-depth child buffers, reused across siblings
	stats   see.Stats
}

// dfs expands the node at depth on the working flow, whose objective
// terms are parent. The journal makes each branch a checkpoint → assign
// → recurse → rollback cycle on one flow; only incumbents are ever
// materialized.
func (s *solver) dfs(ctx context.Context, depth int, parent pg.Terms) error {
	if depth == len(s.order) {
		sc := see.ScoreFlow(s.f, s.cfg.Criteria)
		if sc < s.best {
			s.best = sc
			if s.bestFlow != nil {
				s.bestFlow.Release()
			}
			s.bestFlow = s.f.Clone()
		}
		return nil
	}
	// The budget is tested before the counter moves, so a stopped solve
	// reports only the expansions that ran.
	if s.expansions >= s.budget {
		return errStop
	}
	s.expansions++
	if s.expansions&63 == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}

	children := s.evalChildren(depth, parent)
	if len(children) == 0 {
		return nil // dead end: backtrack
	}
	n := s.order[depth]
	for i := range children {
		ch := &children[i]
		if ch.score+s.boundDelta(ch.terms) >= s.best {
			// Children are score-sorted and bound >= score, but a child's
			// bound can exceed a later child's (the floors differ), so
			// keep scanning instead of breaking.
			continue
		}
		key := ch.fp.Absorb(uint64(depth + 1))
		if _, dup := s.seen[key]; dup {
			s.stats.DuplicatesPruned++
			continue
		}
		if len(s.seen) < dedupCap {
			s.seen[key] = struct{}{}
		}
		mark := s.f.Checkpoint()
		s.f.SetMaxHops(int(ch.hops))
		err := s.f.Assign(n, pg.ClusterID(ch.c))
		s.f.SetMaxHops(0)
		if err != nil {
			// Cannot happen: the speculative evaluation of this exact
			// (state, cluster, hops) succeeded and Assign is deterministic.
			s.f.Rollback(mark)
			continue
		}
		rerr := s.dfs(ctx, depth+1, ch.terms)
		s.f.Rollback(mark)
		if rerr != nil {
			return rerr
		}
	}
	return nil
}

// evalChildren generates the children of the current state for the node
// at depth, mirroring the beam engine's candidate policy: every regular
// cluster under the direct-pattern bound (maxHops 1) first; if none is
// feasible, the route allocator (unlimited hops) — the no-candidates
// action. Children come back sorted by (score, fingerprint), the beam's
// canonical order, so the first DFS dive follows the greedy beam-1 path
// and seeds a good incumbent early. Children cut on their floor score
// are left out, but they still count as feasible direct children for
// the router rule.
func (s *solver) evalChildren(depth int, parent pg.Terms) []childEval {
	buf := s.scratch[depth][:0]
	for i := range s.custom {
		if cr := &s.cfg.Criteria[i]; cr.Kind == see.CritCustom {
			s.custom[i] = cr.Eval(s.f)
		}
	}
	buf, cut := s.evalClusters(depth, 1, parent, buf)
	if len(buf) == 0 && !s.directFeasible(depth, cut) {
		s.stats.RouterInvocations++
		buf, _ = s.evalClusters(depth, 0, parent, buf)
	}
	// Insertion sort by (score, fp): k is small (≤ 64, typically ≤ 8).
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && lessChild(buf[j], buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	s.scratch[depth] = buf
	return buf
}

func lessChild(a, b childEval) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	if a.fp.Hi != b.fp.Hi {
		return a.fp.Hi < b.fp.Hi
	}
	return a.fp.Lo < b.fp.Lo
}

// evalClusters speculatively assigns the node at depth onto every
// regular cluster under the given routing bound, collecting feasible
// children with their scores and terms. A cluster is not assigned when
// its floor proves the assignment infeasible or its floor score already
// reaches the incumbent; the second kind is returned in cut, since it
// may still be feasible.
func (s *solver) evalClusters(depth, maxHops int, parent pg.Terms, buf []childEval) ([]childEval, uint64) {
	n := s.order[depth]
	f := s.f
	var cut uint64
	mark := f.Checkpoint()
	f.SetMaxHops(maxHops)
	for c := 0; c < s.k; c++ {
		s.stats.CandidatesTried++
		floor, ok := f.AssignFloor(n, pg.ClusterID(c), parent)
		if !ok {
			s.floorInfeasible++
			continue
		}
		if s.floorCuts && s.weigh(floor, false) >= s.best {
			s.floorSkipped++
			cut |= 1 << uint(c)
			continue
		}
		if err := f.Assign(n, pg.ClusterID(c)); err == nil {
			s.stats.StatesExplored++
			t := terms(f)
			buf = append(buf, childEval{
				score: s.weigh(t, true),
				fp:    f.Fingerprint(),
				terms: t,
				c:     int8(c),
				hops:  int8(maxHops),
			})
		}
		// A failed Assign may have committed partial routes; rollback
		// restores the checkpointed state either way.
		f.Rollback(mark)
	}
	f.SetMaxHops(0)
	return buf, cut
}

// directFeasible reports whether the node at depth can be assigned under
// the direct-pattern bound to some cluster of mask: the router rule's
// question about the children evalClusters cut on their floor score.
func (s *solver) directFeasible(depth int, mask uint64) bool {
	n := s.order[depth]
	f := s.f
	mark := f.Checkpoint()
	f.SetMaxHops(1)
	defer f.SetMaxHops(0)
	for m := mask; m != 0; m &= m - 1 {
		err := f.Assign(n, pg.ClusterID(bits.TrailingZeros64(m)))
		f.Rollback(mark)
		if err == nil {
			s.stats.StatesExplored++
			return true
		}
	}
	return false
}

// weigh sums the criteria over the standard terms t in criteria order,
// the same float operations see.ScoreFlow performs, so a child's score
// is bit-identical to the beam engine's. Custom criteria are evaluated
// on the working flow when child is set, and read from s.custom (their
// value on the state being expanded) otherwise: with every term at most
// its child value and the weights non-negative, the result is then a
// lower bound on the child's score.
func (s *solver) weigh(t pg.Terms, child bool) float64 {
	sc := 0.0
	for i := range s.cfg.Criteria {
		cr := &s.cfg.Criteria[i]
		switch cr.Kind {
		case see.CritCustom:
			if child {
				sc += cr.Weight * cr.Eval(s.f)
			} else {
				sc += cr.Weight * s.custom[i]
			}
		case see.CritMII:
			sc += cr.Weight * float64(t.MII)
		case see.CritCopies:
			sc += cr.Weight * float64(t.Copies)
		case see.CritBalance:
			sc += cr.Weight * float64(t.Balance)
		case see.CritPorts:
			sc += cr.Weight * float64(t.Ports)
		}
	}
	return sc
}

// terms reads f's four standard objective terms in one pass.
func terms(f *pg.Flow) pg.Terms {
	mii, copies, balance, ports := f.ObjectiveTerms()
	return pg.Terms{MII: int32(mii), Copies: int32(copies), Balance: int32(balance), Ports: int32(ports)}
}

// boundDelta returns the guaranteed minimum score increase of any
// completion from a state with objective terms t: the MII and balance
// terms must at least reach their resource floors. Copies, ports and
// (monotone) custom terms are already fully counted in the state's
// score.
//
// Floats: the delta's products are exact (integer-valued weights times
// small integers), so the bound is admissible up to one rounding in the
// final addition — the standard branch-and-bound stance of comparing
// float scores directly.
func (s *solver) boundDelta(t pg.Terms) float64 {
	d := 0.0
	if mii := int(t.MII); s.miiFloor > mii {
		d += s.wMII * float64(s.miiFloor-mii)
	}
	if bal := int(t.Balance); s.balFloor > bal {
		d += s.wBal * float64(s.balFloor-bal)
	}
	return d
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
