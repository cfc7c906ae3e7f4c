package see

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pg"
)

// SolveReference is the pre-delta beam search, kept verbatim as the
// equivalence oracle for the incremental engine: it clones a full Flow
// for every (frontier state × candidate cluster) pair and rescores each
// candidate from scratch. Solve must return byte-identical
// assignments, scores and Stats (the property the see equivalence tests
// and the randomized-DDG suite enforce); the delta engine earns its keep
// purely on speed. Do not use it outside tests and benchmarks.
func SolveReference(ctx context.Context, start *pg.Flow, ws []graph.NodeID, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	order, err := PriorityListCached(cfg.Crit, start, ws)
	if err != nil {
		return nil, err
	}
	stats := Stats{}
	frontier := []scored{{flow: start.Clone(), score: 0}}
	for _, n := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next []scored
		for _, st := range frontier {
			cands := expandReference(st.flow, n, cfg, &stats)
			next = append(next, cands...)
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("see: no candidates for instruction %d (%s %s) on %q",
				n, start.D.Node(n).Op, start.D.Node(n).Name, start.T.Name)
		}
		// Node filter: prune the frontier (Figure 5).
		sortScored(next)
		if len(next) > cfg.BeamWidth {
			next = next[:cfg.BeamWidth]
		}
		frontier = next
		stats.NodesAssigned++
	}
	best := frontier[0]
	return &Result{Flow: best.flow, Score: best.score, Stats: stats}, nil
}

// expandReference generates the filtered candidate assignments of node n
// from flow f the clone-per-candidate way: first with direct patterns
// only, then (no-candidates action) with the route allocator enabled.
func expandReference(f *pg.Flow, n graph.NodeID, cfg Config, stats *Stats) []scored {
	try := func(maxHops int) []scored {
		// Candidate evaluations are independent: clone, assign and score
		// in parallel, each worker writing only its own slot.
		k := f.T.NumRegular()
		slots := make([]*scored, k)
		par.ForEach(k, func(c int) {
			base := f.Clone()
			base.SetMaxHops(maxHops)
			if err := base.Assign(n, pg.ClusterID(c)); err != nil {
				return
			}
			base.SetMaxHops(0)
			slots[c] = &scored{flow: base, score: score(base, cfg.Criteria)}
		})
		stats.CandidatesTried += k
		var cands []scored
		for _, s := range slots {
			if s != nil {
				stats.StatesExplored++
				cands = append(cands, *s)
			}
		}
		// Candidate filter.
		sortScored(cands)
		if len(cands) > cfg.CandWidth {
			cands = cands[:cfg.CandWidth]
		}
		return cands
	}

	if cands := try(1); len(cands) > 0 {
		return cands
	}
	stats.RouterInvocations++
	return try(0)
}
