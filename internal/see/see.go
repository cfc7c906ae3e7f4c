// Package see implements the Space Exploration Engine of §3: a
// local-scope beam search that assigns the instructions of a working set
// onto the clusters of one Pattern Graph level.
//
// The engine mirrors the software interfaces of Figure 4:
//
//   - the *priority list* orders the unassigned DDG nodes (most critical
//     first: smallest slack, then earliest depth);
//   - *isAssignable* is the feasibility check: a candidate cluster must be
//     regular and every placed operand must be routable to it within the
//     reconfiguration constraints — in the first attempt only *direct*
//     communication patterns are allowed;
//   - the *objective function* scores each candidate flow with a weighted
//     sum of cost criteria (projected MII, copy count, load balance, port
//     consumption);
//   - the *candidate filter* keeps the best CandWidth candidates per node;
//   - the *node filter* prunes the exploration frontier to BeamWidth
//     partial solutions (Figure 5);
//   - the *no-candidates action* invokes the route allocator: assignment
//     is retried with multi-hop routing through intermediate clusters
//     (Figure 6b).
//
// Since the delta rewrite the engine is incremental: every candidate
// cluster of a beam state is evaluated on that state's own flow via
// Checkpoint → Assign → score → Rollback (the pg mutation journal), and
// only the survivors that enter the frontier are ever materialized. The pre-rewrite clone-per-candidate engine is retained in
// reference.go as SolveReference, the equivalence oracle: both engines
// return byte-identical assignments, scores and Stats.
package see

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/pg"
	"repro/internal/trace"
)

// CritKind identifies a built-in objective term that the engine computes
// through the fused pg.Flow.ObjectiveTerms pass instead of a per-term
// Eval closure. CritCustom (the zero value) means Eval is called.
type CritKind uint8

const (
	// CritCustom calls the criterion's Eval closure.
	CritCustom CritKind = iota
	// CritMII is the projected initiation interval (Flow.EstimateMII).
	CritMII
	// CritCopies is the total copy count (Flow.TotalCopies).
	CritCopies
	// CritBalance is the maximum regular-cluster load.
	CritBalance
	// CritPorts is the summed real in-neighbor count over regular
	// clusters (input MUX consumption).
	CritPorts
)

// Criterion is one term of the objective function. Lower is better.
type Criterion struct {
	Name   string
	Weight float64
	// Kind selects a built-in term served by one fused ObjectiveTerms
	// sweep per candidate. The engine scores every (state × cluster)
	// candidate of the beam, so a Kind-tagged cost model pays one pass
	// over the packed counter blocks instead of one closure (and its
	// own pass) per term. CritCustom falls back to Eval.
	Kind CritKind
	// Eval scores the flow that results from a candidate assignment.
	// Required for CritCustom; ignored (and may be nil) for built-in
	// kinds.
	Eval func(f *pg.Flow) float64
}

// DefaultCriteria returns the cost model used throughout the paper
// reproduction: the projected initiation interval dominates (§4.2 makes
// the loop II the main cost factor), with copy count, load imbalance and
// input-port consumption as tie-breakers. Every term is Kind-tagged, so
// the engine scores candidates with a single fused pass.
func DefaultCriteria() []Criterion {
	return []Criterion{
		{Name: "mii", Weight: 1000, Kind: CritMII},
		{Name: "copies", Weight: 10, Kind: CritCopies},
		{Name: "balance", Weight: 1, Kind: CritBalance},
		{Name: "ports", Weight: 0.1, Kind: CritPorts},
	}
}

// Config tunes the engine.
type Config struct {
	BeamWidth int // node filter width (default 8)
	CandWidth int // candidate filter width (default 4)
	// Criteria is the objective function; DefaultCriteria() if nil.
	Criteria []Criterion
	// DisableRouter turns off the no-candidates action: any node with no
	// direct-pattern candidate fails the whole search (ablation E5).
	DisableRouter bool
	// RouterOnly skips the direct-pattern first phase and always allows
	// multi-hop routing (ablation: measures the cost of not preferring
	// direct patterns).
	RouterOnly bool
	// DisableDedup turns off frontier deduplication (on by default):
	// candidates whose pg.Flow fingerprint — canonical up to cluster
	// symmetry — already entered the expansion are merged into their
	// first occurrence, in deterministic frontier order, and carry a
	// multiplicity instead of a beam slot of their own. Each equivalence
	// class is evaluated and materialized once, but keeps consuming its
	// twins' candidate- and node-filter slots, so the set of classes
	// surviving each beam step matches the reference engine's — dedup
	// removes redundant work, not coverage, and the final objective cost
	// stays ≤ the reference cost (the relaxed equivalence contract).
	// Disable it to reproduce the reference engine byte-identically (the
	// strict mode).
	DisableDedup bool
	// Crit optionally supplies the precomputed criticality arrays
	// PriorityList consumes. The HCA driver computes them once per DDG
	// (AnalyzeDDG) and shares them across every subproblem of the
	// recursive descent; when nil they are recomputed per Solve.
	Crit *Critical
}

// OptionError is the typed validation failure Validate returns for a
// nonsense configuration value. The compilation daemon maps it (and
// core's wrapper around it) to HTTP 400. Numeric fields report the
// offending value in Value; string-valued fields (a machine type, a
// kernel name) carry it in Str instead.
type OptionError struct {
	Field  string
	Value  int
	Str    string
	Reason string
}

func (e *OptionError) Error() string {
	if e.Str != "" {
		return fmt.Sprintf("see: invalid %s %q: %s", e.Field, e.Str, e.Reason)
	}
	return fmt.Sprintf("see: invalid %s %d: %s", e.Field, e.Value, e.Reason)
}

// Validate rejects nonsense configuration values with typed errors.
// Zero widths are legal — they mean "use the default" and are filled in
// by WithDefaults — but negative widths (and a criterion without an
// evaluator) are errors. This pair is the one defaulting/validation
// point for the whole pipeline: core.Options, the driver variants and
// the compilation service all funnel through it instead of silently
// rewriting values.
func (c Config) Validate() error {
	if c.BeamWidth < 0 {
		return &OptionError{Field: "BeamWidth", Value: c.BeamWidth, Reason: "must be positive (0 selects the default)"}
	}
	if c.CandWidth < 0 {
		return &OptionError{Field: "CandWidth", Value: c.CandWidth, Reason: "must be positive (0 selects the default)"}
	}
	for i, crit := range c.Criteria {
		if crit.Kind > CritPorts {
			return &OptionError{Field: "Criteria", Value: i, Reason: fmt.Sprintf("criterion %q has unknown kind %d", crit.Name, crit.Kind)}
		}
		if crit.Kind == CritCustom && crit.Eval == nil {
			return &OptionError{Field: "Criteria", Value: i, Reason: fmt.Sprintf("criterion %q has no Eval function", crit.Name)}
		}
	}
	return nil
}

// WithDefaults returns c with every zero field replaced by its default
// (BeamWidth 8, CandWidth 4, DefaultCriteria). Solve applies it after
// Validate; external callers use it to canonicalize configurations
// (e.g. for cache keys).
func (c Config) WithDefaults() Config {
	if c.BeamWidth <= 0 {
		c.BeamWidth = 8
	}
	if c.CandWidth <= 0 {
		c.CandWidth = 4
	}
	if c.Criteria == nil {
		c.Criteria = DefaultCriteria()
	}
	return c
}

func (c Config) withDefaults() Config { return c.WithDefaults() }

// Stats reports the work the engine performed; experiment E4 compares
// these between hierarchical and flat assignment.
type Stats struct {
	StatesExplored    int // partial solutions materialized (TryAssign successes)
	CandidatesTried   int // TryAssign attempts
	RouterInvocations int // no-candidate impasses escaped by the route allocator
	NodesAssigned     int
	DuplicatesPruned  int // candidates dropped by frontier dedup (0 when disabled)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.StatesExplored += other.StatesExplored
	s.CandidatesTried += other.CandidatesTried
	s.RouterInvocations += other.RouterInvocations
	s.NodesAssigned += other.NodesAssigned
	s.DuplicatesPruned += other.DuplicatesPruned
}

// Result carries the best complete assignment found.
type Result struct {
	Flow  *pg.Flow
	Score float64
	Stats Stats
}

type scored struct {
	flow  *pg.Flow
	score float64
	// mult is the state's reference multiplicity under frontier dedup:
	// how many permutation twins of this state the reference engine's
	// frontier would carry. Collapsed twins are evaluated once but keep
	// consuming their twins' candidate and beam slots, so dedup changes
	// which work is done, never which equivalence classes survive.
	mult int
}

// Solve assigns every node of ws (in priority order) onto the clusters of
// start's topology and returns the best complete flow. start is not
// modified. It fails if some instruction has no feasible cluster even
// with the route allocator (or without it, when DisableRouter is set).
//
// Solve is the canonical context-first entry point: the beam search
// checks ctx between node assignments (the outermost loop of Figure 5),
// so a cancelled or expired context aborts the exploration before the
// next priority-list node and returns ctx.Err(). One Solve runs on the
// calling goroutine; callers parallelize across independent subproblems
// instead. When a trace.Recorder is
// installed in ctx, one span covers the whole search and carries the
// beam counters (states expanded/pruned per filter, rollbacks, journal
// depth, pool recycles); with no recorder the added cost is a nil check.
func Solve(ctx context.Context, start *pg.Flow, ws []graph.NodeID, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ctx, sp := trace.Start(ctx, "see.solve")
	defer sp.End()
	order, err := PriorityListCached(cfg.Crit, start, ws)
	if err != nil {
		return nil, err
	}
	eng := newEngine(start, cfg)
	defer eng.retire()
	stats := Stats{}
	frontier := []scored{{flow: start.Clone(), score: 0, mult: 1}}
	for _, n := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// expandFrontier applies both the candidate filter and the node
		// filter (Figure 5) before materializing, so next is already the
		// pruned, score-sorted new frontier.
		next, err := eng.expandFrontier(frontier, n, &stats)
		if err != nil {
			return nil, err
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("see: no candidates for instruction %d (%s %s) on %q",
				n, start.D.Node(n).Op, start.D.Node(n).Name, start.T.Name)
		}
		frontier = next
		stats.NodesAssigned++
	}
	best := frontier[0]
	if rec := trace.FromContext(ctx); rec != nil {
		eng.flushTelemetry(rec, sp, start, frontier, stats)
	}
	// The losing frontier flows retire with the solve; only the result
	// escapes (and keeps its arrays out of the slabs).
	for _, s := range frontier[1:] {
		s.flow.Release()
	}
	return &Result{Flow: best.flow, Score: best.score, Stats: stats}, nil
}

// engine is the delta evaluator: a pool of reusable flows plus the
// solve configuration. Every candidate cluster is evaluated on its
// frontier state's flow through the mutation journal's assign → score →
// rollback cycle, and each survivor is materialized onto a pooled flow
// seeded with CopyFrom (no allocation after warm-up). The same pool
// recycles retired frontier states, so after a few
// nodes the whole search runs on a fixed set of Flow objects whose map
// slices and BFS scratch stay warm. The per-node working buffers live
// on the engine for the same reason.
type engine struct {
	cfg  Config
	k    int // regular clusters (candidate set size)
	pool flowPool

	// Per-expandFrontier scratch, reused across nodes.
	states    []*pg.Flow
	rstates   []*pg.Flow
	direct    []candEval
	routed    []candEval
	routedIdx []int
	survivors []survivor
	idx       []int
	// spare is the retired frontier's backing array, adopted after each
	// expansion so the next materialization can reuse it (ping-pong with
	// the live frontier slice instead of a per-node allocation).
	spare []scored
	// survTmp is sortSurvivors' merge scratch for wide beams.
	survTmp []survivor
	// seen maps the fingerprints admitted during the current frontier
	// expansion to their survivor index, so later duplicates merge their
	// multiplicity into the first occurrence (cleared per node); nil
	// when dedup is disabled.
	seen map[pg.Fingerprint]int

	// Telemetry tallies, maintained once per beam step rather than per
	// candidate, so they cost a handful of integer adds per step.
	// Flushed onto the solve span when a trace recorder is installed.
	tel telemetry
}

// telemetry is the engine's per-solve counter block, zeroed when a
// recycled engine retires.
type telemetry struct {
	rollbacks  int64 // journal rollbacks (one per speculative candidate)
	recycles   int64 // pooled-flow Gets (materializations)
	prunedCand int64 // feasible candidates cut by the candidate filter
	prunedBeam int64 // survivors cut by the node filter (Figure 5)
	dupPruned  int64 // candidates dropped by frontier dedup
	journalHW  int64 // deepest journal depth observed on retired flows
}

// enginePool recycles retired engines between solves: the hierarchy
// runs hundreds of subproblem solves per compilation, and an engine's
// scratch (per-node buffers, survivor arrays, the dedup map) would
// otherwise be re-grown from zero by every one of them. Flows never
// travel with a pooled engine — retire drains them first.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

func newEngine(start *pg.Flow, cfg Config) *engine {
	e := enginePool.Get().(*engine)
	e.cfg, e.k = cfg, start.T.NumRegular()
	// Pool misses clone the caller's start flow rather than calling
	// NewFlow: Clone is a handful of memmoves and shares the immutable
	// operand CSR, where NewFlow re-walks the DDG's edge lists. Every
	// pooled flow is CopyFrom-overwritten before use, so the base's
	// state is irrelevant — only its shape and shared tables matter. The
	// engine does not own base: drain never releases it.
	e.pool.base = start
	return e
}

// retire releases every flow the engine still owns back to the pg
// slabs, drops the dangling flow pointers from the scratch buffers
// (keeping their capacity), zeroes the telemetry and returns the engine
// to the package pool for the next solve.
func (e *engine) retire() {
	e.pool.drain()
	clear(e.states[:cap(e.states)])
	clear(e.rstates[:cap(e.rstates)])
	clear(e.spare[:cap(e.spare)])
	e.tel = telemetry{}
	enginePool.Put(e)
}

// flowPool is the engine's explicit flow free list. A sync.Pool is the
// wrong tool here: the GC empties it on every cycle, so a solve under
// memory pressure keeps re-cloning the flows it just retired — and the
// clones are themselves garbage that brings the next cycle closer. The
// engine is single-solve scoped and never leaves its goroutine, its
// peak working set is small (two beam widths), and every Get has a
// matching Put, so an explicit LIFO list keeps the set stable for the
// whole solve.
type flowPool struct {
	free []*pg.Flow
	base *pg.Flow
}

// Get returns a recycled flow, or a clone of the pristine base when the
// list is empty. Callers must CopyFrom before reading any state.
func (p *flowPool) Get() *pg.Flow {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	return p.base.Clone()
}

// Put returns a flow to the free list for the next Get to reuse.
func (p *flowPool) Put(f *pg.Flow) {
	p.free = append(p.free, f)
}

// drain releases the backing arrays of every pooled flow to the pg
// slabs, so the next solve's pool warms up without growing the heap.
// Called once when the solve retires its engine; flows that escaped
// the pool (the result) and the borrowed base are not touched.
func (p *flowPool) drain() {
	for _, f := range p.free {
		f.Release()
	}
	p.free, p.base = nil, nil
}

// survivor describes a virtual candidate that passed both filters: the
// frontier state it extends, the cluster it assigns, and the routing
// bound the winning evaluation used.
type survivor struct {
	state int
	c     pg.ClusterID
	score float64
	hops  int
	mult  int            // reference multiplicity (see scored.mult); 1 without dedup
	fp    pg.Fingerprint // resulting state's fingerprint (sort tie-break, dedup key)
}

// candEval is the outcome of speculatively assigning the node onto one
// (state, cluster) pair: feasibility, objective score, and the resulting
// state's fingerprint (read before rollback — an O(1) field read — so
// frontier dedup can compare candidates without re-assigning). The flow
// itself is rolled back; survivors are re-materialized later.
type candEval struct {
	ok    bool
	score float64
	fp    pg.Fingerprint
}

// evalStates scores the node on every regular cluster of every given
// state under the maxHops routing bound, writing evals[si*k+c]. Each
// state is evaluated in place on its own frontier flow through the
// mutation journal — assign, score, rollback — so no scratch copy is
// seeded. A cell's value depends only on its (state, cluster) pair,
// which makes the grid, and hence the whole search, deterministic.
//
//hca:hotpath
func (e *engine) evalStates(states []*pg.Flow, n graph.NodeID, maxHops int, evals []candEval) {
	k := e.k
	// Every (state, cluster) pair is assigned and rolled back exactly once.
	e.tel.rollbacks += int64(len(states) * k)
	for si, st := range states {
		st.SetMaxHops(maxHops)
		e.evalRow(st, n, evals[si*k:(si+1)*k])
		st.DropJournal()
		st.SetMaxHops(0)
	}
}

// evalRow evaluates every cluster of one state on its flow via
// checkpoint → assign → score → rollback, writing row[c].
//
//hca:hotpath
func (e *engine) evalRow(f *pg.Flow, n graph.NodeID, row []candEval) {
	mark := f.Checkpoint()
	for c := range row {
		err := f.Assign(n, pg.ClusterID(c))
		if err == nil {
			row[c] = candEval{ok: true, score: score(f, e.cfg.Criteria), fp: f.Fingerprint()}
		}
		// A failed Assign may have committed partial routes; rollback
		// restores the state either way.
		f.Rollback(mark)
	}
}

// expandFrontier advances the beam by one priority-list node: it
// evaluates the (state × cluster) grid — direct patterns first, then the
// route allocator for states at a no-candidate impasse — applies the
// per-state candidate filter, and materializes only the surviving
// candidates into real frontier flows, recycling the retired frontier
// through the pool.
func (e *engine) expandFrontier(frontier []scored, n graph.NodeID, stats *Stats) ([]scored, error) {
	k, cfg := e.k, e.cfg
	states := e.states[:0]
	for i := range frontier {
		states = append(states, frontier[i].flow)
	}
	e.states = states
	if !cfg.DisableDedup {
		if e.seen == nil {
			e.seen = make(map[pg.Fingerprint]int, cfg.BeamWidth*cfg.CandWidth)
		} else {
			clear(e.seen)
		}
	}

	// Phase 1: direct communication patterns only (maxHops 1).
	var direct []candEval
	routedIdx := e.routedIdx[:0] // frontier indices entering the router phase
	if cfg.RouterOnly {
		for si := range states {
			routedIdx = append(routedIdx, si)
		}
	} else {
		direct = e.evalBuf(&e.direct, len(states)*k)
		e.evalStates(states, n, 1, direct)
		if !cfg.DisableRouter {
			for si := range states {
				found := false
				for c := 0; c < k; c++ {
					if direct[si*k+c].ok {
						found = true
						break
					}
				}
				if !found {
					routedIdx = append(routedIdx, si)
				}
			}
		}
	}
	e.routedIdx = routedIdx

	// Phase 2 (no-candidates action): unlimited multi-hop routing.
	var routed []candEval
	if len(routedIdx) > 0 {
		rstates := e.rstates[:0]
		for _, si := range routedIdx {
			rstates = append(rstates, states[si])
		}
		e.rstates = rstates
		routed = e.evalBuf(&e.routed, len(rstates)*k)
		e.evalStates(rstates, n, 0, routed)
	}

	// Per-state accounting and candidate filter, in frontier order.
	survivors := e.survivors[:0]
	idx := e.idx[:0]
	ri := 0 // position in routedIdx (visited in ascending state order)
	for si := range states {
		var evals []candEval
		hops := 1
		useRouter := cfg.RouterOnly
		if !cfg.RouterOnly {
			stats.CandidatesTried += k
			row := direct[si*k : (si+1)*k]
			cnt := 0
			for c := 0; c < k; c++ {
				if row[c].ok {
					cnt++
				}
			}
			stats.StatesExplored += cnt
			if cnt > 0 {
				evals = row
			} else if cfg.DisableRouter {
				continue
			} else {
				stats.RouterInvocations++
				useRouter = true
			}
		}
		if useRouter {
			row := routed[ri*k : (ri+1)*k]
			ri++
			hops = 0
			stats.CandidatesTried += k
			cnt := 0
			for c := 0; c < k; c++ {
				if row[c].ok {
					cnt++
				}
			}
			stats.StatesExplored += cnt
			if cnt == 0 {
				continue
			}
			evals = row
		}
		// Candidate filter: best CandWidth clusters, stable over the
		// ascending cluster order.
		idx = idx[:0]
		for c := 0; c < k; c++ {
			if evals[c].ok {
				idx = append(idx, c)
			}
		}
		sortIdxByScore(idx, evals)
		if cfg.DisableDedup {
			if len(idx) > cfg.CandWidth {
				e.tel.prunedCand += int64(len(idx) - cfg.CandWidth)
				idx = idx[:cfg.CandWidth]
			}
			for _, c := range idx {
				survivors = append(survivors, survivor{state: si, c: pg.ClusterID(c), score: evals[c].score, hops: hops, mult: 1, fp: evals[c].fp})
			}
			continue
		}
		// Frontier dedup, interleaved with the width cut in the same
		// deterministic order (states ascending, scores ascending): a
		// candidate whose fingerprint was already admitted this
		// expansion merges its multiplicity into the first occurrence
		// instead of producing a survivor of its own — its twin has an
		// identical score, so nothing is lost. A duplicate still
		// consumes this state's candidate slot (the reference engine
		// would admit it), so the width cut falls exactly where the
		// reference's would. Only *admitted* fingerprints enter seen: a
		// candidate cut by the width limit must not absorb twins
		// elsewhere in the frontier.
		m := frontier[si].mult
		admitted := 0
		for _, c := range idx {
			if admitted == cfg.CandWidth {
				e.tel.prunedCand++
				continue
			}
			admitted++
			if j, dup := e.seen[evals[c].fp]; dup {
				survivors[j].mult += m
				e.tel.dupPruned++
				stats.DuplicatesPruned++
				continue
			}
			e.seen[evals[c].fp] = len(survivors)
			survivors = append(survivors, survivor{state: si, c: pg.ClusterID(c), score: evals[c].score, hops: hops, mult: m, fp: evals[c].fp})
		}
	}
	e.idx = idx

	// Node filter (Figure 5), applied before materialization: the
	// survivor descriptors carry their scores, so the frontier can be
	// pruned to BeamWidth while candidates are still virtual and only
	// the states that actually enter the next frontier pay a
	// materialization. The stable sort over the per-state concatenation
	// reproduces the reference engine's ordering exactly.
	e.sortSurvivors(survivors)
	if cfg.DisableDedup {
		if len(survivors) > cfg.BeamWidth {
			e.tel.prunedBeam += int64(len(survivors) - cfg.BeamWidth)
			survivors = survivors[:cfg.BeamWidth]
		}
	} else {
		// Multiplicity-weighted node filter: each survivor stands for
		// mult reference twins, so the BeamWidth budget is spent in the
		// same score order the reference engine would spend it —
		// possibly truncating the last class's multiplicity mid-run.
		// The frontier that results carries the reference beam's exact
		// class coverage in (usually far) fewer materialized states.
		w := 0
		cut := len(survivors)
		for i := range survivors {
			if w == cfg.BeamWidth {
				cut = i
				break
			}
			if rest := cfg.BeamWidth - w; survivors[i].mult > rest {
				e.tel.prunedBeam += int64(survivors[i].mult - rest)
				survivors[i].mult = rest
			}
			w += survivors[i].mult
		}
		for _, s := range survivors[cut:] {
			e.tel.prunedBeam += int64(s.mult)
		}
		survivors = survivors[:cut]
	}
	e.survivors = survivors
	e.tel.recycles += int64(len(survivors))

	// Materialize only the survivors: seed a pooled flow from the parent
	// state and re-apply the winning assignment. The output buffer
	// ping-pongs with the retired frontier's backing array, so the
	// steady-state search allocates no per-node frontier slices at all.
	out := e.spare[:0]
	for _, s := range survivors {
		g := e.pool.Get()
		g.CopyFrom(states[s.state])
		g.SetMaxHops(s.hops)
		if err := g.Assign(n, s.c); err != nil {
			// Cannot happen: the evaluation of this exact (state, cluster)
			// pair succeeded and Assign is deterministic.
			err = fmt.Errorf("see: materialize instruction %d on cluster %d: %w", n, s.c, pg.DetachError(err))
			e.pool.Put(g)
			return nil, err
		}
		g.SetMaxHops(0)
		out = append(out, scored{flow: g, score: s.score, mult: s.mult})
	}
	// The old frontier is fully superseded; its flows become the next
	// step's materialization targets, and its backing array the target
	// of the next materialization.
	for _, st := range states {
		if hw := int64(st.JournalHighWater()); hw > e.tel.journalHW {
			e.tel.journalHW = hw
		}
		e.pool.Put(st)
	}
	e.spare = frontier
	return out, nil
}

// flushTelemetry writes the solve's counters onto its span and the
// recorder's monotonic counters. Called once per Solve, only when a
// recorder is installed.
func (e *engine) flushTelemetry(rec *trace.Recorder, sp *trace.Span, start *pg.Flow, frontier []scored, stats Stats) {
	for _, fr := range frontier {
		if hw := int64(fr.flow.JournalHighWater()); hw > e.tel.journalHW {
			e.tel.journalHW = hw
		}
	}
	sp.SetStr("topology", start.T.Name)
	sp.SetInt("nodes", int64(stats.NodesAssigned))
	sp.SetInt("beam_width", int64(e.cfg.BeamWidth))
	sp.SetInt("cand_width", int64(e.cfg.CandWidth))
	sp.SetInt("states_explored", int64(stats.StatesExplored))
	sp.SetInt("candidates_tried", int64(stats.CandidatesTried))
	sp.SetInt("router_invocations", int64(stats.RouterInvocations))
	sp.SetInt("rollbacks", e.tel.rollbacks)
	sp.SetInt("pool_recycles", e.tel.recycles)
	sp.SetInt("pruned_candidate_filter", e.tel.prunedCand)
	sp.SetInt("pruned_node_filter", e.tel.prunedBeam)
	sp.SetInt("duplicates_pruned", e.tel.dupPruned)
	sp.SetInt("journal_high_water", e.tel.journalHW)
	rec.Add("see.solves", 1)
	rec.Add("see.beam_iterations", int64(stats.NodesAssigned))
	rec.Add("see.states_explored", int64(stats.StatesExplored))
	rec.Add("see.candidates_tried", int64(stats.CandidatesTried))
	rec.Add("see.router_invocations", int64(stats.RouterInvocations))
	rec.Add("see.rollbacks", e.tel.rollbacks)
	rec.Add("see.pool_recycles", e.tel.recycles)
	rec.Add("see.pruned_candidate_filter", e.tel.prunedCand)
	rec.Add("see.pruned_node_filter", e.tel.prunedBeam)
	rec.Add("see.duplicates_pruned", e.tel.dupPruned)
}

// evalBuf resizes *buf to n cleared entries without reallocating once
// capacity is warm (evalRow only writes successful slots, so stale
// entries must be zeroed).
//
//hca:hotpath
func (e *engine) evalBuf(buf *[]candEval, n int) []candEval {
	b := *buf
	if cap(b) < n {
		b = make([]candEval, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = candEval{}
		}
	}
	*buf = b
	return b
}

// fpLess is the canonical fingerprint order used to break score ties in
// every filter of both engines. Keying ties on the (symmetry-canonical)
// fingerprint makes tie resolution permutation-invariant: twin states
// order their candidates class-by-class identically, which is what lets
// frontier dedup collapse twins into multiplicities without changing
// which equivalence classes survive a cut.
//
//hca:hotpath
func fpLess(a, b pg.Fingerprint) bool {
	if a.Hi != b.Hi {
		return a.Hi < b.Hi
	}
	return a.Lo < b.Lo
}

//hca:hotpath
func lessEval(a, b candEval) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return fpLess(a.fp, b.fp)
}

// sortIdxByScore stably sorts candidate cluster indices by their
// evaluation score (ascending, fingerprint tie-break). Insertion sort:
// the list is at most k entries, and reflect-based sort.SliceStable
// allocates on every call — in the innermost per-node loop.
//
//hca:hotpath
func sortIdxByScore(idx []int, evals []candEval) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && lessEval(evals[idx[j]], evals[idx[j-1]]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

//hca:hotpath
func lessSurvivor(a, b survivor) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return fpLess(a.fp, b.fp)
}

// sortSurvivors stably sorts survivors by score (ascending, fingerprint
// tie-break), same rationale as sortIdxByScore. Small inputs use
// insertion sort; the retry ladder's wide beams (up to BeamWidth ×
// CandWidth entries) switch to a bottom-up merge through the
// engine-owned scratch buffer — both stable, so the survivor order (and
// with it the reference equivalence) is identical either way, and both
// allocation-free once the scratch is warm.
//
//hca:hotpath
func (e *engine) sortSurvivors(s []survivor) {
	n := len(s)
	if n <= 24 {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && lessSurvivor(s[j], s[j-1]); j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	if cap(e.survTmp) < n {
		e.survTmp = make([]survivor, n)
	}
	src, dst := s, e.survTmp[:n]
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if i < mid && (j >= hi || !lessSurvivor(src[j], src[i])) {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// score evaluates the objective function. Built-in (Kind-tagged) terms
// all read from one fused ObjectiveTerms sweep, computed lazily on the
// first such term; terms are accumulated in criteria order either way,
// so the float result is bit-identical to summing per-term closures.
//
//hca:hotpath
func score(f *pg.Flow, criteria []Criterion) float64 {
	s := 0.0
	fused := false
	var mii, copies, balance, ports int
	for i := range criteria {
		c := &criteria[i]
		if c.Kind == CritCustom {
			s += c.Weight * c.Eval(f)
			continue
		}
		if !fused {
			mii, copies, balance, ports = f.ObjectiveTerms()
			fused = true
		}
		switch c.Kind {
		case CritMII:
			s += c.Weight * float64(mii)
		case CritCopies:
			s += c.Weight * float64(copies)
		case CritBalance:
			s += c.Weight * float64(balance)
		case CritPorts:
			s += c.Weight * float64(ports)
		}
	}
	return s
}

// ScoreFlow evaluates the objective function on one flow — the exported
// form of the engine's fused scoring path, so sibling engines (the
// exact branch-and-bound solver) score states bit-identically to the
// beam search they are raced against. criteria nil is rejected by
// Validate upstream; callers pass a WithDefaults configuration.
func ScoreFlow(f *pg.Flow, criteria []Criterion) float64 {
	return score(f, criteria)
}

func sortScored(s []scored) {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].score != s[j].score {
			return s[i].score < s[j].score
		}
		return fpLess(s[i].flow.Fingerprint(), s[j].flow.Fingerprint())
	})
}

// Critical caches the DDG-wide criticality analysis PriorityList
// consumes: per-node slack and longest-path depth. The arrays depend
// only on the DDG, not on the subproblem, so one analysis serves every
// level of the recursive descent.
type Critical struct {
	Slack []int
	Depth []int
}

// AnalyzeDDG computes the criticality arrays of d once. HCA calls it at
// the root and threads the result through every subproblem via
// Config.Crit instead of recomputing both graph traversals per solve.
func AnalyzeDDG(d *ddg.DDG) (*Critical, error) {
	slack, err := d.G.Slack()
	if err != nil {
		return nil, fmt.Errorf("see: %w", err)
	}
	depth, err := d.G.LongestPathFrom()
	if err != nil {
		return nil, fmt.Errorf("see: %w", err)
	}
	return &Critical{Slack: slack, Depth: depth}, nil
}

// PriorityList orders the working set for assignment: by dataflow depth so
// producers precede consumers (keeping the exploration frontier local),
// breaking ties by criticality (smallest slack over the intra-iteration
// subgraph first), then by node ID for determinism.
func PriorityList(f *pg.Flow, ws []graph.NodeID) ([]graph.NodeID, error) {
	return PriorityListCached(nil, f, ws)
}

// PriorityListCached is PriorityList with the criticality analysis
// supplied by the caller; crit == nil recomputes it from f.D.
func PriorityListCached(crit *Critical, f *pg.Flow, ws []graph.NodeID) ([]graph.NodeID, error) {
	if crit == nil {
		var err error
		crit, err = AnalyzeDDG(f.D)
		if err != nil {
			return nil, err
		}
	}
	slack, depth := crit.Slack, crit.Depth
	order := append([]graph.NodeID(nil), ws...)
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if depth[a] != depth[b] {
			return depth[a] < depth[b]
		}
		if slack[a] != slack[b] {
			return slack[a] < slack[b]
		}
		return a < b
	})
	return order, nil
}
