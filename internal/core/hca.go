// Package core implements Hierarchical Cluster Assignment (§4), the
// paper's primary contribution: the decomposition of Instruction Cluster
// Assignment over a hierarchical reconfigurable interconnect into a tree
// of per-level subproblems.
//
// The driver starts at level 0, mapping the whole DDG onto the pattern
// graph of the outermost clusters with the Space Exploration Engine, then
// the Mapper commits the resulting copies onto the level's physical wires
// and derives one Inter Level Interface per cluster. Each cluster's
// working set — the instructions assigned to it — becomes a child
// subproblem whose pattern graph is completed with special input/output
// nodes carrying the ILI's per-wire value lists, and the process recurses
// to single-CN leaves. A post-processing pass then rebuilds the final DDG
// with explicit receive primitives and a coherency checker validates the
// whole construction (§4.1).
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/mapper"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/pg"
	"repro/internal/see"
	"repro/internal/trace"
)

// Options tunes the HCA run.
type Options struct {
	SEE see.Config
	// DisableRematerialization turns off the per-cluster duplication of
	// constants and induction values (ablation): every such value is then
	// physically communicated like any other operand.
	DisableRematerialization bool
	// DisableSeeding turns off the min-cut partition seeding pass
	// (ablation): subproblems are then solved by the beam search alone.
	DisableSeeding bool
	// SchedulingAware adds the scheduling-aware cost criterion the paper
	// lists as ongoing research (§7): copies of *critical* values (small
	// scheduling slack) are penalized proportionally to their
	// criticality, keeping critical dependence chains co-located so the
	// later modulo-scheduling phase pays fewer receive latencies on the
	// II-binding paths.
	SchedulingAware bool
	// Memo optionally supplies a cross-solve subproblem memo; when nil
	// (and DisableMemo is unset) HCA creates a per-run Memo shared by its
	// two internal passes. The driver's feedback loop injects one shared
	// across its variant race, and the compilation service hoists one
	// process-wide instance across requests. Custom SEE.Criteria cannot
	// be content-addressed (they are closures), so they bypass the memo.
	Memo *Memo
	// DisableMemo turns off subproblem memoization entirely (ablation;
	// results are bit-identical either way, only the work repeats).
	DisableMemo bool
	// Engine selects the per-subproblem solver: "see" (the default beam
	// search; "" means the same), "exact" (branch-and-bound, proving
	// optimality within its node budget), or "portfolio" (the beam, then
	// exact from the beam's score on small subproblems; the better flow
	// wins). See EngineNames.
	Engine string
	// ExactBudget caps the exact engine's node expansions per attempt;
	// <= 0 selects exact.DefaultNodeBudget. Ignored by the beam engine.
	ExactBudget int64

	useSeed bool // internal: this solve uses partition seeding
	// eng is the resolved Engine, cached once per HCA run.
	eng Engine
	// ddgFP caches the DDG's sha256 content fingerprint, computed once
	// per HCA run for the memo's attempt keys.
	ddgFP string
	// crit caches the DDG criticality analysis (slack/depth), computed
	// once per HCA run and shared by every subproblem's PriorityList and
	// the scheduling-aware criterion instead of being recomputed per
	// recursive-descent node.
	crit *see.Critical
}

// Validate rejects nonsense option values with typed errors before any
// work starts; it is the single validation point above see.Config's
// (which it delegates to). HCA calls it, and the compilation service
// calls it at submission time so the daemon can answer HTTP 400.
func (o Options) Validate() error {
	if err := o.SEE.Validate(); err != nil {
		return err
	}
	if _, err := EngineByName(o.Engine); err != nil {
		return err
	}
	if o.ExactBudget < 0 {
		return &see.OptionError{Field: "exact_budget", Value: int(o.ExactBudget), Reason: "must be >= 0 (0 selects the default)"}
	}
	return nil
}

// EngineName canonicalizes the engine selection ("" → "see").
func (o Options) EngineName() string {
	if o.Engine == "" {
		return "see"
	}
	return o.Engine
}

// engine returns the resolved engine, defaulting to the beam.
func (o Options) engine() Engine {
	if o.eng != nil {
		return o.eng
	}
	return beamEngine{}
}

// LevelSolution records one solved subproblem for reports and coherency
// checking.
type LevelSolution struct {
	Level   int
	Path    []int // group indices from the root; empty for the root problem
	Flow    *pg.Flow
	Mapping *mapper.Result
	Stats   see.Stats
}

// ID returns the paper's subproblem label, e.g. "0", "0,2", "0,2,1".
func (ls *LevelSolution) ID() string {
	parts := []string{"0"}
	for _, p := range ls.Path {
		parts = append(parts, fmt.Sprint(p))
	}
	return strings.Join(parts, ",")
}

// MII groups the initiation-interval figures Table 1 reports.
//
// Final follows the paper's §4.2 definition exactly: the maximum of the
// level-0 MII and the per-cluster MIIs of PG_0 including their copy
// pressure — a lower bound for the later modulo-scheduling phase, which
// is what Table 1's "Final MII" column lists. AllLevels is this
// reproduction's stricter extension: it folds in every deeper level's
// cluster and wire pressure plus the machine-wide DMA bound.
type MII struct {
	Rec       int // recurrence bound of the DDG (MIIRec)
	Res       int // resource bound on the unified equivalent machine (MIIRes)
	Final     int // paper's Table-1 figure: max(iniMII, maxClsMII) over PG_0
	AllLevels int // max over every level's cluster and wire pressure + DMA
}

// Result is a complete hierarchical clusterization.
type Result struct {
	Machine *machine.Config
	DDG     *ddg.DDG
	// CN maps every DDG node to its computation node (0..TotalCNs-1).
	CN []int
	// Final is the post-processed DDG with receive primitives inserted;
	// FinalCN maps its nodes (originals plus receives) to CNs.
	Final   *ddg.DDG
	FinalCN []int
	// Recvs counts inserted receive primitives.
	Recvs  int
	Levels []*LevelSolution
	Stats  see.Stats
	MII    MII
	// Legal is set after the coherency checker passes.
	Legal bool
	// Remat records whether constant/IV rematerialization was enabled.
	Remat bool
	// Engine is the configured engine selection ("see"/"exact"/
	// "portfolio"); EngineWins counts, per engine, how many subproblems
	// it won ("seed" counts the min-cut partition seed beating every
	// engine attempt).
	Engine     string
	EngineWins map[string]int
	// Optimality aggregates the exact engine's per-subproblem proofs.
	Optimality Optimality

	mu sync.Mutex // guards Levels, Stats and engine accounting during
	// parallel solves
}

// Optimality aggregates per-subproblem optimality certificates: when
// every subproblem's winning attempt carries a proved lower bound, the
// whole clusterization's objective is provably within Gap of optimal.
type Optimality struct {
	// Subproblems counts solved subproblems; Proved counts those whose
	// winning flow carries an exact-engine optimality certificate.
	Subproblems int `json:"subproblems"`
	Proved      int `json:"proved"`
	// ScoreSum/BoundSum accumulate the proved subproblems' achieved
	// objective scores and proved lower bounds.
	ScoreSum float64 `json:"score_sum"`
	BoundSum float64 `json:"bound_sum"`
}

// Gap returns the relative optimality gap (ScoreSum-BoundSum)/BoundSum.
// It is only defined when every subproblem carries a proof; ok reports
// that. A proved-optimal run returns (0, true).
func (o Optimality) Gap() (gap float64, ok bool) {
	if o.Subproblems == 0 || o.Proved != o.Subproblems || o.BoundSum <= 0 {
		return 0, false
	}
	return (o.ScoreSum - o.BoundSum) / o.BoundSum, true
}

func (r *Result) addLevel(ls *LevelSolution) {
	r.mu.Lock()
	r.Levels = append(r.Levels, ls)
	r.mu.Unlock()
}

func (r *Result) addStats(s see.Stats) {
	r.mu.Lock()
	r.Stats.Add(s)
	r.mu.Unlock()
}

// noteWin records which engine's attempt won one subproblem and, when
// the winner carries an exact-engine certificate, folds its score and
// proved bound into the run's optimality aggregate.
func (r *Result) noteWin(engine string, proved bool, score, bound float64) {
	r.mu.Lock()
	if r.EngineWins == nil {
		r.EngineWins = make(map[string]int)
	}
	r.EngineWins[engine]++
	r.Optimality.Subproblems++
	if proved {
		r.Optimality.Proved++
		r.Optimality.ScoreSum += score
		r.Optimality.BoundSum += bound
	}
	r.mu.Unlock()
}

// HCA clusterizes d onto mc hierarchically and returns the complete
// result. The input DDG must Validate.
//
// HCA is the canonical context-first entry point: ctx is threaded
// through the recursive descent into every subproblem's beam search, so
// a cancelled or expired context aborts the whole run promptly (within
// one beam-frontier expansion) and returns ctx.Err(). Long-running
// callers — the compilation service in particular — use it to stop
// abandoned requests from burning workers. A trace.Recorder installed
// in ctx receives one span per level-tree subproblem (named by its
// LevelSolution.ID() path) plus the mapper, seeding and scheduling
// phases.
//
// Two complete solves run internally — one seeding every subproblem with
// a min-cut partition (Chu-style, §6), one pure beam search — and the
// better whole-hierarchy result (smaller all-levels MII, then fewer
// receive primitives) is returned. DisableSeeding skips the first.
//
// None of the whole-DDG steps before the descent (validation,
// criticality analysis, fingerprint, the two MII bounds) polls ctx, so
// HCA checks it on entry and between them.
func HCA(ctx context.Context, d *ddg.DDG, mc *machine.Config, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("hca: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("hca: %w", err)
	}
	if err := mc.Validate(); err != nil {
		return nil, fmt.Errorf("hca: %w", err)
	}
	if err := CheckMachine(mc, "machine"); err != nil {
		return nil, fmt.Errorf("hca: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := trace.Start(ctx, "hca")
	defer sp.End()
	sp.SetStr("kernel", d.Name)
	sp.SetStr("machine", mc.Name)
	crit, err := see.AnalyzeDDG(d)
	if err != nil {
		return nil, fmt.Errorf("hca: %w", err)
	}
	opt.crit = crit
	eng, err := engineFor(opt.Engine, opt.ExactBudget)
	if err != nil {
		return nil, fmt.Errorf("hca: %w", err) // unreachable past Validate
	}
	opt.eng = eng
	sp.SetStr("engine", opt.EngineName())
	switch {
	case opt.DisableMemo || opt.SEE.Criteria != nil:
		// Custom criteria are closures — no content address, no sharing.
		opt.Memo = nil
	case opt.Memo == nil:
		opt.Memo = NewMemo(0) // per-run, shared by both passes below
	}
	if opt.Memo != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opt.ddgFP = d.Fingerprint()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The static bounds are the same for both passes: compute them once.
	mii := MII{Rec: d.MIIRec()}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mii.Res = d.MIIRes(ddg.Resources{IssueSlots: mc.TotalCNs(), DMAPorts: mc.DMAPorts})
	pure, perr := hcaOnce(ctx, d, mc, opt, mii, false)
	if !opt.DisableSeeding && ctx.Err() == nil {
		seeded, serr := hcaOnce(ctx, d, mc, opt, mii, true)
		switch {
		case serr == nil && perr != nil:
			sp.SetStr("winner", "seeded")
			return seeded, nil
		case serr == nil && perr == nil && betterResult(seeded, pure):
			sp.SetStr("winner", "seeded")
			return seeded, nil
		}
	}
	if perr == nil {
		sp.SetStr("winner", "pure")
	}
	return pure, perr
}

// betterResult compares two complete clusterizations globally.
func betterResult(a, b *Result) bool {
	if a.MII.AllLevels != b.MII.AllLevels {
		return a.MII.AllLevels < b.MII.AllLevels
	}
	if a.Recvs != b.Recvs {
		return a.Recvs < b.Recvs
	}
	return a.MII.Final < b.MII.Final
}

// hcaOnce runs one complete descent; mii carries the static Rec and Res
// bounds HCA computed once for both passes.
func hcaOnce(ctx context.Context, d *ddg.DDG, mc *machine.Config, opt Options, mii MII, useSeed bool) (*Result, error) {
	opt.useSeed = useSeed
	name := "hca.pure"
	if useSeed {
		name = "hca.seeded"
	}
	ctx, sp := trace.Start(ctx, name)
	defer sp.End()
	res := &Result{
		Machine: mc,
		DDG:     d,
		CN:      make([]int, d.Len()),
		Remat:   !opt.DisableRematerialization,
		Engine:  opt.EngineName(),
		MII:     mii,
	}
	for i := range res.CN {
		res.CN[i] = -1
	}

	ws := make([]graph.NodeID, d.Len())
	for i := range ws {
		ws[i] = graph.NodeID(i)
	}
	if err := solveLevel(ctx, res, d, mc, opt, 0, nil, ws, nil); err != nil {
		return nil, err
	}

	// Every instruction must have reached a computation node.
	for n, cn := range res.CN {
		if cn < 0 || cn >= mc.TotalCNs() {
			return nil, fmt.Errorf("hca: instruction %d ended on invalid CN %d", n, cn)
		}
	}

	sort.Slice(res.Levels, func(i, j int) bool { return lessPath(res.Levels[i].Path, res.Levels[j].Path) })
	res.computeMII()
	_, psp := trace.Start(ctx, "postprocess")
	postProcess(res)
	psp.SetInt("receives", int64(res.Recvs))
	psp.End()
	_, csp := trace.Start(ctx, "coherency")
	cerr := CoherencyCheck(res)
	csp.End()
	if cerr != nil {
		return nil, fmt.Errorf("hca: coherency: %w", cerr)
	}
	res.Legal = true
	sp.SetInt("final_mii", int64(res.MII.Final))
	sp.SetInt("all_levels_mii", int64(res.MII.AllLevels))
	sp.SetInt("receives", int64(res.Recvs))
	return res, nil
}

// levelParams returns the pattern-graph in-neighbor bound and the mapper
// wire counts of one level (§4.1):
//
//   - the outermost level uses the switch capacity N;
//   - a middle level uses min of its own MUX capacity and the next
//     level's external input capacity (a subgroup's in-wires all funnel
//     into its child's crossbar);
//   - the leaf level uses the computation-node port budget.
func levelParams(mc *machine.Config, level int) (maxIn, outWires, inWires int) {
	last := mc.NumLevels() - 1
	if mc.NumLevels() == 1 {
		return mc.Levels[0].InWires, mc.Levels[0].OutWires, mc.Levels[0].InWires
	}
	if level == last {
		return mc.CNInPorts, mc.CNOutPorts, mc.CNInPorts
	}
	in := mc.Levels[level].InWires
	if level > 0 {
		if nxt := mc.Levels[level+1].InWires; nxt < in {
			in = nxt
		}
	}
	if level == last-1 {
		// The wires entering a group here become the external inputs of a
		// leaf crossbar over Groups CNs with CNInPorts input ports each.
		// Reserving one port per CN for internal forwarding keeps every
		// leaf subproblem topologically solvable (a forwarding ring plus
		// one external listener per CN).
		if cap := mc.Levels[last].Groups * (mc.CNInPorts - 1); cap < in {
			in = cap
		}
	}
	return in, mc.Levels[level].OutWires, in
}

// CheckMachine rejects, with a typed error, a valid machine whose pattern
// graphs HCA cannot build: a level with more groups than pg.MaxClusters,
// or a level whose in-neighbor bound (levelParams) is 0. The error's
// field is prefix, a dot and the machine parameter at fault ("clusters"
// or "in_ports"). A level's ILI nodes are known only once its parent is
// solved; solveLevel checks those.
func CheckMachine(mc *machine.Config, prefix string) error {
	for l, spec := range mc.Levels {
		if spec.Groups > pg.MaxClusters {
			return &see.OptionError{Field: prefix + ".clusters", Value: spec.Groups,
				Reason: fmt.Sprintf("level %d exceeds the %d-cluster pattern-graph limit", l, pg.MaxClusters)}
		}
		if maxIn, _, _ := levelParams(mc, l); maxIn < 1 {
			return &see.OptionError{Field: prefix + ".in_ports", Value: mc.CNInPorts,
				Reason: fmt.Sprintf("level %d gets no in-wire: each CN needs a port beyond the one kept for forwarding", l)}
		}
	}
	return nil
}

// buildTopology constructs the pattern graph of one subproblem: the
// level's sibling groups (ring-restricted for RCP at level 0, otherwise
// fully connected through the MUXes) plus the ILI's special nodes.
func buildTopology(mc *machine.Config, level int, path []int, ili *mapper.ILI) *pg.Topology {
	maxIn, _, _ := levelParams(mc, level)
	groups := mc.Levels[level].Groups
	name := fmt.Sprintf("%s-l%d-%v", mc.Name, level, path)
	t := pg.NewTopology(name, groups, mc.CNsPerGroup(level), maxIn, 0)
	if mc.MemCNs != nil {
		// Heterogeneous machine (§2.1): each cluster's memory capacity is
		// the number of memory-capable CNs it embraces.
		base := 0
		for l, p := range path {
			base += p * mc.CNsPerGroup(l)
		}
		sz := mc.CNsPerGroup(level)
		for g := 0; g < groups; g++ {
			mem := 0
			for cn := base + g*sz; cn < base+(g+1)*sz; cn++ {
				if mc.MemCapable(cn) {
					mem++
				}
			}
			t.SetMemSlots(pg.ClusterID(g), mem)
		}
	}
	if (mc.Ring || mc.Linear) && level == 0 {
		for a := 0; a < groups; a++ {
			for b := 0; b < groups; b++ {
				if a != b && mc.Connected(b, a) {
					t.SetPotential(pg.ClusterID(a), pg.ClusterID(b), true)
				}
			}
		}
	} else {
		t.AllToAll()
	}
	if ili != nil {
		for _, vals := range ili.Inputs {
			t.AddInputNode(vals)
		}
		for _, vals := range ili.Outputs {
			t.AddOutputNode(vals)
		}
	}
	return t
}

// solveLevel solves one subproblem and recurses into its children.
func solveLevel(ctx context.Context, res *Result, d *ddg.DDG, mc *machine.Config, opt Options,
	level int, path []int, ws []graph.NodeID, ili *mapper.ILI) error {

	if err := ctx.Err(); err != nil {
		return err
	}

	// One span per level-tree subproblem, named by its LevelSolution.ID()
	// path; children nest inside it, so the exported trace reproduces the
	// recursive-descent tree. The "phase" attribute groups the summary
	// table per hierarchy level.
	ctx, sp := trace.Start(ctx, "subproblem "+pathString(path))
	defer sp.End()
	sp.SetStr("phase", fmt.Sprintf("subproblem L%d", level))
	sp.SetInt("level", int64(level))
	sp.SetInt("instructions", int64(len(ws)))
	if ili != nil {
		sp.SetInt("ili_in_wires", int64(len(ili.Inputs)))
		sp.SetInt("ili_out_wires", int64(len(ili.Outputs)))
	}
	trace.Count(ctx, "hca.subproblems", 1)

	// The leaf's external wire budget caps the inherited input nodes,
	// and the ILI's special nodes share the pattern graph's cluster slots
	// with the level's groups.
	if ili != nil && level == mc.NumLevels()-1 && len(ili.Inputs) > mc.Levels[level].InWires {
		return fmt.Errorf("hca: subproblem %v: %d input wires exceed crossbar capacity %d",
			path, len(ili.Inputs), mc.Levels[level].InWires)
	}
	if ili != nil && mc.Levels[level].Groups+len(ili.Inputs)+len(ili.Outputs) > pg.MaxClusters {
		return fmt.Errorf("hca: subproblem %s: %d groups and %d ILI nodes exceed the %d-cluster pattern-graph limit",
			pathString(path), mc.Levels[level].Groups, len(ili.Inputs)+len(ili.Outputs), pg.MaxClusters)
	}

	t := buildTopology(mc, level, path, ili)
	flow := pg.NewFlow(t, d)
	flow.MIIRecStatic = res.MII.Rec
	if !opt.DisableRematerialization {
		for i := range d.Nodes {
			if op := d.Nodes[i].Op; op == ddg.OpConst || op == ddg.OpIV {
				flow.MarkUbiquitous(d.Nodes[i].ID)
			}
		}
	}

	// Retry ladder: if the configured search dead-ends (every beam state
	// exhausted its communication ports — the impasse of §3), rerun with
	// progressively more port-frugal cost functions and wider beams, and
	// finally the first port-frugal rung once more on a pre-reserved
	// forwarding ring among the clusters, which keeps every value
	// multi-hop routable no matter how the search commits the remaining
	// ports. The tight two-input-port computation nodes make this
	// essential at the leaf level. A ring the start flow cannot reserve
	// ends the ladder.
	seeCfg := opt.SEE
	seeCfg.Crit = opt.crit
	if opt.SchedulingAware {
		seeCfg = withCriticalCopyCriterion(seeCfg, d, opt.crit)
	}
	ladder := retryLadder(seeCfg)
	var best *EngineResult
	var bestEntry *memoEntry
	var err error
	for i, cfg := range append(ladder, ladder[1]) {
		// A cancelled attempt ends the ladder: later rungs would only
		// fail the same way.
		if best != nil || ctx.Err() != nil {
			break
		}
		start := flow
		rung, ring := i, false
		if i == len(ladder) {
			rung, ring = 1, true
			start = flow.Clone()
			if rerr := reserveRing(start); rerr != nil {
				break
			}
		}
		// Each attempt runs behind the subproblem memo: a verified hit
		// returns the committed solution without re-running the engine
		// (and, via the entry, without re-running the mapper).
		var key attemptKey
		if opt.Memo != nil {
			key = attemptKeyFor(opt, start, ws, cfg, rung, ring)
		}
		out, entry, aerr := opt.Memo.attempt(ctx, key, opt.engine(), start, ws, cfg)
		if ring {
			// The ring-reserved start clone is consumed by the attempt
			// (results are materialized copies, and the memo retains
			// only the topology); retire it to the pg slabs.
			start.Release()
		}
		if aerr != nil {
			err = aerr
			continue
		}
		best, bestEntry = out, entry
	}
	// Cancellation surfaces unwrapped so callers can match it with
	// errors.Is(err, context.Canceled / DeadlineExceeded).
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	// A min-cut partition seed (Chu-style multilevel, §6) competes with
	// the beam solution at every subproblem; the flow with the lower
	// estimated MII (then fewer copies) wins.
	if opt.useSeed {
		if seed := partitionSeed(ctx, flow, ws, opt.crit); seed != nil {
			if best == nil || betterFlow(seed, best.Flow) {
				// The seed carries no optimality certificate: winning on
				// the MII-first tiebreak does not bound the objective.
				best = &EngineResult{Flow: seed, Winner: "seed"}
				bestEntry = nil
				sp.SetBool("seed_won", true)
			} else {
				seed.Release()
			}
		}
	}
	if best == nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr // cancelled while the seed ran
		}
		// The attempts' errors name no machine (they may be memo
		// replays of another machine's attempt), so the wrapper does.
		return fmt.Errorf("hca: subproblem %s on %s: %w", pathString(path), mc.Name, err)
	}
	if best.Flow != flow {
		// The pristine start flow never wins the ladder (attempt results
		// and partition seeds are materialized clones), so its arrays go
		// back to the pg slabs here instead of through the GC.
		flow.Release()
	}
	flow = best.Flow
	res.addStats(best.Stats)
	res.noteWin(best.Winner, best.Proved, best.Score, best.Bound)
	sp.SetStr("winner_engine", best.Winner)
	if best.Proved {
		sp.SetBool("proved", true)
	}
	if err := flow.Verify(); err != nil {
		return fmt.Errorf("hca: subproblem %s: %w", pathString(path), err)
	}

	_, outW, inW := levelParams(mc, level)
	mapping := bestEntry.mapped(outW, inW)
	if mapping == nil {
		m, merr := mapper.Map(ctx, flow, outW, inW)
		if merr != nil {
			return fmt.Errorf("hca: subproblem %s: %w", pathString(path), merr)
		}
		mapping = m
		bestEntry.attach(outW, inW, mapping)
	}
	if err := mapping.Verify(flow, outW, inW); err != nil {
		return fmt.Errorf("hca: subproblem %s: %w", pathString(path), err)
	}
	sp.SetInt("mii", int64(flow.EstimateMII()))
	sp.SetInt("copies", int64(flow.TotalCopies()))
	sp.SetInt("wires", int64(len(mapping.Wires)))
	sp.SetInt("wire_load", int64(mapping.MaxWireLoad))
	sp.SetInt("pollution", int64(mapping.Pollution))

	ls := &LevelSolution{Level: level, Path: append([]int(nil), path...), Flow: flow, Mapping: mapping, Stats: best.Stats}
	res.addLevel(ls)

	if level == mc.NumLevels()-1 {
		// Leaf: groups are computation nodes.
		for _, n := range ws {
			g := int(flow.Assignment(n))
			res.CN[n] = cnIndex(mc, path, g)
		}
		return nil
	}

	// Child subproblems are independent (§4.1's decomposition): solve the
	// siblings in parallel. Each child writes disjoint res.CN entries and
	// appends levels/stats under the Result mutex; Levels are re-sorted
	// into hierarchy order at the end of HCA.
	ilis := mapping.ILIs(flow)
	type child struct {
		path []int
		ws   []graph.NodeID
		ili  *mapper.ILI
	}
	var children []child
	for g := 0; g < mc.Levels[level].Groups; g++ {
		childWS := flow.Instructions(pg.ClusterID(g))
		childILI := ilis[pg.ClusterID(g)]
		if len(childWS) == 0 && (childILI == nil || len(childILI.Outputs) == 0) {
			// Nothing assigned and nothing to forward: skip the subtree.
			continue
		}
		if childILI == nil {
			childILI = &mapper.ILI{Cluster: pg.ClusterID(g)}
		}
		children = append(children, child{
			path: append(append([]int{}, path...), g),
			ws:   childWS,
			ili:  childILI,
		})
	}
	errs := make([]error, len(children))
	par.ForEach(len(children), func(i int) {
		c := children[i]
		errs[i] = solveLevel(ctx, res, d, mc, opt, level+1, c.path, c.ws, c.ili)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// partitionSeed builds a complete flow by assigning the working set
// along a balanced min-cut partition (with the communication backbone
// pre-reserved so routing cannot dead-end), or nil if the partition is
// unroutable. It gives the driver a communication-minimal alternative to
// the greedy beam solution. Every speculative Assign runs under a
// journal checkpoint: a failed placement is rolled back before the
// repair pass tries other clusters, so half-committed routes of the
// failed attempt never leak into the seed.
func partitionSeed(ctx context.Context, base *pg.Flow, ws []graph.NodeID, crit *see.Critical) *pg.Flow {
	if len(ws) == 0 {
		return nil
	}
	_, sp := trace.Start(ctx, "partition.seed")
	defer sp.End()
	sp.SetInt("instructions", int64(len(ws)))
	trace.Count(ctx, "partition.seeds", 1)
	k := base.T.NumRegular()
	cap := (len(ws)+k-1)/k + 1 + len(ws)/(4*k)
	parts := partition.Assign(base.D, ws, k, cap)
	order, err := see.PriorityListCached(crit, base, ws)
	if err != nil {
		return nil
	}
	f := base.Clone()
	if err := reserveRing(f); err != nil {
		return nil
	}
	for _, n := range order {
		target := pg.ClusterID(parts[n])
		mark := f.Checkpoint()
		if err := f.Assign(n, target); err != nil {
			f.Rollback(mark)
			// Repair: try the remaining clusters by increasing load.
			placed := false
			for _, c := range clustersByLoad(f) {
				if c == target {
					continue
				}
				if err := f.Assign(n, c); err == nil {
					placed = true
					break
				}
				f.Rollback(mark)
			}
			if !placed {
				f.Release()
				return nil
			}
		}
	}
	f.DropJournal()
	for _, o := range f.T.OutputNodes() {
		for _, v := range f.T.Cluster(o).Carries {
			if !f.Available(v, o) {
				if err := f.Route(v, o); err != nil {
					f.Release()
					return nil
				}
			}
		}
	}
	if err := f.Verify(); err != nil {
		f.Release()
		return nil
	}
	return f
}

func clustersByLoad(f *pg.Flow) []pg.ClusterID {
	out := make([]pg.ClusterID, f.T.NumRegular())
	for i := range out {
		out[i] = pg.ClusterID(i)
	}
	sort.Slice(out, func(i, j int) bool {
		li, lj := f.Load(out[i]), f.Load(out[j])
		if li != lj {
			return li < lj
		}
		return out[i] < out[j]
	})
	return out
}

// betterFlow orders two complete flows by solution quality: smaller
// estimated MII first, then fewer copies.
func betterFlow(a, b *pg.Flow) bool {
	am, bm := a.EstimateMII(), b.EstimateMII()
	if am != bm {
		return am < bm
	}
	return a.TotalCopies() < b.TotalCopies()
}

// withCriticalCopyCriterion appends a cost term that charges each copied
// value by its criticality 1/(1+slack): moving a zero-slack value across
// clusters delays the critical path by the copy latency, which directly
// inflates the achievable II after scheduling. The slack array comes
// from the per-run criticality cache when available.
func withCriticalCopyCriterion(cfg see.Config, d *ddg.DDG, crit *see.Critical) see.Config {
	var slack []int
	if crit != nil {
		slack = crit.Slack
	} else {
		var err error
		slack, err = d.G.Slack()
		if err != nil {
			return cfg // invalid DDGs are rejected later by Validate
		}
	}
	criteria := cfg.Criteria
	if criteria == nil {
		criteria = see.DefaultCriteria()
	}
	criteria = append(append([]see.Criterion(nil), criteria...), see.Criterion{
		Name: "critical-copies", Weight: 120,
		Eval: func(f *pg.Flow) float64 {
			score := 0.0
			f.ForEachCopy(func(from, to pg.ClusterID, v pg.ValueID) {
				score += 1.0 / float64(1+slack[v])
			})
			return score
		},
	})
	cfg.Criteria = criteria
	return cfg
}

// retryLadder returns the SEE configurations to attempt in order: the
// caller's own, then port-frugal variants that treat input-port
// consumption as nearly as costly as the II itself, with wider beams.
func retryLadder(base see.Config) []see.Config {
	portHeavy := func(weight float64, beam, cand int) see.Config {
		cfg := base
		cfg.BeamWidth, cfg.CandWidth = beam, cand
		crit := append([]see.Criterion(nil), see.DefaultCriteria()...)
		crit = append(crit, see.Criterion{
			Name: "port-frugal", Weight: weight, Kind: see.CritPorts,
		})
		cfg.Criteria = crit
		return cfg
	}
	return []see.Config{
		base,
		portHeavy(200, 16, 4),
		portHeavy(600, 32, 8),
	}
}

// reserveRing pre-commits a communication backbone: the unidirectional
// forwarding ring 0→1→…→k-1→0 among the regular clusters, plus one
// listener per input node (round-robin). With the backbone in place every
// value — internal or arriving on an inter-level wire — stays multi-hop
// routable to every cluster no matter how the search commits the
// remaining ports.
func reserveRing(f *pg.Flow) error {
	k := f.T.NumRegular()
	for c := 0; c < k; c++ {
		if err := f.ReserveArc(pg.ClusterID(c), pg.ClusterID((c+1)%k)); err != nil {
			return err
		}
	}
	for i, in := range f.T.InputNodes() {
		if err := f.ReserveArc(in, pg.ClusterID(i%k)); err != nil {
			return err
		}
	}
	return nil
}

// RootTopology returns the machine's level-0 pattern-graph topology
// exactly as the HCA descent's root subproblem sees it (no ILI special
// nodes). The DSE sweep (internal/dse) fingerprints it to collapse
// fabrics whose neighborhood parameters differ but whose potential-
// connection structure does not — e.g. an RCP ring whose neighborhood
// already reaches every cluster is the same fabric as one with a wider
// ring, and solves identically.
func RootTopology(mc *machine.Config) *pg.Topology {
	return buildTopology(mc, 0, nil, nil)
}

// cnIndex converts a root-to-leaf group path plus the leaf group index
// into a global computation-node number.
func cnIndex(mc *machine.Config, path []int, leafGroup int) int {
	idx := 0
	for l, p := range path {
		idx += p * mc.CNsPerGroup(l)
	}
	return idx + leafGroup
}

// lessPath orders subproblems in depth-first hierarchy order.
func lessPath(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func pathString(path []int) string {
	parts := []string{"0"}
	for _, p := range path {
		parts = append(parts, fmt.Sprint(p))
	}
	return strings.Join(parts, ",")
}

// computeMII fills in the initiation-interval report (§4.2): Final is
// the level-0 figure the paper tabulates; AllLevels additionally folds in
// every deeper level's cluster pressure, every wire load, and the
// machine-wide DMA bound.
func (r *Result) computeMII() {
	r.MII.Final = r.MII.Rec
	r.MII.AllLevels = r.MII.Rec
	s := r.DDG.Stats()
	if r.Machine.DMAPorts > 0 {
		if m := (s.MemOps + r.Machine.DMAPorts - 1) / r.Machine.DMAPorts; m > r.MII.AllLevels {
			r.MII.AllLevels = m
		}
	}
	for _, ls := range r.Levels {
		m := ls.Flow.EstimateMII()
		if ls.Level == 0 && m > r.MII.Final {
			r.MII.Final = m
		}
		if m > r.MII.AllLevels {
			r.MII.AllLevels = m
		}
		if ls.Mapping.MaxWireLoad > r.MII.AllLevels {
			r.MII.AllLevels = ls.Mapping.MaxWireLoad
		}
	}
	if r.MII.Final > r.MII.AllLevels {
		r.MII.AllLevels = r.MII.Final
	}
}

// postProcess builds the final DDG (§4.1): a copy of the input DDG where
// every inter-CN dependence goes through an explicit receive primitive on
// the consumer's CN, with latency equal to the number of hierarchy levels
// the copy crosses.
func postProcess(r *Result) {
	final := r.DDG.Clone()
	finalCN := make([]int, final.Len())
	copy(finalCN, r.CN)

	// One receive per (producer, consumer CN).
	type key struct {
		v  graph.NodeID
		cn int
	}
	recvs := map[key]graph.NodeID{}
	type rewire struct {
		e    graph.EdgeID
		from graph.NodeID
	}
	var rewires []rewire
	r.DDG.G.Edges(func(e graph.Edge) {
		pcn, ccn := r.CN[e.From], r.CN[e.To]
		if pcn == ccn {
			return
		}
		if op := r.DDG.Node(e.From).Op; r.Remat && (op == ddg.OpConst || op == ddg.OpIV) {
			// Rematerialized at the consumer's cluster: no migration.
			return
		}
		k := key{e.From, ccn}
		rv, ok := recvs[k]
		if !ok {
			lat := copyLatency(r.Machine, pcn, ccn)
			rv = final.AddOpLatency(ddg.OpRecv, fmt.Sprintf("rcv_%s@%d", r.DDG.Node(e.From).Name, ccn), lat)
			final.AddDep(e.From, rv, 0, 0)
			finalCN = append(finalCN, ccn)
			recvs[k] = rv
			r.Recvs++
		}
		rewires = append(rewires, rewire{e.ID, rv})
	})
	// Re-point crossing edges at their receive node, preserving port and
	// distance. (Edge weights become the receive's latency.)
	for _, rw := range rewires {
		e := final.G.Edge(rw.e)
		port := final.Port(rw.e)
		final.G.RemoveEdge(rw.e)
		final.AddDep(rw.from, e.To, port, e.Distance)
	}
	r.Final = final
	r.FinalCN = finalCN
}

// copyLatency models operand migration cost: one cycle per hierarchy
// level the copy must climb to reach the consumer (CNs sharing a leaf
// crossbar exchange in 1 cycle; crossing the level-0 switch costs the
// full depth).
func copyLatency(mc *machine.Config, a, b int) int {
	if a == b {
		return 0
	}
	for l := 0; l < mc.NumLevels(); l++ {
		sz := mc.CNsPerGroup(l)
		if a/sz != b/sz {
			return mc.NumLevels() - l
		}
		a %= sz
		b %= sz
	}
	return 1
}

// CoherencyCheck is the paper's final validator: it re-verifies every
// level's flow and mapping, checks that child working sets exactly match
// the parent's assignment, that every inter-level value crossing appears
// in the parent's copy flow, and that the final DDG's receive placement
// is consistent with the CN assignment.
func CoherencyCheck(r *Result) error {
	byID := map[string]*LevelSolution{}
	for _, ls := range r.Levels {
		byID[ls.ID()] = ls
		if err := ls.Flow.Verify(); err != nil {
			return fmt.Errorf("level %s: %w", ls.ID(), err)
		}
	}
	// The CN table must agree with the leaf solutions (the table is
	// derived from them; any tampering or bookkeeping bug shows up here).
	for _, ls := range r.Levels {
		if ls.Level != r.Machine.NumLevels()-1 {
			continue
		}
		for c := 0; c < ls.Flow.T.NumRegular(); c++ {
			for _, n := range ls.Flow.Instructions(pg.ClusterID(c)) {
				if want := cnIndex(r.Machine, ls.Path, c); r.CN[n] != want {
					return fmt.Errorf("level %s: node %d on CN %d, leaf solution says %d", ls.ID(), n, r.CN[n], want)
				}
			}
		}
	}
	// Parent/child working-set consistency.
	for _, ls := range r.Levels {
		if ls.Level == 0 {
			continue
		}
		parentID := (&LevelSolution{Path: ls.Path[:len(ls.Path)-1]}).ID()
		parent := byID[parentID]
		if parent == nil {
			return fmt.Errorf("level %s: missing parent %s", ls.ID(), parentID)
		}
		g := pg.ClusterID(ls.Path[len(ls.Path)-1])
		want := parent.Flow.Instructions(g)
		got := assignedNodes(ls.Flow)
		if !sameNodeSet(want, got) {
			return fmt.Errorf("level %s: working set %v != parent assignment %v", ls.ID(), got, want)
		}
	}
	// Every cross-CN dependence must cross coherently at the level where
	// the two paths diverge: the parent flow there must deliver the value
	// to the consumer's group.
	var err error
	r.DDG.G.Edges(func(e graph.Edge) {
		if err != nil {
			return
		}
		pcn, ccn := r.CN[e.From], r.CN[e.To]
		if pcn == ccn {
			return
		}
		if op := r.DDG.Node(e.From).Op; r.Remat && (op == ddg.OpConst || op == ddg.OpIV) {
			return // rematerialized everywhere
		}
		path := []int{}
		a, b := pcn, ccn
		for l := 0; l < r.Machine.NumLevels(); l++ {
			sz := r.Machine.CNsPerGroup(l)
			ga, gb := a/sz, b/sz
			ls := byID[(&LevelSolution{Path: path}).ID()]
			if ls == nil {
				err = fmt.Errorf("missing level solution for path %v", path)
				return
			}
			if ga != gb {
				if !ls.Flow.Available(e.From, pg.ClusterID(gb)) {
					err = fmt.Errorf("value %d (for %d) never delivered to group %d at level %s",
						e.From, e.To, gb, ls.ID())
				}
				return
			}
			path = append(path, ga)
			a, b = a%sz, b%sz
		}
	})
	if err != nil {
		return err
	}
	// Final-DDG receive placement.
	if r.Final != nil {
		for n := r.DDG.Len(); n < r.Final.Len(); n++ {
			if r.Final.Node(graph.NodeID(n)).Op != ddg.OpRecv {
				return fmt.Errorf("post-processed node %d is not a receive", n)
			}
		}
		if err := r.Final.Validate(); err != nil {
			return fmt.Errorf("final DDG: %w", err)
		}
	}
	return nil
}

func assignedNodes(f *pg.Flow) []graph.NodeID {
	var out []graph.NodeID
	for c := 0; c < f.T.NumRegular(); c++ {
		out = append(out, f.Instructions(pg.ClusterID(c))...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameNodeSet(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]graph.NodeID(nil), a...)
	bs := append([]graph.NodeID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
