package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/see"
)

// Options tunes a sweep.
type Options struct {
	// Beam and Cand are the SEE search widths applied to every point
	// (0 = the engine defaults).
	Beam, Cand int
	// ExactBudget caps the exact engine's node expansions per attempt
	// for points whose engine axis selects "exact" or "portfolio".
	ExactBudget int64
	// Memo is the subproblem memo shared across every point of the
	// sweep; nil creates a fresh unbounded one. The compilation service
	// injects its process-wide instance, so sweeps additionally share
	// with — and warm — ordinary compile traffic.
	Memo *core.Memo
	// MaxPoints rejects grids expanding beyond it with a typed error
	// (0 = unbounded; the service sets its endpoint bound here).
	MaxPoints int
}

// Validate checks the search widths and the exact budget every point
// solves with, through core.Options.Validate.
func (o Options) Validate() error { return o.point("").Validate() }

// point returns the options one point solves with under engine.
func (o Options) point(engine string) core.Options {
	return core.Options{
		SEE:         see.Config{BeamWidth: o.Beam, CandWidth: o.Cand},
		Engine:      engine,
		ExactBudget: o.ExactBudget,
		Memo:        o.Memo,
	}
}

// PointResult is one grid point's outcome. Deduplicated points carry
// the full result of their canonical sibling's solve.
type PointResult struct {
	Index   int    `json:"index"`
	Machine string `json:"machine"`
	Engine  string `json:"engine"`
	// Fingerprint is the structural fabric identity (hex) dedup keys on.
	Fingerprint string `json:"fingerprint"`
	// Canonical is the index of the point that actually solved this
	// fabric; Canonical == Index for points that solved themselves.
	Canonical int `json:"canonical"`
	// Cost is the fabric-cost breakdown (machine.Config.Cost).
	Cost CostJSON `json:"cost"`
	// MII figures of the solve (core.MII); MIIFinal is the paper's
	// Table-1 column and the Pareto objective.
	MIIRec       int `json:"mii_rec,omitempty"`
	MIIRes       int `json:"mii_res,omitempty"`
	MIIFinal     int `json:"mii_final,omitempty"`
	MIIAllLevels int `json:"mii_all_levels,omitempty"`
	// Receives counts inserted receive primitives.
	Receives int `json:"receives,omitempty"`
	// Legal reports the coherency checker passed.
	Legal bool `json:"legal,omitempty"`
	// Winner names the engine (or "seed") that won the most subproblems.
	Winner string `json:"winner,omitempty"`
	// Error carries a per-point solve failure; the rest of the sweep is
	// unaffected and the point is excluded from the front.
	Error string `json:"error,omitempty"`
}

// CostJSON mirrors machine.Cost with stable JSON field order.
type CostJSON struct {
	Crosspoints int64 `json:"crosspoints"`
	CNs         int64 `json:"cns"`
	Mem         int64 `json:"mem"`
	DMA         int64 `json:"dma"`
	Total       int64 `json:"total"`
}

// FrontPoint is one Pareto-optimal configuration: no other successful
// point achieves both a lower-or-equal cost and a lower-or-equal MII
// with one strict. Sorted by ascending cost (so strictly descending
// MII), ties broken by canonical point index.
type FrontPoint struct {
	Index   int    `json:"index"`
	Machine string `json:"machine"`
	Engine  string `json:"engine"`
	MII     int    `json:"mii"`
	Cost    int64  `json:"cost"`
}

// Stats is the sweep's run accounting. Unlike Points and Front it is
// NOT part of the deterministic output contract: wall time varies by
// host, and the memo deltas vary when the memo is shared with
// concurrent outside traffic (the service's process-wide instance).
type Stats struct {
	Points  int `json:"points"`
	Unique  int `json:"unique"`
	Deduped int `json:"deduped"`
	Failed  int `json:"failed"`
	// Memo is the shared memo's traffic delta over the sweep (hits,
	// misses and per-engine breakdown; entries/evictions absolute).
	Memo core.MemoStats `json:"memo"`
	// MemoHitRatio is Memo.Hits / (Memo.Hits + Memo.Misses).
	MemoHitRatio float64 `json:"memo_hit_ratio"`
	WallNs       int64   `json:"wall_ns"`
}

// Result is a complete sweep: every point in canonical grid order, the
// Pareto front, and the run stats.
type Result struct {
	Kernel string        `json:"kernel"`
	Points []PointResult `json:"points"`
	Front  []FrontPoint  `json:"front"`
	Stats  Stats         `json:"stats"`
}

// CanonicalJSON renders the deterministic part of the sweep output —
// the point set and the Pareto front. Byte-identical across runs and
// worker counts for the same kernel, grid and options.
func (r *Result) CanonicalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		Kernel string        `json:"kernel"`
		Points []PointResult `json:"points"`
		Front  []FrontPoint  `json:"front"`
	}{r.Kernel, r.Points, r.Front})
	return buf.Bytes(), err
}

// Sweep compiles d against every point of g and returns the per-point
// results with their Pareto front over (final MII, fabric cost).
//
// Fingerprint-identical fabrics are collapsed before solving; the
// surviving points are visited in warm order (nearest-neighbor grid
// traversal, maximizing memo locality between temporally adjacent
// solves) and solved in parallel via par.ForEachCtx against one shared
// subproblem memo. Cancellation aborts the sweep with ctx's error.
//
// Determinism: the output depends only on (d, g, opt-minus-Memo). Solve
// order and worker count cannot change it — each point's solve is
// deterministic in isolation, a memo hit replays a bit-identical cached
// attempt (so sharing changes cost, never content), and the output is
// ordered by canonical point index, not completion order.
func Sweep(ctx context.Context, d *ddg.DDG, g Grid, opt Options) (*Result, error) {
	if n := g.NumPoints(); opt.MaxPoints > 0 && n > opt.MaxPoints {
		return nil, &see.OptionError{Field: "grid", Value: n,
			Reason: "grid expands beyond the point bound"}
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	pts, err := g.Expand()
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}

	// Collapse fingerprint-identical fabrics (same engine) onto the
	// first point that carries them, with the fail-safe full compare
	// behind every fingerprint match.
	type fabKey struct {
		engine string
		fp     [2]uint64
	}
	fps := make([]string, len(pts))
	canonical := make([]int, len(pts))
	first := make(map[fabKey]int, len(pts))
	var solveIdx []int // canonical points, in canonical order
	for i := range pts {
		fp := fabricFingerprint(pts[i].Machine)
		fps[i] = fpHex(fp.Hi, fp.Lo)
		k := fabKey{engine: pts[i].Engine, fp: [2]uint64{fp.Hi, fp.Lo}}
		if j, ok := first[k]; ok && sameFabric(pts[j].Machine, pts[i].Machine) {
			canonical[i] = j
			continue
		}
		first[k] = i
		canonical[i] = i
		solveIdx = append(solveIdx, i)
	}

	order := warmOrder(pts, solveIdx)

	if opt.Memo == nil {
		opt.Memo = core.NewMemo(0)
	}
	memo := opt.Memo
	before := memo.Stats()

	// Per-order-slot result slices: each worker writes only its own
	// index, keeping the fan-out deterministic and race-free.
	solved := make([]*core.Result, len(order))
	serrs := make([]error, len(order))
	startT := time.Now()
	ferr := par.ForEachCtx(ctx, len(order), func(oi int) {
		p := &pts[order[oi]]
		res, err := core.HCA(ctx, d, p.Machine, opt.point(p.Engine))
		solved[oi], serrs[oi] = res, err
	})
	if ferr != nil {
		return nil, ferr
	}
	wall := time.Since(startT)

	// Scatter back to canonical point indices.
	byPoint := make([]*core.Result, len(pts))
	errByPoint := make([]error, len(pts))
	for oi, pi := range order {
		byPoint[pi], errByPoint[pi] = solved[oi], serrs[oi]
	}

	out := &Result{Kernel: d.Name}
	out.Stats = Stats{Points: len(pts), Unique: len(solveIdx), Deduped: len(pts) - len(solveIdx), WallNs: int64(wall)}
	out.Stats.Memo = memoDelta(before, memo.Stats())
	if t := out.Stats.Memo.Hits + out.Stats.Memo.Misses; t > 0 {
		out.Stats.MemoHitRatio = float64(out.Stats.Memo.Hits) / float64(t)
	}
	for i := range pts {
		ci := canonical[i]
		pr := PointResult{
			Index:       i,
			Machine:     pts[i].Machine.Name,
			Engine:      pts[i].Engine,
			Fingerprint: fps[i],
			Canonical:   ci,
			Cost:        costJSON(pts[i].Machine.Cost()),
		}
		if err := errByPoint[ci]; err != nil {
			pr.Error = err.Error()
			out.Stats.Failed++
		} else if res := byPoint[ci]; res != nil {
			pr.MIIRec, pr.MIIRes = res.MII.Rec, res.MII.Res
			pr.MIIFinal, pr.MIIAllLevels = res.MII.Final, res.MII.AllLevels
			pr.Receives = res.Recvs
			pr.Legal = res.Legal
			pr.Winner = topWinner(res.EngineWins)
		}
		out.Points = append(out.Points, pr)
	}
	out.Front = paretoFront(out.Points)
	return out, nil
}

func costJSON(c machine.Cost) CostJSON {
	return CostJSON{Crosspoints: c.Crosspoints, CNs: c.CNs, Mem: c.Mem, DMA: c.DMA, Total: c.Total}
}

// topWinner returns the engine with the most subproblem wins, ties
// broken alphabetically for determinism.
func topWinner(wins map[string]int) string {
	best, n := "", -1
	for eng, c := range wins {
		if c > n || (c == n && eng < best) {
			best, n = eng, c
		}
	}
	return best
}

// memoDelta subtracts the pre-sweep traffic counters; entry/eviction
// occupancy stays absolute (it describes the memo, not the sweep).
func memoDelta(before, after core.MemoStats) core.MemoStats {
	d := core.MemoStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Entries:   after.Entries,
		Evictions: after.Evictions,
	}
	for eng, a := range after.ByEngine {
		b := before.ByEngine[eng]
		e := core.EngineMemoStats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses}
		if e.Hits == 0 && e.Misses == 0 {
			continue
		}
		if d.ByEngine == nil {
			d.ByEngine = make(map[string]core.EngineMemoStats, len(after.ByEngine))
		}
		d.ByEngine[eng] = e
	}
	return d
}

// paretoFront computes the non-dominated set over (MIIFinal, Cost.Total)
// of the successful, legal, canonical points: sort by (cost, mii,
// index), then sweep keeping every point that strictly improves MII.
func paretoFront(points []PointResult) []FrontPoint {
	var cand []*PointResult
	for i := range points {
		p := &points[i]
		if p.Error == "" && p.Legal && p.Canonical == p.Index {
			cand = append(cand, p)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		if a.Cost.Total != b.Cost.Total {
			return a.Cost.Total < b.Cost.Total
		}
		if a.MIIFinal != b.MIIFinal {
			return a.MIIFinal < b.MIIFinal
		}
		return a.Index < b.Index
	})
	var front []FrontPoint
	best := int(^uint(0) >> 1) // MaxInt
	for _, p := range cand {
		if p.MIIFinal < best {
			front = append(front, FrontPoint{
				Index: p.Index, Machine: p.Machine, Engine: p.Engine,
				MII: p.MIIFinal, Cost: p.Cost.Total,
			})
			best = p.MIIFinal
		}
	}
	return front
}

// warmOrder schedules the canonical points for solving: a greedy
// nearest-neighbor traversal of the grid in axis-index space, starting
// from the first canonical point. Neighboring configurations share the
// most subproblem content, so visiting them adjacently maximizes the
// chance that a point's attempts are already resolved (or in flight,
// joining as single-flight followers) when it runs. The engine axis is
// weighted heavily: points under different engines share no memo
// entries at all (engine-discriminated keys), so they group last.
//
// The traversal is a pure function of the grid — deterministic
// tie-breaks (lowest index), no randomness — which is one half of the
// sweep's determinism guarantee; the other half is that memo hits
// replay bit-identical attempts, so schedule and worker count can only
// change *when* work happens, never its result.
func warmOrder(pts []Point, solveIdx []int) []int {
	n := len(solveIdx)
	if n <= 2 {
		return append([]int(nil), solveIdx...)
	}
	dist := func(a, b int) int {
		ca, cb := pts[a].coords, pts[b].coords
		d := 0
		for i := range ca {
			dd := ca[i] - cb[i]
			if dd < 0 {
				dd = -dd
			}
			w := 1
			if i == 0 {
				w = 1 << 20 // engine axis: effectively group by engine
			}
			d += w * dd
		}
		return d
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	cur := 0
	order = append(order, solveIdx[0])
	used[0] = true
	for len(order) < n {
		bestJ, bestD := -1, int(^uint(0)>>1)
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			if d := dist(solveIdx[cur], solveIdx[j]); d < bestD {
				bestJ, bestD = j, d
			}
		}
		used[bestJ] = true
		order = append(order, solveIdx[bestJ])
		cur = bestJ
	}
	return order
}

func fpHex(hi, lo uint64) string {
	const hexd = "0123456789abcdef"
	var b [32]byte
	for i := 0; i < 16; i++ {
		b[15-i] = hexd[(hi>>(4*i))&0xf]
		b[31-i] = hexd[(lo>>(4*i))&0xf]
	}
	return string(b[:])
}
