package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/mapper"
	"repro/internal/pg"
	"repro/internal/see"
	"repro/internal/trace"
)

// Subproblem memoization.
//
// The recursive descent solves the same subproblem over and over: the
// seeded and the pure hcaOnce pass descend through identical level
// trees, the driver's feedback variants share every retry-ladder rung
// whose configuration they do not override, and a long-running service
// sees the same (kernel, fabric) pairs across requests. One retry-ladder
// attempt — a full beam search plus the pass-through routing — is the
// expensive unit of that duplicated work, so it is the memoized unit.
//
// A key identifies an attempt content-addressably: the DDG (sha256
// content hash), the subproblem's pattern-graph topology — whose special
// nodes carry the ILI value lists, so the ILI is part of the structural
// fingerprint — the start flow state, the working set, and every search
// knob of the rung. The start state is deterministically constructed
// from (DDG, topology, working set, rematerialization flag, ring rung),
// all of which the key covers, so a verified hit cannot be a false
// share: a 128-bit fingerprint collision degrades into a fail-safe full
// compare of topology and working set, and on mismatch into a local
// recompute — never into a wrong answer.

// AttemptKey content-addresses one retry-ladder attempt. It is a
// comparable value type usable as a map key.
type AttemptKey struct {
	// DDG is the sha256 content fingerprint of the kernel's DDG.
	DDG string
	// Topo is the structural topology fingerprint (ILI value lists
	// included via the special nodes' Carries; Name excluded, so
	// structurally identical subproblems match across hierarchy paths,
	// passes, variants and requests).
	Topo pg.Fingerprint
	// Start is the incremental state fingerprint of the attempt's start
	// flow (captures rematerialized values and ring reservations).
	Start pg.Fingerprint
	// WS is the order-sensitive hash of the working-set node list.
	WS pg.Fingerprint
	// MIIRec pins the static recurrence bound the cost model reads.
	MIIRec int
	// Beam and Cand are the rung's effective search widths.
	Beam, Cand int
	// Rung identifies the rung's criteria: 0 = caller criteria,
	// 1/2 = the port-heavy retry criteria.
	Rung uint8
	// Flags packs the kf* option bits.
	Flags uint8
	// Engine discriminates which engine computed the attempt (engineSee,
	// engineExact, enginePortfolio). Different engines explore the same
	// subproblem differently, so one engine's cached result must never
	// replay into another engine's attempt: most acutely, an exact result
	// computed under relaxed options must not corrupt a strict-mode beam
	// solve's byte-for-byte equivalence with the reference engine.
	Engine uint8
	// Budget is the effective exact node budget of the exact and
	// portfolio engines (0 for the beam engine): a proof under a small
	// budget and one under a large budget are different computations
	// with possibly different incumbents.
	Budget int64
}

// Flag bits of AttemptKey.Flags.
const (
	kfSchedAware uint8 = 1 << iota // scheduling-aware criterion (rung 0 only)
	kfDisableDedup
	kfRemat
	kfRing // ring-reserved retry of the rung
)

// MemoEntry is one memoized attempt. The leader that computed it fills
// it exactly once before publishing; after that every field except the
// lazily attached mapping is immutable, so waiters read without locks.
type MemoEntry struct {
	ready chan struct{} // closed on publish (Complete) or Abandon

	// ok distinguishes a published result from an abandoned computation
	// (context cancellation): abandoned entries must be recomputed.
	ok bool
	// failed carries negative results: the attempt dead-ended and every
	// future identical attempt will dead-end identically.
	failed bool
	errMsg string
	flow   *pg.Flow
	stats  see.Stats
	// Engine provenance and optimality certificate of the cached attempt
	// (see attemptOutcome); replayed verbatim into every hit.
	engine string
	score  float64
	proved bool
	bound  float64

	// Fail-safe identity behind the fingerprint key: a hit is honored
	// only after these compare equal, so a key collision costs a local
	// recompute instead of a wrong answer.
	topo *pg.Topology
	ws   []graph.NodeID

	// mapping lazily attaches the mapper result derived from flow, so a
	// hit skips the mapper too when the wire budgets agree.
	mapping atomic.Pointer[memoMapping]
}

type memoMapping struct {
	outW, inW int
	m         *mapper.Result
}

func (e *MemoEntry) fill(out attemptOutcome, t *pg.Topology, ws []graph.NodeID) {
	e.topo = t
	e.ws = append([]graph.NodeID(nil), ws...)
	if out.err != nil {
		e.failed = true
		e.errMsg = out.err.Error()
		return
	}
	e.flow = out.flow
	e.stats = out.stats
	e.engine = out.engine
	e.score = out.score
	e.proved = out.proved
	e.bound = out.bound
}

// matches is the fail-safe full compare behind a fingerprint hit.
func (e *MemoEntry) matches(t *pg.Topology, ws []graph.NodeID) bool {
	if !e.topo.Equal(t) || len(e.ws) != len(ws) {
		return false
	}
	for i := range ws {
		if e.ws[i] != ws[i] {
			return false
		}
	}
	return true
}

// outcome converts the entry back into an attempt result. The flow is
// cloned: committed level solutions must never alias across concurrent
// consumers of the memo.
func (e *MemoEntry) outcome() attemptOutcome {
	if e.failed {
		return attemptOutcome{err: errors.New(e.errMsg)}
	}
	return attemptOutcome{
		flow: e.flow.Clone(), stats: e.stats,
		engine: e.engine, score: e.score, proved: e.proved, bound: e.bound,
	}
}

// Mapping returns the attached mapper result if one was computed under
// the same wire budgets, else nil.
func (e *MemoEntry) Mapping(outW, inW int) *mapper.Result {
	if mm := e.mapping.Load(); mm != nil && mm.outW == outW && mm.inW == inW {
		return mm.m
	}
	return nil
}

// AttachMapping records the mapper result derived from the entry's flow
// so later hits with the same wire budgets skip the mapper.
func (e *MemoEntry) AttachMapping(outW, inW int, m *mapper.Result) {
	e.mapping.CompareAndSwap(nil, &memoMapping{outW: outW, inW: inW, m: m})
}

// EngineMemoStats is one engine's slice of the memo's hit/miss traffic.
type EngineMemoStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// MemoStats is the memo's observability snapshot.
type MemoStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int   `json:"entries"`
	Evictions int64 `json:"evictions"`
	// ByEngine breaks the hit/miss totals down by the engine that keyed
	// the attempt ("see", "exact" or "portfolio"). Engines with no
	// traffic are omitted.
	ByEngine map[string]EngineMemoStats `json:"by_engine,omitempty"`
}

// SubproblemMemo is the cross-solve attempt cache the HCA descent
// consults. *Memo is the canonical implementation; the interface exists
// so the compilation service can hoist one process-wide instance above
// every request (and tests can substitute instrumented fakes).
//
// Protocol: Acquire returns (entry, leader). The leader computes the
// attempt, fills the entry and publishes it with Complete — or Abandon
// when the computation was cancelled and the result untrustworthy.
// Followers block in Acquire until the entry resolves (or their ctx
// does). Observe records the caller's verified hit/miss outcome under
// the attempt key's engine discriminator (AttemptKey.Engine), so the
// hit/miss accounting can be broken down per engine.
type SubproblemMemo interface {
	Acquire(ctx context.Context, k AttemptKey) (e *MemoEntry, leader bool, err error)
	Complete(k AttemptKey, e *MemoEntry)
	Abandon(k AttemptKey, e *MemoEntry)
	Observe(hit bool, engine uint8)
	Stats() MemoStats
}

// Memo is a concurrency-safe, single-flight, LRU-bounded attempt cache.
type Memo struct {
	hits   atomic.Int64
	misses atomic.Int64
	// Per-engine slices of the totals, indexed by the engine
	// discriminator (engineSee..enginePortfolio).
	engHits   [numEngines]atomic.Int64
	engMisses [numEngines]atomic.Int64

	mu        sync.Mutex
	cap       int // 0 = unbounded (per-run memos)
	items     map[AttemptKey]*memoBox
	lru       *list.List // of AttemptKey; completed entries only
	evictions int64
}

type memoBox struct {
	entry *MemoEntry
	elem  *list.Element // nil while in flight
}

// NewMemo returns a memo bounded to cap completed entries, evicting the
// least recently used beyond it; cap <= 0 means unbounded, the right
// size for the per-run memo HCA creates itself.
func NewMemo(cap int) *Memo {
	return &Memo{cap: cap, items: make(map[AttemptKey]*memoBox), lru: list.New()}
}

// Acquire resolves k to its entry. The second result is true when the
// caller became the leader and must Complete or Abandon the returned
// in-flight entry; false means the entry is resolved (published or
// abandoned — check entry.ok via the solve path). A follower whose ctx
// dies while waiting gets ctx's error.
func (m *Memo) Acquire(ctx context.Context, k AttemptKey) (*MemoEntry, bool, error) {
	m.mu.Lock()
	if b, ok := m.items[k]; ok {
		if b.elem != nil {
			m.lru.MoveToFront(b.elem)
		}
		e := b.entry
		m.mu.Unlock()
		select {
		case <-e.ready:
			return e, false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e := &MemoEntry{ready: make(chan struct{})}
	m.items[k] = &memoBox{entry: e}
	m.mu.Unlock()
	return e, true, nil
}

// Complete publishes a filled entry under k and applies the LRU bound.
func (m *Memo) Complete(k AttemptKey, e *MemoEntry) {
	e.ok = true
	close(e.ready)
	m.mu.Lock()
	if b, ok := m.items[k]; ok && b.entry == e {
		b.elem = m.lru.PushFront(k)
		for m.cap > 0 && m.lru.Len() > m.cap {
			back := m.lru.Back()
			delete(m.items, back.Value.(AttemptKey))
			m.lru.Remove(back)
			m.evictions++
		}
	}
	m.mu.Unlock()
}

// Abandon withdraws an in-flight entry (cancelled computation): current
// waiters fall back to a local solve, and the next Acquire of k starts a
// fresh leader.
func (m *Memo) Abandon(k AttemptKey, e *MemoEntry) {
	close(e.ready) // e.ok stays false
	m.mu.Lock()
	if b, ok := m.items[k]; ok && b.entry == e {
		delete(m.items, k)
		if b.elem != nil {
			m.lru.Remove(b.elem)
		}
	}
	m.mu.Unlock()
}

// Observe records one verified attempt outcome against the hit/miss
// counters (a hit is only counted after the fail-safe compare passed),
// attributed to the engine whose key the attempt ran under.
func (m *Memo) Observe(hit bool, engine uint8) {
	if engine >= numEngines {
		engine = engineSee // defensive: unknown discriminators fold into the default
	}
	if hit {
		m.hits.Add(1)
		m.engHits[engine].Add(1)
	} else {
		m.misses.Add(1)
		m.engMisses[engine].Add(1)
	}
}

// Stats snapshots the memo's counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	entries, ev := m.lru.Len(), m.evictions
	m.mu.Unlock()
	s := MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: entries, Evictions: ev}
	for e := uint8(0); e < numEngines; e++ {
		h, ms := m.engHits[e].Load(), m.engMisses[e].Load()
		if h == 0 && ms == 0 {
			continue
		}
		if s.ByEngine == nil {
			s.ByEngine = make(map[string]EngineMemoStats, numEngines)
		}
		s.ByEngine[engineTag(e)] = EngineMemoStats{Hits: h, Misses: ms}
	}
	return s
}

// attemptOutcome is one retry-ladder attempt's result: the committed
// solution flow with its search stats, or the error that dead-ended it.
type attemptOutcome struct {
	flow  *pg.Flow
	stats see.Stats
	err   error
	// engine names the engine that produced flow ("see"/"exact"); score
	// is its objective value (the engines score bit-identically through
	// see.ScoreFlow, so scores compare across engines).
	engine string
	score  float64
	// proved/bound is the exact engine's optimality certificate: bound
	// is a true lower bound over the subproblem's assignment space.
	proved bool
	bound  float64
}

// attemptKeyFor derives the content address of one ladder attempt. The
// effective widths are normalized through WithDefaults so "beam 0" and
// "beam 8" share an entry, exactly like the service's result cache.
func attemptKeyFor(opt Options, start *pg.Flow, ws []graph.NodeID, cfg see.Config, rung int, ring bool) AttemptKey {
	wcfg := cfg.WithDefaults()
	k := AttemptKey{
		DDG:    opt.ddgFP,
		Topo:   start.T.Fingerprint(),
		Start:  start.Fingerprint(),
		WS:     wsFingerprint(ws),
		MIIRec: start.MIIRecStatic,
		Beam:   wcfg.BeamWidth,
		Cand:   wcfg.CandWidth,
		Rung:   uint8(rung),
	}
	if rung == 0 && opt.SchedulingAware {
		k.Flags |= kfSchedAware
	}
	if cfg.DisableDedup {
		k.Flags |= kfDisableDedup
	}
	if !opt.DisableRematerialization {
		k.Flags |= kfRemat
	}
	if ring {
		k.Flags |= kfRing
	}
	k.Engine = opt.engineID()
	if k.Engine != engineSee {
		k.Budget = exact.EffectiveBudget(opt.ExactBudget)
	}
	return k
}

// wsFingerprint hashes the working-set node list (order-sensitive: the
// list order seeds the priority list's stable sort).
func wsFingerprint(ws []graph.NodeID) pg.Fingerprint {
	h := pg.Fingerprint{}.Absorb(0x7773) // domain separator "ws"
	h = h.Absorb(uint64(len(ws)))
	for _, n := range ws {
		h = h.Absorb(uint64(n))
	}
	return h
}

// runAttempt executes one retry-ladder attempt: the engine's solve plus
// the pass-through routing of values that arrive on an input wire and
// leave on an output wire without a producer in this working set (the
// engines only route around assigned instructions). Routing lives here,
// above the engine, so every engine's attempt covers the identical
// contract.
func runAttempt(ctx context.Context, eng Engine, start *pg.Flow, ws []graph.NodeID, cfg see.Config) attemptOutcome {
	res, err := eng.Solve(ctx, start, ws, cfg)
	if err != nil {
		return attemptOutcome{err: err, engine: eng.Name()}
	}
	out := attemptOutcome{
		flow: res.Flow, stats: res.Stats, score: res.Score,
		proved: res.Proved, bound: res.Bound, engine: res.Winner,
	}
	for _, o := range start.T.OutputNodes() {
		for _, v := range start.T.Cluster(o).Carries {
			if !out.flow.Available(v, o) {
				if rerr := out.flow.Route(v, o); rerr != nil {
					err := fmt.Errorf("pass-through value %d: %w", v, pg.DetachError(rerr))
					out.flow.Release()
					return attemptOutcome{err: err, engine: out.engine}
				}
			}
		}
	}
	return out
}

// solveAttempt is runAttempt behind the memo: a verified hit returns the
// cached solution (cloned) without re-running the engine; a miss
// computes, publishes and returns. A cancelled computation is
// abandoned, never cached. The returned entry (nil without a memo or on
// the fail-safe path) lets the caller reuse or attach the mapper result.
func solveAttempt(ctx context.Context, memo SubproblemMemo, key AttemptKey, eng Engine, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (attemptOutcome, *MemoEntry) {
	if memo == nil {
		return runAttempt(ctx, eng, start, ws, cfg), nil
	}
	e, leader, err := memo.Acquire(ctx, key)
	if err != nil {
		return attemptOutcome{err: err}, nil
	}
	if leader {
		memo.Observe(false, key.Engine)
		traceMemo(ctx, "memo.miss", "memo.misses", key)
		out := runAttempt(ctx, eng, start, ws, cfg)
		if out.err != nil && ctx.Err() != nil {
			// Cancelled: not the subproblem's answer, so never cached.
			memo.Abandon(key, e)
			return out, nil
		}
		e.fill(out, start.T, ws)
		memo.Complete(key, e)
		return out, e
	}
	if e.ok && e.matches(start.T, ws) {
		memo.Observe(true, key.Engine)
		traceMemo(ctx, "memo.hit", "memo.hits", key)
		return e.outcome(), e
	}
	// Abandoned leader, or a 128-bit key collision the full compare
	// caught: fail safe with a local solve and leave the cache alone.
	memo.Observe(false, key.Engine)
	traceMemo(ctx, "memo.miss", "memo.misses", key)
	return runAttempt(ctx, eng, start, ws, cfg), nil
}

func traceMemo(ctx context.Context, what, counter string, k AttemptKey) {
	_, sp := trace.Start(ctx, what)
	sp.SetInt("rung", int64(k.Rung))
	sp.End()
	trace.Count(ctx, counter, 1)
}
