package core

import (
	"container/list"
	"context"
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
// attempt — the engine's solve plus the pass-through routing — is the
// expensive unit of that duplicated work, so it is the memoized unit.
//
// A key identifies an attempt content-addressably: the DDG (sha256
// content hash), the subproblem's pattern-graph topology — whose special
// nodes carry the ILI value lists, so the ILI is part of the structural
// fingerprint — the start flow state, the working set, the engine and
// every search knob of the rung. The start state is deterministically
// constructed from (DDG, topology, working set, rematerialization flag,
// ring rung), all of which the key covers, so a verified hit cannot be a
// false share: a 128-bit fingerprint collision degrades into a fail-safe
// full compare of topology and working set, and on mismatch into a local
// recompute — never into a wrong answer. The key holds no machine or
// topology name, so nothing an attempt returns may carry one either.

// attemptKey content-addresses one retry-ladder attempt. It is a
// comparable value type usable as a map key; attemptKeyFor builds it.
type attemptKey struct {
	// DDG is the sha256 content fingerprint of the kernel's DDG.
	DDG string
	// Topo is the structural topology fingerprint (ILI value lists
	// included via the special nodes' Carries; Name excluded, so
	// structurally identical subproblems match across hierarchy paths,
	// passes, variants, machines and requests).
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
	// Engine is the registry name of the engine that runs the attempt
	// ("see", "exact" or "portfolio"). Different engines explore the same
	// subproblem differently, so one engine's cached result must never
	// replay into another engine's attempt: most acutely, an exact result
	// computed under relaxed options must not corrupt a strict-mode beam
	// solve's byte-for-byte equivalence with the reference engine.
	Engine string
	// Budget is the effective exact node budget of the exact and
	// portfolio engines (0 for the beam engine): a proof under a small
	// budget and one under a large budget are different computations
	// with possibly different incumbents.
	Budget int64
}

// Flag bits of attemptKey.Flags.
const (
	kfSchedAware uint8 = 1 << iota // scheduling-aware criterion (rung 0 only)
	kfDisableDedup
	kfRemat
	kfRing // ring-reserved retry of the rung
)

// memoEntry is one memoized attempt. The leader fills it once before
// closing ready; after that every field except the lazily attached
// mapping and the memo-guarded LRU element is immutable, so waiters read
// it without locks.
type memoEntry struct {
	ready chan struct{} // closed when the leader publishes or abandons
	// ok distinguishes a published result from an abandoned computation
	// (context cancellation), which waiters must recompute.
	ok bool
	// res and err are the attempt's result — the engine's own, with the
	// pass-through routes in its flow — or the error that dead-ended it:
	// every future identical attempt dead-ends identically.
	res *EngineResult
	err error

	// Fail-safe identity behind the fingerprint key: a hit is honored
	// only after these compare equal, so a key collision costs a local
	// recompute instead of a wrong answer.
	topo *pg.Topology
	ws   []graph.NodeID

	// mapping lazily attaches the mapper result derived from res.Flow, so
	// a hit skips the mapper too when the wire budgets agree.
	mapping atomic.Pointer[memoMapping]

	elem *list.Element // LRU position, guarded by Memo.mu; nil while in flight
}

type memoMapping struct {
	outW, inW int
	m         *mapper.Result
}

// matches is the fail-safe full compare behind a fingerprint hit.
func (e *memoEntry) matches(t *pg.Topology, ws []graph.NodeID) bool {
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

// mapped returns the mapper result attached under the same wire budgets,
// else nil (always nil for a nil entry).
func (e *memoEntry) mapped(outW, inW int) *mapper.Result {
	if e == nil {
		return nil
	}
	if mm := e.mapping.Load(); mm != nil && mm.outW == outW && mm.inW == inW {
		return mm.m
	}
	return nil
}

// attach records the mapper result derived from the entry's flow so later
// hits with the same wire budgets skip the mapper; a no-op on nil.
func (e *memoEntry) attach(outW, inW int, m *mapper.Result) {
	if e != nil {
		e.mapping.CompareAndSwap(nil, &memoMapping{outW: outW, inW: inW, m: m})
	}
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

// Memo is a concurrency-safe, single-flight, LRU-bounded attempt cache.
// HCA creates one per run unless Options supplies one; the driver's
// feedback variants, a dse sweep's points and the compilation service's
// requests share one across runs.
type Memo struct {
	mu        sync.Mutex
	cap       int // 0 = unbounded (per-run memos)
	items     map[attemptKey]*memoEntry
	lru       *list.List // of attemptKey; published entries only
	evictions int64
	byEngine  map[string]EngineMemoStats // verified hits and misses per key engine
}

// NewMemo returns a memo bounded to cap published entries, evicting the
// least recently used beyond it; cap <= 0 means unbounded, the right
// size for the per-run memo HCA creates itself.
func NewMemo(cap int) *Memo {
	return &Memo{cap: cap, items: make(map[attemptKey]*memoEntry), lru: list.New(),
		byEngine: make(map[string]EngineMemoStats)}
}

// attempt runs one retry-ladder attempt (runAttempt) behind the memo; a
// nil memo just runs it. The first caller of a key leads: it runs it and
// publishes the result or the dead-end error, unless ctx ended during
// the run, in which case it withdraws the entry so the next caller of
// the key leads afresh. Other callers wait for the leader (or their own
// ctx) and, once the fail-safe structural compare passes, get the
// published result with a clone of its flow — committed level solutions
// never alias across consumers. A withdrawn entry or a fingerprint
// collision runs the attempt locally and leaves the cache alone. The
// returned entry (nil when nothing was published or found) carries the
// winner's mapper result across hits.
func (m *Memo) attempt(ctx context.Context, k attemptKey, eng Engine, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (*EngineResult, *memoEntry, error) {
	if m == nil {
		res, err := runAttempt(ctx, eng, start, ws, cfg)
		return res, nil, err
	}
	m.mu.Lock()
	e, found := m.items[k]
	if !found {
		e = &memoEntry{ready: make(chan struct{})}
		m.items[k] = e
	} else if e.elem != nil {
		m.lru.MoveToFront(e.elem)
	}
	m.mu.Unlock()

	if found {
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		if !e.ok || !e.matches(start.T, ws) {
			m.count(ctx, k, false)
			res, err := runAttempt(ctx, eng, start, ws, cfg)
			return res, nil, err
		}
		m.count(ctx, k, true)
		if e.err != nil {
			return nil, nil, e.err
		}
		res := *e.res
		res.Flow = e.res.Flow.Clone()
		return &res, e, nil
	}

	m.count(ctx, k, false)
	res, err := runAttempt(ctx, eng, start, ws, cfg)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil && ctx.Err() != nil {
		// Cancelled: not the subproblem's answer, so never cached.
		delete(m.items, k)
		close(e.ready)
		return res, nil, err
	}
	e.ok, e.res, e.err = true, res, err
	e.topo, e.ws = start.T, append([]graph.NodeID(nil), ws...)
	close(e.ready)
	e.elem = m.lru.PushFront(k)
	for m.cap > 0 && m.lru.Len() > m.cap {
		back := m.lru.Back()
		delete(m.items, back.Value.(attemptKey))
		m.lru.Remove(back)
		m.evictions++
	}
	return res, e, err
}

// count records one attempt outcome under the key's engine — a hit only
// after the fail-safe compare passed — with its trace span and counter.
func (m *Memo) count(ctx context.Context, k attemptKey, hit bool) {
	name, counter := "memo.miss", "memo.misses"
	m.mu.Lock()
	s := m.byEngine[k.Engine]
	if hit {
		name, counter = "memo.hit", "memo.hits"
		s.Hits++
	} else {
		s.Misses++
	}
	m.byEngine[k.Engine] = s
	m.mu.Unlock()
	_, sp := trace.Start(ctx, name)
	sp.SetInt("rung", int64(k.Rung))
	sp.End()
	trace.Count(ctx, counter, 1)
}

// Stats snapshots the memo's counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MemoStats{Entries: m.lru.Len(), Evictions: m.evictions}
	for eng, c := range m.byEngine {
		s.Hits += c.Hits
		s.Misses += c.Misses
		if s.ByEngine == nil {
			s.ByEngine = make(map[string]EngineMemoStats, len(m.byEngine))
		}
		s.ByEngine[eng] = c
	}
	return s
}

// attemptKeyFor derives the content address of one ladder attempt. The
// effective widths are normalized through WithDefaults so "beam 0" and
// "beam 8" share an entry, exactly like the service's result cache.
func attemptKeyFor(opt Options, start *pg.Flow, ws []graph.NodeID, cfg see.Config, rung int, ring bool) attemptKey {
	wcfg := cfg.WithDefaults()
	k := attemptKey{
		DDG:    opt.ddgFP,
		Topo:   start.T.Fingerprint(),
		Start:  start.Fingerprint(),
		WS:     wsFingerprint(ws),
		MIIRec: start.MIIRecStatic,
		Beam:   wcfg.BeamWidth,
		Cand:   wcfg.CandWidth,
		Rung:   uint8(rung),
		Engine: opt.EngineName(),
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
	if k.Engine != "see" {
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
func runAttempt(ctx context.Context, eng Engine, start *pg.Flow, ws []graph.NodeID, cfg see.Config) (*EngineResult, error) {
	res, err := eng.Solve(ctx, start, ws, cfg)
	if err != nil {
		return nil, err
	}
	for _, o := range start.T.OutputNodes() {
		for _, v := range start.T.Cluster(o).Carries {
			if !res.Flow.Available(v, o) {
				if rerr := res.Flow.Route(v, o); rerr != nil {
					err := fmt.Errorf("pass-through value %d: %w", v, pg.DetachError(rerr))
					res.Flow.Release()
					return nil, err
				}
			}
		}
	}
	return res, nil
}
