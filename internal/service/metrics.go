package service

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// latencySamples bounds the sliding window the percentile estimates are
// computed over.
const latencySamples = 1024

// latencyBucketsMs are the upper bounds (milliseconds, inclusive) of the
// cumulative compile-latency histogram; an implicit +Inf bucket catches
// the rest. Chosen to straddle the observed spread from cache-warm small
// kernels (sub-millisecond) to feedback runs on synthetic DDGs (seconds).
var latencyBucketsMs = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Metrics is the in-process registry the daemon exposes at /metrics.
// Counters satisfy the invariant
//
//	Requests == CacheHits + CacheMisses
//
// where a miss is any request that had to compute (successful, failed or
// cancelled — Failures and Cancelled are subsets of the misses).
type Metrics struct {
	mu sync.Mutex
	// c holds the counters in the shape /metrics serves them; the
	// derived and externally sourced fields stay zero here.
	c    Snapshot
	lat  window // completed-compile latencies
	wait window // queue waits
	// hist counts every completed compile since start (not a sliding
	// window): hist[i] counts compiles of at most latencyBucketsMs[i]
	// that no lower bucket took; the last entry counts the rest.
	hist [len(latencyBucketsMs) + 1]int64
}

// window is a ring of the most recent latencySamples durations.
type window struct {
	buf  [latencySamples]time.Duration
	next int
	n    int
}

func (w *window) add(d time.Duration) {
	w.buf[w.next] = d
	w.next = (w.next + 1) % latencySamples
	w.n = min(w.n+1, latencySamples)
}

// sorted returns the window's samples in ascending order.
func (w *window) sorted() []time.Duration {
	s := append([]time.Duration(nil), w.buf[:w.n]...)
	slices.Sort(s)
	return s
}

// pctl returns the p-quantile of sorted in milliseconds, 0 when empty.
func pctl(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))]) / float64(time.Millisecond)
}

// HistogramBucket is one cumulative-count bucket of the latency
// histogram, Prometheus-style: Count compiles took at most LEMs
// milliseconds (the last bucket's LEMs is +Inf, encoded as 0 with
// Inf set).
type HistogramBucket struct {
	LEMs  float64 `json:"le_ms"`
	Inf   bool    `json:"inf,omitempty"`
	Count int64   `json:"count"`
}

// Snapshot is the JSON shape of /metrics.
type Snapshot struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Failures    int64 `json:"failures"`
	Cancelled   int64 `json:"cancelled"`
	InFlight    int64 `json:"in_flight"`

	// CacheHitRatio is CacheHits / Requests (0 before any request).
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	LatencySamples int     `json:"latency_samples"`
	LatencyP50Ms   float64 `json:"latency_p50_ms"`
	LatencyP90Ms   float64 `json:"latency_p90_ms"`
	LatencyP99Ms   float64 `json:"latency_p99_ms"`

	// LatencyHistogram is the cumulative compile-latency histogram over
	// every completed compile since start (unlike the percentile window,
	// which slides).
	LatencyHistogram []HistogramBucket `json:"latency_histogram,omitempty"`

	// Queue health: jobs waiting for a worker right now, and how long
	// recently-started jobs sat in the queue.
	QueueDepth     int     `json:"queue_depth"`
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`

	CacheSize int `json:"cache_size"`

	// Durable-store health: hits are compile requests served from disk
	// (a subset of CacheHits), misses are lookups that fell through to
	// compute, entries is the on-disk record count, and warmed counts
	// the LRU entries preloaded from disk at boot.
	StoreHits    int64 `json:"store_hits"`
	StoreMisses  int64 `json:"store_misses"`
	StoreEntries int   `json:"store_entries"`
	StoreWarmed  int64 `json:"store_warmed"`

	// RecoveredJobs counts jobs replayed from the journal at boot.
	RecoveredJobs int64 `json:"recovered_jobs"`
	// SingleFlightHits counts async submissions that attached to an
	// identical in-flight job instead of scheduling a duplicate compile.
	SingleFlightHits int64 `json:"singleflight_hits"`
	// RateLimited counts requests rejected by the rate-limit middleware
	// (fed back by cmd/hcad via NoteRateLimited).
	RateLimited int64 `json:"rate_limited"`
	// Forwarded / ForwardFallbacks count sharded requests proxied to the
	// owning peer, and owner-unreachable requests served locally instead.
	Forwarded        int64 `json:"forwarded"`
	ForwardFallbacks int64 `json:"forward_fallbacks"`
	// PeerProbes / PeerProbeFailures count active health probes sent to
	// peers previously marked down (sharded mode), and the probes that
	// found the peer still unreachable.
	PeerProbes        int64 `json:"peer_probes"`
	PeerProbeFailures int64 `json:"peer_probe_failures"`
	// BatchEntries / BatchDeduped count batch-endpoint entries seen and
	// the subset collapsed onto an identical sibling before scheduling.
	BatchEntries int64 `json:"batch_entries"`
	BatchDeduped int64 `json:"batch_deduped"`
	// Sweeps counts completed design-space explorations; SweepPoints is
	// the total grid points they expanded to, and SweepDeduped the subset
	// collapsed onto a fingerprint-identical sibling before solving.
	Sweeps       int64 `json:"sweeps"`
	SweepPoints  int64 `json:"sweep_points"`
	SweepDeduped int64 `json:"sweep_deduped"`

	// Subproblem-memo health: the process-wide beam-search attempt cache
	// shared across requests (unlike the result cache above, which only
	// serves byte-identical repeats). MemoHitRatio is
	// MemoHits / (MemoHits + MemoMisses), 0 before any attempt.
	MemoHits      int64   `json:"memo_hits"`
	MemoMisses    int64   `json:"memo_misses"`
	MemoEntries   int     `json:"memo_entries"`
	MemoEvictions int64   `json:"memo_evictions"`
	MemoHitRatio  float64 `json:"memo_hit_ratio"`
	// MemoByEngine splits the memo traffic by the engine discriminator of
	// the attempt key; engines with no traffic are omitted.
	MemoByEngine map[string]core.EngineMemoStats `json:"memo_by_engine,omitempty"`
}

// update applies f to the counters under the registry's lock.
func (m *Metrics) update(f func(c *Snapshot)) {
	m.mu.Lock()
	f(&m.c)
	m.mu.Unlock()
}

// observe records one completed compile's wall-clock latency.
func (m *Metrics) observe(d time.Duration) {
	m.mu.Lock()
	m.lat.add(d)
	m.hist[sort.SearchFloat64s(latencyBucketsMs[:], float64(d)/float64(time.Millisecond))]++
	m.mu.Unlock()
}

// observeQueueWait records how long a job sat queued before a worker
// picked it up.
func (m *Metrics) observeQueueWait(d time.Duration) {
	m.mu.Lock()
	m.wait.add(d)
	m.mu.Unlock()
}

// Snapshot returns a consistent copy of every counter plus latency
// percentiles over the recent-sample window.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	s := m.c
	lat, waits := m.lat.sorted(), m.wait.sorted()
	total := int64(0)
	for i, c := range m.hist {
		total += c
		b := HistogramBucket{Inf: i == len(latencyBucketsMs), Count: total}
		if !b.Inf {
			b.LEMs = latencyBucketsMs[i]
		}
		s.LatencyHistogram = append(s.LatencyHistogram, b)
	}
	m.mu.Unlock()

	if total == 0 {
		s.LatencyHistogram = nil
	}
	if s.Requests > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(s.Requests)
	}
	s.LatencySamples = len(lat)
	s.LatencyP50Ms, s.LatencyP90Ms, s.LatencyP99Ms = pctl(lat, 0.50), pctl(lat, 0.90), pctl(lat, 0.99)
	s.QueueWaitP50Ms, s.QueueWaitP99Ms = pctl(waits, 0.50), pctl(waits, 0.99)
	return s
}
