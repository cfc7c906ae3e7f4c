// Package service turns the batch HCA library into a long-running
// compilation service: a bounded worker pool drains a job queue of
// compile requests, each cancellable and deadline-bounded through
// context.Context, with a content-addressed LRU result cache (keyed by a
// canonical hash of DDG fingerprint + machine + options) and an
// in-process metrics registry. cmd/hcad exposes it over HTTP; tests and
// embedders can drive the Service directly.
//
// The economics mirror what the CGRA-mapping literature reports: a
// mapping run (beam search + mapper + modulo scheduling) is expensive
// and — being deterministic — worth computing exactly once per (kernel,
// fabric, options) configuration. A hit returns the stored bytes, so
// repeated requests are byte-identical by construction.
package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/trace"
)

// Errors the submission path reports; the HTTP layer maps both to 503.
var (
	ErrClosed    = errors.New("service: draining, no new jobs accepted")
	ErrQueueFull = errors.New("service: job queue full")
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent compile workers (default 4).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it are rejected with ErrQueueFull (default 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries (default 256).
	CacheSize int
	// MemoSize is the process-wide subproblem-memo capacity in entries
	// (default 2048). Unlike the result cache, which stores finished
	// report bytes per request, the memo stores solved beam-search
	// attempts and is shared across *different* requests that contain
	// structurally identical subproblems.
	MemoSize int
	// DefaultTimeout bounds each compile when the request does not set
	// its own (default 2 minutes).
	DefaultTimeout time.Duration
	// MaxJobs bounds the terminal-job history kept for GET /v1/jobs
	// (default 1024); the oldest finished jobs are pruned beyond it.
	MaxJobs int
	// JobTTL additionally evicts terminal jobs this long after they
	// finish (0 = no TTL reaping, MaxJobs pruning only). In-flight jobs
	// are never reaped.
	JobTTL time.Duration
	// JobGCInterval is how often the TTL reaper runs; defaults to
	// JobTTL/4 clamped to [10ms, 30s]. Only meaningful with JobTTL set.
	JobGCInterval time.Duration
	// MaxBodyBytes bounds HTTP request bodies (default 1 MiB); larger
	// requests are rejected with 413.
	MaxBodyBytes int64
	// MaxExplorePoints bounds how many grid points one POST /v1/explore
	// sweep may expand to (default DefaultMaxExplorePoints); larger grids
	// are rejected with a typed 400 before any work is scheduled.
	MaxExplorePoints int
	// NodeName, when set, prefixes job IDs ("<node>-job-000001") so a
	// sharded fleet can route job lookups to the node that owns them.
	NodeName string
	// DefaultEngine is the subproblem engine applied to requests that
	// leave options.engine unset ("" = "see"). Requests that name an
	// engine explicitly always win. Unknown names surface per request as
	// typed errors → HTTP 400, same as a bad request-side value.
	DefaultEngine string
	// Store is the durable content-addressed result layer under the LRU:
	// misses fall through to it before computing, completed results are
	// written through to it, and New warms the LRU from it. Nil means
	// memory-only (results die with the process).
	Store *store.ResultStore
	// Journal persists job state transitions so async job state survives
	// a restart: New replays it, re-exposing terminal jobs with their
	// final status and marking jobs that were in flight at the crash as
	// failed. Nil means job state dies with the process.
	Journal *store.JobStore
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.MemoSize <= 0 {
		c.MemoSize = 2048
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.JobTTL > 0 && c.JobGCInterval <= 0 {
		c.JobGCInterval = c.JobTTL / 4
		if c.JobGCInterval < 10*time.Millisecond {
			c.JobGCInterval = 10 * time.Millisecond
		}
		if c.JobGCInterval > 30*time.Second {
			c.JobGCInterval = 30 * time.Second
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxExplorePoints <= 0 {
		c.MaxExplorePoints = DefaultMaxExplorePoints
	}
	return c
}

// Service is the compilation service. Create with New, stop with Close.
type Service struct {
	cfg     Config
	queue   chan *Job
	workers sync.WaitGroup
	jobsWG  sync.WaitGroup // submitted-but-not-terminal jobs
	cache   *lruCache
	memo    core.SubproblemMemo
	metrics *Metrics
	store   *store.ResultStore
	journal *store.JobStore
	gcStop  chan struct{}
	gcDone  chan struct{}

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	order    []string // job IDs in creation order, for pruning
	inflight map[string]*Job
	nextID   int64
}

// New starts a service with cfg.Workers compile workers. With a durable
// store configured it warms the LRU from disk (most recent results
// first), and with a journal configured it replays the persisted job
// history before accepting traffic.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		queue:    make(chan *Job, cfg.QueueDepth),
		cache:    newLRUCache(cfg.CacheSize),
		memo:     core.NewMemo(cfg.MemoSize),
		metrics:  &Metrics{},
		store:    cfg.Store,
		journal:  cfg.Journal,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	s.recoverJobs()
	s.warmCache()
	if cfg.JobTTL > 0 {
		s.gcStop = make(chan struct{})
		s.gcDone = make(chan struct{})
		go s.gcLoop(cfg.JobTTL, cfg.JobGCInterval)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	return s
}

// warmCache pre-populates the LRU with the most recent durable results,
// oldest of the window first so the newest end up most-recently-used.
func (s *Service) warmCache() {
	if s.store == nil {
		return
	}
	keys := s.store.Keys()
	if len(keys) > s.cfg.CacheSize {
		keys = keys[:s.cfg.CacheSize]
	}
	warmed := 0
	for i := len(keys) - 1; i >= 0; i-- {
		if body, ok := s.store.Get(keys[i]); ok {
			s.cache.Put(keys[i], body)
			warmed++
		}
	}
	s.metrics.update(func(c *Snapshot) { c.StoreWarmed += int64(warmed) })
}

// recoverJobs replays the journal: terminal jobs come back queryable
// with their final status (results re-attached lazily from the durable
// store), and jobs that were in flight when the previous process died
// are marked failed — the daemon cannot know how far they got.
func (s *Service) recoverJobs() {
	if s.journal == nil {
		return
	}
	recs := s.journal.Recovered()
	if len(recs) > s.cfg.MaxJobs {
		recs = recs[len(recs)-s.cfg.MaxJobs:]
	}
	for _, rec := range recs {
		st := State(rec.State)
		errMsg := rec.Error
		if !st.Terminal() {
			st = StateFailed
			errMsg = "interrupted by daemon restart"
			s.journal.Append(store.JobRecord{
				ID: rec.ID, Key: rec.Key, State: string(st),
				Error: errMsg, Time: time.Now().UTC().Format(time.RFC3339Nano),
			})
		}
		job := &Job{
			ID:        rec.ID,
			Key:       rec.Key,
			done:      make(chan struct{}),
			state:     st,
			cacheHit:  rec.CacheHit,
			errMsg:    errMsg,
			recovered: true,
		}
		if t, err := time.Parse(time.RFC3339Nano, rec.Time); err == nil {
			job.created, job.finished = t, t
		} else {
			job.created, job.finished = time.Now(), time.Now()
		}
		if st == StateDone && s.store != nil {
			key := rec.Key
			job.loadResult = func() ([]byte, bool) { return s.store.Get(key) }
		}
		close(job.done)
		if n := idSeq(rec.ID); n > s.nextID {
			s.nextID = n
		}
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
	}
	s.metrics.update(func(c *Snapshot) { c.RecoveredJobs += int64(len(recs)) })
}

// idSeq extracts the numeric suffix of a job ID ("job-000017" or
// "<node>-job-000017" → 17), 0 if unparseable.
func idSeq(id string) int64 {
	i := strings.LastIndex(id, "job-")
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(id[i+len("job-"):], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// gcLoop reaps terminal jobs older than ttl until Close.
func (s *Service) gcLoop(ttl, every time.Duration) {
	defer close(s.gcDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case <-t.C:
			s.reapJobs(time.Now().Add(-ttl))
		}
	}
}

// reapJobs drops terminal jobs that finished before cutoff. Queued and
// running jobs are untouchable regardless of age.
func (s *Service) reapJobs(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	reaped := 0
	kept := s.order[:0]
	for _, id := range s.order {
		job, ok := s.jobs[id]
		if ok {
			job.mu.Lock()
			expire := job.state.Terminal() && !job.finished.IsZero() && job.finished.Before(cutoff)
			job.mu.Unlock()
			if !expire {
				kept = append(kept, id)
				continue
			}
			delete(s.jobs, id)
		}
		reaped++
	}
	s.order = kept
	return reaped
}

// Close drains the service: new submissions are rejected, every
// submitted job runs (or cancels) to completion, then the workers stop.
// No accepted job ever loses its response to a shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.workers.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.jobsWG.Wait()
	close(s.queue)
	s.workers.Wait()
	if s.gcStop != nil {
		close(s.gcStop)
		<-s.gcDone
	}
	if s.journal != nil {
		s.journal.Sync()
	}
}

// Submit validates req, serves it from the result cache (the in-memory
// LRU, then the durable store) when possible, and otherwise enqueues a
// compile job whose context descends from ctx bounded by the request
// timeout. The returned job is terminal immediately on a cache hit; use
// Job.Wait for synchronous callers. Identical async submissions
// single-flight: while one is in the queue or running, later ones attach
// to the same job instead of scheduling a duplicate compile.
func (s *Service) Submit(ctx context.Context, req CompileRequest) (*Job, error) {
	wk, err := req.work(s.cfg.DefaultEngine)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, wk)
}

// submit is the one submission path of compiles, batch entries and
// sweeps, with the semantics Submit documents: the caches (when wk may
// use them), then async single-flight, then a new job bounded by the
// work's timeout.
func (s *Service) submit(ctx context.Context, wk *work) (*Job, error) {
	s.metrics.update(func(c *Snapshot) { c.Requests++ })

	// Traced compiles bypass the cache in both directions: a cached body
	// carries no telemetry, and runJob symmetrically never stores a
	// traced body.
	if wk.cached {
		if body, ok := s.cache.Get(wk.key); ok {
			s.metrics.update(func(c *Snapshot) { c.CacheHits++ })
			return s.finishedJob(ctx, wk, body)
		}
		if s.store != nil {
			if body, ok := s.store.Get(wk.key); ok {
				// Durable hit: promote to the LRU so the next repeat is
				// a memory hit, count both layers.
				s.cache.Put(wk.key, body)
				s.metrics.update(func(c *Snapshot) { c.CacheHits++; c.StoreHits++ })
				return s.finishedJob(ctx, wk, body)
			}
			s.metrics.update(func(c *Snapshot) { c.StoreMisses++ })
		}
		// Async single-flight: async jobs are detached from their
		// submitters (context.WithoutCancel in the HTTP layer), so any
		// number of callers can safely share one in-flight job. Sync
		// jobs stay per-caller — their lifetime is bound to one client's
		// connection.
		if wk.async {
			s.mu.Lock()
			flight := s.inflight[wk.key]
			s.mu.Unlock()
			if flight != nil {
				s.metrics.update(func(c *Snapshot) { c.CacheHits++; c.SingleFlightHits++ })
				return flight, nil
			}
		}
	}

	s.metrics.update(func(c *Snapshot) { c.CacheMisses++ })
	timeout := wk.timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	jctx, cancel := context.WithTimeout(ctx, timeout)
	job, err := s.register(wk, jctx, cancel, true)
	if err != nil {
		cancel()
		return nil, err
	}
	select {
	case s.queue <- job:
		s.journalJob(job, StateQueued)
		return job, nil
	default:
		s.jobsWG.Done()
		s.unregister(job.ID)
		cancel()
		s.metrics.update(func(c *Snapshot) { c.Failures++ })
		return nil, ErrQueueFull
	}
}

// finishedJob registers a job that is terminal before anyone can observe
// it — a cache or durable-store hit. Detached from the caller so a
// racing cancel cannot mark it failed.
func (s *Service) finishedJob(ctx context.Context, wk *work, body []byte) (*Job, error) {
	job, err := s.register(wk, context.WithoutCancel(ctx), func() {}, false)
	if err != nil {
		return nil, err
	}
	job.finish(StateDone, body, true, "")
	s.journalJob(job, StateDone)
	return job, nil
}

// journalJob appends one state transition to the persistent journal, if
// configured. Journaling is best-effort: an append error must not fail
// the compile it describes.
func (s *Service) journalJob(job *Job, st State) {
	if s.journal == nil {
		return
	}
	job.mu.Lock()
	rec := store.JobRecord{
		ID: job.ID, Key: job.Key, State: string(st), CacheHit: job.cacheHit,
		Error: job.errMsg, Time: time.Now().UTC().Format(time.RFC3339Nano),
	}
	job.mu.Unlock()
	s.journal.Append(rec)
}

// register creates and indexes a job, pruning the oldest terminal jobs
// beyond the configured history bound. It fails once the service is
// draining. With track set the job is one that will run: it keeps the
// work's render function and joins the drain wait-group — under the
// same lock as the closed check, so no job can slip in after Close
// started waiting.
func (s *Service) register(wk *work, jctx context.Context, cancel context.CancelFunc, track bool) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	if s.cfg.NodeName != "" {
		id = s.cfg.NodeName + "-" + id
	}
	job := &Job{
		ID:      id,
		Key:     wk.key,
		ctx:     jctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if track {
		s.jobsWG.Add(1)
		job.render, job.cached = wk.render, wk.cached
		if wk.cached {
			s.inflight[wk.key] = job
		}
	}
	for len(s.order) > s.cfg.MaxJobs {
		oldest, ok := s.jobs[s.order[0]]
		if ok && !oldest.State().Terminal() {
			break // never drop a live job; prune resumes once it finishes
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
	return job, nil
}

func (s *Service) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if job, ok := s.jobs[id]; ok && s.inflight[job.Key] == job {
		delete(s.inflight, job.Key)
	}
	delete(s.jobs, id)
	for i, jid := range s.order {
		if jid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// clearFlight drops the single-flight entry once job is terminal.
func (s *Service) clearFlight(job *Job) {
	s.mu.Lock()
	if s.inflight[job.Key] == job {
		delete(s.inflight, job.Key)
	}
	s.mu.Unlock()
}

// Job returns the job with the given ID, if it is still tracked.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// NoteRateLimited feeds a rate-limit rejection from the middleware layer
// (which lives outside this package) into the /metrics registry.
func (s *Service) NoteRateLimited() { s.metrics.update(func(c *Snapshot) { c.RateLimited++ }) }

// Metrics returns a consistent snapshot of the service counters.
func (s *Service) Metrics() Snapshot {
	snap := s.metrics.Snapshot()
	snap.CacheSize = s.cache.Len()
	snap.QueueDepth = len(s.queue)
	if s.store != nil {
		snap.StoreEntries = s.store.Len()
	}
	ms := s.memo.Stats()
	snap.MemoHits = ms.Hits
	snap.MemoMisses = ms.Misses
	snap.MemoEntries = ms.Entries
	snap.MemoEvictions = ms.Evictions
	snap.MemoByEngine = ms.ByEngine
	if total := ms.Hits + ms.Misses; total > 0 {
		snap.MemoHitRatio = float64(ms.Hits) / float64(total)
	}
	return snap
}

// runJob executes one dequeued job on a worker.
func (s *Service) runJob(job *Job) {
	defer s.jobsWG.Done()
	defer job.cancel()
	defer s.clearFlight(job)
	if err := job.ctx.Err(); err != nil {
		s.metrics.update(func(c *Snapshot) { c.Cancelled++ })
		job.finish(StateCancelled, nil, false, err.Error())
		s.journalJob(job, StateCancelled)
		return
	}
	job.setRunning()
	s.journalJob(job, StateRunning)
	s.metrics.update(func(c *Snapshot) { c.InFlight++ })
	s.metrics.observeQueueWait(time.Since(job.created))
	defer s.metrics.update(func(c *Snapshot) { c.InFlight-- })
	start := time.Now()
	body, err := job.render(job.ctx, s)
	job.render = nil // the job history must not pin the request's inputs
	if err != nil {
		if cerr := job.ctx.Err(); cerr != nil {
			s.metrics.update(func(c *Snapshot) { c.Cancelled++ })
			job.finish(StateCancelled, nil, false, cerr.Error())
			s.journalJob(job, StateCancelled)
		} else {
			s.metrics.update(func(c *Snapshot) { c.Failures++ })
			job.finish(StateFailed, nil, false, err.Error())
			s.journalJob(job, StateFailed)
		}
		return
	}
	if job.cached {
		s.cache.Put(job.Key, body)
		// Write-through to the durable layer: the result outlives the
		// process and warms the cache after the next restart.
		if s.store != nil {
			s.store.Put(job.Key, body)
		}
	}
	s.metrics.observe(time.Since(start))
	job.finish(StateDone, body, false, "")
	s.journalJob(job, StateDone)
}

// compile runs the requested pipeline and renders its report. A traced
// compile is recorded and the telemetry summary is folded into the
// report.
//
// Untraced compiles (unless they opt out) run against the process-wide
// subproblem memo, so structurally identical subproblems solve once per
// daemon lifetime rather than once per request. Traced compiles use a
// per-run memo instead: their telemetry must be reproducible from the
// request alone, not a function of what the process solved earlier.
func (s *Service) compile(ctx context.Context, d *ddg.DDG, mc *machine.Config, opt core.Options, spec OptionsSpec, traced bool) ([]byte, error) {
	var rec *trace.Recorder
	if traced {
		rec = trace.New()
		ctx = trace.With(ctx, rec)
	} else if !opt.DisableMemo {
		opt.Memo = s.memo
	}
	out, err := Compile(ctx, d, mc, opt, spec)
	if err != nil {
		return nil, err
	}
	return report.Build(out.Result, out.Schedule, out.Variant, rec).JSON()
}

// Compile runs the pipeline spec selects on what CompileRequest.Build
// built: the full §5 feedback loop, or plain HCA, modulo-scheduled when
// spec.Schedule is set. The service and cmd/hca both compile through it.
func Compile(ctx context.Context, d *ddg.DDG, mc *machine.Config, opt core.Options, spec OptionsSpec) (*driver.ScheduledResult, error) {
	if spec.Feedback {
		return driver.HCAWithFeedback(ctx, d, mc, opt)
	}
	res, err := core.HCA(ctx, d, mc, opt)
	if err != nil {
		return nil, err
	}
	out := &driver.ScheduledResult{Result: res}
	if spec.Schedule {
		if out.Schedule, err = modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
