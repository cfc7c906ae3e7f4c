package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/dse"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/service/middleware"
	"repro/internal/store"
)

// The service stack serves 2 keep-alive clients with 2 workers. Its
// result cache keeps the service's default size, which is also the
// `hcad -cache` default, so every repeated request is a cache hit after
// set-up and the durable store is read only on a cache miss.
const (
	clients = 2
	workers = 2
)

// Per round, besides the repeated named-kernel and source compiles. The
// shares are not taken from observed traffic: they are set so that the
// median falls among the cache hits and the 90th percentile among the
// first-time compiles, each well inside one kind of request.
const (
	synthMisses  = 6  // first-time synthetic compiles
	batches      = 2  // batch requests of batchUnique entries plus one duplicate
	batchUnique  = 3  //
	explores     = 1  // explore requests over a fresh synthetic DDG
	synthMinOps  = 40 // synthetic DDG sizes are drawn from [synthMinOps, synthMinOps+synthOpsSpan)
	synthOpsSpan = 24
)

// exploreGrid is the fabric grid every explore request sweeps.
var exploreGrid = dse.Grid{Type: "dspfabric", N: []int{4, 8}, K: []int{4, 8}}

// sources are the kernel-language compiles every round repeats.
var sources = []string{`
kernel conv3
# three-tap smoothing over a wrapping line buffer
walk p 1 64
iv   out 4096 1
x0 = load(p)
x1 = load(p + 1)
x2 = load(p + 2)
s  = x0*1 + x1*2 + x2*1
y  = clip((s + 2) >> 2, 0, 255)
store(out, y)
`, `
kernel conv5
# five-tap binomial smoothing over a wrapping line buffer
walk p 1 128
iv   out 8192 1
x0 = load(p)
x1 = load(p + 1)
x2 = load(p + 2)
x3 = load(p + 3)
x4 = load(p + 4)
s  = x0 + x1*4 + x2*6 + x3*4 + x4
y  = clip((s + 8) >> 4, 0, 255)
store(out, y)
`}

// request is one HTTP request of the mix.
type request struct {
	path    string
	body    []byte
	compile *service.CompileRequest
	batch   *service.BatchRequest
	explore *service.ExploreRequest
}

func newRequest(path string, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always encode
	}
	r := request{path: path, body: body}
	switch x := v.(type) {
	case service.CompileRequest:
		r.compile = &x
	case service.BatchRequest:
		r.batch = &x
	case service.ExploreRequest:
		r.explore = &x
	}
	return r
}

// serviceWorkload drives the handler stack cmd/hcad serves over a
// loopback listener with a closed loop of seeded requests.
type serviceWorkload struct {
	seed    int64
	dir     string
	results *store.ResultStore
	journal *store.JobStore
	svc     *service.Service
	srv     *http.Server
	served  chan error
	base    string
	clients []*http.Client
	fixed   []request // the compiles every round repeats
	start   service.Snapshot

	mu sync.Mutex
	// order lists the distinct requests in first-seen order, and sent
	// counts each one's timed requests. replies holds the first response
	// body of each repeated compile, which its repeats are compared
	// with; the first reply to any other request goes to a file under
	// dir, since those requests are new every round and their bodies
	// held in memory would grow peak_rss_mb with the rounds a run
	// completes. drift is the first fault seen while noting replies.
	repeated map[string]bool
	replies  map[string][]byte
	order    []request
	sent     map[string]int
	timing   bool
	drift    error
}

// key identifies a distinct request.
func (r request) key() string { return r.path + "\x00" + string(r.body) }

// replyFile is the file holding the first reply to w.order[i].
func (w *serviceWorkload) replyFile(i int) string {
	return filepath.Join(w.dir, "replies", fmt.Sprint(i))
}

func (w *serviceWorkload) setUp(ctx context.Context, seed int64, dir string) error {
	w.seed, w.dir = seed, dir
	w.repeated, w.replies, w.sent = map[string]bool{}, map[string][]byte{}, map[string]int{}
	if err := os.MkdirAll(filepath.Join(dir, "replies"), 0o755); err != nil {
		return err
	}
	var err error
	if w.results, err = store.Open(filepath.Join(dir, "results")); err != nil {
		return err
	}
	if w.journal, err = store.OpenJobs(filepath.Join(dir, "jobs.jsonl"), 1024); err != nil {
		return err
	}
	w.svc = service.New(service.Config{Workers: workers, Store: w.results, Journal: w.journal})
	h := middleware.Chain(w.svc.Handler(),
		middleware.Recover(func(v any) { fmt.Fprintf(os.Stderr, "e2ebench: service panic: %v\n", v) }),
		middleware.Logging(func(format string, v ...any) { fmt.Fprintf(io.Discard, format, v...) }),
		middleware.RateLimit(nil, func(string) { w.svc.NoteRateLimited() }),
		middleware.Timeout(0),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: h}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	for i := 0; i < clients; i++ {
		w.clients = append(w.clients, &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}

	w.fixed = fixedRequests()
	for _, r := range w.fixed {
		w.repeated[r.key()] = true
	}
	// Warm-up: every repeated compile once, which fills the cache and
	// the store.
	if _, failed := w.send(ctx, w.fixed, nil, nil); failed > 0 {
		return fmt.Errorf("warm-up: %d requests failed", failed)
	}
	w.start = w.svc.Metrics()
	w.timing = true
	return nil
}

// fixedRequests returns the compiles every round repeats: each named
// kernel on DSPFabric 8/8/8 and on the RCP ring 8/2/2, plain, scheduled
// and with feedback, and each source compiled and scheduled.
func fixedRequests() []request {
	machines := []service.MachineSpec{
		{Type: "dspfabric", N: 8, M: 8, K: 8},
		{Type: "rcp", Clusters: 8, Neighbors: 2, Ports: 2},
	}
	opts := []service.OptionsSpec{{}, {Schedule: true}, {Feedback: true}}
	var out []request
	for _, k := range namedKernels() {
		for _, m := range machines {
			for _, o := range opts {
				out = append(out, newRequest("/v1/compile", service.CompileRequest{Kernel: k.Name, Machine: m, Options: o}))
			}
		}
	}
	for _, src := range sources {
		out = append(out, newRequest("/v1/compile", service.CompileRequest{Source: src, Machine: machines[0], Options: service.OptionsSpec{Schedule: true}}))
	}
	return out
}

// roundRequests returns round n's requests and the seeded order they
// are sent in. The requests come in the same structure every round, one
// slot per request: the repeated compiles, first-time synthetic
// compiles, batches drawn from the named-kernel compiles with one
// duplicate each, and explores.
func (w *serviceWorkload) roundRequests(n int) (reqs []request, order []int) {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(n)))
	reqs = append([]request(nil), w.fixed...)
	synth := func() *service.SynthSpec {
		return &service.SynthSpec{Ops: synthMinOps + rng.Intn(synthOpsSpan), Seed: rng.Int63(), RecLatency: synthRecLatency}
	}
	for i := 0; i < synthMisses; i++ {
		reqs = append(reqs, newRequest("/v1/compile", service.CompileRequest{
			Synth: synth(), Machine: service.MachineSpec{Type: "dspfabric", N: 8, M: 8, K: 8}}))
	}
	// Batch entries come from the RCP compiles, none of which has the
	// errFinalBelowRes fault, so a batch passes or fails its checks the
	// same way whatever the seed.
	var rcp []service.CompileRequest
	for _, r := range w.fixed {
		if r.compile.Machine.Type == "rcp" {
			rcp = append(rcp, *r.compile)
		}
	}
	for i := 0; i < batches; i++ {
		var b service.BatchRequest
		for _, j := range rng.Perm(len(rcp))[:batchUnique] {
			b.Entries = append(b.Entries, rcp[j])
		}
		b.Entries = append(b.Entries, b.Entries[rng.Intn(batchUnique)])
		reqs = append(reqs, newRequest("/v1/compile/batch", b))
	}
	for i := 0; i < explores; i++ {
		reqs = append(reqs, newRequest("/v1/explore", service.ExploreRequest{Synth: synth(), Grid: exploreGrid}))
	}
	order = make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return reqs, order
}

func (w *serviceWorkload) round(ctx context.Context, n int, lay *layers) ([]float64, int) {
	reqs, order := w.roundRequests(n)
	return w.send(ctx, reqs, order, lay)
}

// send runs reqs in a closed loop, in the given order or, with order
// nil, as listed: each client sends its next request once its previous
// reply has arrived. It returns each request's round trip in
// milliseconds, indexed like reqs, and how many failed.
func (w *serviceWorkload) send(ctx context.Context, reqs []request, order []int, lay *layers) ([]float64, int) {
	lat := make([]float64, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range w.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if order != nil {
					i = order[i]
				}
				start := time.Now()
				body, err := post(ctx, cl, w.base+reqs[i].path, reqs[i].body)
				lat[i] = ms(time.Since(start))
				if lay != nil {
					lay.op(lat[i])
				}
				if err != nil {
					errs[i] = err
					continue
				}
				w.note(reqs[i], body)
			}
		}(cl)
	}
	wg.Wait()
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Printf("operation failed: POST %s: %v\n", reqs[i].path, err)
		}
	}
	return lat, failed
}

// post sends one request and returns the body of its 200 reply.
func post(ctx context.Context, cl *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// note keeps the first reply to each distinct request and checks that a
// repeated compile gets the same bytes back.
func (w *serviceWorkload) note(r request, body []byte) {
	key := r.key()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timing {
		w.sent[key]++
	}
	first, seen := w.replies[key]
	switch {
	case !seen && w.repeated[key]:
		w.replies[key] = body
		w.order = append(w.order, r)
	case !seen:
		w.replies[key] = nil
		if err := os.WriteFile(w.replyFile(len(w.order)), body, 0o644); err != nil && w.drift == nil {
			w.drift = fmt.Errorf("keeping the reply to %s: %w", r.body, err)
		}
		w.order = append(w.order, r)
	case w.repeated[key] && !bytes.Equal(first, body) && w.drift == nil:
		w.drift = fmt.Errorf("repeated request %s got different bytes", r.body)
	}
}

func (w *serviceWorkload) check(ctx context.Context, lay *layers) (quality, int, error) {
	var q quality
	if w.drift != nil {
		return q, 0, w.drift
	}
	snap := w.svc.Metrics()
	if snap.Failures != 0 || snap.Cancelled != 0 {
		return q, 0, fmt.Errorf("service counted %d failures, %d cancellations", snap.Failures, snap.Cancelled)
	}
	c := &directChecker{lay: lay, done: map[string]*directRun{}}
	for _, r := range w.fixed {
		d, err := c.compile(ctx, *r.compile)
		if err != nil {
			return q, 0, err
		}
		q.receives += d.o.res.Recvs
		q.finalMII += d.o.res.MII.Final
		q.allLevels += d.o.res.MII.AllLevels
		if d.o.sched != nil {
			q.ii += d.o.sched.II
			q.cycles += d.cycles
		}
	}
	var sweeps, solved, memoHits, memoLookups float64
	faulty := 0
	for i, r := range w.order {
		key := r.key()
		body := w.replies[key]
		if body == nil {
			b, err := os.ReadFile(w.replyFile(i))
			if err != nil {
				return q, 0, err
			}
			body = b
		}
		var err error
		switch {
		case r.compile != nil:
			var run *directRun
			if run, err = c.checkCompileReply(ctx, *r.compile, body); run != nil && run.fault {
				faulty += w.sent[key]
			}
		case r.batch != nil:
			err = c.checkBatchReply(ctx, *r.batch, body)
		case r.explore != nil:
			var st dse.Stats
			st, err = c.checkExploreReply(ctx, *r.explore, body)
			sweeps++
			solved += float64(st.Unique)
			memoHits += float64(st.Memo.Hits)
			memoLookups += float64(st.Memo.Hits + st.Memo.Misses)
		}
		if err != nil {
			return q, 0, fmt.Errorf("POST %s %s: %w", r.path, r.body, err)
		}
	}
	if lay != nil {
		lay.set("dse.points_solved", ratio(solved, sweeps))
		lay.set("dse.memo_hit_ratio", ratio(memoHits, memoLookups))
		if err := w.layerFigures(ctx, lay, snap, c); err != nil {
			return q, 0, err
		}
	}
	return q, faulty, nil
}

// layerFigures records the service-side per-layer figures: the counter
// deltas of the timed phase, a fresh round submitted without HTTP, and
// the report and store calls the benchmark times itself.
func (w *serviceWorkload) layerFigures(ctx context.Context, lay *layers, snap service.Snapshot, c *directChecker) error {
	d := func(a, b int64) float64 { return float64(a - b) }
	lay.set("service.rtt_ms_p50", percentile(lay.lat, 50))
	lay.set("service.queue_wait_ms_p50", snap.QueueWaitP50Ms)
	lay.set("service.cache_hit_ratio", ratio(d(snap.CacheHits, w.start.CacheHits), d(snap.Requests, w.start.Requests)))
	lay.set("service.store_hits", d(snap.StoreHits, w.start.StoreHits))
	lay.set("service.memo_hit_ratio", ratio(d(snap.MemoHits, w.start.MemoHits), d(snap.MemoHits+snap.MemoMisses, w.start.MemoHits+w.start.MemoMisses)))
	lay.set("service.singleflight_hits", d(snap.SingleFlightHits, w.start.SingleFlightHits))
	lay.set("service.batch_deduped", d(snap.BatchDeduped, w.start.BatchDeduped))

	// A fresh round, submitted straight to the service; a batch's
	// entries go in one by one.
	var submit []float64
	reqs, _ := w.roundRequests(-1)
	for _, r := range reqs {
		var entries []service.CompileRequest
		switch {
		case r.compile != nil:
			entries = []service.CompileRequest{*r.compile}
		case r.batch != nil:
			entries = r.batch.Entries
		}
		for _, e := range entries {
			start := time.Now()
			job, err := w.svc.Submit(ctx, e)
			if err == nil {
				err = job.Wait(ctx)
			}
			if err != nil || job.State() != service.StateDone {
				return fmt.Errorf("submitting %s without HTTP: %v", e.Kernel, err)
			}
			submit = append(submit, ms(time.Since(start)))
		}
		if r.explore != nil {
			start := time.Now()
			job, err := w.svc.SubmitExplore(ctx, *r.explore)
			if err == nil {
				err = job.Wait(ctx)
			}
			if err != nil || job.State() != service.StateDone {
				return fmt.Errorf("submitting an explore without HTTP: %v", err)
			}
			submit = append(submit, ms(time.Since(start)))
		}
	}
	lay.set("service.submit_ms_p50", percentile(submit, 50))
	lay.set("bench.unattributed_ms", percentile(lay.lat, 50)-percentile(submit, 50))

	st, err := store.Open(filepath.Join(w.dir, "bench-store"))
	if err != nil {
		return err
	}
	for _, r := range w.fixed {
		run := c.done[string(r.body)]
		var body []byte
		lay.time("report.encode", false, func() {
			body, _ = report.Build(run.o.res, run.o.sched, run.o.variant, nil).JSON()
		})
		lay.add("report.bytes", float64(len(body)))
		key, err := service.RequestKey(*r.compile)
		if err != nil {
			return err
		}
		lay.time("store.put", false, func() { err = st.Put(key, body) })
		if err != nil {
			return err
		}
		var got []byte
		lay.time("store.get", false, func() { got, _ = st.Get(key) })
		if !bytes.Equal(got, body) {
			return fmt.Errorf("store returned other bytes than were put under %s", key)
		}
	}
	return nil
}

func (w *serviceWorkload) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = w.srv.Shutdown(ctx) // waits for in-flight requests; the workload sends none by now
		cancel()
		<-w.served
		w.srv = nil
	}
	for _, cl := range w.clients {
		cl.CloseIdleConnections()
	}
	if w.svc != nil {
		w.svc.Close()
		w.svc = nil
	}
	if w.journal != nil {
		_ = w.journal.Close() // the journal is scratch state of this run
		w.journal = nil
	}
	w.replies, w.order = nil, nil
}

// directRun is one compile request run straight through the library;
// fault marks an output with the errFinalBelowRes fault.
type directRun struct {
	job    *compileJob
	o      *outcome
	cycles int
	fault  bool
}

// directChecker compares service replies with the same pipelines run
// directly through core, driver and modsched in this process.
type directChecker struct {
	lay  *layers
	done map[string]*directRun // by request body
}

// compile runs req's pipeline directly, once per distinct request, and
// checks its output the way the compile workloads do. The errFinalBelowRes
// fault is not an error here; it sets the run's fault mark.
func (c *directChecker) compile(ctx context.Context, req service.CompileRequest) (*directRun, error) {
	body, _ := json.Marshal(req)
	if run, ok := c.done[string(body)]; ok {
		return run, nil
	}
	j, err := c.input(req)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	switch {
	case req.Options.Feedback:
		r, err := driver.HCAWithFeedback(ctx, j.d, j.mc, core.Options{})
		if err != nil {
			return nil, err
		}
		o = &outcome{res: r.Result, sched: r.Schedule, variant: r.Variant}
	default:
		if o.res, err = core.HCA(ctx, j.d, j.mc, core.Options{}); err != nil {
			return nil, err
		}
		if req.Options.Schedule {
			if o.sched, err = modsched.Run(ctx, o.res.Final, o.res.FinalCN, j.mc, modsched.Config{}); err != nil {
				return nil, err
			}
		}
	}
	run := &directRun{job: j, o: o}
	if o.sched != nil {
		var q quality
		err = checkCompile(j, o, c.lay, &q)
		run.cycles = q.cycles
	} else if !o.res.Legal {
		err = fmt.Errorf("result not legal")
	} else if err = core.CoherencyCheck(o.res); err == nil {
		err = checkBounds(o.res.MII, 1, 1)
	}
	if run.fault = errors.Is(err, errFinalBelowRes); err != nil && !run.fault {
		return nil, fmt.Errorf("%s: %w", j.name, err)
	}
	c.done[string(body)] = run
	return run, nil
}

// input builds a compile request's DDG, machine, memory image and
// reference.
func (c *directChecker) input(req service.CompileRequest) (*compileJob, error) {
	var mc *machine.Config
	switch m := req.Machine; m.Type {
	case "dspfabric":
		mc = machine.DSPFabric64(m.N, m.M, m.K)
	case "rcp":
		mc = machine.RCP(m.Clusters, m.Neighbors, m.Ports)
	default:
		return nil, fmt.Errorf("machine type %q", m.Type)
	}
	rng := rand.New(rand.NewSource(int64(len(req.Kernel) + len(req.Source))))
	j := &compileJob{mc: mc}
	switch {
	case req.Kernel != "":
		for _, k := range namedKernels() {
			if k.Name == req.Kernel {
				j.d, j.ref = k.Build(), k.ref
				j.mem, j.iters = k.image(rng)
				if k.WantInstr > 0 {
					kk := k.Kernel
					j.table1 = &kk
				}
			}
		}
		if j.d == nil {
			return nil, fmt.Errorf("unknown kernel %q", req.Kernel)
		}
	case req.Synth != nil:
		j.d = kernels.Synthetic(kernels.SynthConfig{Ops: req.Synth.Ops, Seed: req.Synth.Seed, RecLatency: req.Synth.RecLatency})
		j.mem, j.iters = synthImage(rand.New(rand.NewSource(req.Synth.Seed)), req.Synth.Ops)
	default:
		var err error
		c.lay.time("lang.compile", false, func() { j.d, err = lang.Compile(req.Source) })
		if err != nil {
			return nil, err
		}
		j.mem, j.iters = synthImage(rng, 2*j.d.Len())
	}
	j.name = j.d.Name + "@" + mc.Name
	return j, nil
}

// checkCompileReply checks one compile reply against the direct run of
// the same request.
func (c *directChecker) checkCompileReply(ctx context.Context, req service.CompileRequest, body []byte) (*directRun, error) {
	run, err := c.compile(ctx, req)
	if err != nil {
		return nil, err
	}
	rep, err := decodeReport(body)
	if err != nil {
		return nil, err
	}
	return run, checkAnswer(rep, run.o)
}

// checkBatchReply checks every entry of a batch reply against the
// direct run of the entry, and that each repeated entry was deduplicated.
func (c *directChecker) checkBatchReply(ctx context.Context, b service.BatchRequest, body []byte) error {
	var resp service.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Entries) != len(b.Entries) {
		return fmt.Errorf("%d entries back for %d sent", len(resp.Entries), len(b.Entries))
	}
	seen := map[string]bool{}
	dups := 0
	for i, e := range resp.Entries {
		key, _ := json.Marshal(b.Entries[i])
		repeat := seen[string(key)]
		seen[string(key)] = true
		if repeat {
			dups++
		}
		if e.Error != "" {
			return fmt.Errorf("entry %d: %s", i, e.Error)
		}
		if e.Index != i || e.Deduped != repeat {
			return fmt.Errorf("entry %d: index %d, deduplicated %v, repeat %v", i, e.Index, e.Deduped, repeat)
		}
		run, err := c.compile(ctx, b.Entries[i])
		if err != nil {
			return err
		}
		if run.fault {
			return fmt.Errorf("entry %d: %w", i, errFinalBelowRes)
		}
		rep, err := decodeReport(e.Result)
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		if err := checkAnswer(rep, run.o); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
	}
	if resp.Deduped != dups {
		return fmt.Errorf("%d entries deduplicated, %d repeated", resp.Deduped, dups)
	}
	return nil
}

// checkExploreReply checks an explore reply: its front against the
// benchmark's own recomputation, and each solved point against a
// standalone core.HCA compile of that point's machine.
func (c *directChecker) checkExploreReply(ctx context.Context, req service.ExploreRequest, body []byte) (dse.Stats, error) {
	var res dse.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return dse.Stats{}, err
	}
	if err := checkFront(&res); err != nil {
		return res.Stats, err
	}
	pts, err := req.Grid.Expand()
	if err != nil {
		return res.Stats, err
	}
	if len(pts) != len(res.Points) {
		return res.Stats, fmt.Errorf("%d points back for a %d-point grid", len(res.Points), len(pts))
	}
	d := kernels.Synthetic(kernels.SynthConfig{Ops: req.Synth.Ops, Seed: req.Synth.Seed, RecLatency: req.Synth.RecLatency})
	for i, p := range res.Points {
		if p.Error != "" || p.Machine != pts[i].Machine.Name {
			return res.Stats, fmt.Errorf("point %d: %q on %s", i, p.Error, p.Machine)
		}
		if p.Canonical != p.Index {
			continue // carries its canonical sibling's result
		}
		r, err := core.HCA(ctx, d, pts[i].Machine, core.Options{Engine: pts[i].Engine})
		if err != nil {
			return res.Stats, err
		}
		if p.Legal != r.Legal || p.MIIRec != r.MII.Rec || p.MIIRes != r.MII.Res || p.MIIFinal != r.MII.Final ||
			p.MIIAllLevels != r.MII.AllLevels || p.Receives != r.Recvs {
			return res.Stats, fmt.Errorf("point %d: %+v, standalone compile %+v with %d receives", i, p, r.MII, r.Recvs)
		}
	}
	if c.lay != nil { // the direct sweep only feeds dse.sweep_ms
		c.lay.time("dse.sweep", false, func() { _, err = dse.Sweep(ctx, d, req.Grid, dse.Options{}) })
	}
	return res.Stats, err
}

// decodeReport decodes a compile reply at the current schema version.
func decodeReport(body []byte) (*report.Report, error) {
	var rep report.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, err
	}
	if rep.SchemaVersion != report.SchemaVersion {
		return nil, fmt.Errorf("schema_version %d, want %d", rep.SchemaVersion, report.SchemaVersion)
	}
	return &rep, nil
}

// checkAnswer compares a report's answer fields with a direct run of
// the same pipeline.
func checkAnswer(rep *report.Report, o *outcome) error {
	got := answer{rep.Legal, rep.MIIRec, rep.MIIRes, rep.FinalMII, rep.AllLevelsMII, rep.Receives, -1, rep.Variant}
	if rep.Schedule != nil {
		got.II = rep.Schedule.II
	}
	if want := answerOf(o); got != want {
		return fmt.Errorf("answer %+v, direct run %+v", got, want)
	}
	return nil
}
