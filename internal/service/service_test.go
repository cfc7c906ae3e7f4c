package service

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/dse"
)

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b (a was just refreshed)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Error("a lost")
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Error("c lost")
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
	c.Put("a", []byte("A2")) // update in place
	if v, _ := c.Get("a"); string(v) != "A2" {
		t.Error("update lost")
	}
}

func TestMetricsPercentiles(t *testing.T) {
	m := &Metrics{}
	for i := 1; i <= 100; i++ {
		m.observe(time.Duration(i) * time.Millisecond)
	}
	s := m.Snapshot()
	if s.LatencySamples != 100 {
		t.Fatalf("samples %d", s.LatencySamples)
	}
	if s.LatencyP50Ms < 45 || s.LatencyP50Ms > 55 {
		t.Errorf("p50 %v", s.LatencyP50Ms)
	}
	if s.LatencyP99Ms < 95 || s.LatencyP99Ms > 100 {
		t.Errorf("p99 %v", s.LatencyP99Ms)
	}

	// Queue waits keep their own window: hour-long waits followed by a
	// full window of 1..latencySamples ms slide out of it.
	for i := 0; i < 500; i++ {
		m.observeQueueWait(time.Hour)
	}
	for i := 1; i <= latencySamples; i++ {
		m.observeQueueWait(time.Duration(i) * time.Millisecond)
	}
	s = m.Snapshot()
	if s.QueueWaitP50Ms < 500 || s.QueueWaitP50Ms > 525 {
		t.Errorf("queue wait p50 %v", s.QueueWaitP50Ms)
	}
	if s.QueueWaitP99Ms < 1000 || s.QueueWaitP99Ms > latencySamples {
		t.Errorf("queue wait p99 %v", s.QueueWaitP99Ms)
	}
	if s.LatencySamples != 100 || s.LatencyP50Ms < 45 || s.LatencyP50Ms > 55 {
		t.Errorf("queue waits moved the latency window: %d samples, p50 %v", s.LatencySamples, s.LatencyP50Ms)
	}
}

// Equivalent requests must canonicalize to the same cache key; requests
// differing in any result-affecting dimension must not.
func TestCacheKeyCanonicalization(t *testing.T) {
	key := func(req CompileRequest) string {
		k, err := RequestKey(req)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	implicit := CompileRequest{Kernel: "fir2dim"}
	explicit := CompileRequest{
		Kernel:  "fir2dim",
		Machine: MachineSpec{Type: "dspfabric", N: 8, M: 8, K: 8},
		Options: OptionsSpec{Beam: 8, Cand: 4},
		// Delivery options never affect the key.
		TimeoutMs: 12345,
		Async:     true,
	}
	if key(implicit) != key(explicit) {
		t.Error("defaulted and explicit requests disagree on the key")
	}
	for i := 0; i < 100; i++ {
		if key(implicit) != key(explicit) {
			t.Fatalf("key unstable at iteration %d", i)
		}
	}

	distinct := []CompileRequest{
		{Kernel: "idcthor"},
		{Kernel: "fir2dim", Machine: MachineSpec{N: 4}},
		{Kernel: "fir2dim", Machine: MachineSpec{Type: "rcp"}},
		{Kernel: "fir2dim", Options: OptionsSpec{Beam: 16}},
		{Kernel: "fir2dim", Options: OptionsSpec{Schedule: true}},
		{Kernel: "fir2dim", Options: OptionsSpec{Feedback: true}},
		{Kernel: "fir2dim", Options: OptionsSpec{DisableSeeding: true}},
		{Synth: &SynthSpec{Ops: 64, Seed: 1}},
		{Synth: &SynthSpec{Ops: 64, Seed: 2}},
	}
	seen := map[string]int{key(implicit): -1}
	for i, req := range distinct {
		k := key(req)
		if prev, ok := seen[k]; ok {
			t.Errorf("request %d collides with %d", i, prev)
		}
		seen[k] = i
	}
}

// The keys of these requests are pinned: a change in how a request
// builds its DDG, machine or options, or in how the key hashes them,
// moves them, and a moved key orphans every result the caches and the
// durable store hold under the old one.
func TestRequestKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		req  CompileRequest
		want string
	}{
		{CompileRequest{Kernel: "fir2dim"},
			"f189f49d24bed644305dfb71d5e057d7b475c616309c1ec70b339fa94127d03c"},
		{CompileRequest{Kernel: "h264deblocking", Machine: MachineSpec{N: 4, M: 4, K: 2}, Options: OptionsSpec{Schedule: true}},
			"cd9e9c2022a812d2cf5549d7e3dcc2787f64b17b0b3b72a819ad549d393e4f0c"},
		{CompileRequest{Kernel: "idcthor", Machine: MachineSpec{Type: "rcp"}, Options: OptionsSpec{Feedback: true}},
			"cf9ebcdf0f2741cb8646283fa55f7878781298fcb3e676c31a6e60be167b3df6"},
		{CompileRequest{Kernel: "mpeg2inter", Machine: MachineSpec{Type: "rcp", Clusters: 16, Neighbors: 3, Ports: 2}},
			"149ec70000d1090a468f9df69dbd6ae314a0a190bcf584a3d0f1af3385e09f8f"},
		{CompileRequest{Kernel: "fir2dim", Machine: MachineSpec{Type: "linear", Clusters: 8, Neighbors: 2, Ports: 3}, Options: OptionsSpec{Engine: "exact"}},
			"33d005c1ce97c2349556745e889d93cb836bb9249871aa23c4c3aea396b31543"},
		{CompileRequest{Synth: &SynthSpec{Ops: 128, Seed: 3, RecLatency: 3}, Options: OptionsSpec{Engine: "portfolio"}},
			"181bdbd984702359d01a244732b6ffaaf80672fc330b282f5390e576def2b5bd"},
	} {
		if got, err := RequestKey(tc.req); err != nil || got != tc.want {
			t.Errorf("%+v: key %s (%v), want %s", tc.req, got, err, tc.want)
		}
	}
	explore := ExploreRequest{Kernel: "fir2dim", Beam: 4,
		Grid: dse.Grid{Type: "rcp", Neighbors: []int{2, 4}, MemCNs: [][]int{nil, {0, 1}}}}
	wk, err := explore.work(DefaultMaxExplorePoints)
	if err != nil {
		t.Fatal(err)
	}
	if want := "5e84af468a813c003bbfae24df42aad7d8ce5daa0d09bc5b1846beabfc48fe15"; wk.key != want {
		t.Errorf("explore: key %s, want %s", wk.key, want)
	}
}

// Every OptionsSpec field reaches the key by construction: a
// non-default valid value in any one of them changes RequestKey, while
// the delivery options never do.
func TestRequestKeyCoversEveryOption(t *testing.T) {
	base := CompileRequest{Kernel: "fir2dim"}
	want, err := RequestKey(base)
	if err != nil {
		t.Fatal(err)
	}
	spec := reflect.TypeOf(OptionsSpec{})
	for i := 0; i < spec.NumField(); i++ {
		f := spec.Field(i)
		req := base
		v := reflect.ValueOf(&req.Options).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int:
			v.SetInt(3) // beam and cand default to 8 and 4
		case reflect.String:
			v.SetString("exact") // the engine defaults to "see"
		default:
			t.Fatalf("OptionsSpec.%s: no test value for a %s field", f.Name, f.Type.Kind())
		}
		got, err := RequestKey(req)
		if err != nil {
			t.Fatalf("OptionsSpec.%s: %v", f.Name, err)
		}
		if got == want {
			t.Errorf("OptionsSpec.%s does not reach the key", f.Name)
		}
	}
	for _, req := range []CompileRequest{
		{Kernel: "fir2dim", TimeoutMs: 5},
		{Kernel: "fir2dim", Async: true},
		{Kernel: "fir2dim", Trace: true},
	} {
		if got, err := RequestKey(req); err != nil || got != want {
			t.Errorf("delivery options changed the key of %+v (err %v)", req, err)
		}
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, req := range []CompileRequest{
		{}, // no DDG source
		{Kernel: "fir2dim", Synth: &SynthSpec{Ops: 64}}, // two sources
		{Kernel: "nosuchkernel"},
		{Synth: &SynthSpec{Ops: 4}}, // too small
		{Source: "kernel bad {"},    // lang syntax error
		{Kernel: "fir2dim", Machine: MachineSpec{Type: "warpdrive"}},
	} {
		if _, err := s.Submit(context.Background(), req); err == nil {
			t.Errorf("request %+v accepted", req)
		}
	}
}

// A request-level timeout must cancel the compile mid-flight and
// surface a cancelled job, not a hung worker. The 16384-op compile
// takes seconds, so no plausible machine finishes it inside the 100-ms
// timeout.
func TestSubmitTimeoutCancelsCompile(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	job, err := s.Submit(context.Background(), CompileRequest{
		Synth:     &SynthSpec{Ops: 16384, Seed: 3, RecLatency: 3},
		TimeoutMs: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := job.State(); st != StateCancelled {
		t.Fatalf("state %s, want cancelled", st)
	}
	m := s.Metrics()
	if m.Cancelled != 1 || m.CacheMisses != 1 || m.Requests != 1 {
		t.Errorf("metrics %+v", m)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	submit := func(seed int64) (*Job, error) {
		return s.Submit(context.Background(), CompileRequest{
			Synth: &SynthSpec{Ops: 256, Seed: seed, RecLatency: 3},
		})
	}
	var jobs []*Job
	sawFull := false
	// One worker, queue depth one: the third-or-later distinct submit
	// while the first still runs must hit backpressure.
	for seed := int64(1); seed <= 8; seed++ {
		j, err := submit(seed)
		if err == ErrQueueFull {
			sawFull = true
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if !sawFull {
		t.Error("never saw ErrQueueFull with a single busy worker")
	}
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if j.State() != StateDone {
			t.Errorf("job %s: %s (%s)", j.ID, j.State(), j.Err())
		}
	}
}

// Close must drain: every accepted job completes and keeps its result;
// submissions after Close are rejected.
func TestCloseDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	var jobs []*Job
	for seed := int64(1); seed <= 4; seed++ {
		j, err := s.Submit(context.Background(), CompileRequest{
			Synth: &SynthSpec{Ops: 128, Seed: seed, RecLatency: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Close()
	for _, j := range jobs {
		if j.State() != StateDone {
			t.Errorf("job %s not drained: %s (%s)", j.ID, j.State(), j.Err())
		}
		if body, _ := j.Result(); len(body) == 0 {
			t.Errorf("job %s lost its result", j.ID)
		}
	}
	if _, err := s.Submit(context.Background(), CompileRequest{Kernel: "fir2dim"}); err != ErrClosed {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// Sanity-check the job history bound: old terminal jobs are pruned, live
// ones never are.
func TestJobHistoryPruning(t *testing.T) {
	s := New(Config{Workers: 2, MaxJobs: 3})
	defer s.Close()
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := s.Submit(context.Background(), CompileRequest{Kernel: "fir2dim"})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Error("oldest job survived pruning")
	}
	if _, ok := s.Job(ids[len(ids)-1]); !ok {
		t.Error("newest job was pruned")
	}
	m := s.Metrics()
	if m.Requests != 6 || m.CacheHits != 5 || m.CacheMisses != 1 {
		t.Errorf("metrics %+v, want 6 requests = 5 hits + 1 miss", m)
	}
}

// The process-wide subproblem memo spans requests: two *different*
// requests over the same kernel (different pipeline options, so the
// result cache cannot serve the second) share beam-search attempts, and
// the /metrics snapshot reports the hits.
func TestMemoSpansRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	run := func(req CompileRequest) {
		t.Helper()
		job, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := job.State(); st != StateDone {
			t.Fatalf("state %s: %s", st, job.Err())
		}
	}
	run(CompileRequest{Kernel: "fir2dim"})
	after1 := s.Metrics()
	if after1.MemoMisses == 0 {
		t.Fatalf("first compile recorded no memo traffic: %+v", after1)
	}
	// Different options → different result-cache key, same subproblems.
	run(CompileRequest{Kernel: "fir2dim", Options: OptionsSpec{Schedule: true}})
	after2 := s.Metrics()
	if after2.CacheHits != 0 {
		t.Fatalf("second request unexpectedly served from the result cache: %+v", after2)
	}
	if after2.MemoHits <= after1.MemoHits {
		t.Fatalf("second request gained no memo hits: %+v -> %+v", after1, after2)
	}
	if after2.MemoEntries == 0 || after2.MemoHitRatio <= 0 {
		t.Fatalf("memo snapshot incomplete: %+v", after2)
	}
	// Opting out must not touch the process memo.
	before := s.Metrics()
	run(CompileRequest{Kernel: "idcthor", Options: OptionsSpec{DisableMemo: true}})
	if got := s.Metrics(); got.MemoHits != before.MemoHits || got.MemoMisses != before.MemoMisses {
		t.Fatalf("disable_memo request touched the memo: %+v -> %+v", before, got)
	}
}
