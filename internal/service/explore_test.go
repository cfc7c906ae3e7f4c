package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/see"
)

func postExplore(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestExploreEndpoint: the acceptance scenario for POST /v1/explore —
// a sweep returns every point plus the Pareto front, repeats are
// byte-identical cache hits, and /metrics accounts for the sweep.
func TestExploreEndpoint(t *testing.T) {
	svc := New(Config{Workers: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body := `{"kernel":"fir2dim","grid":{"k":[8,6,4,2]}}`
	resp, b := postExplore(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Hca-Cache") != "miss" {
		t.Fatalf("first sweep X-Hca-Cache = %q", resp.Header.Get("X-Hca-Cache"))
	}
	var res dse.Result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("bad sweep body: %v", err)
	}
	if res.Kernel != "fir2dim" || len(res.Points) != 4 || len(res.Front) == 0 {
		t.Fatalf("sweep = kernel %q, %d points, %d front", res.Kernel, len(res.Points), len(res.Front))
	}
	for i, p := range res.Points {
		if p.Index != i || p.Error != "" || !p.Legal {
			t.Fatalf("point %d: %+v", i, p)
		}
	}

	// Identical repeat: served from the result cache, byte-identical.
	resp2, b2 := postExplore(t, ts.URL, body)
	if resp2.Header.Get("X-Hca-Cache") != "hit" {
		t.Fatalf("repeat X-Hca-Cache = %q, want hit", resp2.Header.Get("X-Hca-Cache"))
	}
	if string(b) != string(b2) {
		t.Fatal("cached sweep differs from computed sweep")
	}

	m := svc.Metrics()
	if m.Sweeps != 1 || m.SweepPoints != 4 || m.SweepDeduped != 0 {
		t.Fatalf("sweep metrics = %d/%d/%d, want 1/4/0", m.Sweeps, m.SweepPoints, m.SweepDeduped)
	}
	if m.MemoByEngine["see"].Misses == 0 {
		t.Fatalf("memo_by_engine missing see traffic: %+v", m.MemoByEngine)
	}
	if m.Requests != 2 || m.CacheHits != 1 {
		t.Fatalf("requests=%d hits=%d, want 2/1", m.Requests, m.CacheHits)
	}
}

// TestExploreAsync: async sweeps return 202 with a pollable job whose
// terminal result is the sweep body.
func TestExploreAsync(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, b := postExplore(t, ts.URL, `{"kernel":"fir2dim","grid":{"k":[8,4]},"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	job, ok := svc.Job(st.ID)
	if !ok {
		t.Fatalf("job %s not tracked", st.ID)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := job.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	jr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := io.ReadAll(jr.Body)
	jr.Body.Close()
	var out struct {
		Status
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(jb, &out); err != nil {
		t.Fatal(err)
	}
	if out.State != StateDone || len(out.Result) == 0 {
		t.Fatalf("job = %s, result %d bytes", out.State, len(out.Result))
	}
	var res dse.Result
	if err := json.Unmarshal(out.Result, &res); err != nil {
		t.Fatalf("job result is not a sweep: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("async sweep has %d points", len(res.Points))
	}
}

// TestExploreTypedErrors: bad grids and over-bound point counts surface
// as typed 400s with the *see.OptionError field preserved; unknown
// body fields are rejected.
func TestExploreTypedErrors(t *testing.T) {
	svc := New(Config{Workers: 1, MaxExplorePoints: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name, body, field string
	}{
		{"bad grid type", `{"kernel":"fir2dim","grid":{"type":"torus"}}`, "grid.type"},
		{"bad engine", `{"kernel":"fir2dim","grid":{"engines":["quantum"]}}`, "engine"},
		{"mixed axes", `{"kernel":"fir2dim","grid":{"type":"rcp","n":[8]}}`, "grid.n"},
		{"over point bound", `{"kernel":"fir2dim","grid":{"k":[8,7,6,5,4]}}`, "grid"},
		{"no kernel", `{"grid":{}}`, "kernel"},
		{"negative budget", `{"kernel":"fir2dim","grid":{},"exact_budget":-1}`, "exact_budget"},
	}
	for _, tc := range cases {
		resp, b := postExplore(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, resp.StatusCode, b)
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Field != tc.field {
			t.Errorf("%s: error body %s, want field %q", tc.name, b, tc.field)
		}
	}

	resp, _ := postExplore(t, ts.URL, `{"kernel":"fir2dim","grid":{},"bogus":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}
	// At the bound exactly: accepted.
	resp, b := postExplore(t, ts.URL, `{"kernel":"fir2dim","grid":{"k":[8,6,4,2]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("at-bound sweep: status %d: %s", resp.StatusCode, b)
	}
}

// TestExploreDedupMetrics: a sweep with collapsible points reports them
// on /metrics.
func TestExploreDedupMetrics(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, b := postExplore(t, ts.URL, `{"kernel":"fir2dim","grid":{"type":"rcp","neighbors":[4,5,6,7]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var res dse.Result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Unique != 1 || res.Stats.Deduped != 3 {
		t.Fatalf("stats = %+v, want 1 unique / 3 deduped", res.Stats)
	}
	if m := svc.Metrics(); m.SweepPoints != 4 || m.SweepDeduped != 3 {
		t.Fatalf("metrics = points %d deduped %d, want 4/3", m.SweepPoints, m.SweepDeduped)
	}
}

// TestExploreKeyCoversSweepOptions: the sweep key changes with the
// grid, the search widths and the exact budget, and with nothing else.
func TestExploreKeyCoversSweepOptions(t *testing.T) {
	key := func(req ExploreRequest) string {
		t.Helper()
		wk, err := req.work(DefaultMaxExplorePoints)
		if err != nil {
			t.Fatal(err)
		}
		return wk.key
	}
	grid := dse.Grid{K: []int{8, 4}}
	want := key(ExploreRequest{Kernel: "fir2dim", Grid: grid})
	for name, req := range map[string]ExploreRequest{
		"grid":         {Kernel: "fir2dim", Grid: dse.Grid{K: []int{8, 2}}},
		"beam":         {Kernel: "fir2dim", Grid: grid, Beam: 3},
		"cand":         {Kernel: "fir2dim", Grid: grid, Cand: 3},
		"exact budget": {Kernel: "fir2dim", Grid: grid, ExactBudget: 512},
	} {
		if key(req) == want {
			t.Errorf("%s does not reach the explore key", name)
		}
	}
	for _, req := range []ExploreRequest{
		{Kernel: "fir2dim", Grid: grid, TimeoutMs: 5},
		{Kernel: "fir2dim", Grid: grid, Async: true},
		{Kernel: "fir2dim", Grid: grid, Beam: 8, Cand: 4},
	} {
		if key(req) != want {
			t.Errorf("%+v changed the explore key", req)
		}
	}
	compile, err := RequestKey(CompileRequest{Kernel: "fir2dim"})
	if err != nil {
		t.Fatal(err)
	}
	if compile == key(ExploreRequest{Kernel: "fir2dim"}) {
		t.Error("a compile and a one-point sweep of the same kernel share a key")
	}
}

// TestExploreBoundBeforeExpansion: a grid over the point bound is turned
// away from its axis lengths, before any point is built, as the typed
// grid 400. Turning away 8^3 or 64^3 points takes about ten
// allocations; building the 262,144 points would take at least one
// each.
func TestExploreBoundBeforeExpansion(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	cube := func(n int) dse.Grid {
		axis := make([]int, n)
		for i := range axis {
			axis[i] = 8 // repeated axis values are valid
		}
		return dse.Grid{N: axis, M: axis, K: axis}
	}
	allocs := func(n int) float64 {
		req := ExploreRequest{Kernel: "fir2dim", Grid: cube(n)}
		return testing.AllocsPerRun(5, func() {
			_, err := svc.SubmitExplore(context.Background(), req)
			var oe *see.OptionError
			if !errors.As(err, &oe) || oe.Field != "grid" {
				t.Fatalf("%d^3 grid: err = %v, want the typed grid bound error", n, err)
			}
		})
	}
	for _, n := range []int{8, 64} {
		if a := allocs(n); a > 64 {
			t.Errorf("rejecting a %d^3 grid took %v allocations", n, a)
		}
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body, err := json.Marshal(ExploreRequest{Kernel: "fir2dim", Grid: cube(64)})
	if err != nil {
		t.Fatal(err)
	}
	resp, b := postExplore(t, ts.URL, string(body))
	var eb ErrorBody
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(b, &eb) != nil || eb.Field != "grid" ||
		!strings.Contains(eb.Error, fmt.Sprint(64*64*64)) {
		t.Fatalf("64^3 grid: status %d: %s", resp.StatusCode, b)
	}
}
