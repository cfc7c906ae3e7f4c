package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dse"
)

// The full HTTP error surface: every failure mode maps to a specific
// status code with the typed ErrorBody envelope, and typed validation
// errors keep their *see.OptionError field name across the wire.
func TestHTTPErrorSurface(t *testing.T) {
	svc := New(Config{Workers: 1, MaxBodyBytes: 2048})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	oversized := fmt.Sprintf(`{"kernel":"fir2dim","source":%q}`, strings.Repeat("x", 4096))

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantField  string // ErrorBody.Field, when a typed error must survive
		wantErr    string // substring of ErrorBody.Error
	}{
		{
			name:   "malformed JSON",
			method: "POST", path: "/v1/compile", body: `{"kernel"`,
			wantStatus: http.StatusBadRequest, wantErr: "bad request body",
		},
		{
			name:   "unknown field rejected",
			method: "POST", path: "/v1/compile", body: `{"kernel":"fir2dim","bogus":1}`,
			wantStatus: http.StatusBadRequest, wantErr: "bogus",
		},
		{
			name:   "no DDG source is a typed option error",
			method: "POST", path: "/v1/compile", body: `{}`,
			wantStatus: http.StatusBadRequest, wantField: "kernel",
			wantErr: "exactly one of kernel, synth or source",
		},
		{
			name:   "out-of-range synth ops keeps its field",
			method: "POST", path: "/v1/compile", body: `{"synth":{"ops":4,"seed":1}}`,
			wantStatus: http.StatusBadRequest, wantField: "synth.ops",
			wantErr: "out of range",
		},
		{
			name:   "bad machine type keeps its field",
			method: "POST", path: "/v1/compile", body: `{"kernel":"fir2dim","machine":{"type":"quantum"}}`,
			wantStatus: http.StatusBadRequest, wantField: "machine.type",
			wantErr: "dspfabric, rcp or linear",
		},
		{
			name:   "another family's machine field keeps its field",
			method: "POST", path: "/v1/compile", body: `{"kernel":"fir2dim","machine":{"type":"rcp","n":4}}`,
			wantStatus: http.StatusBadRequest, wantField: "machine.n",
			wantErr: "does not take",
		},
		{
			name:   "explore: negative beam keeps its field",
			method: "POST", path: "/v1/explore", body: `{"kernel":"fir2dim","beam":-1}`,
			wantStatus: http.StatusBadRequest, wantField: "BeamWidth",
			wantErr: "must be positive",
		},
		{
			name:   "unknown engine keeps its field",
			method: "POST", path: "/v1/compile", body: `{"kernel":"fir2dim","options":{"engine":"annealing"}}`,
			wantStatus: http.StatusBadRequest, wantField: "engine",
			wantErr: "unknown engine",
		},
		{
			name:   "oversized body",
			method: "POST", path: "/v1/compile", body: oversized,
			wantStatus: http.StatusRequestEntityTooLarge, wantErr: "too large",
		},
		{
			name:   "unknown job ID",
			method: "GET", path: "/v1/jobs/job-424242",
			wantStatus: http.StatusNotFound, wantErr: "unknown job",
		},
		{
			name:   "batch: empty entries is a typed option error",
			method: "POST", path: "/v1/compile/batch", body: `{"entries":[]}`,
			wantStatus: http.StatusBadRequest, wantField: "entries",
			wantErr: "at least one entry",
		},
		{
			name:   "batch: oversized body",
			method: "POST", path: "/v1/compile/batch", body: `{"entries":[` + oversized + `]}`,
			wantStatus: http.StatusRequestEntityTooLarge, wantErr: "too large",
		},
		{
			name:   "batch: malformed JSON",
			method: "POST", path: "/v1/compile/batch", body: `[{"kernel":`,
			wantStatus: http.StatusBadRequest, wantErr: "bad request body",
		},
		{
			name:   "wrong method on compile",
			method: "GET", path: "/v1/compile",
			wantStatus: http.StatusMethodNotAllowed, wantErr: "POST only",
		},
		{
			name:   "wrong method on batch",
			method: "DELETE", path: "/v1/compile/batch",
			wantStatus: http.StatusMethodNotAllowed, wantErr: "POST only",
		},
		{
			name:   "wrong method on jobs",
			method: "POST", path: "/v1/jobs/job-000001",
			wantStatus: http.StatusMethodNotAllowed, wantErr: "GET only",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rdr *strings.Reader = strings.NewReader(tc.body)
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rdr)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var eb ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("non-JSON error body: %v", err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.wantStatus, eb.Error)
			}
			if tc.wantField != "" && eb.Field != tc.wantField {
				t.Errorf("field %q, want %q (%s)", eb.Field, tc.wantField, eb.Error)
			}
			if !strings.Contains(eb.Error, tc.wantErr) {
				t.Errorf("error %q missing %q", eb.Error, tc.wantErr)
			}
		})
	}
}

// Machines at and past what a pattern graph holds never take the
// daemon down: each body gets a typed 400 at submission, a failed job
// (422), a result, or for sweeps a point error, and the service answers
// the next request. A panic on a worker goroutine would end this test
// binary.
func TestBoundaryMachinesKeepServiceUp(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		path, body string
		status     []int  // accepted statuses
		field      string // ErrorBody.Field of a 400
	}{
		{"/v1/compile", `{"kernel":"fir2dim","machine":{"type":"rcp","clusters":100}}`, []int{400}, "machine.clusters"},
		{"/v1/compile", `{"kernel":"fir2dim","machine":{"type":"rcp","clusters":65}}`, []int{400}, "machine.clusters"},
		{"/v1/compile", `{"kernel":"fir2dim","machine":{"type":"linear","clusters":65}}`, []int{400}, "machine.clusters"},
		{"/v1/compile", `{"kernel":"fir2dim","machine":{"type":"rcp","clusters":64}}`, []int{200}, ""},
		{"/v1/compile", `{"kernel":"fir2dim","machine":{"type":"linear","clusters":64}}`, []int{200}, ""},
		{"/v1/compile", `{"kernel":"h264deblocking","machine":{"n":40}}`, []int{200, 422}, ""},
		{"/v1/compile", `{"kernel":"h264deblocking","machine":{"n":64,"m":64,"k":64}}`, []int{200, 422}, ""},
		{"/v1/explore", `{"kernel":"fir2dim","grid":{"in_ports":[1]}}`, []int{400}, "grid.in_ports"},
		{"/v1/explore", `{"kernel":"fir2dim","grid":{"type":"rcp","clusters":[65]}}`, []int{400}, "grid.clusters"},
		{"/v1/explore", `{"kernel":"h264deblocking","grid":{"n":[40]}}`, []int{200}, ""},
	}
	for _, tc := range cases {
		var resp *http.Response
		var b []byte
		if tc.path == "/v1/explore" {
			resp, b = postExplore(t, ts.URL, tc.body)
		} else {
			resp, b = mustPost(t, ts.Client(), ts.URL, tc.body)
		}
		ok := false
		for _, st := range tc.status {
			ok = ok || resp.StatusCode == st
		}
		if !ok {
			t.Errorf("%s: status %d, want one of %v: %s", tc.body, resp.StatusCode, tc.status, b)
		}
		if tc.field != "" {
			var eb ErrorBody
			if err := json.Unmarshal(b, &eb); err != nil || eb.Field != tc.field {
				t.Errorf("%s: error body %s, want field %q", tc.body, b, tc.field)
			}
		}
		if tc.path == "/v1/explore" && resp.StatusCode == http.StatusOK {
			var res dse.Result
			if err := json.Unmarshal(b, &res); err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Points {
				if !p.Legal && p.Error == "" {
					t.Errorf("%s: point %d is neither legal nor an error", tc.body, p.Index)
				}
			}
		}
		if resp, b := mustPost(t, ts.Client(), ts.URL, `{"kernel":"fir2dim"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("after %s the service answered %d: %s", tc.body, resp.StatusCode, b)
		}
	}
}

// Backpressure surfaces as 503 on the single-compile endpoint too.
func TestCompileQueueFull(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for seed := 0; seed < 2; seed++ {
		resp, b := mustPost(t, ts.Client(), ts.URL,
			fmt.Sprintf(`{"synth":{"ops":2500,"seed":%d,"rec_latency":3},"async":true}`, 700+seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("filler %d: status %d: %s", seed, resp.StatusCode, b)
		}
	}
	resp, b := mustPost(t, ts.Client(), ts.URL, `{"synth":{"ops":2500,"seed":777,"rec_latency":3},"async":true}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d: %s", resp.StatusCode, b)
	}
	var eb ErrorBody
	if err := json.Unmarshal(b, &eb); err != nil || !strings.Contains(eb.Error, "queue full") {
		t.Fatalf("503 body (%v): %s", err, b)
	}
	svc.Close()
}
