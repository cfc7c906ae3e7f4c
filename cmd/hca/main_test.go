package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// hca -json prints, byte for byte, the body POST /v1/compile answers for
// the same request: both build it through service.CompileRequest.
func TestJSONMatchesDaemon(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		args string
		body string
	}{
		{"-kernel fir2dim -schedule -json",
			`{"kernel":"fir2dim","options":{"schedule":true}}`},
		{"-kernel h264deblocking -rcp -feedback -json",
			`{"kernel":"h264deblocking","machine":{"type":"rcp"},"options":{"feedback":true}}`},
		{"-synth 128 -engine portfolio -json",
			`{"synth":{"ops":128,"seed":1,"rec_latency":3},"options":{"engine":"portfolio"}}`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
			t.Fatalf("hca %s: exit %d: %s", tc.args, code, stderr.String())
		}
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%v): %s", tc.body, resp.StatusCode, err, body)
		}
		if !bytes.Equal(stdout.Bytes(), body) {
			t.Errorf("hca %s prints other bytes than the daemon's body for %s:\n%s\n---\n%s",
				tc.args, tc.body, stdout.Bytes(), body)
		}
	}
}

// hca rejects what the daemon rejects, with the same typed field, and
// exits 1 instead of panicking.
func TestRejectsLikeDaemon(t *testing.T) {
	for _, tc := range []struct {
		args, field string
	}{
		{"-synth 5", "synth.ops"},
		{"-rcp -clusters 100", "machine.clusters"},
		{"-beam -1 -explore n=8", "BeamWidth"},
		{"-exact-budget -1", "exact_budget"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "invalid "+tc.field+" ") {
			t.Errorf("hca %s: exit %d, stderr %q; want exit 1 naming %s", tc.args, code, stderr.String(), tc.field)
		}
	}
}
