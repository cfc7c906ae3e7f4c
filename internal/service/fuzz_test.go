package service

import (
	"encoding/json"
	"testing"
)

// FuzzRequestBodies decodes arbitrary bytes as each POST body the
// service accepts — a compile, a sweep and a batch — and builds the work
// without running it. Every input must come back as built work or as an
// error, never as a panic. The committed corpus under
// testdata/fuzz/FuzzRequestBodies replays in every `go test`.
func FuzzRequestBodies(f *testing.F) {
	f.Add([]byte(`{"kernel":"fir2dim","options":{"schedule":true}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var c CompileRequest
		if json.Unmarshal(body, &c) == nil {
			c.work("")
		}
		var e ExploreRequest
		if json.Unmarshal(body, &e) == nil {
			e.work(DefaultMaxExplorePoints)
		}
		var b BatchRequest
		if json.Unmarshal(body, &b) == nil {
			for _, entry := range b.Entries {
				entry.work("")
			}
		}
	})
}
