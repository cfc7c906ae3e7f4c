package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestEncodeJSONSchema pins the -json wire format consumed by CI: an
// array of {file, line, col, analyzer, message} objects with paths
// relative to the module root.
func TestEncodeJSONSchema(t *testing.T) {
	found := []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "/mod/internal/pg/flow.go", Line: 42, Column: 7},
			Analyzer: "flowlife",
			Message:  "flow f may be used after Release",
		},
		{
			Pos:      token.Position{Filename: "/elsewhere/outside.go", Line: 1, Column: 1},
			Analyzer: "sharecap",
			Message:  "closure writes captured variable n",
		},
	}
	var buf bytes.Buffer
	if err := encodeJSON(&buf, "/mod", found); err != nil {
		t.Fatalf("encodeJSON: %v", err)
	}

	// The output must be valid JSON with exactly the five lower-case
	// keys per object — CI scripts key on them.
	var raw []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("output is not a JSON array of objects: %v\n%s", err, buf.String())
	}
	if len(raw) != 2 {
		t.Fatalf("got %d objects, want 2", len(raw))
	}
	for i, obj := range raw {
		for _, key := range []string{"file", "line", "col", "analyzer", "message"} {
			if _, ok := obj[key]; !ok {
				t.Errorf("object %d missing key %q", i, key)
			}
		}
		if len(obj) != 5 {
			t.Errorf("object %d has %d keys, want 5: %v", i, len(obj), obj)
		}
	}

	var diags []jsonDiag
	if err := json.Unmarshal(buf.Bytes(), &diags); err != nil {
		t.Fatalf("re-unmarshal: %v", err)
	}
	if diags[0].File != "internal/pg/flow.go" {
		t.Errorf("in-module path not relativized: %q", diags[0].File)
	}
	if diags[0].Line != 42 || diags[0].Col != 7 {
		t.Errorf("position mangled: line=%d col=%d", diags[0].Line, diags[0].Col)
	}
	if diags[0].Analyzer != "flowlife" || !strings.Contains(diags[0].Message, "Release") {
		t.Errorf("analyzer/message mangled: %+v", diags[0])
	}
	// Paths outside the module root pass through untouched rather than
	// growing ../ prefixes.
	if diags[1].File != "/elsewhere/outside.go" {
		t.Errorf("out-of-module path rewritten: %q", diags[1].File)
	}
}

// TestEncodeJSONEmpty: a clean run emits an empty array, never null —
// `jq -e 'type=="array"'` in CI depends on it.
func TestEncodeJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := encodeJSON(&buf, "/mod", nil); err != nil {
		t.Fatalf("encodeJSON: %v", err)
	}
	got := strings.TrimSpace(buf.String())
	if got != "[]" {
		t.Errorf("clean run emitted %q, want []", got)
	}
	var raw []jsonDiag
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("empty output does not round-trip: %v", err)
	}
}

// TestSelectAnalyzers covers the -only flag parsing against the
// registry-backed suite.
func TestSelectAnalyzers(t *testing.T) {
	everything, err := selectAnalyzers("")
	if err != nil {
		t.Fatalf("default selection: %v", err)
	}
	if len(everything) != len(all) {
		t.Errorf("default selection dropped analyzers: %d != %d", len(everything), len(all))
	}

	subset, err := selectAnalyzers("flowlife, sharecap")
	if err != nil {
		t.Fatalf("subset selection: %v", err)
	}
	if len(subset) != 2 || subset[0].Name != "flowlife" || subset[1].Name != "sharecap" {
		names := make([]string, len(subset))
		for i, a := range subset {
			names[i] = a.Name
		}
		t.Errorf("subset selection got %v, want [flowlife sharecap]", names)
	}

	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Error("unknown analyzer name did not error")
	}
}
