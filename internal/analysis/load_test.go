package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestModulePackagesSkipsNestedModules pins the "./..." expansion to the
// go tool's: a subdirectory with its own go.mod is another module, so
// neither it nor anything below it is linted as part of this one.
func TestModulePackagesSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                "module fixture\n\ngo 1.22\n",
		"a/a.go":                "package a\n",
		"a/b/b.go":              "package b\n",
		"nested/go.mod":         "module fixture/nested\n\ngo 1.22\n",
		"nested/n.go":           "package nested\n",
		"nested/sub/s.go":       "package sub\n",
		"testdata/src/x/x.go":   "package x\n",
		"c/nested/go.mod":       "module other\n\ngo 1.22\n",
		"c/nested/deep/d.go":    "package deep\n",
		"c/c.go":                "package c\n",
		"c/notamodule/gomod.go": "package notamodule\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := NewLoader(root).ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture/a", "fixture/a/b", "fixture/c", "fixture/c/notamodule"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ModulePackages() = %q, want %q", got, want)
	}
}
