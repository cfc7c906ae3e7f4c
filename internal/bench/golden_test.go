package bench

import (
	"context"
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this run")

const goldenPath = "testdata/experiments.golden"

// TestExperimentsGolden pins every deterministic column of every
// experiment: the golden is hcabench -exp all's output with the timing
// columns masked. After a change that moves rows on purpose, regenerate
// it with
//
//	go test ./internal/bench -run TestExperimentsGolden -update
//
// and bring EXPERIMENTS.md in line.
func TestExperimentsGolden(t *testing.T) {
	outs := make([]string, len(Experiments))
	for i, e := range Experiments {
		out, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		outs[i] = out
	}
	got := masked(outs)
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if got != want {
		t.Fatalf("experiment rows moved (regenerate with -update if intended):\n%s", firstDiff(got, want))
	}

	// The golden bites: a row whose figure moves by one no longer
	// matches it, the mask notwithstanding.
	for _, mv := range []struct {
		exp, row string
		field    int
	}{
		{"table1", "h264deblocking", 8}, // SchedII
		{"statespace", "h264deblocking", 2},
		{"explore", "swept", 3}, // legal configurations
	} {
		moved := append([]string(nil), outs...)
		for i, e := range Experiments {
			if e.Name == mv.exp {
				moved[i] = moveField(t, outs[i], mv.row, mv.field)
			}
		}
		if masked(moved) == want {
			t.Errorf("%s: moving %s field %d left the golden matching", mv.exp, mv.row, mv.field)
		}
	}
}

// TestExperimentsDocQuotesGolden keeps EXPERIMENTS.md's tables equal to
// the golden: the document quotes every experiment's section verbatim.
func TestExperimentsDocQuotesGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range strings.Split(strings.TrimSuffix(readGolden(t), "\n\n"), "\n\n") {
		if !strings.Contains(string(doc), "```\n"+sec+"\n```\n") {
			t.Errorf("EXPERIMENTS.md does not quote the golden's %q section", strings.SplitN(sec, "\n", 2)[0])
		}
	}
}

// masked joins the experiments' outputs with their timing columns
// masked, as hcabench -exp all prints them.
func masked(outs []string) string {
	var b strings.Builder
	for i, e := range Experiments {
		b.WriteString(maskTiming(outs[i], e.Timing) + "\n")
	}
	return b.String()
}

// maskTiming replaces the figures of the named columns with "*". Line 1
// of an experiment's output is its header. A column's figures are
// right-aligned to the end of its name there and start after the header
// field before it. Only a span that holds one number is masked, so error
// text that runs across the column stays as printed.
func maskTiming(out string, columns []string) string {
	lines := strings.Split(out, "\n")
	for _, c := range columns {
		i := strings.Index(lines[1]+" ", " "+c+" ")
		if i < 0 {
			continue
		}
		start, end := len(strings.TrimRight(lines[1][:i], " ")), i+1+len(c)
		for j := 2; j < len(lines); j++ {
			l := lines[j]
			if len(l) < end {
				continue
			}
			if _, err := strconv.ParseFloat(strings.TrimSpace(l[start:end]), 64); err == nil {
				lines[j] = l[:start] + strings.Repeat(" ", end-start-1) + "*" + l[end:]
			}
		}
	}
	return strings.Join(lines, "\n")
}

func readGolden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	return string(b)
}

// firstDiff shows the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ":\n got  " + g[i] + "\n want " + w[i]
		}
	}
	return "lengths differ: got " + strconv.Itoa(len(g)) + " lines, want " + strconv.Itoa(len(w))
}

// moveField adds one to the given whitespace-separated field of the
// first line of out that starts with row.
func moveField(t *testing.T, out, row string, field int) string {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, row) {
			continue
		}
		f := regexp.MustCompile(`\S+`).FindAllStringIndex(l, -1)[field]
		v, err := strconv.Atoi(l[f[0]:f[1]])
		if err != nil {
			t.Fatalf("%q field %d: %v", l, field, err)
		}
		lines[i] = l[:f[0]] + strconv.Itoa(v+1) + l[f[1]:]
		return strings.Join(lines, "\n")
	}
	t.Fatalf("no row starts with %q", row)
	return ""
}
