// Command perfbench records BENCH_<n>.json entries from the end-to-end
// benchmark under e2ebench/ and compares two of them.
//
//	perfbench -out BENCH_22.json           # record an entry
//	perfbench -quick                       # smoke: each workload once, for one second
//	perfbench -compare OLD.json NEW.json   # flag metrics that moved
//
// It reads the workloads, the run length and the end-to-end metrics with
// their bounds from BENCHMARK.json in the working directory, and runs the
// benchmark command named there (bash e2ebench/run.sh) once per run. A
// recording runs every workload on seeds 1–5, then once more traced on
// seed 1 for the per-layer metrics, and stops at the first run that
// exits non-zero or fails its output check. The entry holds each
// end-to-end metric's median, min and max over the seeds, the traced
// run's per-layer metrics and the provenance of the recording.
//
// -compare flags a metric only when its median moved by more than the
// metric's bound and lies outside the old entry's min–max range, and
// exits 1 when some metric got worse that way.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is the part of BENCHMARK.json the recorder reads.
type config struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name    string `json:"name"`
		Summary        // the metric's unit, better direction and bound
	} `json:"end_to_end"`
}

// Entry is the BENCH_<n>.json schema.
type Entry struct {
	Provenance Provenance                `json:"provenance"`
	Workloads  map[string]*WorkloadEntry `json:"workloads"`
}

// Provenance records where and how an entry was measured. GOMAXPROCS is
// the recorder's, whose environment the benchmark runs inherit.
type Provenance struct {
	Commit     string  `json:"commit"` // short commit, "-dirty" with uncommitted changes
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Command    string  `json:"command"`
	Seeds      []int   `json:"seeds"`
	RunSeconds float64 `json:"run_seconds"`
	RecordedAt string  `json:"recorded_at"`
}

// WorkloadEntry is one workload's figures.
type WorkloadEntry struct {
	FailedShare []float64          `json:"failed_share"` // failed ÷ attempted operations, per seed
	EndToEnd    map[string]Summary `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"` // the traced run's
}

// Summary is one metric over a recording's seeds.
type Summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"` // in seed order
}

// runResult is the JSON object the benchmark prints as its last line.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	out := flag.String("out", "-", "file to write the entry to (- for standard output)")
	cmp := flag.Bool("compare", false, "compare two entries given as arguments: OLD.json NEW.json")
	quick := flag.Bool("quick", false, "smoke mode: run each workload once, on seed 1, for one second, untraced")
	flag.Parse()

	if *cmp {
		var old, cur Entry
		if flag.NArg() != 2 {
			fatal(errors.New("-compare wants two entries: OLD.json NEW.json"))
		}
		if err := readJSON(flag.Arg(0), &old); err != nil {
			fatal(err)
		}
		if err := readJSON(flag.Arg(1), &cur); err != nil {
			fatal(err)
		}
		if len(old.Workloads) == 0 || len(cur.Workloads) == 0 {
			fatal(errors.New("-compare reads entries this recorder wrote; BENCH_10.json and older have another schema"))
		}
		if compare(os.Stdout, &old, &cur) > 0 {
			os.Exit(1)
		}
		return
	}

	var cfg config
	if err := readJSON("BENCHMARK.json", &cfg); err != nil {
		fatal(err)
	}
	seeds, seconds, traced := []int{1, 2, 3, 4, 5}, cfg.RunSeconds, true
	if *quick {
		seeds, seconds, traced = []int{1}, 1, false
	}
	e, err := record(cfg, seeds, seconds, traced)
	if err != nil {
		fatal(err)
	}
	buf, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
	} else {
		err = os.WriteFile(*out, buf, 0o644)
	}
	if err != nil {
		fatal(err)
	}
}

// record runs every workload on every seed, then once traced, and
// summarizes the runs.
func record(cfg config, seeds []int, seconds float64, traced bool) (*Entry, error) {
	e := &Entry{Workloads: map[string]*WorkloadEntry{}, Provenance: Provenance{
		Commit: commit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Command: strings.Join(cfg.Command, " "),
		Seeds: seeds, RunSeconds: seconds, RecordedAt: time.Now().UTC().Format(time.RFC3339),
	}}
	for _, w := range cfg.Workloads {
		we := &WorkloadEntry{EndToEnd: map[string]Summary{}}
		values := map[string][]float64{}
		for _, seed := range seeds {
			r, err := run(cfg.Command, w.Name, seed, seconds, false)
			if err != nil {
				return nil, err
			}
			we.FailedShare = append(we.FailedShare, float64(r.Failed)/float64(r.Attempted))
			for _, m := range cfg.EndToEnd {
				v, ok := r.Metrics[m.Name]
				if !ok {
					return nil, fmt.Errorf("%s seed %d: no metric %s", w.Name, seed, m.Name)
				}
				values[m.Name] = append(values[m.Name], v.Value)
			}
		}
		for _, m := range cfg.EndToEnd {
			we.EndToEnd[m.Name] = summarize(m.Summary, values[m.Name])
		}
		if traced {
			r, err := run(cfg.Command, w.Name, seeds[0], seconds, true)
			if err != nil {
				return nil, err
			}
			we.PerLayer = map[string]float64{}
			for name, v := range r.Metrics {
				we.PerLayer[name] = v.Value
			}
		}
		e.Workloads[w.Name] = we
	}
	return e, nil
}

// run executes one benchmark run; a non-zero exit or a failed output
// check is an error.
func run(command []string, workload string, seed int, seconds float64, traced bool) (*runResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := append(append([]string(nil), command[1:]...), "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	fmt.Fprintln(os.Stderr, "perfbench:", command[0], strings.Join(args, " "))
	cmd := exec.Command(command[0], args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	what := fmt.Sprintf("%s seed %d (traced %v)", workload, seed, traced)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	r, err := parseResult(stdout.String())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("%s: output check failed", what)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d operations, %d failed\n", what, r.Attempted, r.Failed)
	return r, nil
}

// parseResult decodes the last line of a run's output.
func parseResult(out string) (*runResult, error) {
	var r runResult
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("last output line: %w", err)
	}
	if r.Attempted == 0 {
		return nil, errors.New("no operation ran")
	}
	return &r, nil
}

// summarize fills m with the median, min and max of values.
func summarize(m Summary, values []float64) Summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m.Median, m.Min, m.Max, m.Values = (s[(len(s)-1)/2]+s[len(s)/2])/2, s[0], s[len(s)-1], values
	return m
}

// compare prints every end-to-end metric of cur against old and returns
// how many got worse beyond both their bound and old's min–max range, a
// larger failed share counting too.
func compare(w io.Writer, old, cur *Entry) (worse int) {
	fmt.Fprintf(w, "old %s, new %s\n%-17s %-16s %11s %23s %11s %8s\n", old.Provenance.Commit, cur.Provenance.Commit,
		"workload", "metric", "old median", "old [min, max]", "new median", "change")
	for _, wn := range sortedKeys(cur.Workloads) {
		ow, cw := old.Workloads[wn], cur.Workloads[wn]
		if ow == nil {
			fmt.Fprintf(w, "%-17s not in the old entry\n", wn)
			continue
		}
		for _, mn := range sortedKeys(cw.EndToEnd) {
			o, c := ow.EndToEnd[mn], cw.EndToEnd[mn]
			verdict := judge(o, c)
			if verdict == "WORSE" {
				worse++
			}
			fmt.Fprintf(w, "%-17s %-16s %11.6g %23s %11.6g %+7.1f%% %s\n", wn, mn, o.Median,
				fmt.Sprintf("[%.6g, %.6g]", o.Min, o.Max), c.Median, 100*(c.Median-o.Median)/math.Abs(o.Median), verdict)
		}
		if o, c := slices.Max(ow.FailedShare), slices.Max(cw.FailedShare); c > o {
			worse++
			fmt.Fprintf(w, "%-17s failed share went from %.4g to %.4g WORSE\n", wn, o, c)
		}
	}
	return worse
}

// judge returns "WORSE" or "better" when cur's median moved from old's
// by more than the bound and lies outside old's min–max range, else "".
func judge(old, cur Summary) string {
	rel := (cur.Median - old.Median) / math.Abs(old.Median)
	if math.Abs(rel) <= cur.Bound || (cur.Median >= old.Min && cur.Median <= old.Max) {
		return ""
	}
	if (rel > 0) == (cur.Better == "higher") {
		return "better"
	}
	return "WORSE"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// commit returns the checkout's short commit, with "-dirty" when the
// tree has uncommitted changes, or "unknown" outside a git checkout.
func commit() string {
	sha, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		return strings.TrimSpace(string(sha)) + "-dirty"
	}
	return strings.TrimSpace(string(sha))
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
