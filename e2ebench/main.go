// Command e2ebench is the end-to-end benchmark of the HCA compiler. It
// drives the program only through its public functions (driver, core,
// modsched, sim, the service over loopback HTTP, dse through the
// service), runs one workload for a fixed time, checks every distinct
// output against references the compiler did not compute, and prints
// one JSON object as its last line of output.
//
//	e2ebench -workload kernels_feedback -seed 1 -seconds 16 -trace 0
//
// With -trace 0 the object carries the end-to-end metrics; with -trace 1
// the run alternates untraced and traced rounds and the object carries
// the per-layer metrics instead. README.md describes the workloads, the
// metrics and how the layer figures relate to the end-to-end ones.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"time"
)

// processStart approximates the moment the process started; the run's
// own set-up is timed from here.
var processStart = time.Now()

// setUps is how many cold set-ups an untraced run times: its own, from
// process start to its first timed operation, and setUps-1 more after
// the check, each in a fresh process of this program started with
// -setup-only and timed from its start until it is ready for its first
// timed operation. setup_s is their median, so one slow set-up does not
// move it.
const setUps = 5

// minRounds is the fewest rounds a timed phase completes, so that each
// operation's latency is the median of at least that many repeats, and
// minBeyond the fewest timed operations that must lie beyond the
// reported 90th percentile before the phase ends.
const (
	minRounds = 5
	minBeyond = 10
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setUp builds the inputs from the seed, starts what the workload
	// drives and runs its warm-up; dir is the workload's own scratch
	// directory.
	setUp(ctx context.Context, seed int64, dir string) error
	// round runs round number n: a whole round of the same operations.
	// It returns each operation's wall time in milliseconds and how
	// many operations failed. The wall times are indexed by slot: slot k
	// is the same operation, or for service_mix the same kind of
	// request, in every round, whatever order the round runs them in.
	// With lay non-nil every operation is traced into lay.
	round(ctx context.Context, n int, lay *layers) (lat []float64, failed int)
	// check verifies every distinct output of the timed phase and
	// returns the quality sums and how many timed operations produced an
	// output with the known fault errFinalBelowRes; with lay non-nil it
	// also records the per-layer figures it measures.
	check(ctx context.Context, lay *layers) (quality, int, error)
	// close stops everything setUp started, waits for it and drops the
	// outputs; a second call does nothing.
	close()
}

// quality holds the generated-code figures summed over a workload's
// distinct compiles.
type quality struct {
	ii, receives, finalMII, allLevels, cycles int
}

var workloads = map[string]func() workload{
	"kernels_feedback": func() workload { return newCompileWorkload(feedbackKind) },
	"synth_large":      func() workload { return newCompileWorkload(synthKind) },
	"exact_kernels":    func() workload { return newCompileWorkload(exactKind) },
	"service_mix":      func() workload { return &serviceWorkload{} },
}

func main() {
	name := flag.String("workload", "", "workload to run: kernels_feedback, synth_large, exact_kernels or service_mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	dir := flag.String("dir", ".bench_build", "directory for the run's temporary files")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print \"ready\", close it and exit")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if *setupOnly {
		if err := setUpOnly(mk, *seed, *dir); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: set-up: %v\n", *name, err)
			os.Exit(1)
		}
		return
	}
	out, err := run(mk, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up, runs its timed phase, checks its outputs
// and gathers the metrics.
func run(mk func() workload, name string, seed int64, length time.Duration, traced bool, dir string) (*result, error) {
	ctx := context.Background()
	runDir, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	w := mk()
	defer w.close()
	if err := w.setUp(ctx, seed, runDir); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	setups := []float64{time.Since(processStart).Seconds()}

	var lay *layers
	var plain []float64 // untraced latencies in a traced run
	if traced {
		lay = newLayers()
	}
	// Throughput and CPU time are taken per round and reported as the
	// median round, and each slot's latency is the median over the
	// rounds, so a burst of load from outside the process that slows a
	// few rounds does not move them.
	var lat, rate, cpu []float64
	var slots [][]float64 // slots[k] holds slot k's wall time in every round
	failed := 0
	before := sample()
	start := time.Now()
	for n := 0; ; n++ {
		var l *layers
		if traced && n%2 == 1 {
			l = lay
		}
		r0, u0 := time.Now(), sample()
		ls, f := w.round(ctx, n, l)
		r1, u1 := time.Since(r0), sample()
		rate = append(rate, float64(len(ls))/r1.Seconds())
		cpu = append(cpu, (u1.cpu-u0.cpu)*1000/float64(len(ls)))
		failed += f
		lat = append(lat, ls...)
		if slots == nil {
			slots = make([][]float64, len(ls))
		}
		for k, d := range ls {
			slots[k] = append(slots[k], d)
		}
		if traced && l == nil {
			plain = append(plain, ls...)
		}
		if time.Since(start) >= length && n+1 >= minRounds && (!traced || n >= 1) &&
			above(lat, slotLatency(slots, 90)) >= minBeyond {
			break
		}
	}
	wall := time.Since(start)
	after := sample()

	q, faulty, cerr := w.check(ctx, lay)
	if cerr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: check failed: %v\n", name, cerr)
	}
	if !traced {
		w.close()
		for i := 1; i < setUps; i++ {
			s, err := timeSetUp(name, seed, runDir)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up %d: %w", name, i, err)
			}
			setups = append(setups, s)
		}
	}
	out := &result{Correct: cerr == nil, Attempted: len(lat), Failed: failed + faulty, Metrics: map[string]metric{}}
	ops := float64(len(lat))
	if traced {
		lay.finish(out.Metrics, before, after, wall, ops, q, percentile(lay.lat, 50)/percentile(plain, 50))
	} else {
		m := out.Metrics
		m["ops_per_s"] = metric{percentile(rate, 50), "1/s"}
		m["latency_ms_p50"] = metric{slotLatency(slots, 50), "ms"}
		m["latency_ms_p90"] = metric{slotLatency(slots, 90), "ms"}
		m["cpu_ms_per_op"] = metric{percentile(cpu, 50), "ms"}
		m["alloc_mb_per_op"] = metric{(after.allocBytes - before.allocBytes) / (1 << 20) / ops, "MB"}
		m["peak_rss_mb"] = metric{after.peakRSS / (1 << 20), "MB"}
		m["setup_s"] = metric{percentile(setups, 50), "s"}
		m["ii_sum"] = metric{float64(q.ii), "count"}
		m["receives_sum"] = metric{float64(q.receives), "count"}
		m["final_mii_sum"] = metric{float64(q.finalMII), "count"}
	}
	printTable(name, seed, out)
	return out, nil
}

// setUpOnly is the -setup-only mode: it sets the workload up in a
// scratch directory of its own under dir, prints "ready" once the first
// timed operation could start, then closes the workload and returns.
func setUpOnly(mk func() workload, seed int64, dir string) error {
	setupDir, err := os.MkdirTemp(dir, "setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(setupDir)
	w := mk()
	defer w.close()
	if err := w.setUp(context.Background(), seed, setupDir); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}

// timeSetUp starts this program with -setup-only and returns the
// seconds from its start until it reports ready; it waits for the
// process to end, and kills it if it has not ended within a minute.
func timeSetUp(name string, seed int64, dir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", name, "-seed", fmt.Sprint(seed), "-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	took := time.Since(start).Seconds()
	_, _ = io.Copy(io.Discard, out) // Wait must not run before the pipe is drained
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up process printed %q (%v)", line, rerr)
	}
	return took, nil
}

// printTable prints the metrics one per line, for a reader.
func printTable(name string, seed int64, out *result) {
	fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d\n", name, seed, out.Correct, out.Attempted, out.Failed)
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.4f %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
}
