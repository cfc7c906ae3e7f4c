// Command hca clusterizes one of the paper's multimedia kernels (or a
// synthetic workload) onto a DSPFabric or RCP machine with Hierarchical
// Cluster Assignment and prints the full report: Table-1 figures, the
// per-level solutions, and optionally the achieved modulo-schedule II.
//
// Usage:
//
//	hca -kernel idcthor -n 8 -m 8 -k 8 -schedule
//	hca -kernel fir2dim -rcp -clusters 8 -ports 2
//	hca -synth 128 -seed 3 -reclat 4
//
// Profiling: -cpuprofile and -memprofile write pprof files covering the
// whole compile (load → HCA → scheduling → emission), for
// `go tool pprof`:
//
//	hca -kernel h264deblocking -cpuprofile cpu.out -memprofile mem.out
//
// hca builds its compile through service.CompileRequest, like the hcad
// daemon: it accepts and rejects the same requests, with the same typed
// errors, and -json prints the daemon's response body byte for byte.
//
// Telemetry: -trace out.json records the compile and writes a Chrome
// trace-event file (open in Perfetto or chrome://tracing; one span per
// subproblem, per-variant spans under -feedback); -trace-summary prints
// the per-phase time table and search counters instead:
//
//	hca -kernel fir2dim -feedback -trace out.json -trace-summary
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/dma"
	"repro/internal/emit"
	"repro/internal/kernels"
	"repro/internal/regalloc"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, compiles, writes the report to stdout and any error
// to stderr, and returns the exit status; main only exits with it, so
// the deferred profile writers run on every path. The flags fill a
// service.CompileRequest, which builds the DDG, machine and options
// exactly as POST /v1/compile does.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hca", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kernel   = fs.String("kernel", "fir2dim", "kernel name: "+strings.Join(kernels.Names(), ", "))
		synth    = fs.Int("synth", 0, "use a synthetic DDG with this many ops instead of -kernel")
		srcFile  = fs.String("src", "", "compile a kernel-description file (see internal/lang) instead of -kernel")
		seed     = fs.Int64("seed", 1, "synthetic workload seed")
		recLat   = fs.Int("reclat", 3, "synthetic recurrence latency (0 = none)")
		n        = fs.Int("n", 8, "DSPFabric level-0 switch capacity N")
		m        = fs.Int("m", 8, "DSPFabric level-1 MUX capacity M")
		k        = fs.Int("k", 8, "DSPFabric leaf crossbar external inputs K")
		rcp      = fs.Bool("rcp", false, "target the flat RCP ring instead of DSPFabric")
		clusters = fs.Int("clusters", 8, "RCP cluster count")
		nbrs     = fs.Int("neighbors", 2, "RCP ring neighborhood")
		ports    = fs.Int("ports", 2, "RCP input ports per cluster")
		beam     = fs.Int("beam", 8, "SEE beam width (node filter)")
		cand     = fs.Int("cand", 4, "SEE candidate filter width")
		engine   = fs.String("engine", "see", "subproblem engine: see, exact, or portfolio (beam, then exact from the beam's score)")
		exactBud = fs.Int64("exact-budget", 0, "exact engine node-expansion budget per subproblem (0 = default)")
		explore  = fs.String("explore", "", `sweep the kernel over a fabric parameter grid instead of one machine, e.g. "n=8,6;m=8,6;k=8,6,4,2" or "type=rcp;neighbors=2,4" (see internal/dse.ParseGrid); prints the per-point results and the MII-vs-cost Pareto front`)
		schedule = fs.Bool("schedule", false, "also run iterative modulo scheduling")
		feedback = fs.Bool("feedback", false, "run the §5 feedback loop: race heuristic variants by achieved II (implies -schedule)")
		emitAsm  = fs.Bool("emit", false, "emit the loadable program listing (implies -schedule)")
		dmaProg  = fs.Bool("dma", false, "print the DMA stream programming")
		pmap     = fs.Bool("map", false, "print the CN placement map")
		verbose  = fs.Bool("v", false, "print per-level solutions")
		jsonOut  = fs.Bool("json", false, "print the machine-readable result (same struct the hcad daemon returns)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut = fs.String("trace", "", "record the compile and write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
		traceSum = fs.Bool("trace-summary", false, "record the compile and print the per-phase telemetry table")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hca:", err)
		return 1
	}

	// Deferred in this order, the heap profile is written after the CPU
	// profile stops.
	if *memProf != "" {
		defer func() {
			if err := writeHeapProfile(*memProf); err != nil {
				fmt.Fprintln(stderr, "hca: memprofile:", err)
			}
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	req := service.CompileRequest{
		Machine: service.MachineSpec{N: *n, M: *m, K: *k},
		Options: service.OptionsSpec{Beam: *beam, Cand: *cand, Engine: *engine,
			Schedule: *schedule || *emitAsm, Feedback: *feedback},
	}
	if *rcp {
		req.Machine = service.MachineSpec{Type: "rcp", Clusters: *clusters, Neighbors: *nbrs, Ports: *ports}
	}
	switch {
	case *srcFile != "":
		text, err := os.ReadFile(*srcFile)
		if err != nil {
			return fail(err)
		}
		req.Source = string(text)
	case *synth != 0:
		req.Synth = &service.SynthSpec{Ops: *synth, Seed: *seed, RecLatency: *recLat}
	default:
		req.Kernel = *kernel
	}
	d, mc, opt, err := req.Build()
	if err != nil {
		return fail(err)
	}
	opt.ExactBudget = *exactBud // CLI-only: the compile endpoint has no exact budget

	if *explore != "" {
		if err := runExplore(stdout, stderr, d, *explore, opt, *jsonOut, *verbose); err != nil {
			return fail(err)
		}
		return 0
	}

	// Telemetry is on whenever either trace output is requested; the
	// recorder rides the context through the whole pipeline.
	var rec *trace.Recorder
	ctx := context.Background()
	if *traceOut != "" || *traceSum {
		rec = trace.New()
		ctx = trace.With(ctx, rec)
	}

	out, err := service.Compile(ctx, d, mc, opt, req.Options)
	if err != nil {
		return fail(err)
	}
	res, sch := out.Result, out.Schedule

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}

	rep := report.Build(res, sch, out.Variant, rec)
	if *jsonOut {
		b, err := rep.JSON()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}
	if err := rep.WriteText(stdout, *verbose); err != nil {
		return fail(err)
	}
	if *traceSum {
		fmt.Fprintln(stdout)
		if err := rec.Summary().WriteText(stdout); err != nil {
			return fail(err)
		}
	}

	if *pmap {
		fmt.Fprintln(stdout, "\nplacement map (instructions per CN; sets | subgroups):")
		perCN := make([]int, mc.TotalCNs())
		for _, cn := range res.CN {
			perCN[cn]++
		}
		if mc.NumLevels() == 3 {
			for set := 0; set < 4; set++ {
				fmt.Fprintf(stdout, "  set %d:", set)
				for sub := 0; sub < 4; sub++ {
					fmt.Fprintf(stdout, "  [")
					for c := 0; c < 4; c++ {
						fmt.Fprintf(stdout, " %2d", perCN[set*16+sub*4+c])
					}
					fmt.Fprintf(stdout, " ]")
				}
				fmt.Fprintln(stdout)
			}
		} else {
			for cn, k := range perCN {
				if k > 0 {
					fmt.Fprintf(stdout, "  cn%-3d %d\n", cn, k)
				}
			}
		}
	}

	if *dmaProg {
		p := dma.Analyze(d)
		var sb strings.Builder
		p.WriteText(&sb)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, sb.String())
	}

	if *emitAsm {
		alloc, err := regalloc.Run(res.Final, sch, mc, 64)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "register allocation: max %d/%d rotating slots per CN, spills %d\n",
			alloc.MaxRegs, alloc.Capacity, len(alloc.Spilled))
		prog, err := emit.Build(res, sch, alloc)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout)
		if err := prog.WriteText(stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeHeapProfile writes the heap profile of the final live set.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	return pprof.WriteHeapProfile(f)
}
