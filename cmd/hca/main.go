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
// Telemetry: -trace out.json records the compile and writes a Chrome
// trace-event file (open in Perfetto or chrome://tracing; one span per
// subproblem, per-variant spans under -feedback); -trace-summary prints
// the per-phase time table and search counters instead:
//
//	hca -kernel fir2dim -feedback -trace out.json -trace-summary
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/dma"
	"repro/internal/driver"
	"repro/internal/emit"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/regalloc"
	"repro/internal/report"
	"repro/internal/see"
	"repro/internal/trace"
)

func main() {
	var (
		kernel   = flag.String("kernel", "fir2dim", "kernel name: "+strings.Join(kernels.Names(), ", "))
		synth    = flag.Int("synth", 0, "use a synthetic DDG with this many ops instead of -kernel")
		srcFile  = flag.String("src", "", "compile a kernel-description file (see internal/lang) instead of -kernel")
		seed     = flag.Int64("seed", 1, "synthetic workload seed")
		recLat   = flag.Int("reclat", 3, "synthetic recurrence latency (0 = none)")
		n        = flag.Int("n", 8, "DSPFabric level-0 switch capacity N")
		m        = flag.Int("m", 8, "DSPFabric level-1 MUX capacity M")
		k        = flag.Int("k", 8, "DSPFabric leaf crossbar external inputs K")
		rcp      = flag.Bool("rcp", false, "target the flat RCP ring instead of DSPFabric")
		clusters = flag.Int("clusters", 8, "RCP cluster count")
		nbrs     = flag.Int("neighbors", 2, "RCP ring neighborhood")
		ports    = flag.Int("ports", 2, "RCP input ports per cluster")
		beam     = flag.Int("beam", 8, "SEE beam width (node filter)")
		cand     = flag.Int("cand", 4, "SEE candidate filter width")
		engine   = flag.String("engine", "see", "subproblem engine: see, exact, or portfolio (beam, then exact from the beam's score)")
		exactBud = flag.Int64("exact-budget", 0, "exact engine node-expansion budget per subproblem (0 = default)")
		explore  = flag.String("explore", "", `sweep the kernel over a fabric parameter grid instead of one machine, e.g. "n=8,6;m=8,6;k=8,6,4,2" or "type=rcp;neighbors=2,4" (see internal/dse.ParseGrid); prints the per-point results and the MII-vs-cost Pareto front`)
		schedule = flag.Bool("schedule", false, "also run iterative modulo scheduling")
		feedback = flag.Bool("feedback", false, "run the §5 feedback loop: race heuristic variants by achieved II (implies -schedule)")
		emitAsm  = flag.Bool("emit", false, "emit the loadable program listing (implies -schedule)")
		dmaProg  = flag.Bool("dma", false, "print the DMA stream programming")
		pmap     = flag.Bool("map", false, "print the CN placement map")
		verbose  = flag.Bool("v", false, "print per-level solutions")
		jsonOut  = flag.Bool("json", false, "print the machine-readable result (same struct the hcad daemon returns)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut = flag.String("trace", "", "record the compile and write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
		traceSum = flag.Bool("trace-summary", false, "record the compile and print the per-phase telemetry table")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		addProfileTeardown(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memProf != "" {
		path := *memProf
		addProfileTeardown(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hca: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hca: memprofile:", err)
			}
		})
	}
	defer stopProfiles()

	var d *ddg.DDG
	if *srcFile != "" {
		text, err := os.ReadFile(*srcFile)
		if err != nil {
			fatal(err)
		}
		d, err = lang.Compile(string(text))
		if err != nil {
			fatal(err)
		}
	} else if *synth > 0 {
		d = kernels.Synthetic(kernels.SynthConfig{Ops: *synth, Seed: *seed, RecLatency: *recLat})
	} else {
		kn, err := kernels.ByName(*kernel)
		if err != nil {
			fatal(err)
		}
		d = kn.Build()
	}

	if *explore != "" {
		if err := runExplore(d, *explore, *engine, *beam, *cand, *exactBud, *jsonOut, *verbose); err != nil {
			fatal(err)
		}
		return
	}

	var mc *machine.Config
	if *rcp {
		mc = machine.RCP(*clusters, *nbrs, *ports)
	} else {
		mc = machine.DSPFabric64(*n, *m, *k)
	}

	// Telemetry is on whenever either trace output is requested; the
	// recorder rides the context through the whole pipeline.
	var rec *trace.Recorder
	ctx := context.Background()
	if *traceOut != "" || *traceSum {
		rec = trace.New()
		ctx = trace.With(ctx, rec)
	}

	opt := core.Options{
		SEE:         see.Config{BeamWidth: *beam, CandWidth: *cand},
		Engine:      *engine,
		ExactBudget: *exactBud,
	}
	var res *core.Result
	var sch *modsched.Schedule
	variant := ""
	if *feedback {
		fb, err := driver.HCAWithFeedback(ctx, d, mc, opt)
		if err != nil {
			fatal(err)
		}
		res, sch, variant = fb.Result, fb.Schedule, fb.Variant
	} else {
		var err error
		res, err = core.HCA(ctx, d, mc, opt)
		if err != nil {
			fatal(err)
		}
		if *schedule || *emitAsm {
			sch, err = modsched.Run(ctx, res.Final, res.FinalCN, mc, modsched.Config{})
			if err != nil {
				fatal(err)
			}
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	rep := report.Build(res, sch, variant, rec)
	if *jsonOut {
		b, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", b)
		return
	}
	if err := rep.WriteText(os.Stdout, *verbose); err != nil {
		fatal(err)
	}
	if *traceSum {
		fmt.Println()
		if err := rec.Summary().WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *pmap {
		fmt.Println("\nplacement map (instructions per CN; sets | subgroups):")
		perCN := make([]int, mc.TotalCNs())
		for _, cn := range res.CN {
			perCN[cn]++
		}
		if mc.NumLevels() == 3 {
			for set := 0; set < 4; set++ {
				fmt.Printf("  set %d:", set)
				for sub := 0; sub < 4; sub++ {
					fmt.Printf("  [")
					for c := 0; c < 4; c++ {
						fmt.Printf(" %2d", perCN[set*16+sub*4+c])
					}
					fmt.Printf(" ]")
				}
				fmt.Println()
			}
		} else {
			for cn, k := range perCN {
				if k > 0 {
					fmt.Printf("  cn%-3d %d\n", cn, k)
				}
			}
		}
	}

	if *dmaProg {
		p := dma.Analyze(d)
		var sb strings.Builder
		p.WriteText(&sb)
		fmt.Println()
		fmt.Print(sb.String())
	}

	if *emitAsm {
		alloc, err := regalloc.Run(res.Final, sch, mc, 64)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("register allocation: max %d/%d rotating slots per CN, spills %d\n",
			alloc.MaxRegs, alloc.Capacity, len(alloc.Spilled))
		prog, err := emit.Build(res, sch, alloc)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		if err := prog.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// profileTeardowns flushes any -cpuprofile/-memprofile output. It is
// package state (not just defers) because fatal exits with os.Exit,
// which skips defers — error paths still deserve a usable profile.
var profileTeardowns []func()

func addProfileTeardown(fn func()) { profileTeardowns = append(profileTeardowns, fn) }

// stopProfiles runs each teardown exactly once (it is reached both by
// main's defer and by fatal).
func stopProfiles() {
	for _, fn := range profileTeardowns {
		fn()
	}
	profileTeardowns = nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hca:", err)
	stopProfiles()
	os.Exit(1)
}
