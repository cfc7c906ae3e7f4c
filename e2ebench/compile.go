package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/driver"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/modsched"
)

// compileKind selects the pipeline a compile workload runs per operation.
type compileKind int

const (
	// feedbackKind is one `hca -feedback` compile: driver.HCAWithFeedback
	// with a fresh subproblem memo.
	feedbackKind compileKind = iota
	// synthKind is one `hca -synth N -schedule` compile: core.HCA with
	// the default beam engine, then modsched.Run.
	synthKind
	// exactKind is core.HCA with the exact engine at exactBudget, then
	// modsched.Run.
	exactKind
)

// exactBudget is the exact engine's node budget per attempt.
const exactBudget = 4096

// synthSizes are the operation counts of synth_large's synthetic DDGs,
// synthPerSize of each size with generator seeds 1 to synthPerSize. The
// DDGs are the same on every run seed, which picks only their order and
// memory images, so the quality sums, deterministic per DDG, repeat
// exactly from seed to seed; DDGs drawn from the run seed would move
// ii_sum by about 7 % between seeds.
var synthSizes = []int{200, 350, 500, 650, 800}

const synthPerSize = 4

// synthRecLatency is the recurrence latency of every synthetic DDG, the
// `hca -synth` default.
const synthRecLatency = 3

// compileJob is one distinct (input, machine, options) compile.
type compileJob struct {
	name string
	d    *ddg.DDG
	mc   *machine.Config
	// table1 holds the kernel's Table-1 inputs; nil for inputs the paper
	// did not measure.
	table1 *kernels.Kernel
	// ref computes the expected memory after iters iterations; nil means
	// ddg.Interpret of the input DDG.
	ref func(mem ddg.MapMemory, iters int)
	// mem is the seeded memory image the schedule is simulated on.
	mem   ddg.MapMemory
	iters int
	// first is the outcome of the job's first timed operation; ops
	// counts its timed operations.
	first *outcome
	ops   int
}

// outcome is one compile's result and achieved schedule.
type outcome struct {
	res     *core.Result
	sched   *modsched.Schedule
	variant string
}

// compileWorkload runs one compile at a time, letting the program's own
// fan-out use the cores.
type compileWorkload struct {
	kind  compileKind
	jobs  []*compileJob
	order []int // the seeded order every round runs the jobs in
	// drift records the first operation whose outcome differed from an
	// earlier run of the same job.
	drift error
}

func newCompileWorkload(kind compileKind) *compileWorkload { return &compileWorkload{kind: kind} }

func (w *compileWorkload) setUp(ctx context.Context, seed int64, _ string) error {
	rng := rand.New(rand.NewSource(seed))
	switch w.kind {
	case feedbackKind, exactKind:
		// DSPFabric 8/8/8, a wire-starved DSPFabric where ladder rungs
		// and ring retries run, and the RCP ring 8/2/2.
		w.addKernels(rng, machine.DSPFabric64(8, 8, 8), machine.DSPFabric64(4, 4, 2), machine.RCP(8, 2, 2))
	case synthKind:
		mc := machine.DSPFabric64(8, 8, 8)
		for _, n := range synthSizes {
			for i := 0; i < synthPerSize; i++ {
				d := synthDDG(n, int64(i+1))
				mem, iters := synthImage(rng, n)
				w.jobs = append(w.jobs, &compileJob{name: d.Name + "@" + mc.Name, d: d, mc: mc, mem: mem, iters: iters})
			}
		}
	}
	w.order = rng.Perm(len(w.jobs))
	// Warm-up: one untimed compile of every job, so the timed phase
	// starts with the run time's pools and heap grown.
	for _, j := range w.jobs {
		if _, err := w.compile(ctx, j, nil); err != nil {
			return fmt.Errorf("warm-up: %s: %w", j.name, err)
		}
	}
	return nil
}

// addKernels adds every named kernel on every machine.
func (w *compileWorkload) addKernels(rng *rand.Rand, mcs ...*machine.Config) {
	for _, mc := range mcs {
		for _, k := range namedKernels() {
			mem, iters := k.image(rng)
			j := &compileJob{name: k.Name + "@" + mc.Name, d: k.Build(), mc: mc, ref: k.ref, mem: mem, iters: iters}
			if k.WantInstr > 0 {
				kk := k.Kernel
				j.table1 = &kk
			}
			w.jobs = append(w.jobs, j)
		}
	}
}

// compile runs one operation of the workload's pipeline. With lay
// non-nil the public calls it makes are timed into lay.
func (w *compileWorkload) compile(ctx context.Context, j *compileJob, lay *layers) (*outcome, error) {
	var o outcome
	var err error
	if w.kind == feedbackKind {
		var r *driver.ScheduledResult
		lay.time("driver.feedback", true, func() {
			r, err = driver.HCAWithFeedback(ctx, j.d, j.mc, core.Options{Memo: core.NewMemo(0)})
		})
		if err != nil {
			return nil, err
		}
		return &outcome{res: r.Result, sched: r.Schedule, variant: r.Variant}, nil
	}
	opt := core.Options{}
	if w.kind == exactKind {
		opt.Engine, opt.ExactBudget = "exact", exactBudget
	}
	lay.time("core.hca", true, func() { o.res, err = core.HCA(ctx, j.d, j.mc, opt) })
	if err != nil {
		return nil, err
	}
	lay.time("modsched.run", true, func() {
		o.sched, err = modsched.Run(ctx, o.res.Final, o.res.FinalCN, j.mc, modsched.Config{})
	})
	if err != nil {
		return nil, err
	}
	return &o, nil
}

func (w *compileWorkload) round(ctx context.Context, _ int, lay *layers) ([]float64, int) {
	lat := make([]float64, len(w.jobs))
	failed := 0
	for _, i := range w.order {
		j := w.jobs[i]
		octx, fold := ctx, func() {}
		if lay != nil {
			octx, fold = lay.record(ctx)
		}
		start := time.Now()
		o, err := w.compile(octx, j, lay)
		d := ms(time.Since(start))
		lat[i] = d
		j.ops++
		if lay != nil {
			fold()
			lay.op(d)
			if o != nil {
				lay.add("core.seed_wins", float64(o.res.EngineWins["seed"]))
				if w.kind == exactKind {
					lay.add("exact.proved", float64(o.res.Optimality.Proved))
					lay.add("exact.subproblems", float64(o.res.Optimality.Subproblems))
				}
			}
		}
		if err != nil {
			failed++
			fmt.Printf("operation failed: %s: %v\n", j.name, err)
			continue
		}
		w.keep(j, o)
	}
	return lat, failed
}

// keep stores a job's first outcome and checks every later one against
// it: the pipeline is deterministic, so a repeat must reach the same
// answer.
func (w *compileWorkload) keep(j *compileJob, o *outcome) {
	if j.first == nil {
		j.first = o
		return
	}
	if err := sameAnswer(j.first, o); err != nil && w.drift == nil {
		w.drift = fmt.Errorf("%s: repeat differs: %w", j.name, err)
	}
}

// answer holds the fields of a compile's result that do not depend on
// how it was reached: search statistics legitimately change with the
// memo's state and are left out. II is -1 when nothing was scheduled.
type answer struct {
	Legal                                bool
	Rec, Res, Final, AllLevels, Receives int
	II                                   int
	Variant                              string
}

func answerOf(o *outcome) answer {
	a := answer{o.res.Legal, o.res.MII.Rec, o.res.MII.Res, o.res.MII.Final, o.res.MII.AllLevels, o.res.Recvs, -1, o.variant}
	if o.sched != nil {
		a.II = o.sched.II
	}
	return a
}

// sameAnswer compares the answer fields of two outcomes of one job.
func sameAnswer(a, b *outcome) error {
	if x, y := answerOf(a), answerOf(b); x != y {
		return fmt.Errorf("%+v, then %+v", x, y)
	}
	return nil
}

func (w *compileWorkload) check(_ context.Context, lay *layers) (quality, int, error) {
	var q quality
	faulty := 0
	if w.drift != nil {
		return q, 0, w.drift
	}
	for _, j := range w.jobs {
		if j.first == nil {
			return q, 0, fmt.Errorf("%s: no operation completed", j.name)
		}
		err := checkCompile(j, j.first, lay, &q)
		switch {
		case errors.Is(err, errFinalBelowRes):
			faulty += j.ops
		case err != nil:
			return q, 0, fmt.Errorf("%s: %w", j.name, err)
		}
	}
	return q, faulty, nil
}

func (w *compileWorkload) close() { w.jobs = nil } // lets the outputs be collected
