package main

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/dse"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/sim"
)

// errFinalBelowRes marks a result whose Final MII lies below MIIRes.
// core's Final MII starts from MIIRec and the level-0 cluster estimates,
// which leave out the DMA-port share of MIIRes, so kernels whose memory
// operations outnumber what the DMA ports issue at the Final MII (fft8
// and sad16 on DSPFabric) fail this check on every compile. The
// workloads count such compiles as failed operations and keep checking
// everything else.
var errFinalBelowRes = errors.New("Final MII below MIIRes")

// checkCompile runs every output check on one distinct compile and adds
// its figures to q: the result is legal, its schedule is valid for its
// placement, the simulated schedule computes what the reference computes
// word for word, the Table-1 inputs hold, and the MII figures are
// ordered as their definitions require. An error wrapping
// errFinalBelowRes means every other check passed.
func checkCompile(j *compileJob, o *outcome, lay *layers, q *quality) error {
	res, s := o.res, o.sched
	if !res.Legal {
		return fmt.Errorf("result not legal")
	}
	if err := core.CoherencyCheck(res); err != nil {
		return err
	}
	if err := checkSchedule(res.Final, res.FinalCN, s, j.mc); err != nil {
		return err
	}
	var rec int
	lay.time("ddg.miirec_input", false, func() { rec = j.d.MIIRec() })
	if k := j.table1; k != nil {
		if j.d.Len() != k.WantInstr || rec != k.WantMIIRec || j.d.MIIRes(kernels.PaperResources) != k.WantMIIRes {
			return fmt.Errorf("Table-1 inputs: %d instructions, MIIRec %d, MIIRes %d; want %d, %d, %d",
				j.d.Len(), rec, j.d.MIIRes(kernels.PaperResources), k.WantInstr, k.WantMIIRec, k.WantMIIRes)
		}
	}
	lay.time("ddg.miirec_final", false, func() { res.Final.MIIRec() })
	var minII int
	lay.time("modsched.min_ii", false, func() { minII = modsched.MinII(res.Final, res.FinalCN, j.mc) })
	bounds := checkBounds(res.MII, s.II, minII)
	if bounds != nil && !errors.Is(bounds, errFinalBelowRes) {
		return bounds
	}

	simMem, refMem := copyMem(j.mem), copyMem(j.mem)
	st, err := sim.Execute(res.Final, s, j.mc, simMem, j.iters, sim.Config{})
	if err != nil {
		return err
	}
	if j.ref != nil {
		j.ref(refMem, j.iters)
	} else if _, err := j.d.Interpret(refMem, j.iters); err != nil {
		return err
	}
	if err := checkMemory(simMem, refMem); err != nil {
		return fmt.Errorf("simulated schedule: %w", err)
	}
	q.ii += s.II
	q.receives += res.Recvs
	q.finalMII += res.MII.Final
	q.allLevels += res.MII.AllLevels
	q.cycles += int(st.Cycles)
	return bounds
}

// checkSchedule checks that s schedules exactly the placement cn of d
// and passes modsched.Verify.
func checkSchedule(d *ddg.DDG, cn []int, s *modsched.Schedule, mc *machine.Config) error {
	if len(s.Time) != d.Len() || len(s.CN) != d.Len() || len(cn) != d.Len() {
		return fmt.Errorf("schedule covers %d/%d of %d nodes", len(s.Time), len(s.CN), d.Len())
	}
	for i := range cn {
		if s.CN[i] != cn[i] {
			return fmt.Errorf("schedule places node %d on CN %d, the clusterization on %d", i, s.CN[i], cn[i])
		}
	}
	return modsched.Verify(d, s, mc)
}

// checkBounds checks the order the MII definitions imply: the paper's
// Final MII is at least the recurrence and resource bounds, the
// all-levels MII at least Final, and the achieved II at least the
// scheduler's own lower bound on the final DDG.
func checkBounds(m core.MII, ii, minII int) error {
	switch {
	case m.Final < m.Rec:
		return fmt.Errorf("Final MII %d below MIIRec %d", m.Final, m.Rec)
	case m.AllLevels < m.Final:
		return fmt.Errorf("all-levels MII %d below Final MII %d", m.AllLevels, m.Final)
	case ii < minII:
		return fmt.Errorf("II %d below the final DDG's MinII %d", ii, minII)
	case m.Final < m.Res:
		return fmt.Errorf("%w: Final MII %d, MIIRes %d", errFinalBelowRes, m.Final, m.Res)
	}
	return nil
}

// copyMem returns a copy of a memory image.
func copyMem(m ddg.MapMemory) ddg.MapMemory {
	c := make(ddg.MapMemory, len(m))
	for a, v := range m {
		c[a] = v
	}
	return c
}

// checkMemory compares two memory images word for word; an address
// missing from one image reads 0 there.
func checkMemory(got, want ddg.MapMemory) error {
	addrs := make([]int64, 0, len(want))
	for a := range want {
		addrs = append(addrs, a)
	}
	for a := range got {
		if _, ok := want[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		if got[a] != want[a] {
			return fmt.Errorf("mem[%d] = %d, reference %d", a, got[a], want[a])
		}
	}
	return nil
}

// checkFront recomputes the Pareto front over (final MII, fabric cost)
// from the returned points by its own dominance test and compares it
// with the returned front point for point. Candidates are the legal,
// successful points that solved themselves; of several candidates with
// equal MII and cost the front keeps the lowest index, in order of
// ascending cost.
func checkFront(r *dse.Result) error {
	var cand []dse.PointResult
	for _, p := range r.Points {
		if p.Error == "" && p.Legal && p.Canonical == p.Index {
			cand = append(cand, p)
		}
	}
	var want []dse.FrontPoint
	for _, a := range cand {
		kept := true
		for _, b := range cand {
			better := b.MIIFinal <= a.MIIFinal && b.Cost.Total <= a.Cost.Total &&
				(b.MIIFinal < a.MIIFinal || b.Cost.Total < a.Cost.Total)
			tie := b.MIIFinal == a.MIIFinal && b.Cost.Total == a.Cost.Total && b.Index < a.Index
			if better || tie {
				kept = false
				break
			}
		}
		if kept {
			want = append(want, dse.FrontPoint{Index: a.Index, Machine: a.Machine, Engine: a.Engine, MII: a.MIIFinal, Cost: a.Cost.Total})
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Cost < want[j].Cost })
	if len(want) != len(r.Front) {
		return fmt.Errorf("front has %d points, recomputed %d", len(r.Front), len(want))
	}
	for i := range want {
		if want[i] != r.Front[i] {
			return fmt.Errorf("front point %d is %+v, recomputed %+v", i, r.Front[i], want[i])
		}
	}
	return nil
}
