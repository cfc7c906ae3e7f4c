package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/dse"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/report"
)

// fir2dimJob compiles and schedules fir2dim on DSPFabric 8/8/8 and
// returns it as a compile job with its first outcome.
func fir2dimJob(t *testing.T) (*compileJob, *outcome) {
	t.Helper()
	k := namedKernels()[0]
	if k.Name != "fir2dim" {
		t.Fatalf("first named kernel is %s", k.Name)
	}
	mc := machine.DSPFabric64(8, 8, 8)
	mem, iters := k.image(rand.New(rand.NewSource(1)))
	kk := k.Kernel
	j := &compileJob{name: "fir2dim", d: k.Build(), mc: mc, table1: &kk, ref: k.ref, mem: mem, iters: iters}
	res, err := core.HCA(context.Background(), j.d, mc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := modsched.Run(context.Background(), res.Final, res.FinalCN, mc, modsched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return j, &outcome{res: res, sched: s}
}

func TestCheckCompileAcceptsTheCompilerOutput(t *testing.T) {
	j, o := fir2dimJob(t)
	var q quality
	if err := checkCompile(j, o, nil, &q); err != nil {
		t.Fatal(err)
	}
	if q.ii != o.sched.II || q.receives != o.res.Recvs || q.cycles == 0 {
		t.Errorf("quality %+v for II %d, %d receives", q, o.sched.II, o.res.Recvs)
	}
}

func TestCheckMemoryFlippedWord(t *testing.T) {
	want := ddg.MapMemory{0: 7, 1: -3, 1 << 20: 42}
	if err := checkMemory(copyMem(want), want); err != nil {
		t.Fatalf("identical images: %v", err)
	}
	got := copyMem(want)
	got[1] ^= 1
	if err := checkMemory(got, want); err == nil {
		t.Error("a flipped word passed")
	}
	got = copyMem(want)
	got[5] = 9 // a write the reference never made
	if err := checkMemory(got, want); err == nil {
		t.Error("a stray write passed")
	}
}

func TestCheckCompileCatchesAFlippedReferenceWord(t *testing.T) {
	j, o := fir2dimJob(t)
	ref := j.ref
	j.ref = func(mem ddg.MapMemory, iters int) {
		ref(mem, iters)
		mem[1<<20] ^= 1 // fir2dim's first output word
	}
	var q quality
	if err := checkCompile(j, o, nil, &q); err == nil || !strings.Contains(err.Error(), "simulated schedule") {
		t.Errorf("checkCompile = %v, want a memory mismatch", err)
	}
}

func TestCheckScheduleIllegalSlot(t *testing.T) {
	j, o := fir2dimJob(t)
	d, s := o.res.Final, o.sched
	if err := checkSchedule(d, o.res.FinalCN, s, j.mc); err != nil {
		t.Fatal(err)
	}
	// Move one consumer onto its producer's start cycle: the producer's
	// latency is then not honoured.
	var from, to graph.NodeID = -1, -1
	d.G.Edges(func(e graph.Edge) {
		if from < 0 && e.Distance == 0 && e.Weight > 0 {
			from, to = e.From, e.To
		}
	})
	bad := *s
	bad.Time = append([]int(nil), s.Time...)
	bad.Time[to] = bad.Time[from]
	if err := checkSchedule(d, o.res.FinalCN, &bad, j.mc); err == nil {
		t.Error("an operation moved to an illegal slot passed")
	}
	// A schedule for another placement than the clusterization's.
	moved := *s
	moved.CN = append([]int(nil), s.CN...)
	moved.CN[to] = (moved.CN[to] + 1) % j.mc.TotalCNs()
	if err := checkSchedule(d, o.res.FinalCN, &moved, j.mc); err == nil {
		t.Error("a schedule on another placement passed")
	}
}

func TestCheckBounds(t *testing.T) {
	ok := core.MII{Rec: 3, Res: 2, Final: 3, AllLevels: 5}
	if err := checkBounds(ok, 5, 4); err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		m      core.MII
		ii     int
		known  bool
		reason string
	}{
		"final below rec":       {core.MII{Rec: 3, Res: 2, Final: 2, AllLevels: 5}, 5, false, "MIIRec"},
		"all levels below":      {core.MII{Rec: 3, Res: 2, Final: 4, AllLevels: 3}, 5, false, "all-levels"},
		"ii below min ii":       {ok, 3, false, "MinII"},
		"final below res (DMA)": {core.MII{Rec: 1, Res: 4, Final: 2, AllLevels: 5}, 5, true, "MIIRes"},
	}
	for name, c := range cases {
		err := checkBounds(c.m, c.ii, 4)
		if err == nil || errors.Is(err, errFinalBelowRes) != c.known || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: checkBounds = %v", name, err)
		}
	}
}

func TestCheckFrontDominatedPoint(t *testing.T) {
	pt := func(i, mii int, cost int64) dse.PointResult {
		return dse.PointResult{Index: i, Canonical: i, Machine: "m", Engine: "see", MIIFinal: mii, Cost: dse.CostJSON{Total: cost}, Legal: true}
	}
	fp := func(p dse.PointResult) dse.FrontPoint {
		return dse.FrontPoint{Index: p.Index, Machine: p.Machine, Engine: p.Engine, MII: p.MIIFinal, Cost: p.Cost.Total}
	}
	a, b, c := pt(0, 6, 100), pt(1, 4, 200), pt(2, 5, 250) // c is dominated by b
	r := &dse.Result{Points: []dse.PointResult{a, b, c}, Front: []dse.FrontPoint{fp(a), fp(b)}}
	if err := checkFront(r); err != nil {
		t.Fatal(err)
	}
	r.Front = []dse.FrontPoint{fp(a), fp(b), fp(c)}
	if err := checkFront(r); err == nil {
		t.Error("a front holding a dominated point passed")
	}
	r.Front = []dse.FrontPoint{fp(a)}
	if err := checkFront(r); err == nil {
		t.Error("a front missing a non-dominated point passed")
	}
}

func TestCheckAnswerChangedField(t *testing.T) {
	_, o := fir2dimJob(t)
	body, err := report.Build(o.res, o.sched, "", nil).JSON()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := decodeReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(rep, o); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"legal", "mii_rec", "mii_res", "final_mii", "all_levels_mii", "receives", "variant", "schedule.ii"} {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		switch field {
		case "legal":
			m[field] = false
		case "variant":
			m[field] = "sched-aware"
		case "schedule.ii":
			sch := m["schedule"].(map[string]any)
			sch["ii"] = sch["ii"].(float64) + 1
		default:
			m[field] = m[field].(float64) + 1
		}
		changed, _ := json.Marshal(m)
		rep, err := decodeReport(changed)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(rep, o); err == nil {
			t.Errorf("a report with %s changed passed", field)
		}
	}
	var m map[string]any
	_ = json.Unmarshal(body, &m)
	m["schema_version"] = float64(report.SchemaVersion + 1)
	newer, _ := json.Marshal(m)
	if _, err := decodeReport(newer); err == nil {
		t.Error("a report at another schema version decoded")
	}
}

func TestSynthDDGStoresDoNotOverlapAcrossIterations(t *testing.T) {
	d := synthDDG(200, 3)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	mem := &countingMemory{MapMemory: ddg.MapMemory{}}
	if _, err := d.Interpret(mem, 8); err != nil {
		t.Fatal(err)
	}
	if mem.stores == 0 || len(mem.MapMemory) != mem.stores {
		t.Errorf("%d stores wrote %d distinct words", mem.stores, len(mem.MapMemory))
	}
}

// countingMemory counts the stores made into it.
type countingMemory struct {
	ddg.MapMemory
	stores int
}

func (m *countingMemory) Store(a, v int64) {
	m.stores++
	m.MapMemory.Store(a, v)
}
