package pg

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/ddg"
	"repro/internal/graph"
)

// diffFlows returns a description of the first state difference between
// two flows, or "" when they are bit-identical (including the
// incremental objective caches). The journal and scratch buffers are
// deliberately excluded: they are engine state, not assignment state.
func diffFlows(a, b *Flow) string {
	if a.T != b.T || a.D != b.D {
		return "different Topology/DDG"
	}
	if a.assigned != b.assigned {
		return fmt.Sprintf("assigned %d != %d", a.assigned, b.assigned)
	}
	if a.fp != b.fp {
		return fmt.Sprintf("fingerprint %x != %x", a.fp, b.fp)
	}
	if a.canonN != b.canonN {
		return fmt.Sprintf("canonN %d != %d", a.canonN, b.canonN)
	}
	for c := range a.canon {
		if a.canon[c] != b.canon[c] {
			return fmt.Sprintf("canon[%d] %d != %d", c, a.canon[c], b.canon[c])
		}
	}
	for n := range a.assign {
		if a.assign[n] != b.assign[n] {
			return fmt.Sprintf("assign[%d] %d != %d", n, a.assign[n], b.assign[n])
		}
	}
	for v := range a.avail {
		if a.avail[v] != b.avail[v] {
			return fmt.Sprintf("avail[%d] %x != %x", v, a.avail[v], b.avail[v])
		}
	}
	for c := 0; c < a.T.NumClusters(); c++ {
		for s := 0; s < cntStride; s++ {
			if a.cnt[c*cntStride+s] != b.cnt[c*cntStride+s] {
				return fmt.Sprintf("cnt[%d].%d %d != %d", c, s, a.cnt[c*cntStride+s], b.cnt[c*cntStride+s])
			}
		}
		if a.inSrc[c] != b.inSrc[c] {
			return fmt.Sprintf("inSrc[%d] %x != %x", c, a.inSrc[c], b.inSrc[c])
		}
		if a.outDst[c] != b.outDst[c] {
			return fmt.Sprintf("outDst[%d] %x != %x", c, a.outDst[c], b.outDst[c])
		}
	}
	if len(a.copyLog) != len(b.copyLog) {
		return fmt.Sprintf("copyLog: %d entries != %d", len(a.copyLog), len(b.copyLog))
	}
	for i := range a.copyLog {
		if a.copyLog[i] != b.copyLog[i] {
			return fmt.Sprintf("copyLog[%d] %d→%d v%d != %d→%d v%d", i,
				a.copyLog[i].arc>>arcShift, a.copyLog[i].arc&(MaxClusters-1), a.copyLog[i].v,
				b.copyLog[i].arc>>arcShift, b.copyLog[i].arc&(MaxClusters-1), b.copyLog[i].v)
		}
	}
	for w := range a.arcHas {
		if a.arcHas[w] != b.arcHas[w] {
			return fmt.Sprintf("arcHas[%d] %x != %x", w, a.arcHas[w], b.arcHas[w])
		}
	}
	return ""
}

// fanDDG builds a DDG with some parallelism and cross-links so routed
// assignments exercise multi-value arcs.
func fanDDG(n int) *ddg.DDG {
	d := ddg.New("fan")
	roots := []graph.NodeID{d.AddConst(1, "r0"), d.AddConst(2, "r1")}
	for i := 2; i < n; i++ {
		op := d.AddOp(ddg.OpAdd, fmt.Sprintf("n%d", i))
		d.AddDep(roots[i%len(roots)], op, 0, 0)
		if i > 2 {
			d.AddDep(graph.NodeID(i-1), op, 1, 0)
		}
		roots = append(roots, op)
	}
	return d
}

func TestRollbackRestoresAfterAssigns(t *testing.T) {
	d := fanDDG(12)
	tp := NewTopology("t", 4, 4, 2, 0)
	tp.AllToAll()
	f := NewFlow(tp, d)
	if err := f.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Assign(1, 1); err != nil {
		t.Fatal(err)
	}
	snap := f.Clone()
	mark := f.Checkpoint()
	for n := graph.NodeID(2); n < 8; n++ {
		if err := f.Assign(n, ClusterID(int(n)%4)); err != nil {
			t.Fatalf("assign %d: %v", n, err)
		}
	}
	if diff := diffFlows(f, snap); diff == "" {
		t.Fatal("assigns had no observable effect")
	}
	f.Rollback(mark)
	if diff := diffFlows(f, snap); diff != "" {
		t.Fatalf("rollback did not restore: %s", diff)
	}
	// The rolled-back flow must still be fully usable.
	for n := graph.NodeID(2); n < 8; n++ {
		if err := f.Assign(n, ClusterID(int(n+1)%4)); err != nil {
			t.Fatalf("post-rollback assign %d: %v", n, err)
		}
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackRestoresAfterFailedAssign(t *testing.T) {
	// Two isolated clusters: assigning a consumer on the far cluster
	// fails mid-Assign after the instruction slot mutations happened.
	d := ddg.New("x")
	a := d.AddConst(1, "a")
	u := d.AddOp(ddg.OpAbs, "u")
	d.AddDep(a, u, 0, 0)
	tp := NewTopology("iso", 2, 4, 2, 0) // no potential arcs
	f := NewFlow(tp, d)
	if err := f.Assign(a, 0); err != nil {
		t.Fatal(err)
	}
	snap := f.Clone()
	mark := f.Checkpoint()
	if err := f.Assign(u, 1); err == nil {
		t.Fatal("expected unroutable assign to fail")
	}
	f.Rollback(mark)
	if diff := diffFlows(f, snap); diff != "" {
		t.Fatalf("rollback after failed assign: %s", diff)
	}
}

func TestRollbackUbiquitousAndReserve(t *testing.T) {
	d := chainDDG(4)
	tp := NewTopology("t", 4, 4, 2, 1)
	tp.AllToAll()
	f := NewFlow(tp, d)
	snap := f.Clone()
	mark := f.Checkpoint()
	f.MarkUbiquitous(0)
	if err := f.ReserveArc(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.ReserveArc(1, 2); err != nil {
		t.Fatal(err)
	}
	f.Rollback(mark)
	if diff := diffFlows(f, snap); diff != "" {
		t.Fatalf("rollback: %s", diff)
	}
}

func TestNestedCheckpoints(t *testing.T) {
	d := fanDDG(10)
	tp := NewTopology("t", 4, 4, 4, 0)
	tp.AllToAll()
	f := NewFlow(tp, d)
	m0 := f.Checkpoint()
	if err := f.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	snap1 := f.Clone()
	m1 := f.Checkpoint()
	if err := f.Assign(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Assign(2, 2); err != nil {
		t.Fatal(err)
	}
	f.Rollback(m1)
	if diff := diffFlows(f, snap1); diff != "" {
		t.Fatalf("inner rollback: %s", diff)
	}
	f.Rollback(m0)
	fresh := NewFlow(tp, d)
	if diff := diffFlows(f, fresh); diff != "" {
		t.Fatalf("outer rollback: %s", diff)
	}
}

func TestDropJournalStopsRecording(t *testing.T) {
	d := chainDDG(6)
	tp := NewTopology("t", 2, 8, 2, 0)
	tp.AllToAll()
	f := NewFlow(tp, d)
	f.Checkpoint()
	if !f.Journaling() {
		t.Fatal("Checkpoint did not enable journaling")
	}
	if err := f.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	f.DropJournal()
	if f.Journaling() {
		t.Fatal("DropJournal left journaling on")
	}
	if err := f.Assign(1, 0); err != nil {
		t.Fatal(err)
	}
	if len(f.journal) != 0 {
		t.Fatalf("journal grew after DropJournal: %d entries", len(f.journal))
	}
}

func TestCopyFromMatchesCloneAndDoesNotAlias(t *testing.T) {
	d := fanDDG(14)
	tp := NewTopology("t", 4, 4, 2, 0)
	tp.AllToAll()
	src := NewFlow(tp, d)
	for n := graph.NodeID(0); n < 10; n++ {
		if err := src.Assign(n, ClusterID(int(n)%4)); err != nil {
			t.Fatalf("assign %d: %v", n, err)
		}
	}
	scratch := NewFlow(tp, d)
	// Pre-dirty the scratch so CopyFrom must also erase stale state.
	if err := scratch.Assign(0, 3); err != nil {
		t.Fatal(err)
	}
	scratch.Checkpoint()
	scratch.CopyFrom(src)
	if scratch.Journaling() {
		t.Fatal("CopyFrom left journaling on")
	}
	if diff := diffFlows(scratch, src); diff != "" {
		t.Fatalf("CopyFrom: %s", diff)
	}
	// Mutating the scratch must not leak into src.
	snap := src.Clone()
	mark := scratch.Checkpoint()
	if err := scratch.Assign(10, 0); err != nil {
		t.Fatal(err)
	}
	scratch.Rollback(mark)
	if diff := diffFlows(src, snap); diff != "" {
		t.Fatalf("scratch mutation leaked into src: %s", diff)
	}
	if diff := diffFlows(scratch, src); diff != "" {
		t.Fatalf("scratch rollback after CopyFrom: %s", diff)
	}
}

func TestCopyFromRejectsForeignFlow(t *testing.T) {
	d := chainDDG(4)
	tpA := NewTopology("a", 2, 4, 2, 0)
	tpA.AllToAll()
	tpB := NewTopology("b", 2, 4, 2, 0)
	tpB.AllToAll()
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across topologies did not panic")
		}
	}()
	NewFlow(tpA, d).CopyFrom(NewFlow(tpB, d))
}

// The journal's per-entry footprint, fingerprint snapshot included.
func TestUndoEntryIsPacked(t *testing.T) {
	if got := unsafe.Sizeof(undoEntry{}); got != 32 {
		t.Errorf("undoEntry is %d bytes, want 32", got)
	}
}

// TestRandomizedAssignRollback is the journal's property test: random
// DDGs, random (possibly failing) assignment bursts under a checkpoint,
// rollback, and a bit-exact comparison against the pre-checkpoint clone
// — repeated with nested bursts and interleaved committed work.
func TestRandomizedAssignRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nOps := 8 + rng.Intn(24)
		d := randomDDG(rng, nOps, false)
		k := 2 + rng.Intn(3)
		maxIn := 1 + rng.Intn(3)
		tp := NewTopology(fmt.Sprintf("rt%d", trial), k, 2+rng.Intn(3), maxIn, 0)
		tp.AllToAll()
		if rng.Intn(2) == 0 {
			tp.AddInputNode([]ValueID{0})
		}
		f := NewFlow(tp, d)
		order := rng.Perm(nOps)
		pos := 0
		for pos < len(order) {
			snap := f.Clone()
			mark := f.Checkpoint()
			burst := 1 + rng.Intn(4)
			assignedHere := 0
			for b := 0; b < burst && pos < len(order); b++ {
				n := graph.NodeID(order[pos])
				c := ClusterID(rng.Intn(k))
				if rng.Intn(4) == 0 {
					f.MarkUbiquitous(ValueID(rng.Intn(nOps)))
				}
				if err := f.Assign(n, c); err == nil {
					assignedHere++
				}
				pos++
			}
			_ = assignedHere
			if rng.Intn(2) == 0 {
				// Abandon the burst: the flow must equal the snapshot.
				f.Rollback(mark)
				if diff := diffFlows(f, snap); diff != "" {
					t.Fatalf("trial %d: rollback: %s", trial, diff)
				}
			} else {
				// Commit the burst; caches must survive a recount.
				f.DropJournal()
				if err := verifyCaches(f); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		}
	}
}

// TestAssignFloorBoundsAssign is AssignFloor's property test, on the
// same random DDGs as TestRandomizedAssignRollback plus loads, memory-
// less clusters, missing potential arcs and special nodes: from random
// partial states under both routing bounds, for every unassigned node
// and regular cluster, an infeasible verdict implies that Assign fails,
// a successful Assign lands on or above every floor term, and the floor
// leaves the flow, fingerprint included, untouched.
func TestAssignFloorBoundsAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ruledOut, assigned int
	for trial := 0; trial < 60; trial++ {
		nOps := 8 + rng.Intn(24)
		d := randomDDG(rng, nOps, true)
		k := 2 + rng.Intn(3)
		tp := NewTopology(fmt.Sprintf("ft%d", trial), k, 1+rng.Intn(3), 1+rng.Intn(3), rng.Intn(3))
		tp.AllToAll()
		for x := 0; x < k; x++ {
			for y := 0; y < k; y++ {
				if x != y && rng.Intn(4) == 0 {
					tp.SetPotential(ClusterID(x), ClusterID(y), false)
				}
			}
			if rng.Intn(3) == 0 {
				tp.SetMemSlots(ClusterID(x), 0)
			}
		}
		if rng.Intn(2) == 0 {
			tp.AddInputNode([]ValueID{0})
		}
		if rng.Intn(2) == 0 {
			tp.AddOutputNode([]ValueID{ValueID(nOps - 1 - rng.Intn(nOps/2))})
		}
		f := NewFlow(tp, d)
		for _, n := range rng.Perm(nOps) {
			if rng.Intn(6) == 0 {
				f.MarkUbiquitous(ValueID(rng.Intn(nOps)))
			}
			for _, hops := range []int{1, 0} {
				f.SetMaxHops(hops)
				snap := f.Clone()
				parent := termsOf(f)
				for u := 0; u < nOps; u++ {
					if f.Assignment(graph.NodeID(u)) != None {
						continue
					}
					for c := 0; c < k; c++ {
						floor, ok := f.AssignFloor(graph.NodeID(u), ClusterID(c), parent)
						if diff := diffFlows(f, snap); diff != "" {
							t.Fatalf("trial %d: AssignFloor(%d, %d) mutated the flow: %s", trial, u, c, diff)
						}
						mark := f.Checkpoint()
						err := f.Assign(graph.NodeID(u), ClusterID(c))
						if err == nil {
							assigned++
							if !ok {
								t.Fatalf("trial %d hops %d: AssignFloor(%d, %d) ruled out an assignment that succeeds", trial, hops, u, c)
							}
							if got := termsOf(f); floor.MII > got.MII || floor.Copies > got.Copies ||
								floor.Balance > got.Balance || floor.Ports > got.Ports {
								t.Fatalf("trial %d hops %d: AssignFloor(%d, %d) = %+v above the assigned terms %+v", trial, hops, u, c, floor, got)
							}
						} else if !ok {
							ruledOut++
						}
						f.Rollback(mark)
					}
				}
				snap.Release()
			}
			// Commit a random placement of n, then grow the next state.
			f.SetMaxHops(rng.Intn(2))
			mark := f.Checkpoint()
			if f.Assign(graph.NodeID(n), ClusterID(rng.Intn(k))) != nil {
				f.Rollback(mark)
			}
			f.DropJournal()
			f.SetMaxHops(0)
		}
	}
	if ruledOut == 0 || assigned == 0 {
		t.Fatalf("corpus too easy: %d ruled out, %d assigned", ruledOut, assigned)
	}

	f, n, c := halfAssigned(t)
	parent := termsOf(f)
	f.SetMaxHops(1)
	if allocs := testing.AllocsPerRun(100, func() { f.AssignFloor(n, c, parent) }); allocs != 0 {
		t.Errorf("AssignFloor allocates %v times per call", allocs)
	}
}

func termsOf(f *Flow) Terms {
	mii, copies, balance, ports := f.ObjectiveTerms()
	return Terms{MII: int32(mii), Copies: int32(copies), Balance: int32(balance), Ports: int32(ports)}
}

// verifyCaches recounts the incremental objective caches from the copy
// log (the part of Verify that guards the delta engine, usable on flows
// that are mid-assignment and would fail full Verify).
func verifyCaches(f *Flow) error {
	total := 0
	distinct := make(map[ClusterID]map[ValueID]bool)
	f.ForEachCopy(func(from, to ClusterID, v ValueID) {
		total++
		if distinct[from] == nil {
			distinct[from] = make(map[ValueID]bool)
		}
		distinct[from][v] = true
	})
	if total != f.TotalCopies() {
		return fmt.Errorf("TotalCopies %d != recount %d", f.TotalCopies(), total)
	}
	for c := 0; c < f.T.NumClusters(); c++ {
		if got, want := int(f.cnt[c*cntStride+cntDistinct]), len(distinct[ClusterID(c)]); got != want {
			return fmt.Errorf("cntDistinct[%d] cache %d != recount %d", c, got, want)
		}
	}
	return nil
}

// randomDDG builds a random acyclic DDG of n ops whose every non-root
// consumes 1-2 earlier values; with loads, about one op in five is a
// load instead.
func randomDDG(rng *rand.Rand, n int, loads bool) *ddg.DDG {
	d := ddg.New("rand")
	d.AddConst(1, "c0")
	for i := 1; i < n; i++ {
		op := ddg.OpAdd
		if rng.Intn(4) == 0 {
			op = ddg.OpMov
		}
		if loads && rng.Intn(5) == 0 {
			op = ddg.OpLoad
		}
		id := d.AddOp(op, fmt.Sprintf("n%d", i))
		d.AddDep(graph.NodeID(rng.Intn(i)), id, 0, 0)
		if op == ddg.OpAdd && rng.Intn(2) == 0 {
			d.AddDep(graph.NodeID(rng.Intn(i)), id, 1, 0)
		}
	}
	return d
}
