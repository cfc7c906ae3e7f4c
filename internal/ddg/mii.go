package ddg

// Resources describes the machine-wide execution resources that bound the
// initiation interval of a modulo-scheduled loop (§4.2). IssueSlots is the
// total number of single-issue computation nodes visible to the problem
// (64 for the full DSPFabric, 1 for a leaf cluster); DMAPorts is the number
// of memory requests the programmable DMA can serve simultaneously (8 on
// DSPFabric, §2.2).
type Resources struct {
	IssueSlots int
	DMAPorts   int
}

// MIIRec returns the recurrence-constrained minimum initiation interval:
// the maximum over all dependence cycles of ceil(latency/distance), and at
// least 1. A DDG with no loop-carried cycle has MIIRec 1. Every cycle lies
// in one strongly connected component, so graph.MaxCycleRatio searches
// each cyclic component over its own edges; the acyclic bulk of a DDG
// costs one linear pass.
func (d *DDG) MIIRec() int {
	mii, ok := d.G.MaxCycleRatio()
	if !ok || mii < 1 {
		return 1
	}
	return mii
}

// MIIRes returns the resource-constrained minimum initiation interval for
// the given resources: every instruction needs one issue slot per
// iteration, and every memory operation additionally needs one DMA request
// port. The result is at least 1.
func (d *DDG) MIIRes(r Resources) int {
	if r.IssueSlots <= 0 {
		panic("ddg: MIIRes: IssueSlots must be positive")
	}
	s := d.Stats()
	mii := ceilDiv(s.Instr, r.IssueSlots)
	if r.DMAPorts > 0 {
		if m := ceilDiv(s.MemOps, r.DMAPorts); m > mii {
			mii = m
		}
	}
	if mii < 1 {
		mii = 1
	}
	return mii
}

// MII returns max(MIIRec, MIIRes): the theoretical optimum initiation
// interval on an equivalent-issue-width unified machine, the lower bound
// Table 1 compares the clusterized result against.
func (d *DDG) MII(r Resources) int {
	rec, res := d.MIIRec(), d.MIIRes(r)
	if rec > res {
		return rec
	}
	return res
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
