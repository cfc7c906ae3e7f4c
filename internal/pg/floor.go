package pg

import (
	"math/bits"

	"repro/internal/graph"
)

// Terms holds the four standard objective terms ObjectiveTerms returns.
// The fields are int32 so that per-child search records stay compact.
type Terms struct {
	MII, Copies, Balance, Ports int32
}

// AssignFloor bounds Assign(n, c) without performing it. Given parent,
// the ObjectiveTerms of f's current state, it returns a lower bound on
// each term of the state Assign(n, c) would leave behind, and ok false
// only when that Assign is certain to fail. It reads f and nothing
// else, so a search can rule a child out before paying for the
// assignment and its rollback.
//
// The bound counts what every successful Assign must add:
//
//   - copies: one per distinct placed operand of n not yet available at
//     c, one per cluster other than c that hosts an assigned consumer
//     of n and lacks n, and one per output node that carries n and
//     lacks it. Each of those values must arrive on a new copy into its
//     destination, and the copies are pairwise distinct;
//   - loads: c gains the instruction and one receive per missing
//     operand, each consumer cluster at least one receive, and a memory
//     instruction adds to c's memory count. MII and balance follow from
//     these counts and the parent's terms, since counters only grow;
//   - ports: the parent's value.
//
// The infeasibility test is a memory instruction on a cluster without
// memory, or, under the direct-pattern bound (maxHops 1), a missing
// operand or consumer cluster that no possible holder of the value can
// reach over a usable potential arc. An operand's holders cannot grow
// while Assign runs (only the operand's own route copies it), n's
// holders are at most its current ones plus c and the other consumer
// clusters, and arcs only lose usability as ports are committed, so a
// failed test proves that Assign fails.
//
//hca:hotpath
func (f *Flow) AssignFloor(n graph.NodeID, c ClusterID, parent Terms) (Terms, bool) {
	t := f.T
	if !t.isRegular(c) || f.assign[n] >= 0 {
		return parent, false
	}
	isMem := f.D.Node(n).Op.IsMem()
	if isMem && t.mem[c] == 0 {
		return parent, false
	}
	cb := uint64(1) << uint(c)
	direct := f.maxHops == 1
	missing := 0
	ops := f.opSrc[f.opOff[n]:f.opOff[n+1]]
operands:
	for i, v := range ops {
		if graph.NodeID(v) == n || f.avail[v] == 0 || f.avail[v]&cb != 0 {
			continue
		}
		for _, w := range ops[:i] {
			if w == v {
				continue operands
			}
		}
		if direct && !f.directSource(f.avail[v], c) {
			return parent, false
		}
		missing++
	}
	var dsts uint64
	for _, u := range f.useDst[f.useOff[n]:f.useOff[n+1]] {
		if d := f.assign[u]; d >= 0 {
			dsts |= 1 << uint(d)
		}
	}
	dsts &^= cb | f.avail[n]
	if direct {
		holders := f.avail[n] | cb | dsts
		for m := dsts; m != 0; m &= m - 1 {
			d := ClusterID(bits.TrailingZeros64(m))
			if !f.directSource(holders&^(1<<uint(d)), d) {
				return parent, false
			}
		}
	}
	outs := 0
	if w := int(n) >> 6; w < len(t.carrierBits) && t.carrierBits[w]&(1<<(uint(n)&63)) != 0 {
		for _, o := range t.carrier[n] {
			if f.avail[n]&(1<<uint(o)) == 0 {
				outs++
			}
		}
	}

	in := t.MaxIn
	base := int(c) * cntStride
	recv := int(f.cnt[base+cntRecv]) + missing
	load := int(f.cnt[base+cntInstr]+f.cnt[base+cntSend]) + 1 + recv
	balance := max(int(parent.Balance), load)
	mii := max(int(parent.MII), ceilDiv(load, int(t.issue[c])), ceilDiv(recv, in))
	if ms := int(t.mem[c]); ms > 0 {
		mem := int(f.cnt[base+cntMem])
		if isMem {
			mem++
		}
		mii = max(mii, ceilDiv(mem, ms))
	}
	for m := dsts; m != 0; m &= m - 1 {
		d := bits.TrailingZeros64(m)
		base := d * cntStride
		recv := int(f.cnt[base+cntRecv]) + 1
		load := int(f.cnt[base+cntInstr]+f.cnt[base+cntSend]) + recv
		balance = max(balance, load)
		mii = max(mii, ceilDiv(load, int(t.issue[d])), ceilDiv(recv, in))
	}
	copies := int(parent.Copies) + missing + bits.OnesCount64(dsts) + outs
	return Terms{MII: int32(mii), Copies: int32(copies), Balance: int32(balance), Ports: parent.Ports}, true
}

// directSource reports whether some cluster of holders that may seed a
// route (an input node or a regular cluster) has a usable potential arc
// to dst: the condition under which a direct-pattern (maxHops 1) route
// to dst exists.
//
//hca:hotpath
func (f *Flow) directSource(holders uint64, dst ClusterID) bool {
	db := uint64(1) << uint(dst)
	for m := holders & (f.T.inMask | f.T.regMask); m != 0; m &= m - 1 {
		x := ClusterID(bits.TrailingZeros64(m))
		if f.T.potMask[x]&db != 0 && f.arcUsable(x, dst) {
			return true
		}
	}
	return false
}
