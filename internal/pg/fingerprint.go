package pg

import "math/bits"

// Incremental state fingerprinting (the Zobrist scheme).
//
// A Flow's observable search state is a grow-only set of facts:
//
//	assign(c, n)   instruction n placed on cluster c
//	copy(x, y, v)  value v carried by the real arc x→y
//	insrc(x, y)    inSrc[y] bit x set (by a copy or a reserved arc)
//	outdst(x, y)   outDst[x] bit y set (by a copy or a reserved arc)
//	avail(c, v)    value v available at cluster c
//	ubiq(v)        value v rematerialized at every regular cluster
//	send(x, k)     sendLoad[x] reached k (value-transition encoding:
//	               each increment XORs the old and the new level, since
//	               the re-send decision depends on assignment order and
//	               is not derivable from the set facts alone)
//
// Every fact is hashed to a 128-bit key by a splitmix64-style mixer (no
// tables, no allocation) and XORed into the running fingerprint, so
// mutation and undo are the same O(1) operation. All remaining Flow
// state (nInstr, memInstr, recvLoad, distinctOut, assigned, the BFS
// scratch) is derived from these facts and deliberately excluded.
//
// Cluster labels are *canonicalized* when the topology is symmetric
// (homogeneous all-to-all regular clusters, the DSPFabric shape): a
// regular cluster receives its canonical label the first time any fact
// touches it, in touch order. Two states that differ only by a
// permutation of interchangeable clusters then produce the identical
// fingerprint — which is exactly when the beam search is wasting slots
// on redundant twins. On asymmetric topologies (rings, heterogeneous
// memory slots) labels stay raw and the fingerprint is an exact state
// hash. Special input/output nodes are always distinguishable and keep
// their raw IDs.

// Fingerprint is the 128-bit incremental hash of a Flow's search state.
// It is a comparable value type: equal states (up to cluster symmetry,
// see above) produce equal fingerprints, and distinct states collide
// with probability ~2^-128 per pair. Consumers that cannot tolerate
// even that (the subproblem memo) back a hit with a full compare.
type Fingerprint struct {
	Hi, Lo uint64
}

// IsZero reports whether fp is the zero fingerprint (no facts folded).
func (fp Fingerprint) IsZero() bool { return fp.Hi == 0 && fp.Lo == 0 }

// Fact kinds. Values matter only for distinctness within the packed
// fact word.
const (
	fkAssign uint64 = iota + 1
	fkCopy
	fkInSrc
	fkOutDst
	fkAvail
	fkUbiq
	fkSend
)

// fpMix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// mixer, so distinct packed fact words map to well-spread keys without
// any lookup tables.
//
//hca:hotpath
func fpMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fpFact hashes one fact to its 128-bit Zobrist key. The two halves mix
// the same packed word against independent seeds, giving 128 bits of
// collision resistance at the cost of two multiplies per half.
//
//hca:hotpath
func fpFact(kind uint64, a, b ClusterID, v int64) Fingerprint {
	w := kind<<56 | uint64(uint8(a+1))<<48 | uint64(uint8(b+1))<<40 | uint64(v)&(1<<40-1)
	return Fingerprint{
		Hi: fpMix64(w ^ 0xa0761d6478bd642f),
		Lo: fpMix64(w ^ 0xe7037ed1a0b428db),
	}
}

// fpXor folds (or unfolds — XOR is its own inverse) one fact key.
//
//hca:hotpath
func (f *Flow) fpXor(k Fingerprint) {
	f.fp.Hi ^= k.Hi
	f.fp.Lo ^= k.Lo
}

// canonLabel returns the cluster label used in fact keys, assigning the
// next canonical label on a symmetric topology when c (a regular
// cluster) is touched for the first time. The assignment is journaled
// so Rollback restores the canonical map along with the facts; callers
// hand out labels before they fold a fact, so a touch entry that opens
// a mutation snapshots the pre-mutation fingerprint (journal.go).
//
//hca:hotpath
func (f *Flow) canonLabel(c ClusterID) ClusterID {
	if !f.canonSym || int(c) >= f.T.regular {
		return c
	}
	if f.canon[c] == None {
		f.canon[c] = ClusterID(f.canonN)
		f.canonN++
		if f.journaling {
			f.journal = append(f.journal, undoEntry{op: undoTouch, x: int8(c), fp: f.fp})
		}
	}
	return f.canon[c]
}

// fpUbiq folds the avail facts MarkUbiquitous adds for value v. When
// the whole regular set is added at once on a symmetric topology the
// aggregate is itself permutation-invariant, so it folds as a single
// ubiq(v) fact and touches no cluster (preserving symmetry); a partial
// mask falls back to per-cluster avail facts, whose canonical labels
// are all handed out before the first fold (see canonLabel).
//
//hca:hotpath
func (f *Flow) fpUbiq(v ValueID, mask uint64) {
	if f.canonSym && mask == f.allRegMask {
		f.fpXor(fpFact(fkUbiq, 0, 0, int64(v)))
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		f.canonLabel(ClusterID(bits.TrailingZeros64(m)))
	}
	for m := mask; m != 0; m &= m - 1 {
		c := ClusterID(bits.TrailingZeros64(m))
		f.fpXor(fpFact(fkAvail, f.canonLabel(c), 0, int64(v)))
	}
}

// Fingerprint returns the incremental 128-bit hash of the flow's
// current search state. O(1): the value is maintained by every mutator
// and restored exactly by Rollback and CopyFrom.
//
//hca:hotpath
func (f *Flow) Fingerprint() Fingerprint { return f.fp }

// topoSymmetric reports whether the regular clusters of t are fully
// interchangeable: identical issue and memory slots, and an all-to-all
// potential matrix among them. Special nodes are symmetric by
// construction (input nodes broadcast to every regular cluster, output
// nodes listen to every regular cluster), so they need no check.
func topoSymmetric(t *Topology) bool {
	if t.regular < 2 {
		return false
	}
	c0 := &t.clusters[0]
	for i := 1; i < t.regular; i++ {
		if t.clusters[i].IssueSlots != c0.IssueSlots || t.clusters[i].MemSlots != c0.MemSlots {
			return false
		}
	}
	for i := 0; i < t.regular; i++ {
		for j := 0; j < t.regular; j++ {
			if t.potential[i][j] != (i != j) {
				return false
			}
		}
	}
	return true
}

// fpAbsorb extends a sequential (order-sensitive) 128-bit hash by one
// word; the helper behind Topology.Fingerprint and the memo's
// working-set hash.
func fpAbsorb(h Fingerprint, w uint64) Fingerprint {
	return Fingerprint{
		Hi: fpMix64(h.Hi ^ w),
		Lo: fpMix64(h.Lo ^ (w*0x9e3779b97f4a7c15 + 1)),
	}
}

// Absorb returns the hash extended by one word — the exported form of
// the sequential mixer, for consumers (the subproblem memo) that fold
// auxiliary data such as working-set node lists into a comparable
// 128-bit key. Order-sensitive: Absorb(a).Absorb(b) != Absorb(b).Absorb(a).
func (fp Fingerprint) Absorb(w uint64) Fingerprint { return fpAbsorb(fp, w) }

// Fingerprint returns a canonical structural hash of the topology:
// cluster shapes (kind, issue/memory slots, carried values), the port
// budgets and the full potential matrix. The Name is deliberately
// excluded — subproblem topologies embed their hierarchy path in the
// name, and the memo must identify structurally identical subproblems
// across passes, variants and requests.
func (t *Topology) Fingerprint() Fingerprint {
	h := fpAbsorb(Fingerprint{}, 0x746f706f) // domain separator "topo"
	h = fpAbsorb(h, uint64(t.MaxIn))
	h = fpAbsorb(h, uint64(t.MaxOut))
	h = fpAbsorb(h, uint64(t.regular))
	h = fpAbsorb(h, uint64(len(t.clusters)))
	for i := range t.clusters {
		c := &t.clusters[i]
		h = fpAbsorb(h, uint64(c.Kind)<<32|uint64(uint32(c.IssueSlots)))
		h = fpAbsorb(h, uint64(uint32(c.MemSlots))<<32|uint64(uint32(len(c.Carries))))
		for _, v := range c.Carries {
			h = fpAbsorb(h, uint64(v))
		}
	}
	for i := range t.clusters {
		var row uint64
		if i < len(t.potential) {
			for j, ok := range t.potential[i] {
				if ok {
					row |= 1 << uint(j)
				}
			}
		}
		h = fpAbsorb(h, row)
	}
	return h
}

// Equal reports whether t and o are structurally identical (everything
// Fingerprint covers; Name excluded). The subproblem memo uses it as
// the fail-safe full compare behind a fingerprint hit, so a 128-bit
// collision degrades to a cache miss instead of a wrong answer.
func (t *Topology) Equal(o *Topology) bool {
	if t == o {
		return true
	}
	if o == nil || t.MaxIn != o.MaxIn || t.MaxOut != o.MaxOut ||
		t.regular != o.regular || len(t.clusters) != len(o.clusters) {
		return false
	}
	for i := range t.clusters {
		a, b := &t.clusters[i], &o.clusters[i]
		if a.Kind != b.Kind || a.IssueSlots != b.IssueSlots || a.MemSlots != b.MemSlots ||
			len(a.Carries) != len(b.Carries) {
			return false
		}
		for j := range a.Carries {
			if a.Carries[j] != b.Carries[j] {
				return false
			}
		}
	}
	n := len(t.clusters)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if t.Potential(ClusterID(i), ClusterID(j)) != o.Potential(ClusterID(i), ClusterID(j)) {
				return false
			}
		}
	}
	return true
}
