package pg

// The mutation journal makes a Flow reversible: every state change of
// Assign, Route/addCopy, ReserveArc and MarkUbiquitous appends a typed
// undo entry while journaling is enabled, and Rollback replays the
// entries in reverse. The SEE's delta engine evaluates every candidate
// cluster of a beam state against one scratch flow via
// Checkpoint → Assign → score → Rollback, cloning only the few survivors
// that enter the frontier — this file is what replaced the
// clone-per-candidate hot path.
//
// Journal invariants:
//
//   - entries are strictly LIFO: Rollback(m) undoes journal[m:] in
//     reverse order, so interleaved rollbacks to arbitrary older marks
//     are legal as long as marks are used stack-like;
//   - each entry records only the deltas that actually happened (flag
//     bits): a bit that was already set, or a load counter that was not
//     incremented, is not touched on undo;
//   - copy entries rely on the global LIFO discipline: the copy being
//     undone is always the *tail of the whole copy log* (every addCopy
//     appends one log record and one journal entry in lockstep, and
//     undo proceeds in exact reverse), so undoing a copy is popping the
//     log and clearing one bit in the arc's value bitset;
//   - the incremental caches (the copy-log length, the per-cluster
//     counter block) are updated by both the forward mutations and
//     their undos, so EstimateMII and TotalCopies stay O(clusters) and
//     allocation-free at every point;
//   - every entry carries the fingerprint as it stood before its
//     mutation began: a mutation's own record stores the value captured
//     on entry, and the canonical-label touches it triggers, which store
//     the current value, happen before it folds any fact. Marks fall
//     between mutations, so journal[m].fp is the fingerprint at mark m
//     and Rollback restores it with one copy instead of rehashing every
//     undone fact.

// Mark identifies a journal position to roll back to.
type Mark int

type undoOp uint8

const (
	undoAssign undoOp = iota
	undoCopy
	undoReserve
	undoUbiquitous
	// undoTouch retracts a canonical cluster label handed out by
	// canonLabel (fingerprint.go).
	undoTouch
)

// Flag bits recording which side effects a mutation actually performed.
const (
	fNewInSrc    uint8 = 1 << iota // inSrc[y] bit x was newly set
	fNewOutDst                     // outDst[x] bit y was newly set
	fNewAvail                      // avail[v] bit was newly set
	fRecvInc                       // recvLoad[y] was incremented
	fSendInc                       // sendLoad[x] was incremented
	fDistinctInc                   // distinctOut[x] was incremented
	fMemInstr                      // memInstr[c] was incremented
)

// undoEntry is one journal record, packed to 32 bytes: cluster IDs fit
// an int8 (MaxClusters is 64) and value IDs an int32.
type undoEntry struct {
	op    undoOp
	flags uint8
	x, y  int8
	v     int32
	mask  uint64      // undoUbiquitous: avail bits newly set
	fp    Fingerprint // the flow's fingerprint before the mutation
}

// Checkpoint enables journaling (if it was off) and returns a mark that
// Rollback accepts. Marks must be rolled back stack-like: rolling back
// to an older mark invalidates every younger one.
//
//hca:hotpath
func (f *Flow) Checkpoint() Mark {
	if f.journal == nil {
		// First checkpoint on this flow: adopt a recycled journal array
		// (slab.go) instead of growing one from nil append by append.
		f.journal = undoSlab.get(64)[:0]
	}
	f.journaling = true
	return Mark(len(f.journal))
}

// Journaling reports whether mutations are currently being recorded.
func (f *Flow) Journaling() bool { return f.journaling }

// DropJournal stops journaling and discards every recorded entry.
// Earlier marks become invalid. Use it after a speculative phase has
// committed, so later mutations stop paying the recording cost.
//
//hca:hotpath
func (f *Flow) DropJournal() {
	f.journaling = false
	f.journal = f.journal[:0]
}

// JournalHighWater returns the deepest journal (in undo entries) this
// flow has rolled back since it was created or last reset by CopyFrom —
// a telemetry figure for the SEE's assign→score→rollback engine. It
// survives DropJournal, but CopyFrom clears it along with the journal:
// recycled scratch flows must not leak a previous solve's history, or
// the figure would vary with pool-reuse order.
func (f *Flow) JournalHighWater() int { return f.journalHW }

// Rollback undoes every mutation recorded since mark, restoring the flow
// bit-identically to its state at the matching Checkpoint. Journaling
// stays enabled.
//
//hca:hotpath
func (f *Flow) Rollback(mark Mark) {
	if len(f.journal) > f.journalHW {
		f.journalHW = len(f.journal)
	}
	if int(mark) < len(f.journal) {
		f.fp = f.journal[mark].fp
	}
	for i := len(f.journal) - 1; i >= int(mark); i-- {
		e := &f.journal[i]
		x, y, v := int(e.x), int(e.y), int(e.v)
		switch e.op {
		case undoAssign:
			f.assign[v] = -1
			f.cnt[x*cntStride+cntInstr]--
			if e.flags&fMemInstr != 0 {
				f.cnt[x*cntStride+cntMem]--
			}
			f.assigned--
			if e.flags&fNewAvail != 0 {
				f.avail[v] &^= 1 << uint(x)
			}
		case undoCopy:
			// Global LIFO: this copy is the tail of the log.
			key := int32(x)<<arcShift | int32(y)
			f.arcHas[int(f.T.arcIdx[key])*f.vwords+v>>6] &^= 1 << (uint(v) & 63)
			f.copyLog = f.copyLog[:len(f.copyLog)-1]
			if e.flags&fNewInSrc != 0 {
				f.inSrc[y] &^= 1 << uint(x)
			}
			if e.flags&fNewOutDst != 0 {
				f.outDst[x] &^= 1 << uint(y)
			}
			if e.flags&fNewAvail != 0 {
				f.avail[v] &^= 1 << uint(y)
			}
			if e.flags&fRecvInc != 0 {
				f.cnt[y*cntStride+cntRecv]--
			}
			if e.flags&fSendInc != 0 {
				f.cnt[x*cntStride+cntSend]--
			}
			if e.flags&fDistinctInc != 0 {
				f.cnt[x*cntStride+cntDistinct]--
			}
		case undoReserve:
			if e.flags&fNewInSrc != 0 {
				f.inSrc[y] &^= 1 << uint(x)
			}
			if e.flags&fNewOutDst != 0 {
				f.outDst[x] &^= 1 << uint(y)
			}
		case undoUbiquitous:
			f.avail[v] &^= e.mask
		case undoTouch:
			f.canon[x] = None
			f.canonN--
		}
	}
	f.journal = f.journal[:int(mark)]
}

// CopyFrom overwrites f with src's state, reusing f's storage. Both
// flows must share the same Topology and DDG: this is the reset path of
// the delta engine's scratch-flow pool, where it replaces a full Clone
// without allocating. Since the packed rewrite every component is a
// flat slice of scalars, so the whole overwrite is a handful of
// memmoves. The journal is cleared and journaling disabled.
//
//hca:hotpath
func (f *Flow) CopyFrom(src *Flow) {
	if f.T != src.T || f.D != src.D {
		panic("pg: CopyFrom: flows have different Topology or DDG")
	}
	f.MIIRecStatic = src.MIIRecStatic
	copy(f.assign, src.assign)
	copy(f.cnt, src.cnt)
	// One memmove covers all four bitset groups: both flows share the
	// same (Topology, DDG), so their word arenas have identical layout.
	copy(f.words, src.words)
	f.copyLog = append(f.copyLog[:0], src.copyLog...)
	copy(f.canon, src.canon)
	f.canonN = src.canonN
	f.fp = src.fp
	f.assigned = src.assigned
	f.maxHops = src.maxHops
	f.journal = f.journal[:0]
	f.journaling = false
	f.journalHW = 0
}
