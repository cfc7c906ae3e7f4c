package pg

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/ddg"
	"repro/internal/graph"
)

// MaxClusters bounds the cluster count of one Topology, regular clusters
// and special nodes together, so that cluster sets fit in a single
// machine word. Every level of the paper's machines is far below this
// (4 regular clusters + up to 2·8 special nodes); core.CheckMachine
// turns away machines whose levels cannot fit.
const MaxClusters = 64

// Per-cluster counter fields, packed as one contiguous int32 block per
// cluster inside Flow.cnt (struct-of-arrays): the load accounting the
// cost function reads lives in cntStride*4 = 20 bytes per cluster, so
// EstimateMII walks a flat, branch-light array and state copy is one
// memmove instead of five slice copies.
const (
	cntInstr    = iota // instructions hosted
	cntMem             // memory instructions hosted
	cntRecv            // values received (rcv primitives)
	cntSend            // forwarded-value re-sends
	cntDistinct        // distinct values on outgoing real arcs
	cntStride
)

// copyRec is one (arc, value) copy in the global append-only copy log.
// The packed arc key is from<<arcShift|to.
type copyRec struct {
	arc int32
	v   int32
}

// Flow is the mutable state of a cluster-assignment search over one
// Topology: the partial instruction assignment, the arcs that have become
// real communication patterns and the values they carry, and the derived
// load accounting the cost function reads. Flows are cloned and pool-
// recycled by the SEE beam search, so all state is cache-flat: packed
// bitset words, one byte per node for the assignment, one int32 counter
// block per cluster, and an append-only copy log — no maps, no
// per-element pointers, so Clone and CopyFrom are memmove-style bulk
// copies and scoring never chases a pointer.
type Flow struct {
	T *Topology
	D *ddg.DDG

	// MIIRecStatic is the recurrence-constrained lower bound of the
	// working set, folded into EstimateMII.
	MIIRecStatic int

	assign []int8  // per DDG node: hosting cluster, -1 if unassigned
	cnt    []int32 // per cluster: cntStride counters (see cnt* above)

	// words is the flow's packed word arena, drawn from the package word
	// slab (slab.go) and recycled through Release. The four bitset
	// groups below are fixed subslices of it, in this order, so Clone
	// and CopyFrom move the whole group state with one memmove and
	// retiring a flow hands one array back instead of four.
	words  []uint64
	inSrc  []uint64 // per cluster: bitmask of real in-neighbor clusters
	outDst []uint64 // per cluster: bitmask of real out-neighbor clusters
	avail  []uint64 // per value: bitmask of clusters where it is available

	// The copy state, struct-of-arrays form of the former per-arc value
	// lists: copyLog records every (arc, value) copy in creation order
	// (the journal's global LIFO discipline means undo always pops the
	// tail), and arcHas holds one value-bitset row per dense arc index
	// (vwords words each) for O(1) duplicate checks and carriesOut scans.
	copyLog []copyRec
	arcHas  []uint64
	vwords  int // words per arcHas row: ceil(D.Len()/64)

	assigned int // number of assigned instructions
	maxHops  int // route-length bound for findPath (0 = unlimited)

	// Incremental Zobrist state hash (fingerprint.go), maintained by the
	// same mutation/undo pairs as the objective caches. On symmetric
	// topologies fact keys use canonical first-touch cluster labels so
	// permutation-twin states hash identically.
	fp         Fingerprint
	canon      []ClusterID // per regular cluster: canonical label, or None
	canonN     int         // next canonical label to hand out
	canonSym   bool        // topology qualifies for canonical labels
	allRegMask uint64      // avail-mask covering every regular cluster

	// Mutation journal (journal.go). Enabled by Checkpoint; never cloned.
	journal    []undoEntry
	journaling bool
	journalHW  int // deepest journal ever rolled back (telemetry)

	// Reusable findPath scratch (not cloned): a Flow is owned by one
	// goroutine at a time, so BFS state can live on it across Route calls.
	bfsPrev  []int8
	bfsDepth []int32
	bfsQueue []int8
	bfsPath  []ClusterID

	// errScratch is the reusable failure container stateErr fills: the
	// speculative evaluation path rejects thousands of candidates per
	// solve, and each rejection would otherwise heap-allocate an error
	// that the engine discards after a nil check. Not cloned.
	errScratch flowError

	// Flat operand/consumer adjacency over the DDG (CSR form), built once
	// in NewFlow and shared by Clone — immutable, so sharing is safe.
	// Assign's routing loops read these instead of walking the graph's
	// edge lists through a closure call per edge.
	opOff  []int32
	opSrc  []int32 // in-edge source per operand slot, concatenated by node
	useOff []int32
	useDst []int32 // out-edge destination per use slot, concatenated by node
}

// NewFlow creates an empty assignment over t for d. Values carried by
// input nodes start available at their input node.
func NewFlow(t *Topology, d *ddg.DDG) *Flow {
	if t.NumClusters() > MaxClusters {
		panic(fmt.Sprintf("pg: topology %q has %d clusters; Flow supports at most %d", t.Name, t.NumClusters(), MaxClusters))
	}
	vw := (d.Len() + 63) / 64
	f := newShell()
	*f = Flow{
		T:      t,
		D:      d,
		vwords: vw,

		canonSym:   topoSymmetric(t),
		allRegMask: t.regMask,
	}
	f.assign = byteSlab.get(d.Len())
	f.cnt = i32Slab.get(t.NumClusters() * cntStride)
	clear(f.cnt)
	f.canon = cidSlab.get(t.regular)
	w := wordSlab.get(f.wordLen())
	clear(w)
	f.bindWords(w)
	f.bindScratch()
	for i := range f.assign {
		f.assign[i] = -1
	}
	for i := range f.canon {
		f.canon[i] = None
	}
	for _, in := range t.InputNodes() {
		for _, v := range t.Cluster(in).Carries {
			if f.avail[v]&(1<<uint(in)) == 0 {
				f.fpXor(fpFact(fkAvail, in, 0, int64(v)))
			}
			f.avail[v] |= 1 << uint(in)
		}
	}
	f.opOff = make([]int32, d.Len()+1)
	f.useOff = make([]int32, d.Len()+1)
	ne := d.G.NumEdges()
	f.opSrc = make([]int32, 0, ne)
	f.useDst = make([]int32, 0, ne)
	// Seed the copy log's capacity: clones inherit it (Clone preserves
	// capacity), so pooled flows never regrow the log copy by copy.
	f.copyLog = recSlab.get(2 * d.Len())[:0]
	for n := 0; n < d.Len(); n++ {
		f.opOff[n] = int32(len(f.opSrc))
		d.G.In(graph.NodeID(n), func(e graph.Edge) { f.opSrc = append(f.opSrc, int32(e.From)) })
		f.useOff[n] = int32(len(f.useDst))
		d.G.Out(graph.NodeID(n), func(e graph.Edge) { f.useDst = append(f.useDst, int32(e.To)) })
	}
	f.opOff[d.Len()] = int32(len(f.opSrc))
	f.useOff[d.Len()] = int32(len(f.useDst))
	return f
}

// wordLen returns the size of the flow's packed word arena:
// [inSrc | outDst | avail | arcHas] in that fixed order.
func (f *Flow) wordLen() int {
	return 2*f.T.NumClusters() + f.D.Len() + f.T.numArcs*f.vwords
}

// bindWords points the flow's four bitset groups into the arena w,
// which must hold wordLen() words. The subslices carry full-slice caps
// so an accidental append cannot bleed into the neighboring group.
func (f *Flow) bindWords(w []uint64) {
	nc := f.T.NumClusters()
	a := 2*nc + f.D.Len()
	f.words = w
	f.inSrc = w[0:nc:nc]
	f.outDst = w[nc : 2*nc : 2*nc]
	f.avail = w[2*nc : a : a]
	f.arcHas = w[a:len(w):len(w)]
}

// bindScratch draws the flow's findPath scratch from the slabs up
// front, so routing on a freshly cloned flow never allocates (contents
// are per-call, so dirt is fine).
func (f *Flow) bindScratch() {
	n := f.T.NumClusters()
	f.bfsPrev = byteSlab.get(n)
	f.bfsDepth = i32Slab.get(n)
	f.bfsQueue = byteSlab.get(n)[:0]
	f.bfsPath = cidSlab.get(n + 1)[:0]
}

// Clone returns an independent copy of the flow. The bulk state comes
// from the package slabs (one arena memmove for all four bitset
// groups), so cloning inside a warmed-up solve does not grow the heap.
func (f *Flow) Clone() *Flow {
	g := newShell()
	*g = Flow{
		T:            f.T,
		D:            f.D,
		MIIRecStatic: f.MIIRecStatic,
		vwords:       f.vwords,
		assigned:     f.assigned,
		maxHops:      f.maxHops,
		fp:           f.fp,
		canonN:       f.canonN,
		canonSym:     f.canonSym,
		allRegMask:   f.allRegMask,
		opOff:        f.opOff,
		opSrc:        f.opSrc,
		useOff:       f.useOff,
		useDst:       f.useDst,
	}
	g.assign = byteSlab.get(len(f.assign))
	copy(g.assign, f.assign)
	g.cnt = i32Slab.get(len(f.cnt))
	copy(g.cnt, f.cnt)
	g.canon = cidSlab.get(len(f.canon))
	copy(g.canon, f.canon)
	w := wordSlab.get(len(f.words))
	copy(w, f.words)
	g.bindWords(w)
	g.bindScratch()
	lc := cap(f.copyLog)
	if lc < len(f.copyLog) {
		lc = len(f.copyLog)
	}
	g.copyLog = append(recSlab.get(lc)[:0], f.copyLog...)
	return g
}

// Assignment returns the cluster hosting node n, or None.
func (f *Flow) Assignment(n graph.NodeID) ClusterID { return ClusterID(f.assign[n]) }

// NumAssigned returns how many instructions have been assigned.
func (f *Flow) NumAssigned() int { return f.assigned }

// Instructions returns the DDG nodes assigned to cluster c, ascending.
func (f *Flow) Instructions(c ClusterID) []graph.NodeID {
	var out []graph.NodeID
	for n, cl := range f.assign {
		if ClusterID(cl) == c {
			out = append(out, graph.NodeID(n))
		}
	}
	return out
}

// Copies returns the values carried by the real arc from→to in creation
// order (nil if the arc carries none).
func (f *Flow) Copies(from, to ClusterID) []ValueID {
	key := int32(from)<<arcShift | int32(to)
	var out []ValueID
	for _, r := range f.copyLog {
		if r.arc == key {
			out = append(out, ValueID(r.v))
		}
	}
	return out
}

// RealArcs calls fn for every real arc that carries at least one value,
// in deterministic (from, to) order; each arc's values keep their
// creation order.
func (f *Flow) RealArcs(fn func(from, to ClusterID, vals []ValueID)) {
	byArc := make(map[int32][]ValueID, 16)
	keys := make([]int32, 0, 16)
	for _, r := range f.copyLog {
		vs, ok := byArc[r.arc]
		if !ok {
			keys = append(keys, r.arc)
		}
		byArc[r.arc] = append(vs, ValueID(r.v))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fn(ClusterID(k>>arcShift), ClusterID(k&(MaxClusters-1)), byArc[k])
	}
}

// ForEachCopy calls fn for every (arc, value) copy pair in creation
// order: a single allocation-free scan of the copy log, for criteria
// that aggregate over copies once per candidate evaluation.
//
//hca:hotpath
func (f *Flow) ForEachCopy(fn func(from, to ClusterID, v ValueID)) {
	for i := range f.copyLog {
		r := f.copyLog[i]
		fn(ClusterID(r.arc>>arcShift), ClusterID(r.arc&(MaxClusters-1)), ValueID(r.v))
	}
}

// InNeighbors returns the number of distinct real in-neighbors of c.
func (f *Flow) InNeighbors(c ClusterID) int { return bits.OnesCount64(f.inSrc[c]) }

// Load returns the compute load of cluster c: hosted instructions plus
// receive primitives plus forwarding re-sends (§4.2's copy-pressure term).
//
//hca:hotpath
func (f *Flow) Load(c ClusterID) int {
	base := int(c) * cntStride
	return int(f.cnt[base+cntInstr] + f.cnt[base+cntRecv] + f.cnt[base+cntSend])
}

// Available reports whether value v is available at cluster c.
func (f *Flow) Available(v ValueID, c ClusterID) bool { return f.avail[v]&(1<<uint(c)) != 0 }

// Assign places instruction n on regular cluster c, routing every operand
// of n to c and n's value to every already-assigned consumer and to any
// output node that must carry it. It returns an error (leaving f
// unchanged only in the error==immediately-detectable cases; use
// TryAssign on a clone for speculative work) when c is not regular or a
// required route does not exist.
//
//hca:hotpath
func (f *Flow) Assign(n graph.NodeID, c ClusterID) error {
	f.T.mustHave(c)
	if !f.T.isRegular(c) {
		return f.stateErr(errAssignSpecial, graph.NodeID(n), c)
	}
	if f.assign[n] >= 0 {
		return f.stateErr(errAssignDup, graph.NodeID(n), ClusterID(f.assign[n]))
	}
	isMem := f.D.Node(n).Op.IsMem()
	if isMem && f.T.mem[c] == 0 {
		return f.stateErr(errAssignNoMem, graph.NodeID(n), c)
	}
	f.assign[n] = int8(c)
	f.cnt[int(c)*cntStride+cntInstr]++
	if isMem {
		f.cnt[int(c)*cntStride+cntMem]++
	}
	f.assigned++
	// Ubiquitous (rematerialized) values may already be available at c.
	newAvail := f.avail[n]&(1<<uint(c)) == 0
	fp0 := f.fp
	ca := f.canonLabel(c)
	f.fpXor(fpFact(fkAssign, ca, 0, int64(n)))
	if newAvail {
		f.fpXor(fpFact(fkAvail, ca, 0, int64(n)))
	}
	if f.journaling {
		flags := uint8(0)
		if isMem {
			flags |= fMemInstr
		}
		if newAvail {
			flags |= fNewAvail
		}
		f.journal = append(f.journal, undoEntry{op: undoAssign, x: int8(c), v: int32(n), flags: flags, fp: fp0})
	}
	f.avail[n] |= 1 << uint(c)

	// Operands must reach c. Skip producers that are not placed yet (the
	// route is created when they are assigned).
	for _, v := range f.opSrc[f.opOff[n]:f.opOff[n+1]] {
		if f.avail[v] == 0 && f.assign[v] < 0 {
			continue
		}
		if err := f.Route(ValueID(v), c); err != nil {
			return err
		}
	}
	// n's value must reach already-assigned consumers.
	for _, u := range f.useDst[f.useOff[n]:f.useOff[n+1]] {
		if dst := f.assign[u]; dst >= 0 && ClusterID(dst) != c {
			if err := f.Route(ValueID(n), ClusterID(dst)); err != nil {
				return err
			}
		}
	}
	// ... and any output node that carries it (the carrier table replaces
	// a scan over every output node's value list; the bitset probe skips
	// the map for the vast majority of values no output node carries).
	if w := int(n) >> 6; w < len(f.T.carrierBits) && f.T.carrierBits[w]&(1<<(uint(n)&63)) != 0 {
		for _, o := range f.T.carrier[n] {
			if err := f.Route(n, o); err != nil {
				return err
			}
		}
	}
	return nil
}

// TryAssign clones f, assigns n to c on the clone, and returns the clone
// (or nil and the error). f is never modified.
func (f *Flow) TryAssign(n graph.NodeID, c ClusterID) (*Flow, error) {
	g := f.Clone()
	if err := g.Assign(n, c); err != nil {
		return nil, err
	}
	return g, nil
}

// Route makes value v available at cluster dst, materializing real arcs
// along a shortest feasible path from wherever v is already available. It
// is the built-in route allocator (§3, Figure 6b): paths may pass through
// intermediate regular clusters, which then pay a receive plus a re-send.
//
//hca:hotpath
func (f *Flow) Route(v ValueID, dst ClusterID) error {
	if f.avail[v] == 0 {
		return f.stateErr(errRouteUnavail, graph.NodeID(v), 0)
	}
	if f.Available(v, dst) {
		return nil
	}
	path := f.findPath(v, dst)
	if path == nil {
		return f.stateErr(errRouteNoPath, graph.NodeID(v), dst)
	}
	for i := 0; i+1 < len(path); i++ {
		f.addCopy(path[i], path[i+1], v)
	}
	return nil
}

// findPath BFSes from every cluster where v is available toward dst over
// usable arcs: already-real arcs are free; a new arc must respect the
// in-neighbor budget (MaxIn for regular clusters, 1 for output nodes) and
// the optional out-neighbor budget. Intermediate hops must be regular
// clusters. Returns nil if no path exists.
//
// The search runs on packed words: the visited set is one uint64, the
// frontier of each node is potMask[x] masked by not-yet-seen and
// regular-or-destination, and seeds come from avail[v] split into native
// and replica masks — so the only per-node state touched is the prev and
// depth entry of actually-enqueued clusters (no O(n) reset per call).
//
//hca:hotpath
func (f *Flow) findPath(v ValueID, dst ClusterID) []ClusterID {
	t := f.T
	// Seed with every cluster holding v, in ascending order within two
	// passes. Native sources (the producer's home cluster, or an input
	// node carrying v) come first so that equal-length routes prefer them
	// over replicas, which would pay a re-send. Output nodes never
	// forward and are never seeds.
	var nativeBit uint64
	if a := f.assign[v]; a >= 0 {
		nativeBit = 1 << uint(a)
	}
	pass0 := f.avail[v] & (t.inMask | (t.regMask & nativeBit))
	pass1 := f.avail[v] & t.regMask &^ nativeBit
	if f.maxHops == 1 {
		// Direct-pattern fast path (the first SEE phase, the bulk of all
		// Route calls): a depth-1 route is exactly "the first seed — in
		// the same two-pass ascending order the BFS would visit — with a
		// usable potential arc to dst", so the queue machinery below
		// never needs to run. dst is never a seed (Route returns before
		// findPath when v is already available there).
		db := uint64(1) << uint(dst)
		for m := pass0; m != 0; m &= m - 1 {
			c := ClusterID(bits.TrailingZeros64(m))
			if t.potMask[c]&db != 0 && f.arcUsable(c, dst) {
				f.bfsPath = append(f.bfsPath[:0], c, dst)
				return f.bfsPath
			}
		}
		for m := pass1; m != 0; m &= m - 1 {
			c := ClusterID(bits.TrailingZeros64(m))
			if t.potMask[c]&db != 0 && f.arcUsable(c, dst) {
				f.bfsPath = append(f.bfsPath[:0], c, dst)
				return f.bfsPath
			}
		}
		return nil
	}
	n := t.NumClusters()
	if cap(f.bfsPrev) < n {
		f.bfsPrev = make([]int8, n)
		f.bfsDepth = make([]int32, n)
		f.bfsQueue = make([]int8, 0, n)
	}
	prev, depth := f.bfsPrev[:n], f.bfsDepth[:n]
	seen := pass0 | pass1
	queue := f.bfsQueue[:0]
	for m := pass0; m != 0; m &= m - 1 {
		c := int8(bits.TrailingZeros64(m))
		prev[c], depth[c] = -1, 0
		queue = append(queue, c)
	}
	for m := pass1; m != 0; m &= m - 1 {
		c := int8(bits.TrailingZeros64(m))
		prev[c], depth[c] = -1, 0
		queue = append(queue, c)
	}
	dstBit := uint64(1) << uint(dst)
	allowed := t.regMask | dstBit
	path := f.bfsPath[:0]
	for head := 0; head < len(queue); head++ {
		x := ClusterID(queue[head])
		if x == dst {
			for c := x; ; c = ClusterID(prev[c]) {
				path = append(path, c)
				if prev[c] < 0 {
					break
				}
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			break
		}
		// Only regular clusters (and the starting nodes) forward.
		if prev[x] >= 0 && !t.isRegular(x) {
			continue
		}
		if f.maxHops > 0 && int(depth[x]) >= f.maxHops {
			continue
		}
		for m := t.potMask[x] &^ seen & allowed; m != 0; m &= m - 1 {
			y := ClusterID(bits.TrailingZeros64(m))
			if !f.arcUsable(x, y) {
				continue
			}
			seen |= 1 << uint(y)
			prev[y] = int8(x)
			depth[y] = depth[x] + 1
			queue = append(queue, int8(y))
		}
	}
	f.bfsQueue = queue[:0]
	f.bfsPath = path
	if len(path) == 0 {
		return nil
	}
	// The returned slice aliases f.bfsPath: valid until the next findPath
	// call on this flow, which is all Route needs.
	return path
}

// arcUsable reports whether the arc x→y is already real or can become
// real within the reconfiguration constraints.
//
//hca:hotpath
func (f *Flow) arcUsable(x, y ClusterID) bool {
	if f.inSrc[y]&(1<<uint(x)) != 0 {
		return true // already real
	}
	t := f.T
	yb := uint64(1) << uint(y)
	switch {
	case t.regMask&yb != 0:
		if bits.OnesCount64(f.inSrc[y]) >= t.MaxIn {
			return false
		}
	case t.outMask&yb != 0:
		if f.inSrc[y] != 0 {
			return false // outNode_MaxIn = 1
		}
	default:
		return false // input nodes receive nothing
	}
	if t.MaxOut > 0 && t.regMask&(1<<uint(x)) != 0 {
		if f.outDst[x]&yb == 0 && bits.OnesCount64(f.outDst[x]) >= t.MaxOut {
			return false
		}
	}
	return true
}

// addCopy records value v on the (possibly new) real arc x→y and updates
// the load accounting and the incremental objective caches. The
// duplicate check is one bit probe in the arc's value bitset, and the
// copy itself is one appended log record plus that bit.
//
//hca:hotpath
func (f *Flow) addCopy(x, y ClusterID, v ValueID) {
	key := int32(x)<<arcShift | int32(y)
	w := int(f.T.arcIdx[key])*f.vwords + int(v)>>6
	bit := uint64(1) << (uint(v) & 63)
	if f.arcHas[w]&bit != 0 {
		return
	}
	fp0 := f.fp
	var flags uint8
	if f.inSrc[y]&(1<<uint(x)) == 0 {
		flags |= fNewInSrc
	}
	if f.outDst[x]&(1<<uint(y)) == 0 {
		flags |= fNewOutDst
	}
	if f.avail[v]&(1<<uint(y)) == 0 {
		flags |= fNewAvail
	}
	if !f.carriesOut(x, v) {
		flags |= fDistinctInc
		f.cnt[int(x)*cntStride+cntDistinct]++
	}
	cx, cy := f.canonLabel(x), f.canonLabel(y)
	f.fpXor(fpFact(fkCopy, cx, cy, int64(v)))
	if flags&fNewInSrc != 0 {
		f.fpXor(fpFact(fkInSrc, cx, cy, 0))
	}
	if flags&fNewOutDst != 0 {
		f.fpXor(fpFact(fkOutDst, cx, cy, 0))
	}
	if flags&fNewAvail != 0 {
		f.fpXor(fpFact(fkAvail, cy, 0, int64(v)))
	}
	f.arcHas[w] |= bit
	f.copyLog = append(f.copyLog, copyRec{arc: key, v: int32(v)})
	f.inSrc[y] |= 1 << uint(x)
	f.outDst[x] |= 1 << uint(y)
	f.avail[v] |= 1 << uint(y)
	if f.T.isRegular(y) {
		f.cnt[int(y)*cntStride+cntRecv]++
		flags |= fRecvInc
	}
	// A regular cluster re-sending a value it does not produce pays an
	// extra move to expose it on an output wire.
	if f.T.isRegular(x) && ClusterID(f.assign[v]) != x {
		// Transition encoding: the re-send decision depends on the
		// assignment state at copy time, so the fingerprint folds the
		// counter's old→new level change rather than a set fact.
		s := f.cnt[int(x)*cntStride+cntSend]
		f.fpXor(fpFact(fkSend, cx, 0, int64(s)))
		f.cnt[int(x)*cntStride+cntSend] = s + 1
		f.fpXor(fpFact(fkSend, cx, 0, int64(s+1)))
		flags |= fSendInc
	}
	if f.journaling {
		f.journal = append(f.journal, undoEntry{op: undoCopy, x: int8(x), y: int8(y), v: int32(v), flags: flags, fp: fp0})
	}
}

// carriesOut reports whether some real arc leaving x already carries v:
// one bit probe per real out-neighbor.
//
//hca:hotpath
func (f *Flow) carriesOut(x ClusterID, v ValueID) bool {
	off, bit := int(v)>>6, uint64(1)<<(uint(v)&63)
	base := int32(x) << arcShift
	for m := f.outDst[x]; m != 0; m &= m - 1 {
		ai := f.T.arcIdx[base|int32(bits.TrailingZeros64(m))]
		if ai >= 0 && f.arcHas[int(ai)*f.vwords+off]&bit != 0 {
			return true
		}
	}
	return false
}

// MarkUbiquitous declares value v available at every regular cluster
// without communication. The HCA driver uses this for rematerializable
// values — constants and induction values, which every cluster can
// produce locally (constants are preloaded into register files during the
// reconfiguration phase; induction variables are duplicated per cluster,
// the standard clustered-VLIW transformation) — so they never consume
// wires or receive slots.
func (f *Flow) MarkUbiquitous(v ValueID) {
	if added := f.allRegMask &^ f.avail[v]; added != 0 {
		fp0 := f.fp
		f.fpUbiq(v, added)
		if f.journaling {
			f.journal = append(f.journal, undoEntry{op: undoUbiquitous, v: int32(v), mask: added, fp: fp0})
		}
	}
	f.avail[v] |= f.allRegMask
}

// ReserveArc pre-commits the potential arc x→y as a real communication
// pattern before any value is routed over it, consuming the endpoint port
// budgets immediately. The HCA driver uses this to seed a forwarding ring
// on port-starved levels: with every cluster already listening to one
// neighbor, any value can travel multi-hop regardless of how the search
// commits the remaining ports. A reserved arc that never carries a value
// simply stays unconfigured (it produces no wire in the mapping).
func (f *Flow) ReserveArc(x, y ClusterID) error {
	f.T.mustHave(x)
	f.T.mustHave(y)
	if !f.T.Potential(x, y) {
		return fmt.Errorf("pg: ReserveArc: no potential arc %d→%d", x, y)
	}
	if !f.arcUsable(x, y) {
		return fmt.Errorf("pg: ReserveArc: arc %d→%d would violate port budgets", x, y)
	}
	var flags uint8
	if f.inSrc[y]&(1<<uint(x)) == 0 {
		flags |= fNewInSrc
	}
	if f.outDst[x]&(1<<uint(y)) == 0 {
		flags |= fNewOutDst
	}
	fp0 := f.fp
	cx, cy := f.canonLabel(x), f.canonLabel(y)
	if flags&fNewInSrc != 0 {
		f.fpXor(fpFact(fkInSrc, cx, cy, 0))
	}
	if flags&fNewOutDst != 0 {
		f.fpXor(fpFact(fkOutDst, cx, cy, 0))
	}
	if f.journaling {
		f.journal = append(f.journal, undoEntry{op: undoReserve, x: int8(x), y: int8(y), flags: flags, fp: fp0})
	}
	f.inSrc[y] |= 1 << uint(x)
	f.outDst[x] |= 1 << uint(y)
	return nil
}

// TotalCopies returns the number of (arc, value) copy pairs: the length
// of the copy log.
//
//hca:hotpath
func (f *Flow) TotalCopies() int { return len(f.copyLog) }

// EstimateMII returns the §4.2 cost: the maximum of the static recurrence
// bound, each cluster's compute bound ceil(load/issueSlots), and each
// cluster's wire-pressure bounds (values in per input wire, distinct
// values out per output wire).
//
//hca:hotpath
func (f *Flow) EstimateMII() int {
	mii, _, _, _ := f.ObjectiveTerms()
	return mii
}

// ObjectiveTerms computes the standard cost-model terms in one pass over
// the packed per-cluster counter blocks: the §4.2 MII estimate, the
// total copy count, the maximum regular-cluster load (the balance term)
// and the summed real in-neighbor ports. The SEE's fused scoring path
// reads all four from this single sweep instead of running one closure
// per criterion.
//
//hca:hotpath
func (f *Flow) ObjectiveTerms() (mii, copies, balance, ports int) {
	t := f.T
	mii = f.MIIRecStatic
	if mii < 1 {
		mii = 1
	}
	inWires := t.MaxIn
	outWires := t.MaxOut
	if outWires <= 0 {
		outWires = inWires // symmetric wire counts on DSPFabric
	}
	for c := 0; c < t.regular; c++ {
		base := c * cntStride
		load := int(f.cnt[base+cntInstr] + f.cnt[base+cntRecv] + f.cnt[base+cntSend])
		if load > balance {
			balance = load
		}
		ports += bits.OnesCount64(f.inSrc[c])
		if m := ceilDiv(load, int(t.issue[c])); m > mii {
			mii = m
		}
		if ms := int(t.mem[c]); ms > 0 {
			if m := ceilDiv(int(f.cnt[base+cntMem]), ms); m > mii {
				mii = m
			}
		}
		if m := ceilDiv(int(f.cnt[base+cntRecv]), inWires); m > mii {
			mii = m
		}
		if m := ceilDiv(int(f.cnt[base+cntDistinct]), outWires); m > mii {
			mii = m
		}
	}
	return mii, len(f.copyLog), balance, ports
}

// distinctValuesOut reads the incrementally maintained count of distinct
// values leaving c over real arcs.
func (f *Flow) distinctValuesOut(c ClusterID) int { return int(f.cnt[int(c)*cntStride+cntDistinct]) }

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Verify re-checks every invariant of a finished or partial flow: the
// copy log and the per-arc bitsets agree, every copy travels a potential
// arc, in/out-neighbor budgets hold, output nodes have at most one
// in-arc, the counter caches match a recount, and every assigned
// instruction's placed operands are available at its cluster. It is the
// per-level half of the paper's coherency checker.
func (f *Flow) Verify() error {
	distinct := make(map[ClusterID]map[ValueID]bool)
	seen := make(map[int64]bool, len(f.copyLog))
	for _, r := range f.copyLog {
		x, y := ClusterID(r.arc>>arcShift), ClusterID(r.arc&(MaxClusters-1))
		if !f.T.Potential(x, y) {
			return fmt.Errorf("pg: real arc %d→%d has no potential arc", x, y)
		}
		pv := int64(r.arc)<<32 | int64(r.v)
		if seen[pv] {
			return fmt.Errorf("pg: duplicate copy of value %d on arc %d→%d", r.v, x, y)
		}
		seen[pv] = true
		ai := f.T.arcIdx[r.arc]
		if ai < 0 || f.arcHas[int(ai)*f.vwords+int(r.v)>>6]&(1<<(uint(r.v)&63)) == 0 {
			return fmt.Errorf("pg: copy of value %d on arc %d→%d missing from the arc bitset", r.v, x, y)
		}
		if distinct[x] == nil {
			distinct[x] = make(map[ValueID]bool)
		}
		distinct[x][ValueID(r.v)] = true
	}
	// The arc bitsets must contain exactly the logged copies.
	pop := 0
	for _, w := range f.arcHas {
		pop += bits.OnesCount64(w)
	}
	if pop != len(f.copyLog) {
		return fmt.Errorf("pg: arc bitsets hold %d copies, copy log %d", pop, len(f.copyLog))
	}
	for c := 0; c < f.T.NumClusters(); c++ {
		if got, want := f.distinctValuesOut(ClusterID(c)), len(distinct[ClusterID(c)]); got != want {
			return fmt.Errorf("pg: distinctOut[%d] cache %d != recount %d", c, got, want)
		}
	}
	// Canonical-label bookkeeping behind the incremental fingerprint:
	// assigned labels must form a bijection onto [0, canonN).
	if f.canonSym {
		seen := make([]bool, f.canonN)
		n := 0
		for _, l := range f.canon {
			if l == None {
				continue
			}
			if int(l) >= f.canonN || seen[l] {
				return fmt.Errorf("pg: canonical label %d out of range or duplicated (canonN %d)", l, f.canonN)
			}
			seen[l] = true
			n++
		}
		if n != f.canonN {
			return fmt.Errorf("pg: canonN %d != %d assigned canonical labels", f.canonN, n)
		}
	}
	for c := 0; c < f.T.NumClusters(); c++ {
		id := ClusterID(c)
		switch f.T.Cluster(id).Kind {
		case Regular:
			if got := bits.OnesCount64(f.inSrc[c]); got > f.T.MaxIn {
				return fmt.Errorf("pg: cluster %d has %d in-neighbors > MaxIn %d", c, got, f.T.MaxIn)
			}
			if f.T.MaxOut > 0 {
				if got := bits.OnesCount64(f.outDst[c]); got > f.T.MaxOut {
					return fmt.Errorf("pg: cluster %d has %d out-neighbors > MaxOut %d", c, got, f.T.MaxOut)
				}
			}
		case OutNode:
			if got := bits.OnesCount64(f.inSrc[c]); got > 1 {
				return fmt.Errorf("pg: output node %d has %d in-arcs (outNode_MaxIn)", c, got)
			}
		case InNode:
			if f.inSrc[c] != 0 {
				return fmt.Errorf("pg: input node %d has in-arcs", c)
			}
		}
	}
	var err error
	for n := 0; n < f.D.Len() && err == nil; n++ {
		c := ClusterID(f.assign[n])
		if c == None {
			continue
		}
		f.D.G.In(graph.NodeID(n), func(e graph.Edge) {
			if err != nil {
				return
			}
			if f.assign[e.From] < 0 && f.avail[e.From] == 0 {
				return
			}
			if !f.Available(e.From, c) {
				err = fmt.Errorf("pg: operand %d of instruction %d not available at cluster %d", e.From, n, c)
			}
		})
	}
	if err != nil {
		return err
	}
	// Output nodes must have received all their carried values once any
	// carrier is assigned.
	for _, o := range f.T.OutputNodes() {
		for _, v := range f.T.Cluster(o).Carries {
			if f.assign[v] >= 0 && !f.Available(v, o) {
				return fmt.Errorf("pg: output node %d missing carried value %d", o, v)
			}
		}
	}
	return nil
}
