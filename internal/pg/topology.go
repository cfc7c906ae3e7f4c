// Package pg implements the Pattern Graph of §3: the abstraction of one
// level of the machine's interconnection hierarchy that the Space
// Exploration Engine assigns DDG instructions onto.
//
// A Topology holds the clusters of the level (each embracing a set of
// computation nodes summarized by an issue-slot count), the *potential*
// communication arcs between them, and the reconfiguration constraints —
// the maximum number of input/output neighbors per cluster (the MUX
// capacities) and the unary fan-in of output wires (outNode_MaxIn, §4.1).
//
// Special *input nodes* and *output nodes* (one per inter-level wire, as
// prescribed by the Inter Level Interface) carry the value lists flowing
// between a subproblem and its father.
//
// A Flow is the mutable assignment-and-copy state layered over a Topology:
// which DDG node lives on which cluster, which arcs have become *real*
// patterns and which values they carry. Flows clone cheaply, which is what
// the SEE beam search needs.
package pg

import (
	"fmt"

	"repro/internal/graph"
)

// ValueID names a value flowing between clusters: the DDG node that
// produces it.
type ValueID = graph.NodeID

// ClusterID indexes a cluster within one Topology.
type ClusterID int

// None marks an unassigned instruction or an absent cluster.
const None ClusterID = -1

// Kind distinguishes regular clusters from the ILI's special nodes.
type Kind int

const (
	// Regular clusters embrace computation nodes and can host instructions.
	Regular Kind = iota
	// InNode represents one wire entering the level from the father; it
	// carries a fixed value list and can broadcast to every cluster.
	InNode
	// OutNode represents one wire leaving the level toward the father; it
	// must receive its carried values through exactly one real arc
	// (outNode_MaxIn = 1).
	OutNode
)

func (k Kind) String() string {
	switch k {
	case Regular:
		return "cluster"
	case InNode:
		return "in"
	case OutNode:
		return "out"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Cluster is one node of the Pattern Graph.
type Cluster struct {
	ID         ClusterID
	Kind       Kind
	IssueSlots int // computation nodes embraced (resource table)
	// MemSlots is the number of embraced CNs able to issue memory
	// instructions; 0 makes the cluster ineligible for loads/stores
	// (§2.1's heterogeneous RCP). NewTopology defaults it to IssueSlots.
	MemSlots int
	// Carries lists the values on this wire: arriving values for an
	// InNode, departing values for an OutNode. Empty for Regular.
	Carries []ValueID
}

// arcShift packs an ordered cluster pair into one arc key:
// key = from<<arcShift | to. Valid because MaxClusters = 1<<arcShift.
const arcShift = 6

// Topology is the immutable part of a Pattern Graph: clusters, potential
// arcs and constraints. The mutators below incrementally maintain a set
// of derived caches — flat bitmasks and index tables — that the Flow hot
// path (Assign/Route/EstimateMII) reads instead of walking the cluster
// records, so a topology is cheap to *use* no matter how it was built.
type Topology struct {
	Name string
	// MaxIn bounds the number of distinct in-neighbors of a regular
	// cluster (the MUX capacity at this level). MaxOut bounds distinct
	// out-neighbors; 0 means unlimited (broadcast, §2.2).
	MaxIn, MaxOut int

	clusters  []Cluster
	potential [][]bool // potential[from][to]
	regular   int      // number of regular clusters (prefix of clusters)

	// Derived caches (hot-path views of the state above).
	potMask []uint64 // potMask[from]: bitmask of potential out-neighbors
	regMask uint64   // bitmask of regular clusters
	inMask  uint64   // bitmask of input nodes
	outMask uint64   // bitmask of output nodes
	issue   []int32  // per cluster: IssueSlots (0 for special nodes)
	mem     []int32  // per cluster: MemSlots (0 for special nodes)
	inList  []ClusterID
	outList []ClusterID
	// arcIdx maps a packed (from<<arcShift|to) pair to a dense arc index
	// in [0, numArcs), or -1 while the pair has never been a potential
	// arc. Indices are handed out once and never revoked (a removed
	// potential arc keeps its slot; it just can never carry a copy), so
	// Flow bitset rows stay valid across SetPotential churn.
	arcIdx  []int32
	numArcs int
	// carrier maps a value to the output nodes that must carry it, in
	// ascending node order — the table Assign walks instead of scanning
	// every output node's Carries list per placed instruction.
	// carrierBits is its membership bitset (word v>>6, bit v&63): most
	// values are carried by no output node, so Assign probes one bit
	// before paying for the map lookup.
	carrier     map[ValueID][]ClusterID
	carrierBits []uint64
}

// NewTopology creates a pattern graph with n regular clusters of the given
// issue width and no potential arcs; add them with SetPotential or
// AllToAll.
func NewTopology(name string, n, issueSlots, maxIn, maxOut int) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("pg: NewTopology: need >= 1 cluster, have %d", n))
	}
	if n > MaxClusters {
		panic(fmt.Sprintf("pg: NewTopology: %d clusters exceeds the %d-cluster limit", n, MaxClusters))
	}
	if issueSlots < 1 {
		panic("pg: NewTopology: issueSlots must be positive")
	}
	if maxIn < 1 {
		panic("pg: NewTopology: maxIn must be positive")
	}
	t := &Topology{
		Name: name, MaxIn: maxIn, MaxOut: maxOut, regular: n,
		potMask: make([]uint64, MaxClusters),
		carrier: make(map[ValueID][]ClusterID),
	}
	for i := 0; i < n; i++ {
		t.clusters = append(t.clusters, Cluster{ID: ClusterID(i), Kind: Regular, IssueSlots: issueSlots, MemSlots: issueSlots})
		t.issue = append(t.issue, int32(issueSlots))
		t.mem = append(t.mem, int32(issueSlots))
		t.regMask |= 1 << uint(i)
	}
	t.potential = make([][]bool, n)
	for i := range t.potential {
		t.potential[i] = make([]bool, n)
	}
	return t
}

// addArc records the potential arc from→to in the derived caches,
// assigning a dense arc index on first sight.
func (t *Topology) addArc(from, to ClusterID) {
	t.potMask[from] |= 1 << uint(to)
	key := int32(from)<<arcShift | int32(to)
	// arcIdx tracks the highest source cluster seen rather than being
	// sized for MaxClusters up front: a topology of n clusters needs
	// n<<arcShift entries, a fraction of the 64<<arcShift worst case.
	for int(key) >= len(t.arcIdx) {
		t.arcIdx = append(t.arcIdx, -1)
	}
	if t.arcIdx[key] < 0 {
		t.arcIdx[key] = int32(t.numArcs)
		t.numArcs++
	}
}

// AllToAll adds potential arcs between every ordered pair of distinct
// regular clusters (the DSPFabric view: MUXes make each cluster reachable
// from all the others, Figure 7).
func (t *Topology) AllToAll() {
	for i := 0; i < t.regular; i++ {
		for j := 0; j < t.regular; j++ {
			if i != j {
				t.potential[i][j] = true
				t.addArc(ClusterID(i), ClusterID(j))
			}
		}
	}
}

// SetPotential declares or removes the potential arc from→to.
func (t *Topology) SetPotential(from, to ClusterID, ok bool) {
	if from == to {
		panic("pg: SetPotential: self arc")
	}
	t.mustRegular(from)
	t.mustRegular(to)
	t.potential[from][to] = ok
	if ok {
		t.addArc(from, to)
	} else {
		t.potMask[from] &^= 1 << uint(to)
	}
}

// AddInputNode appends a special input node carrying the given values and
// returns its ID. Input nodes have potential arcs to every regular
// cluster (ingoing values can be broadcast anywhere, §4.1).
func (t *Topology) AddInputNode(carries []ValueID) ClusterID {
	id := t.addSpecial(InNode, carries)
	t.inMask |= 1 << uint(id)
	t.inList = append(t.inList, id)
	for i := 0; i < t.regular; i++ {
		t.potential[id][i] = true
		t.addArc(id, ClusterID(i))
	}
	return id
}

// AddOutputNode appends a special output node that must receive the given
// values, and returns its ID. Every regular cluster has a potential arc to
// it, but only one may become real (outNode_MaxIn).
func (t *Topology) AddOutputNode(carries []ValueID) ClusterID {
	id := t.addSpecial(OutNode, carries)
	t.outMask |= 1 << uint(id)
	t.outList = append(t.outList, id)
	for i := 0; i < t.regular; i++ {
		t.potential[i][id] = true
		t.addArc(ClusterID(i), id)
	}
	for _, v := range carries {
		t.carrier[v] = append(t.carrier[v], id)
		if w := int(v) >> 6; w >= len(t.carrierBits) {
			t.carrierBits = append(t.carrierBits, make([]uint64, w+1-len(t.carrierBits))...)
		}
		t.carrierBits[v>>6] |= 1 << (uint(v) & 63)
	}
	return id
}

func (t *Topology) addSpecial(k Kind, carries []ValueID) ClusterID {
	if len(t.clusters) >= MaxClusters {
		panic(fmt.Sprintf("pg: topology %q exceeds the %d-cluster limit", t.Name, MaxClusters))
	}
	id := ClusterID(len(t.clusters))
	t.clusters = append(t.clusters, Cluster{
		ID: id, Kind: k, Carries: append([]ValueID(nil), carries...),
	})
	t.issue = append(t.issue, 0)
	t.mem = append(t.mem, 0)
	t.growPotential()
	return id
}

func (t *Topology) growPotential() {
	n := len(t.clusters)
	for i := range t.potential {
		for len(t.potential[i]) < n {
			t.potential[i] = append(t.potential[i], false)
		}
	}
	for len(t.potential) < n {
		t.potential = append(t.potential, make([]bool, n))
	}
}

// SetMemSlots sets the number of memory-capable CNs inside a regular
// cluster (0 disallows loads/stores entirely).
func (t *Topology) SetMemSlots(id ClusterID, n int) {
	t.mustRegular(id)
	if n < 0 || n > t.clusters[id].IssueSlots {
		panic(fmt.Sprintf("pg: SetMemSlots: %d out of range [0,%d]", n, t.clusters[id].IssueSlots))
	}
	t.clusters[id].MemSlots = n
	t.mem[id] = int32(n)
}

// NumClusters returns the total cluster count including special nodes.
func (t *Topology) NumClusters() int { return len(t.clusters) }

// NumRegular returns the number of regular clusters.
func (t *Topology) NumRegular() int { return t.regular }

// Cluster returns the cluster record.
func (t *Topology) Cluster(id ClusterID) *Cluster {
	t.mustHave(id)
	return &t.clusters[id]
}

// Potential reports whether a potential arc from→to exists.
func (t *Topology) Potential(from, to ClusterID) bool {
	t.mustHave(from)
	t.mustHave(to)
	return t.potential[from][to]
}

// InputNodes returns the IDs of all input nodes, ascending. The slice is
// a maintained cache; callers must not mutate it.
func (t *Topology) InputNodes() []ClusterID { return t.inList }

// OutputNodes returns the IDs of all output nodes, ascending. The slice
// is a maintained cache; callers must not mutate it.
func (t *Topology) OutputNodes() []ClusterID { return t.outList }

// isRegular is the bitmask form of Cluster(id).Kind == Regular.
//
//hca:hotpath
func (t *Topology) isRegular(id ClusterID) bool { return t.regMask&(1<<uint(id)) != 0 }

func (t *Topology) mustHave(id ClusterID) {
	if int(id) < 0 || int(id) >= len(t.clusters) {
		panic(fmt.Sprintf("pg: bad cluster id %d", id))
	}
}

func (t *Topology) mustRegular(id ClusterID) {
	t.mustHave(id)
	if t.clusters[id].Kind != Regular {
		panic(fmt.Sprintf("pg: cluster %d is not regular", id))
	}
}
