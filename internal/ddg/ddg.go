// Package ddg models the Data Dependency Graph that the HCA compilation
// flow consumes: the loop body of a multimedia kernel, expressed as
// operations connected by true data dependences annotated with latencies
// and loop-carried iteration distances.
//
// Beyond the plain graph structure the package provides the two halves of
// the paper's cost model (§4.2):
//
//   - MIIRec, the recurrence-constrained minimum initiation interval
//     (maximum over dependence cycles of ceil(latency/distance), Rau '94),
//     computed per strongly connected component by binary search with a
//     Bellman-Ford positive-cycle oracle;
//   - MIIRes, the resource-constrained minimum initiation interval; on the
//     64-CN DSPFabric the binding class is the 8-port DMA shared by all
//     memory operations.
//
// A small sequential interpreter executes the DDG for n loop iterations
// against a Memory; the simulator's end-to-end checks and the kernel
// builders' scalar-reference tests both rely on it.
package ddg

import (
	"fmt"

	"repro/internal/graph"
)

// Op enumerates the operations a computation node of the target fabric can
// execute. The set covers what the four paper kernels need (multiply-
// accumulate FIR arithmetic, IDCT butterflies, interpolation averaging,
// deblocking clips/selects) plus the COPY/RECV primitives inserted by the
// post-processing pass.
type Op int

const (
	OpInvalid Op = iota
	OpConst      // immediate value (Imm)
	OpIV         // induction value: Imm + Step*iteration
	OpAdd
	OpSub
	OpMul
	OpShl
	OpShr // arithmetic shift right
	OpAnd
	OpOr
	OpXor
	OpMin
	OpMax
	OpAbs
	OpNeg
	OpNot
	OpMov
	OpCmpLT // (a < b) ? 1 : 0
	OpCmpGT
	OpCmpEQ
	OpSelect // inputs (cond, a, b): cond != 0 ? a : b
	OpClip   // inputs (x, lo, hi): min(max(x, lo), hi)
	OpLoad   // input (addr); issues a DMA request
	OpStore  // inputs (addr, val); issues a DMA request
	OpRecv   // inter-cluster receive; input (value); inserted post-HCA
	numOps
)

var opNames = [...]string{
	OpInvalid: "invalid", OpConst: "const", OpIV: "iv",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpShl: "shl", OpShr: "shr",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpMin: "min", OpMax: "max",
	OpAbs: "abs", OpNeg: "neg", OpNot: "not", OpMov: "mov",
	OpCmpLT: "cmplt", OpCmpGT: "cmpgt", OpCmpEQ: "cmpeq",
	OpSelect: "select", OpClip: "clip", OpLoad: "load", OpStore: "store",
	OpRecv: "recv",
}

func (o Op) String() string {
	if o <= OpInvalid || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Arity returns the number of input operands the op consumes.
func (o Op) Arity() int {
	switch o {
	case OpConst, OpIV:
		return 0
	case OpAbs, OpNeg, OpNot, OpMov, OpLoad, OpRecv:
		return 1
	case OpAdd, OpSub, OpMul, OpShl, OpShr, OpAnd, OpOr, OpXor,
		OpMin, OpMax, OpCmpLT, OpCmpGT, OpCmpEQ, OpStore:
		return 2
	case OpSelect, OpClip:
		return 3
	default:
		return -1
	}
}

// IsMem reports whether the op issues a DMA memory request.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// DefaultLatency returns the issue-to-use latency of the op on a DSPFabric
// computation node: single-cycle ALU, two-cycle pipelined multiplier,
// two-cycle DMA round trip for loads (the FIFOs mask the rest), immediate
// materialization in one cycle.
func (o Op) DefaultLatency() int {
	switch o {
	case OpMul:
		return 2
	case OpLoad:
		return 2
	case OpConst, OpIV:
		return 1
	default:
		return 1
	}
}

// Node is one instruction of the loop body.
type Node struct {
	ID      graph.NodeID
	Op      Op
	Name    string // optional human label for reports and DOT dumps
	Latency int    // result latency in cycles
	Imm     int64  // OpConst value / OpIV base
	Step    int64  // OpIV per-iteration increment
	Init    int64  // value observed by consumers reading iterations < 0
	// HasImm2 marks an instruction whose last operand is an immediate
	// encoded in the instruction word (addi/shli/cmplti/... forms), so it
	// is not fed by a dependence edge. Imm2 holds the value.
	HasImm2 bool
	Imm2    int64
}

// EffArity returns the number of operand ports fed by dependence edges:
// the op arity minus one when the last operand is an encoded immediate.
func (n *Node) EffArity() int {
	ar := n.Op.Arity()
	if n.HasImm2 && ar > 0 {
		return ar - 1
	}
	return ar
}

// DDG is a loop-body data dependency graph. Create one with New and
// populate it with AddOp/AddDep; most callers get theirs from
// internal/kernels.
type DDG struct {
	Name  string
	G     *graph.Directed
	Nodes []Node
	// port[e] is the operand position (0-based) edge e feeds at its
	// consumer. Indexed by graph.EdgeID (dense).
	port []int
}

// New returns an empty DDG with the given name.
func New(name string) *DDG {
	return &DDG{Name: name, G: graph.New(0, 0)}
}

// AddOp appends an instruction with the op's default latency and returns
// its node ID.
func (d *DDG) AddOp(op Op, name string) graph.NodeID {
	return d.AddOpLatency(op, name, op.DefaultLatency())
}

// AddOpLatency appends an instruction with an explicit latency.
func (d *DDG) AddOpLatency(op Op, name string, latency int) graph.NodeID {
	id := d.G.AddNode()
	d.Nodes = append(d.Nodes, Node{ID: id, Op: op, Name: name, Latency: latency})
	return id
}

// AddConst appends an immediate-producing instruction.
func (d *DDG) AddConst(v int64, name string) graph.NodeID {
	id := d.AddOp(OpConst, name)
	d.Nodes[id].Imm = v
	return id
}

// AddIV appends an induction value base + step*iteration.
func (d *DDG) AddIV(base, step int64, name string) graph.NodeID {
	id := d.AddOp(OpIV, name)
	d.Nodes[id].Imm = base
	d.Nodes[id].Step = step
	return id
}

// AddOpImm appends an instruction whose last operand is the immediate imm
// (e.g. AddOpImm(OpAdd, "p1", 1) is an addi). The remaining operands are
// connected with AddDep as usual.
func (d *DDG) AddOpImm(op Op, name string, imm int64) graph.NodeID {
	id := d.AddOp(op, name)
	d.Nodes[id].HasImm2 = true
	d.Nodes[id].Imm2 = imm
	return id
}

// SetInit sets the value consumers observe when a loop-carried dependence
// reads an iteration before the first one (e.g. an accumulator's initial
// value).
func (d *DDG) SetInit(n graph.NodeID, v int64) { d.Nodes[n].Init = v }

// AddDep adds a true data dependence from producer u to operand port of
// consumer v with loop-carried distance dist. The edge weight is the
// producer's latency, which is what both MIIRec and the schedulers consume.
func (d *DDG) AddDep(u, v graph.NodeID, port, dist int) graph.EdgeID {
	e := d.G.AddEdge(u, v, d.Nodes[u].Latency, dist)
	for len(d.port) <= int(e) {
		d.port = append(d.port, 0)
	}
	d.port[e] = port
	return e
}

// Port returns the operand position edge e feeds.
func (d *DDG) Port(e graph.EdgeID) int {
	if int(e) < len(d.port) {
		return d.port[e]
	}
	return 0
}

// Node returns the instruction record for id.
func (d *DDG) Node(id graph.NodeID) *Node { return &d.Nodes[id] }

// Len returns the number of instructions.
func (d *DDG) Len() int { return len(d.Nodes) }

// Stats summarizes a DDG for reports and for the resource MII.
type Stats struct {
	Instr   int // total instructions
	MemOps  int // loads + stores
	Muls    int
	Consts  int
	Recurr  int // loop-carried edges
	Edges   int // total dependences
	CritLen int // critical path length over intra-iteration edges
}

// Stats computes summary statistics. It panics if the intra-iteration
// subgraph is cyclic; run Validate first for a friendly error.
func (d *DDG) Stats() Stats {
	s := Stats{Instr: len(d.Nodes)}
	for i := range d.Nodes {
		switch d.Nodes[i].Op {
		case OpLoad, OpStore:
			s.MemOps++
		case OpMul:
			s.Muls++
		case OpConst, OpIV:
			s.Consts++
		}
	}
	d.G.Edges(func(e graph.Edge) {
		s.Edges++
		if e.Distance > 0 {
			s.Recurr++
		}
	})
	cp, err := d.G.CriticalPathLength()
	if err != nil {
		panic(fmt.Sprintf("ddg %q: %v", d.Name, err))
	}
	s.CritLen = cp
	return s
}

// Clone returns a deep copy of the DDG.
func (d *DDG) Clone() *DDG {
	return &DDG{
		Name:  d.Name,
		G:     d.G.Clone(),
		Nodes: append([]Node(nil), d.Nodes...),
		port:  append([]int(nil), d.port...),
	}
}
