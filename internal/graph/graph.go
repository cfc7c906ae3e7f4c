// Package graph provides the directed-multigraph substrate used by every
// other package in this repository: the Data Dependency Graph (DDG), the
// Pattern Graph (PG) and the wire-level machine model are all built on it.
//
// No canonical graph library exists in the Go standard library, so the
// package implements from scratch the handful of classic algorithms the
// paper's compilation flow needs: Tarjan strongly-connected components,
// topological sorting, longest paths on DAGs, the maximum cycle ratio
// behind MIIRec (a binary search with a Bellman-Ford positive-cycle oracle,
// run per strongly connected component) and reachability.
//
// Nodes are dense integer IDs handed out by the graph; callers attach their
// own payloads by indexing parallel slices with the node ID. Edges carry two
// integer weights (Weight, Distance) because every client of this package —
// dependence latencies with loop-carried distances, copy counts on pattern
// arcs — needs exactly that pair.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node inside one Directed graph. IDs are dense,
// starting at 0, and are never reused even after RemoveEdge calls.
type NodeID int

// EdgeID identifies an edge inside one Directed graph.
type EdgeID int

// Edge is a directed connection between two nodes with two integer
// annotations. Weight is the "gain" of the edge (dependence latency, copy
// count, ...) and Distance its "cost" (loop-carried iteration distance,
// hop count, ...). Both default to zero.
type Edge struct {
	ID       EdgeID
	From, To NodeID
	Weight   int
	Distance int
	// Removed edges stay in the edge table so EdgeIDs remain stable; they
	// are skipped by all traversals.
	removed bool
}

// Directed is a mutable directed multigraph. The zero value is an empty
// graph ready to use.
type Directed struct {
	edges []Edge
	out   [][]EdgeID // per-node outgoing edge IDs
	in    [][]EdgeID // per-node incoming edge IDs
}

// New returns an empty directed graph with capacity hints for n nodes and
// m edges.
func New(n, m int) *Directed {
	g := &Directed{
		edges: make([]Edge, 0, m),
		out:   make([][]EdgeID, 0, n),
		in:    make([][]EdgeID, 0, n),
	}
	return g
}

// Clone returns a deep copy of g.
func (g *Directed) Clone() *Directed {
	c := &Directed{
		edges: append([]Edge(nil), g.edges...),
		out:   make([][]EdgeID, len(g.out)),
		in:    make([][]EdgeID, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	return c
}

// AddNode creates a new node and returns its ID.
func (g *Directed) AddNode() NodeID {
	id := NodeID(len(g.out))
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddNodes creates n new nodes and returns the ID of the first one.
func (g *Directed) AddNodes(n int) NodeID {
	first := NodeID(len(g.out))
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return first
}

// NumNodes returns the number of nodes ever created.
func (g *Directed) NumNodes() int { return len(g.out) }

// NumEdges returns the number of live (non-removed) edges.
func (g *Directed) NumEdges() int {
	n := 0
	for i := range g.edges {
		if !g.edges[i].removed {
			n++
		}
	}
	return n
}

// AddEdge inserts a directed edge from u to v with the given weight and
// distance and returns its ID. Parallel edges and self-loops are allowed
// (a self-loop with Distance > 0 is a legitimate loop-carried dependence).
func (g *Directed) AddEdge(u, v NodeID, weight, distance int) EdgeID {
	g.mustHave(u)
	g.mustHave(v)
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: u, To: v, Weight: weight, Distance: distance})
	g.out[u] = append(g.out[u], id)
	g.in[v] = append(g.in[v], id)
	return id
}

// RemoveEdge marks the edge as removed. The EdgeID stays valid but the edge
// no longer participates in any traversal. Removing twice is a no-op.
func (g *Directed) RemoveEdge(id EdgeID) {
	if int(id) < 0 || int(id) >= len(g.edges) {
		panic(fmt.Sprintf("graph: RemoveEdge: bad edge id %d", id))
	}
	g.edges[id].removed = true
}

// Edge returns the edge with the given ID. The returned copy reflects the
// stored weights; mutate via SetWeight / SetDistance.
func (g *Directed) Edge(id EdgeID) Edge {
	if int(id) < 0 || int(id) >= len(g.edges) {
		panic(fmt.Sprintf("graph: Edge: bad edge id %d", id))
	}
	return g.edges[id]
}

// EdgeRemoved reports whether the edge has been removed.
func (g *Directed) EdgeRemoved(id EdgeID) bool { return g.edges[id].removed }

// SetWeight updates the weight annotation of an edge.
func (g *Directed) SetWeight(id EdgeID, w int) { g.edges[id].Weight = w }

// SetDistance updates the distance annotation of an edge.
func (g *Directed) SetDistance(id EdgeID, d int) { g.edges[id].Distance = d }

// Out calls fn for every live outgoing edge of u.
func (g *Directed) Out(u NodeID, fn func(Edge)) {
	g.mustHave(u)
	for _, id := range g.out[u] {
		if e := g.edges[id]; !e.removed {
			fn(e)
		}
	}
}

// In calls fn for every live incoming edge of v.
func (g *Directed) In(v NodeID, fn func(Edge)) {
	g.mustHave(v)
	for _, id := range g.in[v] {
		if e := g.edges[id]; !e.removed {
			fn(e)
		}
	}
}

// OutDegree returns the number of live outgoing edges of u.
func (g *Directed) OutDegree(u NodeID) int {
	n := 0
	g.Out(u, func(Edge) { n++ })
	return n
}

// InDegree returns the number of live incoming edges of v.
func (g *Directed) InDegree(v NodeID) int {
	n := 0
	g.In(v, func(Edge) { n++ })
	return n
}

// Successors returns the distinct successor nodes of u in ascending order.
func (g *Directed) Successors(u NodeID) []NodeID {
	seen := map[NodeID]bool{}
	g.Out(u, func(e Edge) { seen[e.To] = true })
	return sortedKeys(seen)
}

// Predecessors returns the distinct predecessor nodes of v in ascending order.
func (g *Directed) Predecessors(v NodeID) []NodeID {
	seen := map[NodeID]bool{}
	g.In(v, func(e Edge) { seen[e.From] = true })
	return sortedKeys(seen)
}

// HasEdge reports whether at least one live edge u→v exists.
func (g *Directed) HasEdge(u, v NodeID) bool {
	found := false
	g.Out(u, func(e Edge) {
		if e.To == v {
			found = true
		}
	})
	return found
}

// Edges calls fn for every live edge, in insertion order.
func (g *Directed) Edges(fn func(Edge)) {
	for i := range g.edges {
		if e := g.edges[i]; !e.removed {
			fn(e)
		}
	}
}

func (g *Directed) mustHave(u NodeID) {
	if int(u) < 0 || int(u) >= len(g.out) {
		panic(fmt.Sprintf("graph: bad node id %d (graph has %d nodes)", u, len(g.out)))
	}
}

func sortedKeys(m map[NodeID]bool) []NodeID {
	ks := make([]NodeID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
