package graph

import (
	"fmt"
	"sort"
)

// TopoSort returns the nodes of g in a topological order, considering only
// edges with Distance == 0 (intra-iteration dependences). Loop-carried
// edges (Distance > 0) are ignored, which is exactly the DAG view a modulo
// scheduler and the SEE priority list need. It returns an error if the
// distance-0 subgraph contains a cycle.
func (g *Directed) TopoSort() ([]NodeID, error) {
	n := g.NumNodes()
	indeg := make([]int, n)
	g.Edges(func(e Edge) {
		if e.Distance == 0 {
			indeg[e.To]++
		}
	})
	queue := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		g.Out(u, func(e Edge) {
			if e.Distance != 0 {
				return
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		})
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: distance-0 subgraph is cyclic (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// IsDAG reports whether the distance-0 subgraph is acyclic.
func (g *Directed) IsDAG() bool {
	_, err := g.TopoSort()
	return err == nil
}

// LongestPathFrom computes, over the distance-0 subgraph, the longest
// weighted path distance from any source (in-degree-0 node) to every node,
// where path length is the sum of edge weights. It is the classic "depth"
// (earliest start time) used for scheduling priorities.
func (g *Directed) LongestPathFrom() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	depth := make([]int, g.NumNodes())
	for _, u := range order {
		g.Out(u, func(e Edge) {
			if e.Distance != 0 {
				return
			}
			if d := depth[u] + e.Weight; d > depth[e.To] {
				depth[e.To] = d
			}
		})
	}
	return depth, nil
}

// LongestPathTo computes, over the distance-0 subgraph, the longest weighted
// path from every node to any sink (out-degree-0 node). This is the "height"
// (criticality) of each node: nodes on the critical path maximize
// depth+height.
func (g *Directed) LongestPathTo() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	height := make([]int, g.NumNodes())
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		g.Out(u, func(e Edge) {
			if e.Distance != 0 {
				return
			}
			if h := height[e.To] + e.Weight; h > height[u] {
				height[u] = h
			}
		})
	}
	return height, nil
}

// CriticalPathLength returns the weight of the longest distance-0 path in g.
func (g *Directed) CriticalPathLength() (int, error) {
	depth, err := g.LongestPathFrom()
	if err != nil {
		return 0, err
	}
	max := 0
	for _, d := range depth {
		if d > max {
			max = d
		}
	}
	return max, nil
}

// SCCs returns the strongly connected components of g (all edges, including
// loop-carried ones) in reverse topological order (Tarjan's natural output
// order); each component's node list is sorted ascending.
func (g *Directed) SCCs() [][]NodeID {
	comp, ncomp := g.sccLabels()
	sccs := make([][]NodeID, ncomp)
	for v, c := range comp {
		sccs[c] = append(sccs[c], NodeID(v))
	}
	return sccs
}

// sccLabels labels every node with the id of its strongly connected
// component over all live edges and returns the labels and the number of
// components. Ids follow Tarjan's completion order, so they run in reverse
// topological order of the condensation. The walk is iterative so that very
// deep graphs cannot overflow the goroutine stack.
func (g *Directed) sccLabels() (comp []int32, ncomp int) {
	n := len(g.out)
	comp = make([]int32, n)
	// index is a node's 1-based DFS preorder number (0: not yet visited) and
	// low its low-link. stack holds the visited nodes that have no component
	// yet, so a visited node is on it exactly while its label is still -1.
	buf := make([]int32, 3*n)
	index, low, stack := buf[:n], buf[n:2*n], buf[2*n:2*n]
	for i := range comp {
		comp[i] = -1
	}
	type frame struct{ v, next int32 } // next: index into g.out[v]
	var frames []frame
	counter := int32(0)
	visit := func(v int32) {
		counter++
		index[v], low[v] = counter, counter
		stack = append(stack, v)
		frames = append(frames, frame{v: v})
	}
	for root := range comp {
		if index[root] != 0 {
			continue
		}
		visit(int32(root))
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v, out := f.v, g.out[f.v]
			for f.next < int32(len(out)) {
				e := &g.edges[out[f.next]]
				f.next++
				if e.removed {
					continue
				}
				w := int32(e.To)
				if index[w] == 0 {
					visit(w) // invalidates f
					break
				}
				if comp[w] < 0 && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if top := frames[len(frames)-1].v; top != v {
				continue // descended into a new node
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = int32(ncomp)
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

// arc is a live intra-component edge with both ends renumbered densely
// within its component.
type arc struct {
	from, to         int32
	weight, distance int64
}

// MaxCycleRatio returns the maximum over all cycles C of
// ceil(sum Weight(C) / sum Distance(C)), i.e. the recurrence-constrained
// minimum initiation interval of the graph, and true if at least one cycle
// with positive total weight exists. Cycles with zero total distance and
// positive weight are illegal dependence structures and cause a panic (the
// DDG validator rejects them before this point). Distances are assumed
// non-negative, as in every dependence graph.
//
// Every cycle lies inside one strongly connected component, so the value
// is the maximum over the cyclic components of each one's own bound. Each
// is found by binary search over integer II with a Bellman-Ford
// positive-cycle oracle (Rau '94) run over that component's edges alone:
// the predicate "no positive cycle at II", with edge cost
// Weight - II*Distance, is monotone in II. A component's search starts at
// the largest bound found so far, and a component already feasible there
// is settled by one probe.
func (g *Directed) MaxCycleRatio() (int, bool) {
	comp, ncomp := g.sccLabels()
	// Dense ids within each component.
	local := make([]int32, len(comp))
	size := make([]int32, ncomp)
	for v, c := range comp {
		local[v] = size[c]
		size[c]++
	}
	// Counting sort of the live intra-component edges by component: after
	// the loops, component c's arcs are arcs[start[c]:start[c+1]].
	start := make([]int32, ncomp+1)
	for i := range g.edges {
		if e := &g.edges[i]; !e.removed && comp[e.From] == comp[e.To] {
			start[comp[e.From]]++
		}
	}
	total := int32(0)
	for c := range start {
		total += start[c]
		start[c] = total
	}
	if total == 0 {
		return 0, false
	}
	arcs := make([]arc, total)
	maxSize := int32(0)
	for i := len(g.edges) - 1; i >= 0; i-- {
		e := &g.edges[i]
		if c := comp[e.From]; !e.removed && c == comp[e.To] {
			start[c]--
			arcs[start[c]] = arc{local[e.From], local[e.To], int64(e.Weight), int64(e.Distance)}
			maxSize = max(maxSize, size[c])
		}
	}

	dist := make([]int64, maxSize)
	best, bound := 0, false
	for c := 0; c < ncomp; c++ {
		ca := arcs[start[c]:start[c+1]]
		if len(ca) == 0 {
			continue // acyclic singleton
		}
		cd := dist[:size[c]]
		// Any cycle of distance >= 1 has weight at most the component's
		// positive weight sum, so that II is feasible unless a
		// zero-distance cycle has positive weight.
		hi := 0
		for _, a := range ca {
			if a.weight > 0 {
				hi += int(a.weight)
			}
		}
		if positiveCycle(ca, cd, hi) {
			panic("graph: MaxCycleRatio: positive cycle with zero distance (malformed dependence graph)")
		}
		lo := best // infeasible from here on, or this component cannot bind
		if !positiveCycle(ca, cd, lo) {
			continue
		}
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if positiveCycle(ca, cd, mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		best, bound = hi, true
	}
	return best, bound
}

// positiveCycle reports whether arcs, over the nodes 0..len(dist)-1,
// contain a cycle whose total cost Weight - ii*Distance is strictly
// positive. It runs a Bellman-Ford longest-path relaxation from a virtual
// source joined to every node (dist starts at 0 everywhere): a node can
// still be relaxed after len(dist) rounds only through a positive cycle.
func positiveCycle(arcs []arc, dist []int64, ii int) bool {
	clear(dist)
	for range dist {
		changed := false
		for _, a := range arcs {
			if d := dist[a.from] + a.weight - int64(ii)*a.distance; d > dist[a.to] {
				dist[a.to] = d
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

// Reachable returns the set of nodes reachable from src (including src)
// following live edges, as a boolean slice indexed by NodeID.
func (g *Directed) Reachable(src NodeID) []bool {
	g.mustHave(src)
	seen := make([]bool, g.NumNodes())
	stack := []NodeID{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.Out(u, func(e Edge) {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		})
	}
	return seen
}

// ShortestPath returns a minimum-hop path from src to dst over live edges,
// or nil if dst is unreachable. The returned slice includes both endpoints.
// When several shortest paths exist, ties are broken toward lower node IDs
// so results are deterministic. The optional usable filter restricts which
// edges may be traversed.
func (g *Directed) ShortestPath(src, dst NodeID, usable func(Edge) bool) []NodeID {
	g.mustHave(src)
	g.mustHave(dst)
	prev := make([]NodeID, g.NumNodes())
	seen := make([]bool, g.NumNodes())
	for i := range prev {
		prev[i] = -1
	}
	queue := []NodeID{src}
	seen[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			break
		}
		// Gather successors deterministically.
		var nexts []NodeID
		g.Out(u, func(e Edge) {
			if usable != nil && !usable(e) {
				return
			}
			if !seen[e.To] {
				seen[e.To] = true
				prev[e.To] = u
				nexts = append(nexts, e.To)
			}
		})
		sort.Slice(nexts, func(i, j int) bool { return nexts[i] < nexts[j] })
		queue = append(queue, nexts...)
	}
	if !seen[dst] {
		return nil
	}
	var path []NodeID
	for v := dst; v != -1; v = prev[v] {
		path = append(path, v)
		if v == src {
			break
		}
	}
	// reverse
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	if path[0] != src {
		return nil
	}
	return path
}

// Slack computes, for every node, the scheduling mobility
// (ALAP - ASAP) over the distance-0 subgraph given the critical path
// length. Mobility 0 means the node is on a critical path.
func (g *Directed) Slack() ([]int, error) {
	depth, err := g.LongestPathFrom()
	if err != nil {
		return nil, err
	}
	height, err := g.LongestPathTo()
	if err != nil {
		return nil, err
	}
	cp := 0
	for i := range depth {
		if s := depth[i] + height[i]; s > cp {
			cp = s
		}
	}
	slack := make([]int, len(depth))
	for i := range slack {
		slack[i] = cp - depth[i] - height[i]
	}
	return slack, nil
}
