package graph

// A whole-graph search for the recurrence bound: the differential
// reference for MaxCycleRatio's per-component search.

// HasPositiveCycle reports whether g contains a cycle whose total
// cost is strictly positive, where the cost of edge e is
// e.Weight - ii*e.Distance: II is feasible iff no such positive cycle
// exists (Rau '94).
//
// The check runs a Bellman-Ford longest-path relaxation from a virtual
// super-source; if any node can still be relaxed after NumNodes rounds, a
// positive cycle is reachable.
func (g *Directed) HasPositiveCycle(ii int) bool {
	n := g.NumNodes()
	if n == 0 {
		return false
	}
	// dist starts at 0 everywhere == virtual source connected to all nodes.
	dist := make([]int64, n)
	for round := 0; round < n; round++ {
		changed := false
		for i := range g.edges {
			e := g.edges[i]
			if e.removed {
				continue
			}
			cost := int64(e.Weight) - int64(ii)*int64(e.Distance)
			if d := dist[e.From] + cost; d > dist[e.To] {
				dist[e.To] = d
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

// maxCycleRatioReference is MaxCycleRatio computed over the whole graph:
// a binary search over integer II with HasPositiveCycle as the oracle,
// O(V·E·log W).
func (g *Directed) maxCycleRatioReference() (int, bool) {
	// Upper bound: sum of all positive weights is always feasible, since
	// any cycle has distance >= 1 (zero-distance cycles are rejected) and
	// weight <= total.
	hi := 0
	hasEdge := false
	g.Edges(func(e Edge) {
		hasEdge = true
		if e.Weight > 0 {
			hi += e.Weight
		}
	})
	if !hasEdge {
		return 0, false
	}
	if g.HasPositiveCycle(hi) {
		panic("graph: MaxCycleRatio: positive cycle with zero distance (malformed dependence graph)")
	}
	// If even II=0 admits no positive cycle there is no constraining cycle.
	if !g.HasPositiveCycle(0) {
		return 0, false
	}
	lo := 0 // infeasible
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if g.HasPositiveCycle(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, true
}
