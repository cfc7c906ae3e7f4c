package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddNodeEdgeBasics(t *testing.T) {
	g := New(4, 4)
	a := g.AddNode()
	b := g.AddNode()
	c := g.AddNode()
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	e1 := g.AddEdge(a, b, 1, 0)
	e2 := g.AddEdge(b, c, 2, 1)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := g.Edge(e1); got.From != a || got.To != b || got.Weight != 1 || got.Distance != 0 {
		t.Errorf("Edge(e1) = %+v", got)
	}
	if got := g.Edge(e2); got.Weight != 2 || got.Distance != 1 {
		t.Errorf("Edge(e2) = %+v", got)
	}
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Error("HasEdge wrong")
	}
}

func TestAddNodes(t *testing.T) {
	g := New(0, 0)
	first := g.AddNodes(5)
	if first != 0 || g.NumNodes() != 5 {
		t.Fatalf("AddNodes: first=%d n=%d", first, g.NumNodes())
	}
	second := g.AddNodes(3)
	if second != 5 || g.NumNodes() != 8 {
		t.Fatalf("AddNodes: second=%d n=%d", second, g.NumNodes())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(2, 2)
	a, b := g.AddNode(), g.AddNode()
	e := g.AddEdge(a, b, 1, 0)
	g.RemoveEdge(e)
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges after remove = %d", g.NumEdges())
	}
	if g.HasEdge(a, b) {
		t.Error("HasEdge true after remove")
	}
	if !g.EdgeRemoved(e) {
		t.Error("EdgeRemoved false")
	}
	// Removing twice is a no-op.
	g.RemoveEdge(e)
	if g.NumEdges() != 0 {
		t.Error("double remove changed count")
	}
}

func TestParallelEdgesAndSelfLoops(t *testing.T) {
	g := New(2, 3)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 1, 0)
	g.AddEdge(a, b, 2, 0)
	g.AddEdge(a, a, 3, 1) // loop-carried self-dependence
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if d := g.OutDegree(a); d != 3 {
		t.Errorf("OutDegree(a) = %d, want 3", d)
	}
	succ := g.Successors(a)
	if len(succ) != 2 || succ[0] != a || succ[1] != b {
		t.Errorf("Successors(a) = %v", succ)
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := New(3, 3)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(a, c, 0, 0)
	g.AddEdge(b, c, 0, 0)
	if g.InDegree(c) != 2 {
		t.Errorf("InDegree(c) = %d", g.InDegree(c))
	}
	pred := g.Predecessors(c)
	if len(pred) != 2 || pred[0] != a || pred[1] != b {
		t.Errorf("Predecessors(c) = %v", pred)
	}
}

func TestClone(t *testing.T) {
	g := New(2, 1)
	a, b := g.AddNode(), g.AddNode()
	e := g.AddEdge(a, b, 1, 0)
	c := g.Clone()
	c.RemoveEdge(e)
	c.AddNode()
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Error("Clone is not independent of original")
	}
	if c.NumEdges() != 0 || c.NumNodes() != 3 {
		t.Error("Clone mutation lost")
	}
}

func TestSetWeightDistance(t *testing.T) {
	g := New(2, 1)
	a, b := g.AddNode(), g.AddNode()
	e := g.AddEdge(a, b, 1, 0)
	g.SetWeight(e, 7)
	g.SetDistance(e, 2)
	if got := g.Edge(e); got.Weight != 7 || got.Distance != 2 {
		t.Errorf("after set: %+v", got)
	}
}

func TestTopoSortLinear(t *testing.T) {
	g := New(4, 3)
	n := make([]NodeID, 4)
	for i := range n {
		n[i] = g.AddNode()
	}
	g.AddEdge(n[2], n[1], 1, 0)
	g.AddEdge(n[1], n[0], 1, 0)
	g.AddEdge(n[0], n[3], 1, 0)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, v := range order {
		pos[v] = i
	}
	g.Edges(func(e Edge) {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("topo violation: %d before %d", e.From, e.To)
		}
	})
}

func TestTopoSortIgnoresLoopCarried(t *testing.T) {
	g := New(2, 2)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 1, 0)
	g.AddEdge(b, a, 1, 1) // loop-carried back edge: must not create a cycle for topo
	if _, err := g.TopoSort(); err != nil {
		t.Fatalf("TopoSort failed on loop-carried back edge: %v", err)
	}
	if !g.IsDAG() {
		t.Error("IsDAG false despite only loop-carried cycle")
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New(2, 2)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 1, 0)
	g.AddEdge(b, a, 1, 0)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("TopoSort accepted a distance-0 cycle")
	}
	if g.IsDAG() {
		t.Error("IsDAG true on cyclic graph")
	}
}

func TestLongestPaths(t *testing.T) {
	// diamond: a -> b(w2), a -> c(w1), b -> d(w1), c -> d(w5)
	g := New(4, 4)
	a, b, c, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 2, 0)
	g.AddEdge(a, c, 1, 0)
	g.AddEdge(b, d, 1, 0)
	g.AddEdge(c, d, 5, 0)
	depth, err := g.LongestPathFrom()
	if err != nil {
		t.Fatal(err)
	}
	if depth[a] != 0 || depth[b] != 2 || depth[c] != 1 || depth[d] != 6 {
		t.Errorf("depth = %v", depth)
	}
	height, err := g.LongestPathTo()
	if err != nil {
		t.Fatal(err)
	}
	if height[d] != 0 || height[b] != 1 || height[c] != 5 || height[a] != 6 {
		t.Errorf("height = %v", height)
	}
	cp, err := g.CriticalPathLength()
	if err != nil || cp != 6 {
		t.Errorf("cp = %d err=%v", cp, err)
	}
}

func TestSlack(t *testing.T) {
	g := New(4, 4)
	a, b, c, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 2, 0)
	g.AddEdge(a, c, 1, 0)
	g.AddEdge(b, d, 1, 0)
	g.AddEdge(c, d, 5, 0)
	slack, err := g.Slack()
	if err != nil {
		t.Fatal(err)
	}
	// critical path a->c->d (len 6); b has slack 6-2-1=3
	if slack[a] != 0 || slack[c] != 0 || slack[d] != 0 {
		t.Errorf("critical nodes have nonzero slack: %v", slack)
	}
	if slack[b] != 3 {
		t.Errorf("slack[b] = %d, want 3", slack[b])
	}
}

func TestSCCsSimple(t *testing.T) {
	g := New(5, 6)
	n := make([]NodeID, 5)
	for i := range n {
		n[i] = g.AddNode()
	}
	// cycle {0,1,2}, then 3 -> 4
	g.AddEdge(n[0], n[1], 0, 0)
	g.AddEdge(n[1], n[2], 0, 0)
	g.AddEdge(n[2], n[0], 0, 0)
	g.AddEdge(n[2], n[3], 0, 0)
	g.AddEdge(n[3], n[4], 0, 0)
	sccs := g.SCCs()
	if len(sccs) != 3 {
		t.Fatalf("got %d SCCs, want 3: %v", len(sccs), sccs)
	}
	var big []NodeID
	for _, c := range sccs {
		if len(c) == 3 {
			big = c
		}
	}
	want := []NodeID{0, 1, 2}
	if len(big) != 3 || big[0] != want[0] || big[1] != want[1] || big[2] != want[2] {
		t.Errorf("big SCC = %v, want %v", big, want)
	}
}

func TestSCCsDeepChainNoOverflow(t *testing.T) {
	// A 200k-node chain would overflow a recursive Tarjan; the iterative
	// implementation must handle it.
	const n = 200000
	g := New(n, n)
	first := g.AddNodes(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(first+NodeID(i), first+NodeID(i+1), 0, 0)
	}
	sccs := g.SCCs()
	if len(sccs) != n {
		t.Fatalf("got %d SCCs, want %d", len(sccs), n)
	}
}

func TestSCCPartitionProperty(t *testing.T) {
	// Property: SCCs partition the node set.
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n, 3*n)
		g.AddNodes(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 0, 0)
		}
		seen := map[NodeID]int{}
		for _, c := range g.SCCs() {
			for _, v := range c {
				seen[v]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSCCMutualReachabilityProperty(t *testing.T) {
	// Property: two nodes share an SCC iff mutually reachable.
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := New(n, 2*n)
		g.AddNodes(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 0, 0)
		}
		comp := make([]int, n)
		for ci, c := range g.SCCs() {
			for _, v := range c {
				comp[v] = ci
			}
		}
		reach := make([][]bool, n)
		for i := 0; i < n; i++ {
			reach[i] = g.Reachable(NodeID(i))
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				mutual := reach[u][v] && reach[v][u]
				if mutual != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHasPositiveCycle(t *testing.T) {
	g := New(2, 2)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 3, 0) // latency 3
	g.AddEdge(b, a, 0, 1) // loop-carried, distance 1
	// cycle latency 3, distance 1 → positive for II<3, non-positive for II>=3
	if !g.HasPositiveCycle(2) {
		t.Error("II=2 should have positive cycle")
	}
	if g.HasPositiveCycle(3) {
		t.Error("II=3 should be feasible")
	}
}

func TestMaxCycleRatioBasic(t *testing.T) {
	g := New(3, 3)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 2, 0)
	g.AddEdge(b, c, 2, 0)
	g.AddEdge(c, a, 1, 2) // cycle weight 5, distance 2 → ceil(5/2)=3
	mii, ok := g.MaxCycleRatio()
	if !ok || mii != 3 {
		t.Errorf("MaxCycleRatio = %d,%v want 3,true", mii, ok)
	}
}

func TestMaxCycleRatioAcyclic(t *testing.T) {
	g := New(2, 1)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 5, 0)
	if mii, ok := g.MaxCycleRatio(); ok || mii != 0 {
		t.Errorf("acyclic MaxCycleRatio = %d,%v", mii, ok)
	}
}

func TestMaxCycleRatioMultipleCycles(t *testing.T) {
	g := New(4, 5)
	a, b, c, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	// cycle1: a->b->a weight 4 distance 2 → 2
	g.AddEdge(a, b, 2, 0)
	g.AddEdge(b, a, 2, 2)
	// cycle2: c->d->c weight 7 distance 1 → 7 (binding)
	g.AddEdge(c, d, 5, 0)
	g.AddEdge(d, c, 2, 1)
	mii, ok := g.MaxCycleRatio()
	if !ok || mii != 7 {
		t.Errorf("MaxCycleRatio = %d,%v want 7,true", mii, ok)
	}
}

func TestMaxCycleRatioSelfLoop(t *testing.T) {
	g := New(1, 1)
	a := g.AddNode()
	g.AddEdge(a, a, 4, 1)
	mii, ok := g.MaxCycleRatio()
	if !ok || mii != 4 {
		t.Errorf("self-loop MaxCycleRatio = %d,%v want 4,true", mii, ok)
	}
}

func TestMaxCycleRatioMatchesBruteForce(t *testing.T) {
	// Property: the per-component answer == brute force over enumerated
	// simple cycles == the whole-graph reference search, on tiny random
	// graphs of one to three node blocks. Loop-carried edges stay inside a
	// block, so blocks never merge and a graph has up to three cyclic
	// components; distance-0 edges only go forward. Some edges are removed
	// again, among them distance-0 back edges whose cycles would otherwise
	// be malformed.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		blocks := 1 + rng.Intn(3)
		var lo []int // first node of each block, plus the node count
		n := 0
		for b := 0; b < blocks; b++ {
			lo = append(lo, n)
			n += 1 + rng.Intn(4)
		}
		lo = append(lo, n)
		if n < 2 {
			continue
		}
		g := New(n, 3*n)
		g.AddNodes(n)
		for i := 0; i < 3*n; i++ {
			w := rng.Intn(7) - 1
			if d := rng.Intn(3); d == 0 {
				u := rng.Intn(n - 1)
				v := u + 1 + rng.Intn(n-u-1)
				g.AddEdge(NodeID(u), NodeID(v), w, 0)
			} else {
				b := rng.Intn(blocks)
				size := lo[b+1] - lo[b]
				u, v := lo[b]+rng.Intn(size), lo[b]+rng.Intn(size)
				g.AddEdge(NodeID(u), NodeID(v), w, d)
			}
			if rng.Intn(5) == 0 {
				u := 1 + rng.Intn(n-1)
				g.RemoveEdge(g.AddEdge(NodeID(u), NodeID(rng.Intn(u)), 1+rng.Intn(5), rng.Intn(2)))
			}
		}
		want := bruteForceMII(g)
		got, ok := g.MaxCycleRatio()
		if ref, refOK := g.maxCycleRatioReference(); got != ref || ok != refOK {
			t.Fatalf("trial %d: MaxCycleRatio=%d,%v, reference %d,%v", trial, got, ok, ref, refOK)
		}
		if want == 0 {
			if ok && got != 0 {
				t.Fatalf("trial %d: want no binding cycle, got %d", trial, got)
			}
			continue
		}
		if !ok || got != want {
			t.Fatalf("trial %d: MaxCycleRatio=%d,%v want %d", trial, got, ok, want)
		}
	}
}

// bruteForceMII enumerates all simple cycles via DFS and returns
// max ceil(weight/distance) over cycles with positive weight.
func bruteForceMII(g *Directed) int {
	n := g.NumNodes()
	best := 0
	var dfs func(start, cur NodeID, w, d int, visited map[NodeID]bool)
	dfs = func(start, cur NodeID, w, d int, visited map[NodeID]bool) {
		g.Out(cur, func(e Edge) {
			if e.To == start {
				tw, td := w+e.Weight, d+e.Distance
				if tw > 0 && td > 0 {
					mii := (tw + td - 1) / td
					if mii > best {
						best = mii
					}
				}
				return
			}
			if !visited[e.To] && e.To > start { // canonical: cycles rooted at min node
				visited[e.To] = true
				dfs(start, e.To, w+e.Weight, d+e.Distance, visited)
				delete(visited, e.To)
			}
		})
	}
	for s := 0; s < n; s++ {
		dfs(NodeID(s), NodeID(s), 0, 0, map[NodeID]bool{NodeID(s): true})
	}
	return best
}

func TestReachable(t *testing.T) {
	g := New(4, 3)
	a, b, c, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 0, 0)
	g.AddEdge(b, c, 0, 0)
	_ = d
	r := g.Reachable(a)
	if !r[a] || !r[b] || !r[c] || r[d] {
		t.Errorf("Reachable = %v", r)
	}
}

func TestShortestPath(t *testing.T) {
	g := New(5, 6)
	n := make([]NodeID, 5)
	for i := range n {
		n[i] = g.AddNode()
	}
	g.AddEdge(n[0], n[1], 0, 0)
	g.AddEdge(n[1], n[4], 0, 0)
	g.AddEdge(n[0], n[2], 0, 0)
	g.AddEdge(n[2], n[3], 0, 0)
	g.AddEdge(n[3], n[4], 0, 0)
	p := g.ShortestPath(n[0], n[4], nil)
	if len(p) != 3 || p[0] != n[0] || p[1] != n[1] || p[2] != n[4] {
		t.Errorf("ShortestPath = %v", p)
	}
	if q := g.ShortestPath(n[4], n[0], nil); q != nil {
		t.Errorf("reverse path should be nil, got %v", q)
	}
}

func TestShortestPathWithFilter(t *testing.T) {
	g := New(3, 3)
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	direct := g.AddEdge(a, c, 0, 0)
	g.AddEdge(a, b, 0, 0)
	g.AddEdge(b, c, 0, 0)
	p := g.ShortestPath(a, c, func(e Edge) bool { return e.ID != direct })
	if len(p) != 3 {
		t.Errorf("filtered path = %v, want length 3", p)
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := New(1, 0)
	a := g.AddNode()
	p := g.ShortestPath(a, a, nil)
	if len(p) != 1 || p[0] != a {
		t.Errorf("self path = %v", p)
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(2, 1)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 3, 1)
	var buf bytes.Buffer
	err := g.WriteDOT(&buf, DOTOptions{
		Name:      "test graph!",
		NodeLabel: func(n NodeID) string { return "node" },
		EdgeLabel: func(e Edge) string { return "lat=3" },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"digraph test_graph_", "n0 -> n1", `label="lat=3"`, `label="node"`} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT output missing %q:\n%s", want, s)
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	build := func() *Directed {
		g := New(6, 5)
		g.AddNodes(6)
		g.AddEdge(0, 3, 0, 0)
		g.AddEdge(1, 3, 0, 0)
		g.AddEdge(2, 4, 0, 0)
		g.AddEdge(3, 5, 0, 0)
		g.AddEdge(4, 5, 0, 0)
		return g
	}
	a, _ := build().TopoSort()
	b, _ := build().TopoSort()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic topo sort: %v vs %v", a, b)
		}
	}
}

func TestEdgesIterationOrder(t *testing.T) {
	g := New(2, 3)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 1, 0)
	e2 := g.AddEdge(a, b, 2, 0)
	g.AddEdge(b, a, 3, 1)
	g.RemoveEdge(e2)
	var ws []int
	g.Edges(func(e Edge) { ws = append(ws, e.Weight) })
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 3 {
		t.Errorf("Edges order = %v", ws)
	}
}

func TestPanicsOnBadIDs(t *testing.T) {
	g := New(1, 0)
	g.AddNode()
	for name, fn := range map[string]func(){
		"AddEdge-bad-from": func() { g.AddEdge(5, 0, 0, 0) },
		"AddEdge-bad-to":   func() { g.AddEdge(0, 5, 0, 0) },
		"Edge-bad-id":      func() { g.Edge(9) },
		"Remove-bad-id":    func() { g.RemoveEdge(9) },
		"Out-bad-node":     func() { g.Out(7, func(Edge) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLongestPathRandomAgainstSlack(t *testing.T) {
	// Property: depth+height <= critical path for every node; equality on at
	// least one node.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(40)
		g := New(n, 3*n)
		g.AddNodes(n)
		for i := 0; i < 3*n; i++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			g.AddEdge(NodeID(u), NodeID(v), rng.Intn(4), 0)
		}
		depth, err := g.LongestPathFrom()
		if err != nil {
			t.Fatal(err)
		}
		height, err := g.LongestPathTo()
		if err != nil {
			t.Fatal(err)
		}
		cp, _ := g.CriticalPathLength()
		onCP := false
		for i := range depth {
			if depth[i]+height[i] > cp {
				t.Fatalf("depth+height %d > cp %d at node %d", depth[i]+height[i], cp, i)
			}
			if depth[i]+height[i] == cp {
				onCP = true
			}
		}
		if !onCP {
			t.Fatal("no node achieves critical path")
		}
	}
}

func TestSuccessorsSorted(t *testing.T) {
	g := New(4, 3)
	a := g.AddNode()
	d := g.AddNode()
	c := g.AddNode()
	b := g.AddNode()
	g.AddEdge(a, b, 0, 0)
	g.AddEdge(a, c, 0, 0)
	g.AddEdge(a, d, 0, 0)
	s := g.Successors(a)
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		t.Errorf("Successors not sorted: %v", s)
	}
}

func TestWriteDOTWithRanks(t *testing.T) {
	g := New(4, 2)
	g.AddNodes(4)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(1, 3, 1, 0)
	var buf bytes.Buffer
	err := g.WriteDOT(&buf, DOTOptions{
		Rank: func(n NodeID) (int, bool) { return int(n) % 2, true },
		NodeAttr: func(n NodeID) string {
			if n == 0 {
				return "shape=box"
			}
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "rank=same") {
		t.Error("missing rank groups")
	}
	if !strings.Contains(s, "shape=box") {
		t.Error("missing node attr")
	}
}

func TestSlackOnCyclicFails(t *testing.T) {
	g := New(2, 2)
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 1, 0)
	g.AddEdge(b, a, 1, 0)
	if _, err := g.Slack(); err == nil {
		t.Fatal("Slack accepted a cyclic graph")
	}
	if _, err := g.LongestPathTo(); err == nil {
		t.Fatal("LongestPathTo accepted a cyclic graph")
	}
}
