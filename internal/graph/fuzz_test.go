package graph

import (
	"testing"
)

// FuzzMaxCycleRatio checks MaxCycleRatio against the whole-graph
// reference search on graphs of up to 32 nodes decoded from the fuzz
// input: both must give the same answer, or both panic on a positive
// zero-distance cycle. When a binding recurrence exists, its MII must be
// the minimal feasible value.
func FuzzMaxCycleRatio(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 1, 1, 2, 3, 0, 2, 0, 1, 1})
	f.Add([]byte{2, 0, 1, 5, 0, 1, 0, 0, 1})
	f.Add([]byte{3, 0, 1, 1, 0, 1, 2, 1, 0, 2, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data)
		if g == nil {
			return
		}
		mii, ok, panicked := catchMaxCycleRatio(g.MaxCycleRatio)
		refMII, refOK, refPanicked := catchMaxCycleRatio(g.maxCycleRatioReference)
		if mii != refMII || ok != refOK || panicked != refPanicked {
			t.Fatalf("MaxCycleRatio = %d,%v (panic %v), reference %d,%v (panic %v)",
				mii, ok, panicked, refMII, refOK, refPanicked)
		}
		if panicked {
			return
		}
		if !ok {
			if g.HasPositiveCycle(0) {
				t.Fatal("reported no binding cycle but II=0 has a positive cycle")
			}
			return
		}
		if mii < 1 {
			t.Fatalf("binding MII %d < 1", mii)
		}
		if g.HasPositiveCycle(mii) {
			t.Fatalf("MII %d still has a positive cycle", mii)
		}
		if !g.HasPositiveCycle(mii - 1) {
			t.Fatalf("MII %d is not minimal", mii)
		}
	})
}

// decodeFuzzGraph decodes data[0] as the node count (2 to 32) and every
// following 4-byte tuple as an edge (from, to, weight, flags). The weight
// byte is signed and taken mod 8; the distance is the low six bits of
// flags mod 3. Bit 7 of flags removes the edge again right after adding
// it. A distance-0 edge that does not go forward is kept only when bit 6
// is set, so zero-distance cycles occur but do not dominate.
func decodeFuzzGraph(data []byte) *Directed {
	if len(data) < 1 {
		return nil
	}
	n := int(data[0])%31 + 2
	g := New(n, len(data)/4)
	g.AddNodes(n)
	for i := 1; i+3 < len(data); i += 4 {
		u := int(data[i]) % n
		v := int(data[i+1]) % n
		w := int(int8(data[i+2])) % 8
		flags := data[i+3]
		d := int(flags&0x3f) % 3
		if d == 0 && u >= v && flags&0x40 == 0 {
			continue
		}
		id := g.AddEdge(NodeID(u), NodeID(v), w, d)
		if flags&0x80 != 0 {
			g.RemoveEdge(id)
		}
	}
	return g
}

// catchMaxCycleRatio calls fn and reports whether it panicked.
func catchMaxCycleRatio(fn func() (int, bool)) (mii int, ok, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	mii, ok = fn()
	return mii, ok, false
}

// FuzzSCCPartition: SCCs always partition the node set.
func FuzzSCCPartition(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0])%12 + 1
		g := New(n, len(data)/2)
		g.AddNodes(n)
		for i := 1; i+1 < len(data); i += 2 {
			g.AddEdge(NodeID(int(data[i])%n), NodeID(int(data[i+1])%n), 0, 0)
		}
		seen := make([]int, n)
		for _, comp := range g.SCCs() {
			for _, v := range comp {
				seen[v]++
			}
		}
		for v, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("node %d in %d components", v, cnt)
			}
		}
	})
}
