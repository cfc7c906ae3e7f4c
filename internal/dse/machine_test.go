package dse

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/machine"
)

// Zero fields select the family defaults, so the zero Machine of each
// family is the machine package's paper instance; ports and memory mixes
// add their name suffixes.
func TestMachineBuildDefaults(t *testing.T) {
	rcpMem := machine.RCP(8, 2, 2)
	rcpMem.Name += "-mem0.4"
	rcpMem.MemCNs = []int{0, 4}
	ported := machine.DSPFabric64(8, 8, 4)
	ported.Name += "-p3.1"
	ported.CNInPorts = 3
	for _, tc := range []struct {
		m    Machine
		want *machine.Config
	}{
		{Machine{}, machine.DSPFabric64(8, 8, 8)},
		{Machine{Type: "dspfabric", N: 4, M: 4, K: 2}, machine.DSPFabric64(4, 4, 2)},
		{Machine{K: 4, InPorts: 3}, ported},
		{Machine{Type: "rcp"}, machine.RCP(8, 2, 2)},
		{Machine{Type: "linear", Clusters: 16, Neighbors: 3, Ports: 1}, machine.LinearArray(16, 3, 1)},
		{Machine{Type: "rcp", MemCNs: []int{0, 4}}, rcpMem},
	} {
		mc, err := tc.m.Build("machine")
		if err != nil {
			t.Errorf("%+v: %v", tc.m, err)
			continue
		}
		if !reflect.DeepEqual(mc, tc.want) {
			t.Errorf("%+v built %+v, want %+v", tc.m, mc, tc.want)
		}
	}
}

// Expand reads its grid and never writes it: two goroutines expanding
// one grid (run under -race) leave it deep-equal to a copy taken before.
func TestExpandLeavesGridUnchanged(t *testing.T) {
	g := Grid{N: []int{8, 4}, K: []int{0, 2}, Engines: []string{"", "exact"}, MemCNs: [][]int{nil, {0, 1}}}
	want := Grid{N: []int{8, 4}, K: []int{0, 2}, Engines: []string{"", "exact"}, MemCNs: [][]int{nil, {0, 1}}}
	var wg sync.WaitGroup
	pts := make([][]Point, 2)
	for i := range pts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if pts[i], err = g.Expand(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("Expand changed its grid to %+v", g)
	}
	if !reflect.DeepEqual(pts[0], pts[1]) || len(pts[0]) != 16 {
		t.Fatalf("concurrent expansions disagree or have %d points, want 16", len(pts[0]))
	}
	if p := pts[0][0]; p.Engine != "see" || p.Machine.Name != "dspfabric64-n8-m8-k8" {
		t.Errorf("first point %s/%s, want see/dspfabric64-n8-m8-k8", p.Engine, p.Machine.Name)
	}
}
