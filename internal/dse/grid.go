// Package dse implements design-space exploration: one kernel compiled
// against a parameter grid of candidate fabrics, in parallel, with one
// subproblem memo shared across the whole sweep.
//
// The throughput argument is the one HeLEx-style layout exploration and
// symbolic loop compilation both make: neighboring configurations share
// most of their subproblem work. The core memo's attempt keys are
// content-addressed by the subproblem's topology fingerprint, not by
// the machine's name, so two grid points whose level-0 capacities agree
// replay each other's level-0 attempts verbatim — the most expensive
// subproblem of each solve. Nothing an attempt caches names a machine
// (a failed point's error names its own), so a replay reads the same
// whichever point filled the entry. Two reuse layers stack:
//
//  1. Point dedup: grid points whose fabrics are structurally identical
//     (same per-level topology structure — e.g. an RCP ring whose
//     neighborhood already spans every cluster, at any wider
//     RingNeighbors) collapse onto one solve before any work starts.
//  2. Cross-point memo sharing: distinct fabrics still share every
//     subproblem whose content address coincides.
//
// Results are deterministic at any worker count: every point's solve is
// independently deterministic, memo hits replay bit-identical cached
// attempts, and the output orders points by their canonical grid index
// regardless of solve order.
package dse

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pg"
)

// Grid is a parameter sweep over machine.Config: one axis per
// parameter, expanded as a cross product. Empty axes default to the
// machine family's canonical value, so the zero Grid is the single
// paper-default point of its family.
type Grid struct {
	// Type selects the machine family: "dspfabric" (default), "rcp" or
	// "linear". Ring/RingNeighbors variation is expressed as an "rcp"
	// grid with a Neighbors axis; "linear" is the open-ended variant.
	Type string `json:"type,omitempty"`

	// DSPFabric MUX-capacity axes (defaults [8]/[8]/[8]).
	N []int `json:"n,omitempty"`
	M []int `json:"m,omitempty"`
	K []int `json:"k,omitempty"`
	// CN port axes of the hierarchical family (defaults [2]/[1]).
	InPorts  []int `json:"in_ports,omitempty"`
	OutPorts []int `json:"out_ports,omitempty"`

	// Flat-machine axes, rcp/linear only (defaults [8]/[2]/[2]).
	// Clusters is the CN count, Neighbors the ring/array neighborhood,
	// Ports the per-cluster input-port budget.
	Clusters  []int `json:"clusters,omitempty"`
	Neighbors []int `json:"neighbors,omitempty"`
	Ports     []int `json:"ports,omitempty"`

	// MemCNs lists heterogeneous memory-CN mixes; an empty mix means
	// every CN is memory-capable (the homogeneous default).
	MemCNs [][]int `json:"mem_cns,omitempty"`

	// Engines is the per-point engine axis over the core.Engine
	// registry ("see"/"exact"/"portfolio"; default ["see"]).
	Engines []string `json:"engines,omitempty"`
}

// Point is one expanded grid configuration.
type Point struct {
	// Index is the point's canonical position in the expansion order —
	// the order every sweep output is reported in.
	Index   int
	Engine  string
	Machine *machine.Config
	// coords locates the point in axis-index space for the warm-order
	// scheduler's nearest-neighbor traversal; coords[0] is the engine
	// axis.
	coords []int
}

// NumPoints returns how many points the grid expands to, from its axis
// lengths alone: nothing is built or validated, so a point bound can be
// checked before Expand allocates the cross product. A grid that mixes
// the two families' axes, which Expand rejects, counts every axis. The
// product saturates at math.MaxInt instead of overflowing.
func (g Grid) NumPoints() int {
	n := 1
	for _, l := range [...]int{len(g.Engines), len(g.N), len(g.M), len(g.K), len(g.InPorts), len(g.OutPorts),
		len(g.Clusters), len(g.Neighbors), len(g.Ports), len(g.MemCNs)} {
		if l > 1 {
			if n > math.MaxInt/l {
				return math.MaxInt
			}
			n *= l
		}
	}
	return n
}

// Expand validates the grid and expands it into its cross product of
// points in canonical order: engines outermost, then the machine axes
// in declared order, memory mixes innermost. An empty axis contributes
// one 0, the family default; Machine.Build checks each point, so
// invalid values surface as typed *see.OptionError (→ HTTP 400 at the
// service boundary) under a "grid" field. g is not modified.
func (g Grid) Expand() ([]Point, error) {
	for _, e := range g.Engines {
		if _, err := core.EngineByName(e); err != nil {
			return nil, err
		}
	}
	axes := [...][]int{g.N, g.M, g.K, g.InPorts, g.OutPorts, g.Clusters, g.Neighbors, g.Ports}
	// coords[0] indexes the engines, coords[1:9] the axes and coords[9]
	// the memory mixes; an empty axis has one position.
	var dims, coords [len(axes) + 2]int
	dims[0], dims[len(dims)-1] = max(len(g.Engines), 1), max(len(g.MemCNs), 1)
	for i, a := range axes {
		dims[i+1] = max(len(a), 1)
	}
	var pts []Point
	for {
		var v [len(axes)]int
		for i, a := range axes {
			if len(a) > 0 {
				v[i] = a[coords[i+1]]
			}
		}
		m := Machine{Type: g.Type, N: v[0], M: v[1], K: v[2], InPorts: v[3], OutPorts: v[4],
			Clusters: v[5], Neighbors: v[6], Ports: v[7]}
		if len(g.MemCNs) > 0 {
			m.MemCNs = g.MemCNs[coords[9]]
		}
		mc, err := m.Build("grid")
		if err != nil {
			return nil, err
		}
		eng := "see"
		if len(g.Engines) > 0 && g.Engines[coords[0]] != "" {
			eng = g.Engines[coords[0]]
		}
		pts = append(pts, Point{Index: len(pts), Engine: eng, Machine: mc, coords: append([]int(nil), coords[:]...)})
		// Advance the innermost axis, carrying outward.
		i := len(coords) - 1
		for ; i >= 0; i-- {
			if coords[i]++; coords[i] < dims[i] {
				break
			}
			coords[i] = 0
		}
		if i < 0 {
			return pts, nil
		}
	}
}

func joinInts(vs []int, sep string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, sep)
}

// fabricFingerprint derives the structural identity a solve actually
// depends on: the level-0 pattern topology (whose fingerprint captures
// ring/linear neighborhoods as a potential matrix, so saturated
// neighborhoods collapse onto all-to-all), every level's shape, the CN
// port and DMA budgets, the machine-family flags and the memory-CN set.
// RingNeighbors is deliberately not absorbed raw — the potential matrix
// already encodes exactly as much of it as the solve can see.
func fabricFingerprint(mc *machine.Config) pg.Fingerprint {
	h := core.RootTopology(mc).Fingerprint()
	h = h.Absorb(0x64736566) // domain separator "dsef"
	h = h.Absorb(uint64(len(mc.Levels)))
	for _, l := range mc.Levels {
		h = h.Absorb(uint64(l.Groups))
		h = h.Absorb(uint64(l.InWires)<<32 | uint64(uint32(l.OutWires)))
	}
	h = h.Absorb(uint64(mc.CNInPorts)<<32 | uint64(uint32(mc.CNOutPorts)))
	h = h.Absorb(uint64(mc.DMAPorts))
	h = h.Absorb(uint64(mc.DMAFIFODepth)<<32 | uint64(uint32(mc.DMALatency)))
	flags := uint64(0)
	if mc.Ring {
		flags |= 1
	}
	if mc.Linear {
		flags |= 2
	}
	h = h.Absorb(flags)
	if mc.MemCNs == nil {
		h = h.Absorb(0)
	} else {
		mem := append([]int(nil), mc.MemCNs...)
		sort.Ints(mem)
		h = h.Absorb(1 + uint64(len(mem)))
		for _, m := range mem {
			h = h.Absorb(uint64(m))
		}
	}
	return h
}

// sameFabric is the fail-safe full compare behind a fabricFingerprint
// match, mirroring the memo's discipline: a 128-bit collision degrades
// into two independent solves, never into a wrongly shared result.
func sameFabric(a, b *machine.Config) bool {
	if len(a.Levels) != len(b.Levels) ||
		a.CNInPorts != b.CNInPorts || a.CNOutPorts != b.CNOutPorts ||
		a.DMAPorts != b.DMAPorts || a.DMAFIFODepth != b.DMAFIFODepth ||
		a.DMALatency != b.DMALatency || a.Ring != b.Ring || a.Linear != b.Linear {
		return false
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			return false
		}
	}
	if (a.MemCNs == nil) != (b.MemCNs == nil) || len(a.MemCNs) != len(b.MemCNs) {
		return false
	}
	am := append([]int(nil), a.MemCNs...)
	bm := append([]int(nil), b.MemCNs...)
	sort.Ints(am)
	sort.Ints(bm)
	for i := range am {
		if am[i] != bm[i] {
			return false
		}
	}
	return core.RootTopology(a).Equal(core.RootTopology(b))
}
