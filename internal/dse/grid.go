// Package dse implements design-space exploration: one kernel compiled
// against a parameter grid of candidate fabrics, in parallel, with one
// subproblem memo shared across the whole sweep.
//
// The throughput argument is the one HeLEx-style layout exploration and
// symbolic loop compilation both make: neighboring configurations share
// most of their subproblem work. Our memo keys (core.AttemptKey) are
// content-addressed by the subproblem's topology fingerprint, not by
// the machine's name, so two grid points whose level-0 capacities agree
// replay each other's level-0 attempts verbatim — the most expensive
// subproblem of each solve. Two reuse layers stack:
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
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pg"
	"repro/internal/see"
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

// axisOr returns the axis values, or the family default when empty.
func axisOr(vs []int, def int) []int {
	if len(vs) == 0 {
		return []int{def}
	}
	return vs
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
// points in canonical order: engines outermost, then the family's axes
// in declared order, memory mixes innermost. Invalid values surface as
// typed *see.OptionError (→ HTTP 400 at the service boundary).
func (g Grid) Expand() ([]Point, error) {
	if g.Type == "" {
		g.Type = "dspfabric"
	}
	engines := g.Engines
	if len(engines) == 0 {
		engines = []string{"see"}
	}
	for i, e := range engines {
		if e == "" {
			engines[i] = "see"
			continue
		}
		if _, err := core.EngineByName(e); err != nil {
			return nil, err
		}
	}
	mems := g.MemCNs
	if len(mems) == 0 {
		mems = [][]int{nil}
	}

	var pts []Point
	add := func(mc *machine.Config, eng string, mem []int, coords []int) error {
		if len(mem) > 0 {
			mc.MemCNs = append([]int(nil), mem...)
			mc.Name += "-mem" + joinInts(mem, ".")
		}
		if mc.Levels[0].Groups > 64 || mc.TotalCNs() > 64 {
			return &see.OptionError{Field: "grid.clusters", Value: mc.TotalCNs(),
				Reason: "exceeds the 64-cluster pattern-graph limit"}
		}
		if err := mc.Validate(); err != nil {
			return &see.OptionError{Field: "grid", Str: mc.Name, Reason: err.Error()}
		}
		pts = append(pts, Point{Index: len(pts), Engine: eng, Machine: mc, coords: coords})
		return nil
	}

	switch g.Type {
	case "dspfabric":
		if len(g.Clusters) > 0 || len(g.Neighbors) > 0 || len(g.Ports) > 0 {
			return nil, &see.OptionError{Field: "grid.clusters", Value: len(g.Clusters) + len(g.Neighbors) + len(g.Ports),
				Reason: "clusters/neighbors/ports axes are only meaningful for rcp or linear grids"}
		}
		ns, ms, ks := axisOr(g.N, 8), axisOr(g.M, 8), axisOr(g.K, 8)
		ins, outs := axisOr(g.InPorts, 2), axisOr(g.OutPorts, 1)
		for ei, eng := range engines {
			for ni, n := range ns {
				for mi, m := range ms {
					for ki, k := range ks {
						for ii, in := range ins {
							for oi, out := range outs {
								for xi, mem := range mems {
									mc := machine.DSPFabric64(n, m, k)
									if in != 2 || out != 1 {
										mc.CNInPorts, mc.CNOutPorts = in, out
										mc.Name += fmt.Sprintf("-p%d.%d", in, out)
									}
									if err := add(mc, eng, mem, []int{ei, ni, mi, ki, ii, oi, xi}); err != nil {
										return nil, err
									}
								}
							}
						}
					}
				}
			}
		}
	case "rcp", "linear":
		if len(g.N) > 0 || len(g.M) > 0 || len(g.K) > 0 || len(g.InPorts) > 0 || len(g.OutPorts) > 0 {
			return nil, &see.OptionError{Field: "grid.n", Value: len(g.N) + len(g.M) + len(g.K) + len(g.InPorts) + len(g.OutPorts),
				Reason: "n/m/k/in_ports/out_ports axes are only meaningful for dspfabric grids"}
		}
		cls, nbs, ps := axisOr(g.Clusters, 8), axisOr(g.Neighbors, 2), axisOr(g.Ports, 2)
		for ei, eng := range engines {
			for ci, cl := range cls {
				for bi, nb := range nbs {
					for pi, p := range ps {
						for xi, mem := range mems {
							var mc *machine.Config
							if g.Type == "rcp" {
								mc = machine.RCP(cl, nb, p)
							} else {
								mc = machine.LinearArray(cl, nb, p)
							}
							if err := add(mc, eng, mem, []int{ei, ci, bi, pi, xi}); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}
	default:
		return nil, &see.OptionError{Field: "grid.type", Str: g.Type, Reason: "want dspfabric, rcp or linear"}
	}
	return pts, nil
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
