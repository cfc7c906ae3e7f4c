// Package baseline implements the comparison point the paper's
// evaluation implies but does not detail: FlatICA, single-level cluster
// assignment over the K64 view of the fabric (every CN a cluster,
// all-to-all potential connections). This is exactly the abstraction §4
// argues is intractable: it must either track the MUX hierarchy
// internally or ignore it; ours ignores it. Evaluate scores any flat CN
// assignment, FlatICA's or HCA's, on identical terms (direct-source
// wire demand per level, per-CN pressure, migration count). E4 runs
// both.
//
// The min-cut partitioner that seeds every HCA subproblem lives in
// internal/partition.
package baseline

import (
	"context"
	"fmt"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pg"
	"repro/internal/see"
)

// Assignment is a flat result: one CN per DDG node.
type Assignment struct {
	Name  string
	CN    []int
	Stats see.Stats
}

// FlatICA runs the Space Exploration Engine once over the flat view of
// the machine: one cluster per computation node, all-to-all potential
// arcs (the K64 abstraction of §4), in-neighbor budget equal to the CN
// port count, and no awareness of the MUX hierarchy or wire budgets.
func FlatICA(ctx context.Context, d *ddg.DDG, mc *machine.Config, cfg see.Config) (*Assignment, error) {
	ncn := mc.TotalCNs()
	t := pg.NewTopology("flat-"+mc.Name, ncn, 1, mc.CNInPorts, 0)
	t.AllToAll()
	flow := pg.NewFlow(t, d)
	flow.MIIRecStatic = d.MIIRec()
	for i := range d.Nodes {
		if op := d.Nodes[i].Op; op == ddg.OpConst || op == ddg.OpIV {
			flow.MarkUbiquitous(d.Nodes[i].ID)
		}
	}
	ws := make([]graph.NodeID, d.Len())
	for i := range ws {
		ws[i] = graph.NodeID(i)
	}
	res, err := see.Solve(ctx, flow, ws, cfg)
	if err != nil {
		// Flat search on the port-starved K64 view dead-ends easily; a
		// pre-reserved forwarding ring is the same escape HCA uses.
		ringed := flow.Clone()
		for c := 0; c < ncn; c++ {
			if rerr := ringed.ReserveArc(pg.ClusterID(c), pg.ClusterID((c+1)%ncn)); rerr != nil {
				return nil, fmt.Errorf("baseline: flat: %v", err)
			}
		}
		res, err = see.Solve(ctx, ringed, ws, cfg)
		if err != nil {
			return nil, fmt.Errorf("baseline: flat: %v", err)
		}
	}
	out := &Assignment{Name: "flat-ica", CN: make([]int, d.Len()), Stats: res.Stats}
	for i := range out.CN {
		out.CN[i] = int(res.Flow.Assignment(graph.NodeID(i)))
	}
	return out, nil
}
