package baseline

import (
	"fmt"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/machine"
)

// Metrics evaluates a flat CN assignment against the machine's
// per-level wire budgets, charging every communicated value to a direct
// wire from its producer. It does not model forwarding through an
// intermediate cluster, which HCA's mapper plans, so HCA's own legal
// results can score wire violations too.
type Metrics struct {
	// MaxPerCN is the largest instruction count on one computation node
	// (the single-issue II floor of the assignment).
	MaxPerCN int
	// Migrations counts dependences whose endpoints sit on different CNs
	// (each needs a receive primitive), excluding rematerializable
	// producers (constants and induction values).
	Migrations int
	// WireViolations counts, over every level of the hierarchy, the
	// groups or computation nodes whose distinct direct sources exceed
	// the level's in-wire budget. Forwarding can relieve such demand, so
	// a violation does not prove the assignment unroutable.
	WireViolations int
	// WorstOversubscription is the largest ratio of required to available
	// in-wires at any group (1.0 = exactly fits).
	WorstOversubscription float64
	// EstII is a simple initiation-interval estimate:
	// max(MIIRec, per-CN instructions plus receive load).
	EstII int
}

// Evaluate computes the metrics of assignment cn for d on mc.
//
// Wire accounting follows the hardware: a value traveling from CN a to CN
// b enters b's level-l group on one in-wire at the level where their
// paths diverge, then consumes one in-wire (or crossbar line, or CN input
// port at the leaf) of every nested group it descends through. Values
// originating from the same source group at the divergence level are
// optimistically assumed to share wires. A value relayed through an
// intermediate cluster is charged as if sent directly, so a violation
// is unmet direct demand, not a proven infeasibility: HCA's
// coherency-checked results score 3/0/0/19/8/6/30 on E4's seven
// workloads. Telling whether a flat result is routable needs the mapper.
func Evaluate(d *ddg.DDG, cn []int, mc *machine.Config) Metrics {
	var m Metrics
	perCN := map[int]int{}
	recvPerCN := map[int]int{}
	for i := range d.Nodes {
		perCN[cn[i]]++
	}

	remat := func(n graph.NodeID) bool {
		op := d.Node(n).Op
		return op == ddg.OpConst || op == ddg.OpIV
	}

	type valDst struct {
		v  graph.NodeID
		cn int
	}
	seenMig := map[valDst]bool{}
	// inWires[(level, destGroupPath)] = set of source wire identifiers.
	inWires := map[string]map[string]bool{}
	charge := func(level int, destPath, src string) {
		key := fmt.Sprintf("%d/%s", level, destPath)
		if inWires[key] == nil {
			inWires[key] = map[string]bool{}
		}
		inWires[key][src] = true
	}
	budgets := map[string]int{} // same keys → in-wire budget
	budgetOf := func(level int) int {
		if level == mc.NumLevels()-1 && mc.NumLevels() > 1 {
			return mc.CNInPorts
		}
		return mc.Levels[level].InWires
	}

	d.G.Edges(func(e graph.Edge) {
		a, b := cn[e.From], cn[e.To]
		if a == b || remat(e.From) {
			return
		}
		if !seenMig[valDst{e.From, b}] {
			seenMig[valDst{e.From, b}] = true
			m.Migrations++
			recvPerCN[b]++
		}
		// Walk down the hierarchy. Before the divergence level the value
		// is local; at the divergence level the source is a's sibling
		// group; below it, the source is the level-l wire it arrived on.
		x, y := a, b
		destPath := ""
		srcWire := ""
		diverged := false
		for l := 0; l < mc.NumLevels(); l++ {
			sz := mc.CNsPerGroup(l)
			gx, gy := x/sz, y/sz
			if !diverged && gx != gy {
				diverged = true
				srcWire = fmt.Sprintf("w%d/%s/%d", l, destPath, gx)
			}
			destPath = fmt.Sprintf("%s.%d", destPath, gy)
			if diverged {
				charge(l, destPath, srcWire)
				budgets[fmt.Sprintf("%d/%s", l, destPath)] = budgetOf(l)
			}
			x, y = x%sz, y%sz
		}
	})

	for key, srcs := range inWires {
		budget := budgets[key]
		if budget <= 0 {
			continue
		}
		if len(srcs) > budget {
			m.WireViolations++
		}
		if r := float64(len(srcs)) / float64(budget); r > m.WorstOversubscription {
			m.WorstOversubscription = r
		}
	}

	for c, k := range perCN {
		if k > m.MaxPerCN {
			m.MaxPerCN = k
		}
		if t := k + recvPerCN[c]; t > m.EstII {
			m.EstII = t
		}
	}
	for c, r := range recvPerCN {
		if t := perCN[c] + r; t > m.EstII {
			m.EstII = t
		}
	}
	if rec := d.MIIRec(); rec > m.EstII {
		m.EstII = rec
	}
	if m.EstII < 1 {
		m.EstII = 1
	}
	return m
}
