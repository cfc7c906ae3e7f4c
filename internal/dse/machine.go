package dse

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/see"
)

// Machine names one fabric by its family and scalar parameters. It is
// the one builder behind every way to name a machine: a compile
// request's machine, the hca flags and each point of a Grid. A 0 in any
// numeric field selects the family default.
type Machine struct {
	// Type is the family: "dspfabric" (the default), "rcp" or "linear".
	Type string
	// DSPFabric MUX capacities (8/8/8) and CN ports (2 in, 1 out).
	N, M, K           int
	InPorts, OutPorts int
	// RCP / linear-array shape (8/2/2): the CN count, the ring or array
	// neighborhood and the per-cluster input-port budget.
	Clusters, Neighbors, Ports int
	// MemCNs lists the memory-capable CNs; empty means every CN.
	MemCNs []int
}

// Build checks m and returns its machine.Config. Errors are typed
// *see.OptionError values whose field carries prefix: a field another
// family takes ("<prefix>.clusters" on a dspfabric, "<prefix>.n" on a
// flat machine), a bad type ("<prefix>.type"), a machine that fails
// machine.Config.Validate ("<prefix>"), or one HCA cannot build
// (core.CheckMachine: "<prefix>.clusters" or "<prefix>.in_ports").
func (m Machine) Build(prefix string) (*machine.Config, error) {
	var mc *machine.Config
	switch m.Type {
	case "", "dspfabric":
		if err := foreign(prefix, "clusters", m.Clusters, m.Neighbors, m.Ports); err != nil {
			return nil, err
		}
		mc = machine.DSPFabric64(cmp.Or(m.N, 8), cmp.Or(m.M, 8), cmp.Or(m.K, 8))
		if in, out := cmp.Or(m.InPorts, 2), cmp.Or(m.OutPorts, 1); in != 2 || out != 1 {
			mc.CNInPorts, mc.CNOutPorts = in, out
			mc.Name += fmt.Sprintf("-p%d.%d", in, out)
		}
	case "rcp", "linear":
		if err := foreign(prefix, "n", m.N, m.M, m.K, m.InPorts, m.OutPorts); err != nil {
			return nil, err
		}
		build := machine.RCP
		if m.Type == "linear" {
			build = machine.LinearArray
		}
		mc = build(cmp.Or(m.Clusters, 8), cmp.Or(m.Neighbors, 2), cmp.Or(m.Ports, 2))
	default:
		return nil, &see.OptionError{Field: prefix + ".type", Str: m.Type, Reason: "want dspfabric, rcp or linear"}
	}
	if len(m.MemCNs) > 0 {
		mc.MemCNs = append([]int(nil), m.MemCNs...)
		mc.Name += "-mem" + joinInts(m.MemCNs, ".")
	}
	if err := mc.Validate(); err != nil {
		return nil, &see.OptionError{Field: prefix, Str: mc.Name, Reason: err.Error()}
	}
	if err := core.CheckMachine(mc, prefix); err != nil {
		return nil, err
	}
	return mc, nil
}

// foreign rejects any nonzero value among another family's fields,
// reported under field.
func foreign(prefix, field string, vals ...int) error {
	for _, v := range vals {
		if v != 0 {
			return &see.OptionError{Field: prefix + "." + field, Value: v,
				Reason: "set a field the machine's type does not take (dspfabric: n, m, k, in_ports, out_ports; rcp and linear: clusters, neighbors, ports)"}
		}
	}
	return nil
}
