package pg

import (
	"fmt"

	"repro/internal/graph"
)

// flowError is the typed, lazily-formatted failure of the speculative
// mutation path (Assign and Route). The SEE evaluates thousands of
// infeasible candidates per solve and inspects only whether the error is
// nil, so construction must be free: the mutation path fills the flow's
// own scratch flowError (Flow.stateErr) instead of heap-allocating one
// per rejected candidate, and no formatting happens up front. The
// message — byte-identical to the fmt.Errorf text it replaced — is
// rendered only when some caller actually reads Error().
type flowError struct {
	code errCode
	n    graph.NodeID // the instruction or value involved
	c    ClusterID    // the cluster operand (meaning depends on code)
}

// stateErr fills the flow's scratch error and returns it. The result is
// valid until the next failing mutation on f and only while f is not
// released: a Flow is owned by one goroutine at a time and the engines
// either abort on a propagated failure or discard it before the next
// speculative call, so the one scratch slot cannot be observed
// mid-overwrite. Wrapping it with fmt.Errorf's %w still points into the
// scratch, so a caller that keeps a failure past further mutations or
// past Release must keep DetachError's copy instead.
func (f *Flow) stateErr(code errCode, n graph.NodeID, c ClusterID) error {
	f.errScratch = flowError{code: code, n: n, c: c}
	return &f.errScratch
}

// DetachError returns err with a flow's scratch failure replaced by a
// copy of its own, valid after the flow mutates again or goes back to a
// pool; any other error is returned as it is.
func DetachError(err error) error {
	if fe, ok := err.(*flowError); ok {
		c := *fe
		return &c
	}
	return err
}

type errCode uint8

const (
	errAssignSpecial errCode = iota // c: the special node targeted
	errAssignDup                    // c: the cluster n already lives on
	errAssignNoMem                  // c: the memory-less cluster
	errRouteUnavail                 // c: unused
	errRouteNoPath                  // c: the unreachable destination
)

func (e *flowError) Error() string {
	switch e.code {
	case errAssignSpecial:
		return fmt.Sprintf("pg: cannot assign instruction %d to special node %d", e.n, e.c)
	case errAssignDup:
		return fmt.Sprintf("pg: instruction %d already assigned to %d", e.n, e.c)
	case errAssignNoMem:
		return fmt.Sprintf("pg: memory instruction %d cannot run on cluster %d (no memory-capable CN)", e.n, e.c)
	case errRouteUnavail:
		return fmt.Sprintf("pg: value %d is nowhere available", e.n)
	case errRouteNoPath:
		return fmt.Sprintf("pg: no feasible path for value %d to cluster %d", e.n, e.c)
	default:
		return fmt.Sprintf("pg: flow error %d", e.code)
	}
}
