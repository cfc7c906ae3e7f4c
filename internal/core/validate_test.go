package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ddg"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mapper"
	"repro/internal/pg"
	"repro/internal/see"
)

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options invalid: %v", err)
	}
	err := (Options{SEE: see.Config{BeamWidth: -8}}).Validate()
	var oe *see.OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v is not a typed *see.OptionError", err)
	}
	if oe.Field != "BeamWidth" {
		t.Errorf("Field = %q, want BeamWidth", oe.Field)
	}
	err = (Options{ExactBudget: -1}).Validate()
	if !errors.As(err, &oe) || oe.Field != "exact_budget" {
		t.Errorf("negative exact budget: err = %v, want a typed exact_budget error", err)
	}
}

// Machines at and past what a pattern graph holds come back as a result
// or an error, never as a pg panic. The static limits are typed errors
// raised before any work; the rest may compile or fail.
func TestHCABoundaryMachines(t *testing.T) {
	onePort := machine.DSPFabric64(8, 8, 8)
	onePort.CNInPorts = 1
	cases := []struct {
		name  string
		d     *ddg.DDG
		mc    *machine.Config
		field string // a typed error on this field, or "" for any outcome
	}{
		{"rcp 64", kernels.Fir2Dim(), machine.RCP(64, 2, 2), ""},
		{"rcp 65", kernels.Fir2Dim(), machine.RCP(65, 2, 2), "machine.clusters"},
		{"linear 64", kernels.Fir2Dim(), machine.LinearArray(64, 2, 2), ""},
		{"linear 65", kernels.Fir2Dim(), machine.LinearArray(65, 2, 2), "machine.clusters"},
		{"n 40", kernels.H264Deblock(), machine.DSPFabric64(40, 8, 8), ""},
		{"n m k 64", kernels.H264Deblock(), machine.DSPFabric64(64, 64, 64), ""},
		{"one CN in-port", kernels.Fir2Dim(), onePort, "machine.in_ports"},
	}
	for _, tc := range cases {
		res, err := HCA(context.Background(), tc.d, tc.mc, Options{})
		if tc.field == "" {
			if err == nil && !res.Legal {
				t.Errorf("%s: result without error is not legal", tc.name)
			}
			continue
		}
		var oe *see.OptionError
		if !errors.As(err, &oe) || oe.Field != tc.field {
			t.Errorf("%s: err = %v, want a typed %s error", tc.name, err, tc.field)
		}
	}
}

// A child whose ILI nodes would take its pattern graph past
// pg.MaxClusters fails with an error naming the subproblem.
func TestSolveLevelRejectsOversizedILI(t *testing.T) {
	mc := machine.DSPFabric64(40, 8, 8)
	ili := &mapper.ILI{Inputs: make([][]pg.ValueID, pg.MaxClusters-mc.Levels[1].Groups+1)}
	err := solveLevel(context.Background(), &Result{}, kernels.Fir2Dim(), mc, Options{}, 1, []int{2}, nil, ili)
	if err == nil || !strings.Contains(err.Error(), "subproblem 0,2:") || !strings.Contains(err.Error(), "pattern-graph limit") {
		t.Fatalf("err = %v, want the pattern-graph limit of subproblem 0,2", err)
	}
}

func TestHCARejectsInvalidOptions(t *testing.T) {
	_, err := HCA(context.Background(), kernels.Fir2Dim(), machine.DSPFabric64(8, 8, 8),
		Options{SEE: see.Config{CandWidth: -1}})
	var oe *see.OptionError
	if !errors.As(err, &oe) {
		t.Errorf("HCA error %v is not a typed *see.OptionError", err)
	}
}

// Unknown engine names are rejected with a typed option error before
// any work starts (the daemon maps these onto HTTP 400).
func TestHCARejectsUnknownEngine(t *testing.T) {
	_, err := HCA(context.Background(), kernels.Fir2Dim(), machine.DSPFabric64(8, 8, 8),
		Options{Engine: "simulated-annealing"})
	var oe *see.OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("HCA error %v is not a typed *see.OptionError", err)
	}
	if oe.Field != "engine" {
		t.Errorf("OptionError field %q, want \"engine\"", oe.Field)
	}
}
