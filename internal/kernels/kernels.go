// Package kernels builds the Data Dependency Graphs of the four multimedia
// loop kernels the paper evaluates (§5, Table 1):
//
//	fir2dim         2-D FIR filter          (DSPstone)        57 instr
//	idcthor         8-pt IDCT row pass      (OpenDivx/mpeg2)  82 instr
//	mpeg2inter      MPEG-2 half-pel interp.                   79 instr
//	h264deblocking  H.264 row deblocking                     214 instr
//
// The paper obtained its DDGs from an STMicroelectronics internal compiler
// front-end that is not available; these builders reconstruct the loop
// bodies from the public reference algorithms and are calibrated so that
// the quantities Table 1 reports as *inputs* — instruction count, MIIRec
// and MIIRes — match the paper exactly (asserted by tests). Loop-carried
// recurrences (pointer wrap-around walkers, saturating statistics
// accumulators) realize the paper's MIIRec values and are documented at
// each builder.
//
// Every kernel is executable: ddg.Interpret runs the loop body against a
// ddg.Memory, and each builder has a scalar Go reference implementation
// the tests compare against, so the DDGs are known to compute the real
// algorithm, not just to have the right shape.
//
// The package also provides a parameterized synthetic DDG generator used
// by the scaling experiments (DESIGN.md E4).
package kernels

import (
	"fmt"
	"sort"

	"repro/internal/ddg"
)

// Kernel couples a DDG builder with its Table 1 calibration targets.
type Kernel struct {
	Name string
	// Build constructs a fresh DDG of the kernel's loop body.
	Build func() *ddg.DDG
	// Table 1 calibration targets (inputs to HCA).
	WantInstr  int
	WantMIIRec int
	WantMIIRes int // on 64 issue slots, 8 DMA ports
	// PaperFinalMII is the Final MII column of Table 1, for reports.
	PaperFinalMII int
}

// All returns the four paper kernels in Table 1 order.
func All() []Kernel {
	return []Kernel{
		{Name: "fir2dim", Build: Fir2Dim, WantInstr: 57, WantMIIRec: 3, WantMIIRes: 2, PaperFinalMII: 3},
		{Name: "idcthor", Build: IDCTHor, WantInstr: 82, WantMIIRec: 1, WantMIIRes: 2, PaperFinalMII: 3},
		{Name: "mpeg2inter", Build: MPEG2Inter, WantInstr: 79, WantMIIRec: 6, WantMIIRes: 2, PaperFinalMII: 8},
		{Name: "h264deblocking", Build: H264Deblock, WantInstr: 214, WantMIIRec: 3, WantMIIRes: 4, PaperFinalMII: 6},
	}
}

// ByName returns the kernel with the given name, searching the paper's
// four kernels and the extras.
func ByName(name string) (Kernel, error) {
	for _, k := range append(All(), Extras()...) {
		if k.Name == name {
			return k, nil
		}
	}
	names := Names()
	sort.Strings(names)
	return Kernel{}, fmt.Errorf("kernels: unknown kernel %q (have %v)", name, names)
}

// Names lists every kernel ByName accepts: the paper's four in Table 1
// order, then the extras.
func Names() []string {
	var names []string
	for _, k := range append(All(), Extras()...) {
		names = append(names, k.Name)
	}
	return names
}

// PaperResources is the resource view of the full 64-CN DSPFabric with its
// 8-port DMA, the machine Table 1's MIIRes column refers to.
var PaperResources = ddg.Resources{IssueSlots: 64, DMAPorts: 8}
