package main

import (
	"math/rand"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/kernels"
)

// namedKernel is a kernel with the seeded memory image its schedule is
// simulated on and its scalar Go reference.
type namedKernel struct {
	kernels.Kernel
	image func(rng *rand.Rand) (ddg.MapMemory, int)
	ref   func(mem ddg.MapMemory, iters int)
}

// namedKernels returns the four Table-1 kernels and the two extras, each
// with a memory layout its reference documents and enough iterations to
// cross the loop-carried wrap-arounds where the kernel has one.
func namedKernels() []namedKernel {
	byName := map[string]namedKernel{
		"fir2dim": {
			image: func(rng *rand.Rand) (ddg.MapMemory, int) {
				mem := ddg.MapMemory{}
				for r := int64(0); r < 3; r++ {
					for c := int64(0); c < kernels.FirCols+4; c++ {
						mem[r*kernels.FirStride+c] = int64(rng.Intn(512) - 256)
					}
				}
				return mem, 80 // crosses the column wrap at 64
			},
			ref: kernels.Fir2DimRef,
		},
		"idcthor": {
			image: func(rng *rand.Rand) (ddg.MapMemory, int) {
				const rows = 16
				mem := ddg.MapMemory{}
				for i := int64(0); i < rows*8; i++ {
					mem[i] = int64(rng.Intn(2048) - 1024)
				}
				return mem, rows
			},
			ref: kernels.IDCTHorRef,
		},
		"mpeg2inter": {
			image: func(rng *rand.Rand) (ddg.MapMemory, int) {
				const iters = 24
				mem := ddg.MapMemory{}
				for i := int64(0); i < 4*iters+8; i++ {
					for _, base := range []int64{kernels.MpegPF, kernels.MpegPF + kernels.MpegStride, kernels.MpegPB} {
						mem[base+i] = int64(rng.Intn(256))
					}
				}
				return mem, iters
			},
			ref: kernels.MPEG2InterRef,
		},
		"h264deblocking": {
			image: func(rng *rand.Rand) (ddg.MapMemory, int) {
				mem := ddg.MapMemory{}
				for line := int64(0); line < 3; line++ {
					for c := int64(0); c < kernels.H264Limit+8; c++ {
						mem[line*kernels.H264Stride+c] = int64(rng.Intn(256))
					}
				}
				return mem, 80 // crosses the edge walker's wrap at 64
			},
			ref: func(mem ddg.MapMemory, iters int) { kernels.H264DeblockRef(mem, iters) },
		},
		"fft8": {
			image: func(rng *rand.Rand) (ddg.MapMemory, int) {
				const blocks = 8
				mem := ddg.MapMemory{}
				for i := int64(0); i < blocks*16; i++ {
					mem[i] = int64(rng.Intn(512) - 256)
				}
				return mem, blocks
			},
			ref: kernels.FFT8HorRef,
		},
		"sad16": {
			image: func(rng *rand.Rand) (ddg.MapMemory, int) {
				const iters = 12
				mem := ddg.MapMemory{}
				for i := int64(0); i < 16*iters; i++ {
					mem[kernels.SadCur+i] = int64(rng.Intn(256))
					mem[kernels.SadRef+i] = int64(rng.Intn(256))
				}
				return mem, iters
			},
			ref: kernels.SAD16Ref,
		},
	}
	var out []namedKernel
	for _, k := range append(kernels.All(), kernels.Extras()...) {
		nk := byName[k.Name]
		nk.Kernel = k
		out = append(out, nk)
	}
	return out
}

// synthIters is how many iterations a synthetic DDG's schedule is
// simulated for.
const synthIters = 16

// synthImage returns a seeded memory image covering every address an
// ops-instruction synthetic DDG loads from within synthIters iterations
// (its loads sit at the walker plus fewer than ops offsets).
func synthImage(rng *rand.Rand, ops int) (ddg.MapMemory, int) {
	mem := ddg.MapMemory{}
	for a := int64(0); a < int64(ops+synthIters+8); a++ {
		mem[a] = int64(rng.Intn(1 << 12))
	}
	return mem, synthIters
}

// synthDDG returns the seeded kernels.Synthetic DDG of ops instructions
// with its stores moved onto one output block per iteration.
// kernels.Synthetic addresses store i at walker+2^20+i while the walker
// steps by one, so consecutive iterations write overlapping words: a
// memory dependence the DDG does not carry, which a legal modulo
// schedule may reorder (the simulated memory then differs from the
// sequential reference on some seeds). Here each store address adds its
// offset to an induction value stepping by the store count instead, so
// no two iterations write the same word.
func synthDDG(ops int, seed int64) *ddg.DDG {
	d := kernels.Synthetic(kernels.SynthConfig{Ops: ops, Seed: seed, RecLatency: synthRecLatency})
	var addrs []graph.NodeID
	for i := range d.Nodes {
		if d.Nodes[i].Name == "sa" {
			addrs = append(addrs, graph.NodeID(i))
		}
	}
	block := d.AddIV(0, int64(len(addrs)), "block")
	for _, a := range addrs {
		var in []graph.EdgeID
		d.G.In(a, func(e graph.Edge) { in = append(in, e.ID) })
		for _, e := range in {
			d.G.RemoveEdge(e)
		}
		d.AddDep(block, a, 0, 0)
	}
	return d
}
