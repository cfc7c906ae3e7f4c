package lang

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/dma"
	"repro/internal/kernels"
	"repro/internal/machine"
)

const convSrc = `
kernel conv3
# three-tap smoothing over a wrapping line buffer
walk p 1 64
iv   out 4096 1
x0 = load(p)
x1 = load(p + 1)
x2 = load(p + 2)
s  = x0*1 + x1*2 + x2*1
y  = clip((s + 2) >> 2, 0, 255)
store(out, y)
`

func TestCompileConv(t *testing.T) {
	d, err := Compile(convSrc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "conv3" {
		t.Errorf("name = %q", d.Name)
	}
	st := d.Stats()
	if st.MemOps != 4 {
		t.Errorf("MemOps = %d, want 4", st.MemOps)
	}
	if d.MIIRec() != 3 { // the walker's wrap recurrence
		t.Errorf("MIIRec = %d, want 3", d.MIIRec())
	}
}

func TestCompiledKernelExecutes(t *testing.T) {
	d, err := Compile(convSrc)
	if err != nil {
		t.Fatal(err)
	}
	mem := ddg.MapMemory{}
	for i := int64(0); i < 70; i++ {
		mem[i] = i % 17
	}
	if _, err := d.Interpret(mem, 10); err != nil {
		t.Fatal(err)
	}
	// Iteration 0 reads p=0: y = clip((m0 + 2*m1 + m2 + 2) >> 2, 0, 255).
	want := (mem[0] + 2*mem[1] + mem[2] + 2) >> 2
	if got := mem[4096]; got != want {
		t.Errorf("out[0] = %d, want %d", got, want)
	}
}

func TestCompiledKernelMatchesHandBuilt(t *testing.T) {
	// The DSL's conv must compute the same as a builder-API equivalent.
	src := `
kernel eq
iv p 0 4
a = load(p)
b = load(p + 1)
d = abs(a - b)
store(p + 2, d)
`
	d, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := ddg.MapMemory{}
	for i := int64(0); i < 64; i++ {
		mem[i] = (i * 13) % 31
	}
	ref := ddg.MapMemory{}
	for k, v := range mem {
		ref[k] = v
	}
	if _, err := d.Interpret(mem, 8); err != nil {
		t.Fatal(err)
	}
	for it := int64(0); it < 8; it++ {
		p := 4 * it
		dv := ref[p] - ref[p+1]
		if dv < 0 {
			dv = -dv
		}
		ref[p+2] = dv
	}
	for k, v := range ref {
		if mem[k] != v {
			t.Fatalf("mem[%d] = %d, want %d", k, mem[k], v)
		}
	}
}

func TestAccumulatorPrev(t *testing.T) {
	src := `
kernel acc
iv x 1 1
acc = prev(acc, 1) + x
store(4096, acc)
`
	d, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := ddg.MapMemory{}
	if _, err := d.Interpret(mem, 5); err != nil {
		t.Fatal(err)
	}
	// x = 1..5; prev starts 0 through the mov's init → acc = 15.
	if got := mem[4096]; got != 15 {
		t.Errorf("acc = %d, want 15", got)
	}
	if d.MIIRec() < 2 {
		t.Errorf("MIIRec = %d, want >= 2 (accumulator through prev)", d.MIIRec())
	}
}

func TestSelectAndComparisons(t *testing.T) {
	src := `
kernel sel
iv x 0 1
big = x > 3
y = select(big, 100, x)
store(8192 + x, y)
`
	d, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := ddg.MapMemory{}
	if _, err := d.Interpret(mem, 6); err != nil {
		t.Fatal(err)
	}
	wants := []int64{0, 1, 2, 3, 100, 100}
	for i, w := range wants {
		if got := mem[int64(8192+i)]; got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestImmediateFolding(t *testing.T) {
	d, err := Compile("kernel f\niv x 0 1\ny = x + 7\nstore(100, y)\n")
	if err != nil {
		t.Fatal(err)
	}
	// x, y(addi), store addr const, store = 4 nodes; no separate const 7.
	for i := range d.Nodes {
		if d.Nodes[i].Op == ddg.OpConst && d.Nodes[i].Imm == 7 {
			t.Error("literal 7 became a const node instead of an immediate")
		}
	}
}

func TestConstSharing(t *testing.T) {
	d, err := Compile("kernel c\nconst k 5\niv x 0 1\ny = k * x\nz = k * y\nstore(10, z)\n")
	if err != nil {
		t.Fatal(err)
	}
	consts := 0
	for i := range d.Nodes {
		if d.Nodes[i].Op == ddg.OpConst && d.Nodes[i].Imm == 5 {
			consts++
		}
	}
	if consts != 1 {
		t.Errorf("const 5 appears %d times, want 1", consts)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"no-kernel":       "iv x 0 1\n",
		"undefined":       "kernel k\ny = x + 1\nstore(0, y)\n",
		"redefined":       "kernel k\niv x 0 1\nx = 3\nstore(0, x)\n",
		"bad-call":        "kernel k\ny = frob(1)\nstore(0, y)\n",
		"bad-arity":       "kernel k\ny = min(1)\nstore(0, y)\n",
		"bad-prev":        "kernel k\ny = prev(z, 1)\nstore(0, y)\n",
		"bad-prev-dist":   "kernel k\niv x 0 1\ny = prev(x, 0)\nstore(0, y)\n",
		"bad-char":        "kernel k\ny = 1 % 2\n",
		"stray-token":     "kernel k\niv x 0 1 junk\n",
		"missing-equals":  "kernel k\nfoo bar\n",
		"unclosed-paren":  "kernel k\ny = (1 + 2\nstore(0, y)\n",
		"non-literal-num": "kernel k\niv x 0 q\n",
	}
	for name, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("%s: compile accepted invalid source", name)
		}
	}
}

// Sources cut off mid-declaration or mid-statement must fail with an
// error, never a panic: "kernel" alone once made the parser index past
// its EOF token.
func TestTruncatedSourcesFail(t *testing.T) {
	for _, src := range []string{
		"",
		"kernel",
		"kernel\n",
		"kernel k\niv",
		"kernel k\niv x",
		"kernel k\niv x 0",
		"kernel k\nwalk p 1",
		"kernel k\nconst c",
		"kernel k\ny =",
		"kernel k\ny = (1 +",
		"kernel k\ny = min(1,",
		"kernel k\nstore(",
		"kernel k\nstore(0,",
		"kernel k\niv x 0 1\nstore(0, x",
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("%q: compile accepted a truncated source", src)
		}
	}
}

func TestCompiledThroughFullPipeline(t *testing.T) {
	d, err := Compile(convSrc)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.DSPFabric64(8, 8, 8)
	res, err := core.HCA(context.Background(), d, mc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legal {
		t.Fatal("not legal")
	}
	// The DSL's walker matches the DMA analyzer's modular idiom.
	p := dma.Analyze(d)
	if !p.Programmable {
		t.Error("DSL kernel not DMA-programmable")
	}
}

func TestNegativeLiterals(t *testing.T) {
	d, err := Compile("kernel n\niv x 0 1\ny = clip(x - 3, -2, 2)\nstore(50 + x, y)\n")
	if err != nil {
		t.Fatal(err)
	}
	mem := ddg.MapMemory{}
	if _, err := d.Interpret(mem, 4); err != nil {
		t.Fatal(err)
	}
	wants := []int64{-2, -2, -1, 0}
	for i, w := range wants {
		if got := mem[int64(50+i)]; got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "\n\n# leading comment\nkernel ws   # trailing\n\n  iv x 0 1\n\tstore(0, x)\n# end\n"
	if _, err := Compile(src); err != nil {
		t.Fatal(err)
	}
}

func TestErrorMessagesCarryLines(t *testing.T) {
	_, err := Compile("kernel k\niv x 0 1\n\ny = zz + 1\nstore(0, y)\n")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("err = %v, want line 4 reference", err)
	}
}

// TestDSLMpeg2Equivalence writes the mpeg2inter algorithm in the DSL
// (window reuse through prev(), the adaptive rounding accumulator, the
// saturating average) and checks it computes the same memory image as the
// calibrated builder kernel. The instruction counts differ — the DSL
// spends movs on prev() — but the semantics must match exactly.
func TestDSLMpeg2Equivalence(t *testing.T) {
	src := `
kernel mpeg2dsl
iv pf 0 4
iv pb 8192 4
iv po 12288 4
lp1 = load(pf + 1)
lp2 = load(pf + 2)
lp3 = load(pf + 3)
lp4 = load(pf + 4)
lq1 = load(pf + 4097)
lq2 = load(pf + 4098)
lq3 = load(pf + 4099)
lq4 = load(pf + 4100)
b0 = load(pb)
b1 = load(pb + 1)
b2 = load(pb + 2)
b3 = load(pb + 3)
acc = clip((( prev(acc,1) + 3) * 5 + 16) >> 5, 0, 63)
radj = (acc & 1) + 2
h0 = (prev(lp4,1) + lp1 + prev(lq4,1) + lq1 + radj) >> 2
h1 = (lp1 + lp2 + lq1 + lq2 + 2) >> 2
h2 = (lp2 + lp3 + lq2 + lq3 + 2) >> 2
h3 = (lp3 + lp4 + lq3 + lq4 + 2) >> 2
store(po,     clip((h0 + b0 + 1) >> 1, 0, 255))
store(po + 1, clip((h1 + b1 + 1) >> 1, 0, 255))
store(po + 2, clip((h2 + b2 + 1) >> 1, 0, 255))
store(po + 3, clip((h3 + b3 + 1) >> 1, 0, 255))
`
	d, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Note: the DSL uses base addresses matching kernels.Mpeg* constants
	// (PF=0, stride 4096, PB=8192, PO=12288).
	if kernels.MpegStride != 4096 || kernels.MpegPB != 8192 || kernels.MpegPO != 12288 {
		t.Skip("memory layout constants changed; DSL source needs updating")
	}
	rng := rand.New(rand.NewSource(12))
	mem := ddg.MapMemory{}
	ref := ddg.MapMemory{}
	const iters = 20
	for i := int64(0); i < 4*iters+8; i++ {
		for _, base := range []int64{kernels.MpegPF, kernels.MpegPF + kernels.MpegStride, kernels.MpegPB} {
			v := int64(rng.Intn(256))
			mem[base+i] = v
			ref[base+i] = v
		}
	}
	if _, err := d.Interpret(mem, iters); err != nil {
		t.Fatal(err)
	}
	kernels.MPEG2InterRef(ref, iters)
	for a, v := range ref {
		if mem[a] != v {
			t.Fatalf("DSL diverges from builder kernel at mem[%d]: %d vs %d", a, mem[a], v)
		}
	}
}
