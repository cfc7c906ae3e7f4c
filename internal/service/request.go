package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/see"
)

// SynthSpec requests a synthetic DDG (internal/kernels.Synthetic).
type SynthSpec struct {
	Ops        int   `json:"ops"`
	Seed       int64 `json:"seed"`
	RecLatency int   `json:"rec_latency"`
}

// MachineSpec selects and parameterizes the target machine. The zero
// value means the paper's best DSPFabric instance (N = M = K = 8).
type MachineSpec struct {
	// Type is "dspfabric" (default), "rcp" or "linear".
	Type string `json:"type,omitempty"`
	// DSPFabric MUX capacities; 8 each when zero.
	N int `json:"n,omitempty"`
	M int `json:"m,omitempty"`
	K int `json:"k,omitempty"`
	// RCP / linear-array shape; 8/2/2 when zero.
	Clusters  int `json:"clusters,omitempty"`
	Neighbors int `json:"neighbors,omitempty"`
	Ports     int `json:"ports,omitempty"`
}

// OptionsSpec tunes the compilation pipeline.
type OptionsSpec struct {
	Beam            int  `json:"beam,omitempty"` // SEE beam width; 8 when zero
	Cand            int  `json:"cand,omitempty"` // SEE candidate width; 4 when zero
	DisableRemat    bool `json:"disable_remat,omitempty"`
	DisableSeeding  bool `json:"disable_seeding,omitempty"`
	SchedulingAware bool `json:"scheduling_aware,omitempty"`
	// DisableDedup turns off the SEE's frontier deduplication (strict
	// reproduction of the reference engine; may change the result).
	DisableDedup bool `json:"disable_dedup,omitempty"`
	// DisableMemo opts this request out of the process-wide subproblem
	// memo (ablation; the result is bit-identical either way).
	DisableMemo bool `json:"disable_memo,omitempty"`
	// Engine selects the subproblem solver: "see" (default), "exact"
	// (branch-and-bound with optimality proofs), or "portfolio" (the
	// beam, then exact from the beam's score on small subproblems).
	// Unknown names are rejected with HTTP 400.
	Engine string `json:"engine,omitempty"`
	// Schedule additionally runs iterative modulo scheduling on the
	// clusterized result.
	Schedule bool `json:"schedule,omitempty"`
	// Feedback runs the full §5 feedback loop (several heuristic
	// variants raced by achieved II); implies scheduling.
	Feedback bool `json:"feedback,omitempty"`
}

// CompileRequest is the body of POST /v1/compile. Exactly one DDG source
// must be set: Kernel (a named kernel), Synth, or Source (an
// internal/lang kernel description).
type CompileRequest struct {
	Kernel  string      `json:"kernel,omitempty"`
	Synth   *SynthSpec  `json:"synth,omitempty"`
	Source  string      `json:"source,omitempty"`
	Machine MachineSpec `json:"machine,omitempty"`
	Options OptionsSpec `json:"options,omitempty"`
	// TimeoutMs bounds this compile; the service default applies when
	// zero. Not part of the cache key.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Async returns a job ID immediately instead of waiting for the
	// result; poll GET /v1/jobs/{id}. Not part of the cache key.
	Async bool `json:"async,omitempty"`
	// Trace records the compile with a trace.Recorder and folds the
	// telemetry summary into the report. Traced requests bypass the
	// result cache in both directions (a cached body has no trace, and a
	// traced body must not poison the cache for untraced callers). Also
	// settable as ?trace=1 on POST /v1/compile.
	Trace bool `json:"trace,omitempty"`
}

// normalize fills in defaults so that equivalent requests (e.g. beam 0
// vs beam 8) canonicalize — and therefore cache — identically.
func (r *CompileRequest) normalize() {
	if r.Machine.Type == "" {
		r.Machine.Type = "dspfabric"
	}
	switch r.Machine.Type {
	case "dspfabric":
		if r.Machine.N == 0 {
			r.Machine.N = 8
		}
		if r.Machine.M == 0 {
			r.Machine.M = 8
		}
		if r.Machine.K == 0 {
			r.Machine.K = 8
		}
	case "rcp", "linear":
		if r.Machine.Clusters == 0 {
			r.Machine.Clusters = 8
		}
		if r.Machine.Neighbors == 0 {
			r.Machine.Neighbors = 2
		}
		if r.Machine.Ports == 0 {
			r.Machine.Ports = 2
		}
	}
	// Canonicalize the search widths through the see package's own
	// defaulting so "beam 0" and "beam 8" hash — and therefore cache —
	// identically. Negative widths are deliberately left alone here:
	// buildOptions surfaces them as typed see.OptionError values, which
	// the HTTP layer maps to 400.
	if r.Options.Beam >= 0 && r.Options.Cand >= 0 {
		canon := see.Config{BeamWidth: r.Options.Beam, CandWidth: r.Options.Cand}.WithDefaults()
		r.Options.Beam = canon.BeamWidth
		r.Options.Cand = canon.CandWidth
	}
	if r.Options.Feedback {
		r.Options.Schedule = true
	}
	// Canonicalize the engine selection so "" and "see" cache — and
	// shard — identically. Unknown names are left alone: buildOptions
	// surfaces them as typed see.OptionError values → HTTP 400.
	if r.Options.Engine == "" {
		r.Options.Engine = "see"
	}
}

// build normalizes the request and constructs everything the submission
// path needs: the validated DDG, machine model, pipeline options and the
// content-addressed cache key.
func (r *CompileRequest) build() (*ddg.DDG, *machine.Config, core.Options, string, error) {
	r.normalize()
	d, err := r.buildDDG()
	if err != nil {
		return nil, nil, core.Options{}, "", fmt.Errorf("bad request: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, nil, core.Options{}, "", fmt.Errorf("bad request: %w", err)
	}
	mc, err := r.buildMachine()
	if err != nil {
		return nil, nil, core.Options{}, "", fmt.Errorf("bad request: %w", err)
	}
	opt, err := r.buildOptions()
	if err != nil {
		return nil, nil, core.Options{}, "", fmt.Errorf("bad request: %w", err)
	}
	return d, mc, opt, cacheKey(d, mc, r.Options), nil
}

// RequestKey returns req's content-addressed cache key — the fingerprint
// the batch endpoint dedups on and the sharding ring routes on. Delivery
// options (timeout, async, trace) never affect it. req is taken by value
// so the caller's copy is not normalized in place.
func RequestKey(req CompileRequest) (string, error) {
	_, _, _, key, err := req.build()
	return key, err
}

// buildOptions maps the request's option spec onto the core pipeline
// options and validates them centrally; invalid values come back as
// typed errors (see.OptionError) that the HTTP layer reports as 400.
func (r *CompileRequest) buildOptions() (core.Options, error) {
	opt := core.Options{
		SEE:                      see.Config{BeamWidth: r.Options.Beam, CandWidth: r.Options.Cand, DisableDedup: r.Options.DisableDedup},
		DisableRematerialization: r.Options.DisableRemat,
		DisableSeeding:           r.Options.DisableSeeding,
		SchedulingAware:          r.Options.SchedulingAware,
		DisableMemo:              r.Options.DisableMemo,
		Engine:                   r.Options.Engine,
	}
	if err := opt.Validate(); err != nil {
		return core.Options{}, err
	}
	return opt, nil
}

// buildDDG constructs the request's DDG.
func (r *CompileRequest) buildDDG() (*ddg.DDG, error) {
	sources := 0
	if r.Kernel != "" {
		sources++
	}
	if r.Synth != nil {
		sources++
	}
	if r.Source != "" {
		sources++
	}
	if sources != 1 {
		return nil, &see.OptionError{Field: "kernel", Value: sources, Reason: "exactly one of kernel, synth or source must be set"}
	}
	switch {
	case r.Kernel != "":
		k, err := kernels.ByName(r.Kernel)
		if err != nil {
			return nil, err
		}
		return k.Build(), nil
	case r.Synth != nil:
		if r.Synth.Ops < 16 || r.Synth.Ops > 1<<16 {
			return nil, &see.OptionError{Field: "synth.ops", Value: r.Synth.Ops, Reason: "out of range [16, 65536]"}
		}
		return kernels.Synthetic(kernels.SynthConfig{
			Ops: r.Synth.Ops, Seed: r.Synth.Seed, RecLatency: r.Synth.RecLatency,
		}), nil
	default:
		return lang.Compile(r.Source)
	}
}

// buildMachine constructs the request's machine model.
func (r *CompileRequest) buildMachine() (*machine.Config, error) {
	var mc *machine.Config
	switch r.Machine.Type {
	case "dspfabric":
		mc = machine.DSPFabric64(r.Machine.N, r.Machine.M, r.Machine.K)
	case "rcp":
		mc = machine.RCP(r.Machine.Clusters, r.Machine.Neighbors, r.Machine.Ports)
	case "linear":
		mc = machine.LinearArray(r.Machine.Clusters, r.Machine.Neighbors, r.Machine.Ports)
	default:
		return nil, &see.OptionError{Field: "machine.type", Str: r.Machine.Type, Reason: "want dspfabric, rcp or linear"}
	}
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	return mc, nil
}

// timeout returns the effective per-request deadline.
func (r *CompileRequest) timeout(def time.Duration) time.Duration {
	if r.TimeoutMs > 0 {
		return time.Duration(r.TimeoutMs) * time.Millisecond
	}
	return def
}

// cacheKey derives the content-addressed cache key: a SHA-256 over the
// DDG's canonical fingerprint, the machine's full canonical description,
// and every option that changes the result. Delivery options (timeout,
// async) are deliberately excluded.
func cacheKey(d *ddg.DDG, mc *machine.Config, opt OptionsSpec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ddg:%s\n", d.Fingerprint())
	fmt.Fprintf(&sb, "machine:%s", mc.Name)
	for _, l := range mc.Levels {
		fmt.Fprintf(&sb, "|%d/%d/%d", l.Groups, l.InWires, l.OutWires)
	}
	fmt.Fprintf(&sb, "|cn%d/%d|dma%d/%d/%d|ring%v|lin%v|nb%d|mem%v\n",
		mc.CNInPorts, mc.CNOutPorts,
		mc.DMAPorts, mc.DMAFIFODepth, mc.DMALatency,
		mc.Ring, mc.Linear, mc.RingNeighbors, mc.MemCNs)
	// The engine is part of the key: different engines legitimately
	// return different (all legal) results for the same input, so a
	// relaxed exact result must never be served to a strict-mode beam
	// request from the result cache — the same discriminator rule the
	// subproblem memo's AttemptKey.Engine enforces one layer down.
	fmt.Fprintf(&sb, "opts:b%d|c%d|remat%v|seed%v|sa%v|sched%v|fb%v|dd%v|dm%v|eng%s\n",
		opt.Beam, opt.Cand, opt.DisableRemat, opt.DisableSeeding,
		opt.SchedulingAware, opt.Schedule, opt.Feedback,
		opt.DisableDedup, opt.DisableMemo, opt.Engine)
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}
