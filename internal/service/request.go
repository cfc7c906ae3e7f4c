package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/dse"
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
// vs beam 8) canonicalize — and therefore cache — identically. The
// machine needs none: the key hashes the machine.Config it builds.
func (r *CompileRequest) normalize() {
	// Canonicalize the search widths through the see package's own
	// defaulting so "beam 0" and "beam 8" hash — and therefore cache —
	// identically. Negative widths are deliberately left alone here:
	// Build surfaces them as typed see.OptionError values, which
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
	// shard — identically. Unknown names are left alone: Build
	// surfaces them as typed see.OptionError values → HTTP 400.
	if r.Options.Engine == "" {
		r.Options.Engine = "see"
	}
}

// work is one request built for submission: everything submit needs to
// serve it from the caches or queue it, and the function a worker calls
// to render its response body.
type work struct {
	key     string        // content key (see contentKey)
	async   bool          // detached from its submitter, so it may single-flight
	cached  bool          // may use the result caches; traced compiles may not
	timeout time.Duration // 0 selects the service default
	render  func(ctx context.Context, s *Service) ([]byte, error)
}

// contentKey derives a job's content-addressed cache key: a SHA-256 over
// the job kind, the DDG's canonical fingerprint and the canonical JSON
// of spec, the normalized inputs that shape the result besides the DDG.
// spec is encoded whole, so each of its fields reaches the key by
// construction; delivery options (timeout, async, trace) are never part
// of it.
func contentKey(kind string, d *ddg.DDG, spec any) string {
	js, _ := json.Marshal(spec) // plain structs of numbers, strings and slices always encode
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", kind, d.Fingerprint())
	h.Write(js)
	return hex.EncodeToString(h.Sum(nil))
}

// work builds the request for submission: the DDG, machine and options
// from Build, and the content key over the options Build normalized.
// defaultEngine fills an unset options.engine.
func (r CompileRequest) work(defaultEngine string) (*work, error) {
	if r.Options.Engine == "" {
		r.Options.Engine = defaultEngine
	}
	d, mc, opt, err := r.Build()
	if err != nil {
		return nil, fmt.Errorf("bad request: %w", err)
	}
	return &work{
		// The engine is part of the key through OptionsSpec: different
		// engines legitimately return different (all legal) results.
		key: contentKey("compile", d, struct {
			Machine *machine.Config
			Options OptionsSpec
		}{mc, r.Options}),
		async:   r.Async,
		cached:  !r.Trace,
		timeout: time.Duration(r.TimeoutMs) * time.Millisecond,
		render: func(ctx context.Context, s *Service) ([]byte, error) {
			return s.compile(ctx, d, mc, opt, r.Options, r.Trace)
		},
	}, nil
}

// RequestKey returns req's content-addressed cache key — the fingerprint
// the sharding ring routes on. Delivery options (timeout, async, trace)
// never affect it, and neither does any node's DefaultEngine.
func RequestKey(req CompileRequest) (string, error) {
	wk, err := req.work("")
	if err != nil {
		return "", err
	}
	return wk.key, nil
}

// Build normalizes r and builds what it compiles: the DDG, the machine
// model (through dse.Machine) and the validated pipeline options.
// Invalid values come back as typed *see.OptionError values, which the
// HTTP layer reports as 400. The service and cmd/hca both build through
// it, so they accept, reject and compile the same requests.
func (r *CompileRequest) Build() (*ddg.DDG, *machine.Config, core.Options, error) {
	r.normalize()
	d, err := r.buildDDG()
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	m := r.Machine
	mc, err := dse.Machine{Type: m.Type, N: m.N, M: m.M, K: m.K,
		Clusters: m.Clusters, Neighbors: m.Neighbors, Ports: m.Ports}.Build("machine")
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	opt := core.Options{
		SEE:                      see.Config{BeamWidth: r.Options.Beam, CandWidth: r.Options.Cand, DisableDedup: r.Options.DisableDedup},
		DisableRematerialization: r.Options.DisableRemat,
		DisableSeeding:           r.Options.DisableSeeding,
		SchedulingAware:          r.Options.SchedulingAware,
		DisableMemo:              r.Options.DisableMemo,
		Engine:                   r.Options.Engine,
	}
	if err := opt.Validate(); err != nil {
		return nil, nil, core.Options{}, err
	}
	return d, mc, opt, nil
}

// buildDDG constructs and validates the request's DDG.
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
	var d *ddg.DDG
	switch {
	case r.Kernel != "":
		k, err := kernels.ByName(r.Kernel)
		if err != nil {
			return nil, err
		}
		d = k.Build()
	case r.Synth != nil:
		if r.Synth.Ops < 16 || r.Synth.Ops > 1<<16 {
			return nil, &see.OptionError{Field: "synth.ops", Value: r.Synth.Ops, Reason: "out of range [16, 65536]"}
		}
		d = kernels.Synthetic(kernels.SynthConfig{
			Ops: r.Synth.Ops, Seed: r.Synth.Seed, RecLatency: r.Synth.RecLatency,
		})
	default:
		var err error
		if d, err = lang.Compile(r.Source); err != nil {
			return nil, err
		}
	}
	return d, d.Validate()
}
