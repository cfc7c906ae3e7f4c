package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dse"
	"repro/internal/see"
)

// DefaultMaxExplorePoints is the default bound on how many grid points a
// single POST /v1/explore request may expand to.
const DefaultMaxExplorePoints = 64

// ExploreRequest is the body of POST /v1/explore: one kernel (the same
// exactly-one-of kernel/synth/source rule as /v1/compile) swept against
// a parameter grid of candidate fabrics. The sweep runs as one job —
// cacheable, journable and pollable exactly like a compile — whose
// result body is the dse.Result JSON: every point, the Pareto front
// over (final MII, fabric cost), and the sweep stats.
type ExploreRequest struct {
	Kernel string     `json:"kernel,omitempty"`
	Synth  *SynthSpec `json:"synth,omitempty"`
	Source string     `json:"source,omitempty"`
	// Grid is the parameter sweep (see dse.Grid); the zero grid is the
	// single paper-default point.
	Grid dse.Grid `json:"grid"`
	// Beam / Cand are the SEE search widths applied to every point
	// (defaults 8/4, canonicalized like the compile endpoint's).
	Beam int `json:"beam,omitempty"`
	Cand int `json:"cand,omitempty"`
	// ExactBudget caps the exact engine's node expansions per attempt
	// for points whose engine axis selects "exact" or "portfolio".
	ExactBudget int64 `json:"exact_budget,omitempty"`
	// TimeoutMs bounds the whole sweep; the service default applies when
	// zero. Not part of the cache key.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Async returns a job ID immediately; poll GET /v1/jobs/{id}. Not
	// part of the cache key.
	Async bool `json:"async,omitempty"`
}

// normalize canonicalizes the search widths so equivalent requests
// cache identically, mirroring CompileRequest.normalize.
func (r *ExploreRequest) normalize() {
	if r.Beam >= 0 && r.Cand >= 0 {
		canon := see.Config{BeamWidth: r.Beam, CandWidth: r.Cand}.WithDefaults()
		r.Beam = canon.BeamWidth
		r.Cand = canon.CandWidth
	}
}

// work validates the sweep and builds it: the DDG, the validated grid
// and options, and the content key. maxPoints is the service's point
// bound. It is checked from the grid's axis lengths before any point is
// built, so an oversized grid costs nothing to turn away. Bad grids and
// options come back as typed *see.OptionError values → HTTP 400.
func (r ExploreRequest) work(maxPoints int) (*work, error) {
	if n := r.Grid.NumPoints(); n > maxPoints {
		return nil, fmt.Errorf("bad request: %w", &see.OptionError{
			Field: "grid", Value: n,
			Reason: fmt.Sprintf("grid expands to %d points, limit %d", n, maxPoints)})
	}
	if err := (dse.Options{Beam: r.Beam, Cand: r.Cand, ExactBudget: r.ExactBudget}).Validate(); err != nil {
		return nil, fmt.Errorf("bad request: %w", err)
	}
	if _, err := r.Grid.Expand(); err != nil {
		return nil, fmt.Errorf("bad request: %w", err)
	}
	src := CompileRequest{Kernel: r.Kernel, Synth: r.Synth, Source: r.Source}
	d, err := src.buildDDG()
	if err != nil {
		return nil, fmt.Errorf("bad request: %w", err)
	}
	r.normalize()
	return &work{
		key: contentKey("explore", d, struct {
			Grid        dse.Grid
			Beam, Cand  int
			ExactBudget int64
		}{r.Grid, r.Beam, r.Cand, r.ExactBudget}),
		async:   r.Async,
		cached:  true,
		timeout: time.Duration(r.TimeoutMs) * time.Millisecond,
		// A sweep runs against the process-wide subproblem memo, so it
		// both profits from and warms the memo shared with compiles.
		render: func(ctx context.Context, s *Service) ([]byte, error) {
			res, err := dse.Sweep(ctx, d, r.Grid, dse.Options{
				Beam: r.Beam, Cand: r.Cand, ExactBudget: r.ExactBudget,
				MaxPoints: maxPoints, Memo: s.memo,
			})
			if err != nil {
				return nil, err
			}
			s.metrics.update(func(c *Snapshot) {
				c.Sweeps++
				c.SweepPoints += int64(res.Stats.Points)
				c.SweepDeduped += int64(res.Stats.Deduped)
			})
			return json.MarshalIndent(res, "", "  ")
		},
	}, nil
}

// SubmitExplore validates req and submits the sweep on the same cache,
// single-flight, worker-pool and journal path as compiles.
func (s *Service) SubmitExplore(ctx context.Context, req ExploreRequest) (*Job, error) {
	wk, err := req.work(s.cfg.MaxExplorePoints)
	if err != nil {
		return nil, err
	}
	return s.submit(ctx, wk)
}

// handleExplore is POST /v1/explore.
func (s *Service) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if !s.decode(w, r, &req) {
		return
	}
	wk, err := req.work(s.cfg.MaxExplorePoints)
	s.reply(w, r, wk, err)
}
