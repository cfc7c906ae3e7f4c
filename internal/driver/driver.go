// Package driver closes the compilation loop above HCA: it couples the
// clusterizer with the modulo scheduler and selects among heuristic
// variants by the II the scheduler actually achieves — the feedback §5
// identifies as the missing ingredient.
package driver

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/par"
	"repro/internal/trace"
)

// ScheduledResult couples a clusterization with its achieved modulo
// schedule.
type ScheduledResult struct {
	*core.Result
	Schedule *modsched.Schedule
	// Variant names the heuristic mix that won.
	Variant string
}

// VariantResult records one heuristic variant's complete end-to-end
// outcome: its clusterization and achieved schedule, or the error that
// knocked it out. The feedback loop selects among these; tests and the
// service's verbose reports inspect the rejected ones too.
type VariantResult struct {
	Name     string
	Result   *core.Result
	Schedule *modsched.Schedule
	Err      error
}

// variants enumerates the heuristic mixes the feedback loop races.
func variants(base core.Options) []struct {
	name string
	opt  core.Options
} {
	schedAware := base
	schedAware.SchedulingAware = true
	portFrugal := base
	// Only the widths differ: the rest of the caller's SEE config (dedup
	// switch, criticality cache, custom criteria) carries through, so the
	// variant shares the base's retry-ladder rungs in the memo.
	portFrugal.SEE = base.SEE
	portFrugal.SEE.BeamWidth, portFrugal.SEE.CandWidth = 16, 4
	return []struct {
		name string
		opt  core.Options
	}{
		{"default", base},
		{"sched-aware", schedAware},
		{"port-frugal", portFrugal},
	}
}

// RunVariants runs every heuristic variant end to end (HCA + modulo
// scheduling) and returns all outcomes in variant order. The variants
// are independent races, so they fan out over par's pool — each worker
// writes only its own slot, keeping the result order (and thus the
// Better tie-break applied by callers) deterministic. A cancelled ctx
// aborts variants that have not started (ForEachCtx skips them, and
// they are backfilled below); their entries carry ctx's error.
//
// Unless the caller supplied its own (or disabled it), the variants
// share one subproblem memo: every retry-ladder rung a variant does not
// override is identical across the race, so the workers answer each
// other's beam searches.
func RunVariants(ctx context.Context, d *ddg.DDG, mc *machine.Config, base core.Options) []VariantResult {
	if base.Memo == nil && !base.DisableMemo {
		base.Memo = core.NewMemo(0)
	}
	vs := variants(base)
	out := make([]VariantResult, len(vs))
	runOne := func(i int) {
		vr := &out[i]
		vr.Name = vs[i].name
		if err := ctx.Err(); err != nil {
			vr.Err = err
			return
		}
		// One span per raced variant; the HCA descent and the modulo
		// schedule nest inside it, and its attributes record how the
		// variant fared so the trace explains the feedback decision.
		vctx, sp := trace.Start(ctx, "variant "+vs[i].name)
		defer sp.End()
		sp.SetStr("phase", "variant")
		res, err := core.HCA(vctx, d, mc, vs[i].opt)
		if err != nil {
			vr.Err = err
			sp.SetStr("error", err.Error())
			return
		}
		s, err := modsched.Run(vctx, res.Final, res.FinalCN, mc, modsched.Config{})
		if err != nil {
			vr.Err = err
			sp.SetStr("error", err.Error())
			return
		}
		vr.Result, vr.Schedule = res, s
		sp.SetInt("ii", int64(s.II))
		sp.SetInt("receives", int64(res.Recvs))
	}
	_ = par.ForEachCtx(ctx, len(vs), runOne)
	for i := range out {
		if out[i].Name == "" { // skipped by the cancellation cut
			out[i].Name, out[i].Err = vs[i].name, ctx.Err()
		}
	}
	return out
}

// Better reports whether a beats b under the feedback loop's selection
// rule: smaller achieved II first, ties to fewer receive primitives.
func (a VariantResult) Better(b VariantResult) bool {
	if b.Err != nil {
		return a.Err == nil
	}
	if a.Err != nil {
		return false
	}
	if a.Schedule.II != b.Schedule.II {
		return a.Schedule.II < b.Schedule.II
	}
	return a.Result.Recvs < b.Result.Recvs
}

// HCAWithFeedback closes the loop the paper's §5 says is missing: the MII
// the clusterizer optimizes is only a bound, and the II the modulo
// scheduler *achieves* depends on cost factors the clusterizer cannot see
// ("we guess that it could increase dramatically unless we take into
// account scheduling aware cost factors"). This driver runs several
// heuristic variants end to end — default, scheduling-aware, and
// port-frugal — schedules each result, and returns the clusterization
// with the smallest achieved II (ties to fewer receives).
//
// HCAWithFeedback is the canonical context-first entry point: ctx aborts
// both the per-variant HCA descents and the remaining variants of the
// race; a trace.Recorder in ctx gets one span per variant plus a
// "feedback.select" span recording which variant won and why. Invalid
// base options fail before any variant runs, with core.Options.Validate's
// typed error.
func HCAWithFeedback(ctx context.Context, d *ddg.DDG, mc *machine.Config, base core.Options) (*ScheduledResult, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	var best *VariantResult
	var firstErr error
	ctx, fsp := trace.Start(ctx, "feedback")
	defer fsp.End()
	for _, vr := range RunVariants(ctx, d, mc, base) {
		vr := vr
		if vr.Err != nil {
			if firstErr == nil {
				firstErr = vr.Err
			}
			continue
		}
		if best == nil || vr.Better(*best) {
			best = &vr
		}
	}
	if best == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("hca: feedback: every variant failed: %w", firstErr)
	}
	_, sel := trace.Start(ctx, "feedback.select")
	sel.SetStr("winner", best.Name)
	sel.SetStr("why", fmt.Sprintf("achieved II %d with %d receives (smallest II, ties to fewer receives)",
		best.Schedule.II, best.Result.Recvs))
	sel.End()
	fsp.SetStr("winner", best.Name)
	return &ScheduledResult{Result: best.Result, Schedule: best.Schedule, Variant: best.Name}, nil
}
