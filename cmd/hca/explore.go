package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/dse"
)

// runExplore handles -explore: parse the axis spec, sweep the kernel
// over the grid with one shared subproblem memo, and print the
// per-point results plus the MII-vs-cost Pareto front. opt carries the
// search widths, the exact budget and the default engine axis. Failed
// points are noted on stderr; when no point succeeded the note is the
// returned error, so hca exits 1 as for a failed single compile.
func runExplore(stdout, stderr io.Writer, d *ddg.DDG, spec string, opt core.Options, jsonOut, verbose bool) error {
	g, err := dse.ParseGrid(spec)
	if err != nil {
		return err
	}
	// The -engine flag is the default engine axis; an explicit
	// "engines=..." clause in the spec wins.
	if len(g.Engines) == 0 {
		g.Engines = []string{opt.Engine}
	}
	res, err := dse.Sweep(context.Background(), d, g, dse.Options{
		Beam: opt.SEE.BeamWidth, Cand: opt.SEE.CandWidth, ExactBudget: opt.ExactBudget,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	} else {
		writeSweep(stdout, res, verbose)
	}
	st := res.Stats
	if st.Failed == 0 {
		return nil
	}
	failed := fmt.Errorf("%d of %d points failed", st.Failed, st.Points)
	if st.Failed == st.Points {
		return failed
	}
	fmt.Fprintln(stderr, "hca:", failed)
	return nil
}

// writeSweep prints the sweep as a per-point table and its Pareto front.
func writeSweep(stdout io.Writer, res *dse.Result, verbose bool) {
	st := res.Stats
	fmt.Fprintf(stdout, "design-space sweep: %s, %d points (%d unique, %d deduped)\n",
		res.Kernel, st.Points, st.Unique, st.Deduped)
	fmt.Fprintf(stdout, "memo: %d hits / %d misses (ratio %.2f), wall %.1f ms\n",
		st.Memo.Hits, st.Memo.Misses, st.MemoHitRatio, float64(st.WallNs)/1e6)
	onFront := make(map[int]bool, len(res.Front))
	for _, f := range res.Front {
		onFront[f.Index] = true
	}
	fmt.Fprintf(stdout, "\n%-4s %-32s %-10s %5s %9s  %s\n", "idx", "machine", "engine", "mii", "cost", "")
	for _, p := range res.Points {
		mark := ""
		if onFront[p.Index] {
			mark = "pareto"
		}
		if p.Error != "" {
			fmt.Fprintf(stdout, "%-4d %-32s %-10s %5s %9s  error: %s\n", p.Index, p.Machine, p.Engine, "-", "-", p.Error)
			continue
		}
		dedup := ""
		if p.Canonical != p.Index {
			dedup = fmt.Sprintf(" (= point %d)", p.Canonical)
		}
		fmt.Fprintf(stdout, "%-4d %-32s %-10s %5d %9d  %s%s\n",
			p.Index, p.Machine, p.Engine, p.MIIFinal, p.Cost.Total, mark, dedup)
		if verbose {
			fmt.Fprintf(stdout, "     fp %s  rec/res %d/%d  all-levels %d  recvs %d  winner %s\n",
				p.Fingerprint, p.MIIRec, p.MIIRes, p.MIIAllLevels, p.Receives, p.Winner)
		}
	}
	if len(res.Front) == 0 {
		fmt.Fprintln(stdout, "\npareto front: empty (no legal point)")
		return
	}
	fmt.Fprintln(stdout, "\npareto front (cost ascending):")
	for _, f := range res.Front {
		fmt.Fprintf(stdout, "  mii %-4d cost %-9d %s\n", f.MII, f.Cost, f.Machine)
	}
}
