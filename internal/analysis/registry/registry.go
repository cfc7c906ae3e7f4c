// Package registry is the single list of analyzers in the hcalint
// suite. cmd/hcalint runs what is registered here, and the registry
// meta-test enforces that every entry ships with fixture coverage —
// a positive fixture proving the analyzer fires and negative
// declarations pinning where it stays silent — so an analyzer cannot
// be registered without tests.
package registry

import (
	"repro/internal/analysis"
	"repro/internal/analysis/ctxfirst"
	"repro/internal/analysis/errtyped"
	"repro/internal/analysis/flowlife"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/journalbalance"
	"repro/internal/analysis/memodisc"
	"repro/internal/analysis/sharecap"
	"repro/internal/analysis/spanend"
)

// Entry registers one analyzer with its fixture coverage.
type Entry struct {
	Analyzer *analysis.Analyzer
	// Fixtures are the antest package paths under testdata/src the
	// analyzer is validated against (want comments must all match).
	Fixtures []string
	// Fire is the fixture package on which the analyzer must report at
	// least one diagnostic (the MustFire check); it must be listed in
	// Fixtures.
	Fire string
}

// All returns the suite in stable (alphabetical) order.
func All() []Entry {
	return []Entry{
		{Analyzer: ctxfirst.Analyzer, Fixtures: []string{"ctxfirst", "ctxfirst/cmd/app", "ctxfirst/examples/demo"}, Fire: "ctxfirst"},
		{Analyzer: errtyped.Analyzer, Fixtures: []string{"errtyped/internal/service", "errtyped/outofscope"}, Fire: "errtyped/internal/service"},
		{Analyzer: flowlife.Analyzer, Fixtures: []string{"flowlife"}, Fire: "flowlife"},
		{Analyzer: hotpathalloc.Analyzer, Fixtures: []string{"hotpathalloc"}, Fire: "hotpathalloc"},
		{Analyzer: journalbalance.Analyzer, Fixtures: []string{"journalbalance"}, Fire: "journalbalance"},
		{Analyzer: memodisc.Analyzer, Fixtures: []string{"memodisc"}, Fire: "memodisc"},
		{Analyzer: sharecap.Analyzer, Fixtures: []string{"sharecap", "sharecap/internal/see"}, Fire: "sharecap"},
		{Analyzer: spanend.Analyzer, Fixtures: []string{"spanend"}, Fire: "spanend"},
	}
}

// Analyzers returns just the analyzers, in registry order.
func Analyzers() []*analysis.Analyzer {
	entries := All()
	out := make([]*analysis.Analyzer, len(entries))
	for i, e := range entries {
		out[i] = e.Analyzer
	}
	return out
}
