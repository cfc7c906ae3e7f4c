package graph

// MaxCycleRatioReference exposes the whole-graph reference search to the
// external tests that compare it with MaxCycleRatio on real DDGs.
var MaxCycleRatioReference = (*Directed).maxCycleRatioReference
