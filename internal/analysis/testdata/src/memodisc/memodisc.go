// Package memodisc exercises the engine/memo discipline rules on the
// core stub.
package memodisc

import "repro/internal/core"

const (
	engineSee   = 1
	engineExact = 2
)

// --- rule 1: AttemptKey constructions must set Engine ---

func inlineKeyWithoutEngine(memo core.SubproblemMemo) {
	memo.Observe(core.AttemptKey{DDG: 1, Start: 2}) // want `AttemptKey constructed without Engine`
}

func returnedKeyWithoutEngine(ddg uint64) core.AttemptKey {
	return core.AttemptKey{DDG: ddg} // want `AttemptKey constructed without Engine`
}

func keyUsedBeforeEngine(memo core.SubproblemMemo, ddg uint64) {
	k := core.AttemptKey{DDG: ddg}
	memo.Observe(k) // want `AttemptKey k may be used before Engine is set`
	k.Engine = engineSee
	memo.Observe(k)
}

func keyEngineOnlyOnSomePaths(memo core.SubproblemMemo, ddg uint64, exact bool) {
	k := core.AttemptKey{DDG: ddg}
	if exact {
		k.Engine = engineExact
	}
	memo.Observe(k) // want `AttemptKey k may be used before Engine is set`
}

func keyCopiedBeforeEngine(ddg uint64) core.AttemptKey {
	k := core.AttemptKey{DDG: ddg}
	clone := k // want `AttemptKey k may be used before Engine is set`
	clone.Engine = engineSee
	return clone
}

func engineSetInLiteral(memo core.SubproblemMemo, ddg uint64) {
	memo.Observe(core.AttemptKey{DDG: ddg, Engine: engineSee})
}

func engineSetBeforeUse(memo core.SubproblemMemo, ddg uint64, sched bool) {
	k := core.AttemptKey{DDG: ddg, Start: 3}
	if sched {
		k.Flags |= 1 // mutating other fields is fine while unset
	}
	k.Engine = engineSee
	if k.Engine == engineExact {
		k.Budget = 100
	}
	memo.Observe(k)
}

func engineSetOnAllPaths(memo core.SubproblemMemo, ddg uint64, exact bool) {
	k := core.AttemptKey{DDG: ddg}
	if exact {
		k.Engine = engineExact
	} else {
		k.Engine = engineSee
	}
	memo.Observe(k)
}

func copiesInheritEngine(base core.AttemptKey) (core.AttemptKey, core.AttemptKey) {
	// Copies of a settled key re-discriminate.
	kSee, kExact := base, base
	kSee.Engine = engineSee
	kExact.Engine = engineExact
	return kSee, kExact
}

// --- rule 2: Complete callers must have an Abandon path ---

func completeWithoutAbandon(memo core.SubproblemMemo, k core.AttemptKey, e *core.AttemptEntry, cancelled bool) {
	if cancelled {
		return
	}
	memo.Complete(k, e) // want `memo Complete without an Abandon path`
}

func completeWithFullProtocol(memo core.SubproblemMemo, k core.AttemptKey, e *core.AttemptEntry, cancelled bool) {
	if cancelled {
		memo.Abandon(k, e)
		return
	}
	memo.Complete(k, e)
}

func abandonOnlyIsFine(memo core.SubproblemMemo, k core.AttemptKey, e *core.AttemptEntry) {
	memo.Abandon(k, e)
}
