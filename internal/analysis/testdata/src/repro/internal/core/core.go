// Package core is a fixture stub declared under the real package's
// import path so memodisc's AttemptKey and memo-protocol matching
// resolves identically in tests.
package core

// AttemptKey mirrors the memo key: Engine discriminates which solver
// produced (and may reuse) a cached attempt.
type AttemptKey struct {
	DDG    uint64
	Topo   uint64
	Start  int
	WS     uint64
	Rung   int
	Flags  uint32
	Engine uint8
	Budget int
}

// AttemptEntry mirrors the memo slot.
type AttemptEntry struct {
	Score int
}

// SubproblemMemo mirrors the acquire/complete/abandon protocol.
type SubproblemMemo interface {
	Acquire(k AttemptKey) (*AttemptEntry, bool)
	Complete(k AttemptKey, e *AttemptEntry)
	Abandon(k AttemptKey, e *AttemptEntry)
	Observe(k AttemptKey) *AttemptEntry
}
