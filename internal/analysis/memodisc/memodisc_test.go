package memodisc_test

import (
	"testing"

	"repro/internal/analysis/antest"
	"repro/internal/analysis/memodisc"
)

func TestMemoDisc(t *testing.T) {
	antest.Run(t, antest.TestData(), memodisc.Analyzer, "memodisc")
}

func TestMemoDiscFires(t *testing.T) {
	antest.MustFire(t, antest.TestData(), memodisc.Analyzer, "memodisc")
}
