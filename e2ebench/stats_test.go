package main

import (
	"bytes"
	"sort"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 18, 1, 12, 9, 3, 14, 7, 16, 2, 11, 6, 17, 4, 13, 8, 15, 10}
	for _, c := range []struct{ p, want float64 }{{50, 9}, {90, 17}, {100, 18}, {1, 1}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(1..18, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{42}, 90); got != 42 {
		t.Errorf("nearestRank of one value = %v", got)
	}
	if xs[0] != 5 {
		t.Error("nearestRank reordered its input")
	}
}

func TestSlotLatencyReadsOneSlotsMedian(t *testing.T) {
	// Medians 2, 20 and 6: an outlier in one round moves nothing.
	slots := [][]float64{{1, 2, 3}, {10, 20, 30}, {5, 6, 100}}
	if got := slotLatency(slots, 50); got != 6 {
		t.Errorf("p50 = %v, want 6", got)
	}
	if got := slotLatency(slots, 90); got != 20 {
		t.Errorf("p90 = %v, want 20", got)
	}
	if got := above([]float64{1, 6, 7, 100, 6}, 6); got != 2 {
		t.Errorf("above = %d, want 2", got)
	}
}

// The latency percentiles take each slot's median over the rounds, so a
// slot must hold the same kind of request in every round.
func TestServiceRoundSlotsKeepTheirRequests(t *testing.T) {
	w := &serviceWorkload{seed: 1, fixed: fixedRequests()}
	a, orderA := w.roundRequests(0)
	b, orderB := w.roundRequests(1)
	if len(a) != len(b) {
		t.Fatalf("rounds differ in length: %d and %d", len(a), len(b))
	}
	for k := range a {
		if a[k].path != b[k].path {
			t.Errorf("slot %d is %s in one round and %s in the next", k, a[k].path, b[k].path)
		}
		if k < len(w.fixed) && !bytes.Equal(a[k].body, b[k].body) {
			t.Errorf("repeated compile in slot %d changed between rounds", k)
		}
	}
	for _, order := range [][]int{orderA, orderB} {
		s := append([]int(nil), order...)
		sort.Ints(s)
		for i, v := range s {
			if v != i {
				t.Fatalf("send order %v is not a permutation of the slots", order)
			}
		}
	}
	same := true
	for i := range orderA {
		same = same && orderA[i] == orderB[i]
	}
	if same {
		t.Error("two rounds send their requests in the same order")
	}
}
