package main

import (
	"io"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := summarize(Summary{Unit: "ms"}, []float64{3, 1, 5, 2, 4})
	if s.Median != 3 || s.Min != 1 || s.Max != 5 || s.Values[0] != 3 || s.Unit != "ms" {
		t.Errorf("odd count: %+v", s)
	}
	if s := summarize(Summary{}, []float64{4, 1, 2, 3}); s.Median != 2.5 {
		t.Errorf("even count: median %v, want 2.5", s.Median)
	}
}

func TestJudgeNeedsBoundAndRange(t *testing.T) {
	lower := Summary{Better: "lower", Bound: 0.25, Median: 100, Min: 80, Max: 160}
	higher := Summary{Better: "higher", Bound: 0.25, Median: 100, Min: 95, Max: 105}
	for _, c := range []struct {
		name   string
		old    Summary
		median float64
		want   string
	}{
		{"within bound", lower, 120, ""},
		{"beyond bound, inside the old range", lower, 150, ""},
		{"outside the old range, within bound", lower, 78, ""},
		{"beyond bound and range, worse", lower, 170, "WORSE"},
		{"beyond bound and range, better", lower, 70, "better"},
		{"higher is better, halved", higher, 50, "WORSE"},
	} {
		cur := c.old
		cur.Median = c.median
		if got := judge(c.old, cur); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsOnlyWorse(t *testing.T) {
	entry := func(share float64, ops ...float64) *Entry {
		return &Entry{Workloads: map[string]*WorkloadEntry{"synth_large": {
			FailedShare: []float64{share},
			EndToEnd: map[string]Summary{
				"ops_per_s": summarize(Summary{Better: "higher", Bound: 0.25}, ops),
				"ii_sum":    summarize(Summary{Better: "lower", Bound: 0.05}, []float64{1020, 1020}),
			},
		}}}
	}
	base := entry(0, 10, 12)
	if n := compare(io.Discard, base, base); n != 0 {
		t.Errorf("an entry against itself: %d flagged", n)
	}
	if n := compare(io.Discard, base, entry(0, 20, 22)); n != 0 {
		t.Errorf("doubled throughput: %d flagged as worse", n)
	}
	if n := compare(io.Discard, base, entry(0.1, 5, 6)); n != 2 {
		t.Errorf("halved throughput and a larger failed share: %d flagged, want 2", n)
	}
}

func TestParseResultReadsLastLine(t *testing.T) {
	out := "synth_large seed 1: correct=true\n  ops_per_s 10.0 1/s\n" +
		`{"correct":true,"attempted":20,"failed":0,"metrics":{"ops_per_s":{"value":10,"unit":"1/s"}}}` + "\n"
	r, err := parseResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 20 || r.Metrics["ops_per_s"].Value != 10 {
		t.Errorf("parsed %+v", r)
	}
	if _, err := parseResult("no json here\n"); err == nil {
		t.Error("a run without a result line parsed")
	}
}
