package driver

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/see"
	"repro/internal/trace"
)

func TestHCAWithFeedback(t *testing.T) {
	mc := machine.DSPFabric64(8, 8, 8)
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			fb, err := HCAWithFeedback(context.Background(), k.Build(), mc, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !fb.Legal {
				t.Fatal("not legal")
			}
			// The feedback loop can never do worse than the default
			// variant alone.
			res, err := core.HCA(context.Background(), k.Build(), mc, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := modsched.Run(context.Background(), res.Final, res.FinalCN, mc, modsched.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if fb.Schedule.II > s.II {
				t.Errorf("feedback II %d worse than default %d", fb.Schedule.II, s.II)
			}
			t.Logf("%s: feedback picked %q with II=%d (default %d)", k.Name, fb.Variant, fb.Schedule.II, s.II)
		})
	}
}

// The feedback loop's whole point: for every paper kernel, the variant
// it selects achieves an II no worse than any variant it rejected.
func TestVariantSelectionOptimal(t *testing.T) {
	mc := machine.DSPFabric64(8, 8, 8)
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			d := k.Build()
			vs := RunVariants(context.Background(), d, mc, core.Options{})
			if len(vs) != 3 {
				t.Fatalf("got %d variants, want 3", len(vs))
			}
			fb, err := HCAWithFeedback(context.Background(), d, mc, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sawWinner := false
			for _, v := range vs {
				if v.Err != nil {
					t.Logf("%s: variant %q failed: %v", k.Name, v.Name, v.Err)
					continue
				}
				if v.Schedule.II < fb.Schedule.II {
					t.Errorf("%s: rejected variant %q has II %d < selected %q's %d",
						k.Name, v.Name, v.Schedule.II, fb.Variant, fb.Schedule.II)
				}
				if v.Name == fb.Variant {
					sawWinner = true
					if v.Schedule.II != fb.Schedule.II {
						t.Errorf("%s: winner II mismatch: %d vs %d", k.Name, v.Schedule.II, fb.Schedule.II)
					}
				}
				if !v.Result.Legal {
					t.Errorf("%s: variant %q result not legal", k.Name, v.Name)
				}
				if v.Schedule.II < v.Result.MII.Final {
					t.Errorf("%s: variant %q achieved II %d below its MII bound %d",
						k.Name, v.Name, v.Schedule.II, v.Result.MII.Final)
				}
			}
			if !sawWinner {
				t.Errorf("%s: selected variant %q not among the reported variants", k.Name, fb.Variant)
			}
		})
	}
}

// Cancellation propagates through the feedback loop.
func TestFeedbackContextCancelled(t *testing.T) {
	mc := machine.DSPFabric64(8, 8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := HCAWithFeedback(ctx, kernels.All()[0].Build(), mc, core.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	for _, v := range RunVariants(ctx, kernels.All()[0].Build(), mc, core.Options{}) {
		if !errors.Is(v.Err, context.Canceled) {
			t.Errorf("variant %q: err %v, want context.Canceled", v.Name, v.Err)
		}
	}
}

// Invalid options fail at entry with the typed option error itself,
// not wrapped in "every variant failed", and before any variant runs.
func TestFeedbackValidatesBeforeVariants(t *testing.T) {
	rec := trace.New()
	ctx := trace.With(context.Background(), rec)
	_, err := HCAWithFeedback(ctx, kernels.Fir2Dim(), machine.DSPFabric64(8, 8, 8), core.Options{ExactBudget: -1})
	if oe, ok := err.(*see.OptionError); !ok || oe.Field != "exact_budget" {
		t.Fatalf("err = %v (%T), want the exact_budget *see.OptionError itself", err, err)
	}
	for _, p := range rec.Summary().Phases {
		if p.Name == "variant" {
			t.Fatalf("%d variant spans recorded for an invalid option", p.Count)
		}
	}
}

// The variant race shares one subproblem memo: the rungs a variant does
// not override are identical across workers, so the race must register
// cross-variant hits — and the memo must not change any variant's
// outcome relative to a memo-less race.
func TestRunVariantsSharedMemo(t *testing.T) {
	mc := machine.DSPFabric64(8, 8, 8)
	d := kernels.Fir2Dim()
	memo := core.NewMemo(0)
	shared := RunVariants(context.Background(), d, mc, core.Options{Memo: memo})
	if st := memo.Stats(); st.Hits == 0 {
		t.Fatalf("no cross-variant memo hits: %+v", st)
	}
	plain := RunVariants(context.Background(), d, mc, core.Options{DisableMemo: true})
	if len(shared) != len(plain) {
		t.Fatalf("variant count diverged: %d vs %d", len(shared), len(plain))
	}
	for i := range shared {
		a, b := shared[i], plain[i]
		if a.Name != b.Name || (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("variant %d diverged: %+v vs %+v", i, a, b)
		}
		if a.Err != nil {
			continue
		}
		if a.Schedule.II != b.Schedule.II || a.Result.Recvs != b.Result.Recvs {
			t.Errorf("variant %q: memo changed outcome: II %d/%d recvs %d/%d",
				a.Name, a.Schedule.II, b.Schedule.II, a.Result.Recvs, b.Result.Recvs)
		}
	}
}
