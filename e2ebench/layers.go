package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/trace"
)

// layers accumulates the per-layer figures of a traced run: the
// benchmark's own timers around the public calls it makes, and the
// summaries of the trace.Recorder each traced operation runs under.
type layers struct {
	mu     sync.Mutex
	ops    int       // traced operations
	lat    []float64 // their wall times, ms
	inner  float64   // ms of outside-timed calls inside traced operations
	sums   map[string]float64
	counts map[string]float64
	direct map[string]float64 // figures a workload computes whole
}

func newLayers() *layers {
	return &layers{sums: map[string]float64{}, counts: map[string]float64{}, direct: map[string]float64{}}
}

// time runs f and books its wall time under name; with inside set the
// time also counts as attributed time of the current operation. On a nil
// receiver, an untraced run, it only runs f.
func (l *layers) time(name string, inside bool, f func()) {
	if l == nil {
		f()
		return
	}
	start := time.Now()
	f()
	d := ms(time.Since(start))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sums[name] += d
	l.counts[name]++
	if inside {
		l.inner += d
	}
}

// add books v under name without counting a call.
func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.sums[name] += v
	l.mu.Unlock()
}

// set records a figure the workload computes whole.
func (l *layers) set(name string, v float64) {
	l.mu.Lock()
	l.direct[name] = v
	l.mu.Unlock()
}

// op books one finished traced operation.
func (l *layers) op(latency float64) {
	l.mu.Lock()
	l.ops++
	l.lat = append(l.lat, latency)
	l.mu.Unlock()
}

// record returns ctx carrying a fresh trace.Recorder, and a function
// that folds the recording into l: each phase's total time and span
// count, and every counter.
func (l *layers) record(ctx context.Context) (context.Context, func()) {
	rec := trace.New()
	return trace.With(ctx, rec), func() {
		s := rec.Summary()
		l.mu.Lock()
		defer l.mu.Unlock()
		for _, p := range s.Phases {
			l.sums["phase:"+p.Name] += float64(p.TotalUs) / 1000
			l.counts["phase:"+p.Name] += float64(p.Count)
		}
		for k, v := range s.Counters {
			l.sums["counter:"+k] += float64(v)
		}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish writes every per-layer metric into m. Layers a workload does
// not call read 0.
func (l *layers) finish(m map[string]metric, before, after usage, wall time.Duration, ops float64, q quality, overhead float64) {
	n := float64(l.ops)
	perOp := func(key string) float64 { return ratio(l.sums[key], n) }
	callsPerOp := func(key string) float64 { return ratio(l.counts[key], n) }
	perCall := func(key string) float64 { return ratio(l.sums[key], l.counts[key]) }
	put := func(name, unit string, v float64) {
		if d, ok := l.direct[name]; ok {
			v = d
		}
		m[name] = metric{v, unit}
	}
	engineCalls := l.counts["phase:see.solve"] + l.counts["phase:exact.solve"]
	memoHits, memoMisses := l.sums["counter:memo.hits"], l.sums["counter:memo.misses"]
	mean := 0.0
	for _, x := range l.lat {
		mean += x
	}
	mean = ratio(mean, n)

	put("ddg.miirec_input_ms", "ms", perCall("ddg.miirec_input"))
	put("ddg.miirec_final_ms", "ms", perCall("ddg.miirec_final"))
	put("see.solve_ms", "ms", perOp("phase:see.solve"))
	put("see.solve_calls", "count", callsPerOp("phase:see.solve"))
	put("see.states_explored", "count", perOp("counter:see.states_explored"))
	put("see.candidates_tried", "count", perOp("counter:see.candidates_tried"))
	put("see.duplicates_pruned", "count", perOp("counter:see.duplicates_pruned"))
	put("see.router_invocations", "count", perOp("counter:see.router_invocations"))
	put("exact.solve_ms", "ms", perOp("phase:exact.solve"))
	put("exact.solve_calls", "count", callsPerOp("phase:exact.solve"))
	put("exact.proved", "count", perOp("exact.proved"))
	put("exact.subproblems", "count", perOp("exact.subproblems"))
	put("partition.seed_ms", "ms", perOp("phase:partition.seed"))
	put("partition.seeds", "count", perOp("counter:partition.seeds"))
	put("mapper.map_ms", "ms", perOp("phase:mapper.map"))
	put("mapper.map_calls", "count", callsPerOp("phase:mapper.map"))
	put("mapper.wires_committed", "count", perOp("counter:mapper.wires_committed"))
	put("core.hca_ms", "ms", perOp("phase:hca"))
	put("core.postprocess_ms", "ms", perOp("phase:postprocess"))
	put("core.coherency_ms", "ms", perOp("phase:coherency"))
	put("core.subproblems", "count", perOp("counter:hca.subproblems"))
	put("core.attempt_yield", "ratio", ratio(l.sums["counter:hca.subproblems"], engineCalls))
	put("core.memo_hit_ratio", "ratio", ratio(memoHits, memoHits+memoMisses))
	put("core.seed_wins", "count", perOp("core.seed_wins"))
	put("core.all_levels_mii_sum", "count", float64(q.allLevels))
	put("driver.feedback_ms", "ms", perCall("driver.feedback"))
	put("driver.variant_ms", "ms", perOp("phase:variant"))
	put("modsched.run_ms", "ms", perOp("phase:modsched"))
	put("modsched.min_ii_ms", "ms", perCall("modsched.min_ii"))
	put("modsched.tries", "count", perOp("counter:modsched.tries"))
	put("sim.cycles_sum", "count", float64(q.cycles))
	put("report.encode_ms", "ms", perCall("report.encode"))
	put("report.bytes", "bytes", ratio(l.sums["report.bytes"], l.counts["report.encode"]))
	put("store.put_ms", "ms", perCall("store.put"))
	put("store.get_ms", "ms", perCall("store.get"))
	put("lang.compile_ms", "ms", perCall("lang.compile"))
	put("service.rtt_ms_p50", "ms", 0)
	put("service.submit_ms_p50", "ms", 0)
	put("service.queue_wait_ms_p50", "ms", 0)
	put("service.cache_hit_ratio", "ratio", 0)
	put("service.store_hits", "count", 0)
	put("service.memo_hit_ratio", "ratio", 0)
	put("service.singleflight_hits", "count", 0)
	put("service.batch_deduped", "count", 0)
	put("dse.sweep_ms", "ms", perCall("dse.sweep"))
	put("dse.points_solved", "count", 0)
	put("dse.memo_hit_ratio", "ratio", 0)
	put("par.cores_busy", "ratio", (after.cpu-before.cpu)/wall.Seconds())
	put("go.gc_cpu_ms_per_op", "ms", (after.gcCPU-before.gcCPU)*1000/ops)
	put("go.mallocs_per_op", "count", (after.mallocs-before.mallocs)/ops)
	put("trace.overhead_ratio", "ratio", overhead)
	put("bench.unattributed_ms", "ms", mean-ratio(l.inner, n))
}
