package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sketch"
)

// layerMetric names one per-layer metric and how it is read off the
// traced run.
type layerMetric struct {
	name, unit string
	value      func(l *layerRun) float64
}

// layerRun is the traced phase: the tracer's spans plus the shared
// cache and memo counters over exactly that phase, and the untraced
// phase it is compared with.
type layerRun struct {
	tr              *tracer
	self            []map[string]float64
	traced, plain   summary
	cache0, cache1  sketch.CacheStats
	memo0, memo1    core.FingerprintMemoStats
	replacePackages []float64
}

// spanMs is the median, over ops that ran the layer, of its per-op
// self time.
func (l *layerRun) spanMs(name string) float64 {
	var xs []float64
	for _, m := range l.self {
		if v, ok := m[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// allocMB is the median bytes allocated inside the named span per op.
func (l *layerRun) allocMB(name string) float64 {
	per := map[int]float64{}
	for _, s := range l.tr.spans {
		if s.Name == name {
			per[s.Op] += float64(s.Alloc) / (1 << 20)
		}
	}
	xs := make([]float64, 0, len(per))
	for _, v := range per {
		xs = append(xs, v)
	}
	return median(xs)
}

// countMean is the mean of a per-op counter over ops that recorded it.
func (l *layerRun) countMean(name string) float64 {
	var xs []float64
	for _, o := range l.tr.ops {
		if v, ok := o.Count[name]; ok {
			xs = append(xs, float64(v))
		}
	}
	return mean(xs)
}

func (l *layerRun) countSum(name string) float64 {
	s := 0.0
	for _, o := range l.tr.ops {
		s += float64(o.Count[name])
	}
	return s
}

// opsWith counts the ops that ran the named span.
func (l *layerRun) opsWith(name string) float64 {
	n := 0.0
	for _, m := range l.self {
		if _, ok := m[name]; ok {
			n++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var layerMetrics = []layerMetric{
	{"plan.plan_ms", "ms", func(l *layerRun) float64 { return l.spanMs("plan.plan") }},
	{"core.prepare_ms", "ms", func(l *layerRun) float64 { return l.spanMs("core.prepare") }},
	{"core.prepare_alloc_mb", "MB", func(l *layerRun) float64 { return l.allocMB("core.prepare") }},
	{"core.candidates", "count", func(l *layerRun) float64 { return l.countMean("candidates") }},
	{"core.fingerprint_ms", "ms", func(l *layerRun) float64 { return l.spanMs("core.fingerprint") }},
	{"core.rows_hashed", "count", func(l *layerRun) float64 {
		return ratio(float64(l.memo1.RowsHashed-l.memo0.RowsHashed), l.opsWith("core.fingerprint"))
	}},
	{"core.memo_hit_ratio", "ratio", func(l *layerRun) float64 {
		return ratio(float64(l.memo1.Hits-l.memo0.Hits), float64(l.memo1.Lookups-l.memo0.Lookups))
	}},
	{"sketch.cache_hit_ratio", "ratio", func(l *layerRun) float64 {
		h := float64(l.cache1.Hits - l.cache0.Hits)
		return ratio(h, h+float64(l.cache1.Misses-l.cache0.Misses))
	}},
	{"sketch.evictions", "count", func(l *layerRun) float64 {
		return ratio(float64(l.cache1.Evictions-l.cache0.Evictions), l.opsWith("core.fingerprint"))
	}},
	{"sketch.build_ms", "ms", func(l *layerRun) float64 { return l.spanMs("sketch.build") }},
	{"sketch.build_alloc_mb", "MB", func(l *layerRun) float64 { return l.allocMB("sketch.build") }},
	{"sketch.patch_ms", "ms", func(l *layerRun) float64 { return l.spanMs("sketch.patch") }},
	{"sketch.delta_applied", "count", func(l *layerRun) float64 { return l.countMean("delta") }},
	{"sketch.descend_ms", "ms", func(l *layerRun) float64 { return l.spanMs("sketch.solve") }},
	{"sketch.solve_alloc_mb", "MB", func(l *layerRun) float64 { return l.allocMB("sketch.solve") }},
	{"sketch.nodes", "count", func(l *layerRun) float64 { return l.countMean("sketch.nodes") }},
	{"sketch.lp_iters", "count", func(l *layerRun) float64 { return l.countMean("sketch.lp_iters") }},
	{"sketch.refine_ratio", "ratio", func(l *layerRun) float64 {
		r := l.countSum("refined")
		return ratio(r, r+l.countSum("repaired"))
	}},
	{"bound.pass_ms", "ms", func(l *layerRun) float64 { return l.spanMs("bound.pass") }},
	{"bound.share", "ratio", func(l *layerRun) float64 {
		var b, total float64
		for i, m := range l.self {
			if v, ok := m["bound.pass"]; ok {
				b += v
				total += l.tr.ops[i].End - l.tr.ops[i].Start
			}
		}
		return ratio(b, total)
	}},
	{"bound.gap_pct", "%", func(l *layerRun) float64 { return l.traced.gapPct }},
	{"bound.tighten_rounds", "count", func(l *layerRun) float64 { return l.countMean("bound.rounds") }},
	{"translate.translate_ms", "ms", func(l *layerRun) float64 { return l.spanMs("translate.translate") }},
	{"milp.solve_ms", "ms", func(l *layerRun) float64 { return l.spanMs("milp.solve") }},
	{"milp.nodes", "count", func(l *layerRun) float64 { return l.countMean("milp.nodes") }},
	{"lp.iters", "count", func(l *layerRun) float64 { return l.countMean("lp.iters") }},
	{"search.warmstart_ms", "ms", func(l *layerRun) float64 { return l.spanMs("search.warmstart") }},
	{"search.sql_queries", "count", func(l *layerRun) float64 { return l.countMean("search.sql_queries") }},
	{"minidb.write_ms", "ms", func(l *layerRun) float64 { return l.spanMs("minidb.write") }},
	{"minidb.rows_written", "count", func(l *layerRun) float64 { return l.countMean("rows_written") }},
	{"explore.packages_per_replace", "count", func(l *layerRun) float64 { return mean(l.replacePackages) }},
	{"explore.ms_per_package", "ms", func(l *layerRun) float64 {
		s := 0.0
		for _, v := range l.replacePackages {
			s += v
		}
		return ratio(l.spanSum("explore.replace"), s)
	}},
	{"trace.overhead_pct", "%", func(l *layerRun) float64 {
		return 100 * ratio(l.traced.opP50-l.plain.opP50, l.plain.opP50)
	}},
	{"trace.unattributed_ms", "ms", func(l *layerRun) float64 {
		top := l.tr.topLevel()
		xs := make([]float64, len(top))
		for i, o := range l.tr.ops {
			xs[i] = (o.End - o.Start) - top[i]
		}
		return median(xs)
	}},
}

func (l *layerRun) spanSum(name string) float64 {
	s := 0.0
	for _, sp := range l.tr.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// runTraced sets the workload up once, runs half the budget through
// the public surface and half through the traced layer-by-layer code, and
// reports the per-layer metrics with the traced-vs-untraced overhead.
func runTraced(w *workload, seed int64, budget time.Duration, spansPath string) (result, error) {
	e, warm, _, err := setup(w, seed)
	if err != nil {
		return result{}, err
	}
	plainOps := measure(budget/2, func() []op { return w.step(e) })
	l := &layerRun{tr: newTracer(), cache0: e.sys.SketchCache().Stats(), memo0: e.sys.SketchMemo().Stats()}
	tracedOps := measure(budget/2, func() []op { return w.traced(e, l.tr) })
	l.cache1, l.memo1 = e.sys.SketchCache().Stats(), e.sys.SketchMemo().Stats()
	runtime.KeepAlive(e)
	l.self = l.tr.selfTimes()
	l.plain, l.traced = summarize(w, plainOps), summarize(w, tracedOps)
	for _, o := range tracedOps {
		if o.kind == "replace" {
			l.replacePackages = append(l.replacePackages, float64(o.pkgs))
		}
	}
	if err := l.tr.write(spansPath); err != nil {
		return result{}, err
	}

	header(w, seed, "traced")
	fmt.Printf("  untraced op_p50_ms %.4f over %d ops, traced op_p50_ms %.4f over %d ops; spans in %s\n",
		l.plain.opP50, len(plainOps), l.traced.opP50, len(tracedOps), spansPath)
	l.printAccounting()
	out := tally(warm, plainOps, tracedOps)
	out.Metrics = map[string]metric{}
	for _, m := range layerMetrics {
		v := m.value(l)
		out.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("  %-30s %14.4f %s\n", m.name, v, m.unit)
	}
	return out, nil
}

// printAccounting breaks each traced op kind's median wall time into
// the median self time of every layer it ran, next to the untraced
// median of the same kind.
func (l *layerRun) printAccounting() {
	kinds := map[string][]int{}
	var order []string
	for i, o := range l.tr.ops {
		if _, ok := kinds[o.Kind]; !ok {
			order = append(order, o.Kind)
		}
		kinds[o.Kind] = append(kinds[o.Kind], i)
	}
	top := l.tr.topLevel()
	for _, k := range order {
		idx := kinds[k]
		var walls, unattr []float64
		layers := map[string][]float64{}
		var names []string
		for _, i := range idx {
			o := l.tr.ops[i]
			walls = append(walls, o.End-o.Start)
			unattr = append(unattr, o.End-o.Start-top[i])
			for n, v := range l.self[i] {
				if _, ok := layers[n]; !ok {
					names = append(names, n)
				}
				layers[n] = append(layers[n], v)
			}
		}
		fmt.Printf("  %s: traced p50 %.2f ms over %d ops, untraced p50 %.2f ms =", k, median(walls), len(idx), median(l.plain.byKind[k]))
		sum := 0.0
		for _, n := range spanOrder(names) {
			v := median(layers[n])
			sum += v
			fmt.Printf(" %s %.2f +", n, v)
		}
		fmt.Printf(" unattributed %.2f (layer medians sum to %.2f)\n", median(unattr), sum+median(unattr))
	}
}

// spanOrder lists layer names in a fixed order so the accounting lines
// of different runs line up.
func spanOrder(names []string) []string {
	fixed := []string{"minidb.write", "explore.open", "explore.refresh", "explore.replace", "core.prepare", "plan.plan",
		"core.fingerprint", "sketch.patch", "sketch.build", "sketch.solve", "bound.pass",
		"translate.translate", "search.warmstart", "milp.solve", "core.package"}
	var out []string
	seen := map[string]bool{}
	for _, n := range fixed {
		for _, m := range names {
			if m == n {
				out = append(out, n)
				seen[n] = true
			}
		}
	}
	for _, n := range names {
		if !seen[n] {
			out = append(out, n)
		}
	}
	return out
}
