// Command pbbench is the repository's end-to-end benchmark: one client
// in a closed loop drives a seeded workload through the public
// packagebuilder surface, checks every answer with an independent
// checker, and prints its metrics. With -trace 1 it runs the same
// operations a second time through each layer's own functions, timing
// every call as a span, and prints per-layer metrics instead.
//
//	bash pbbench/run.sh --workload warm-read --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: warm-read, write-read, cache-overflow, explore-session")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "pbbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, budget, filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed)))
	} else {
		res, err = runPlain(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// setupReps is how many times a run sets the workload up from scratch;
// setup_s is their median. Warm-read's set-up builds four 200k-row
// trees and cache-overflow's replays a whole 40-query cold rotation, so
// they repeat less to leave the run's time to the measured phase.
func setupReps(w *workload) int {
	switch w.name {
	case "cache-overflow":
		return 1
	case "warm-read":
		return 2
	}
	return 3
}

// setup generates, loads and warms the workload, returning the
// environment and the checked warm-up ops.
func setup(w *workload, seed int64) (*env, []op, time.Duration, error) {
	start := time.Now()
	e, err := newEnv(seed, w.rows)
	if err != nil {
		return nil, nil, 0, err
	}
	ops := w.warm(e)
	return e, ops, time.Since(start), nil
}

// measure runs the closed loop until budget has passed.
func measure(budget time.Duration, step func() []op) []op {
	var ops []op
	start := time.Now()
	for time.Since(start) < budget {
		ops = append(ops, step()...)
	}
	return ops
}

func runPlain(w *workload, seed int64, budget time.Duration) (result, error) {
	var setups []float64
	var e *env
	var warm []op
	for i := 0; i < setupReps(w); i++ {
		e = nil // let the previous set-up's heap go before timing the next
		runtime.GC()
		next, ops, d, err := setup(w, seed)
		if err != nil {
			return result{}, err
		}
		e = next
		setups = append(setups, d.Seconds())
		warm = append(warm, ops...)
	}
	ops := measure(budget, func() []op { return w.step(e) })
	heap := liveHeapMB()
	runtime.KeepAlive(e)

	s := summarize(w, ops)
	header(w, seed, "untraced")
	fmt.Printf("  %-20s %12.4f s      median of %d set-ups (generate + load + warm-up)\n", "setup_s", median(setups), len(setups))
	s.print(heap)
	res := tally(warm, ops)
	res.Metrics = map[string]metric{
		"setup_s":    {median(setups), "s"},
		"ops_per_s":  {s.opsPerS, "1/s"},
		"op_p50_ms":  {s.opP50, "ms"},
		"op_tail_ms": {s.opTail, "ms"},
		"heap_mb":    {heap, "MB"},
	}
	return res, nil
}

func header(w *workload, seed int64, mode string) {
	fmt.Printf("workload %s (%s), seed %d, %d rows, GOMAXPROCS %d, one process, one client in a closed loop\n  why: %s\n",
		w.name, mode, seed, w.rows, runtime.GOMAXPROCS(0), w.why)
}

// summary holds the end-to-end figures of one set of ops.
type summary struct {
	w        *workload
	ops      []op
	opsPerS  float64
	opP50    float64
	opTail   float64
	tailPct  float64
	tailOK   bool
	nPrimary int
	gapPct   float64
	nGap     int
	failed   int
	byKind   map[string][]float64
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func summarize(w *workload, ops []op) summary {
	s := summary{w: w, ops: ops, byKind: map[string][]float64{}}
	var total time.Duration
	var gaps []float64
	for _, o := range ops {
		total += o.dur
		s.byKind[o.kind] = append(s.byKind[o.kind], ms(o.dur))
		if o.failed != nil {
			s.failed++
		}
		if o.hasGap {
			gaps = append(gaps, 100*o.gap)
		}
	}
	if total > 0 {
		s.opsPerS = float64(len(ops)) / total.Seconds()
	}
	// op_tail is the tail of each op's latency relative to its kind's
	// median, scaled back by op_p50. A single-kind workload gets its
	// plain tail; warm-read's five kinds differ several-fold in latency,
	// and a plain percentile of their pool would land on whichever kind
	// sits at that rank in this run.
	var meds, pooled []float64
	for _, k := range w.primary {
		if xs := s.byKind[k]; len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	s.opP50 = geomean(meds)
	for _, k := range w.primary {
		m := median(s.byKind[k])
		for _, x := range s.byKind[k] {
			pooled = append(pooled, x/m)
		}
	}
	t, pct, ok := tail(pooled)
	s.opTail, s.tailPct, s.tailOK = s.opP50*t, pct, ok
	s.nPrimary = len(pooled)
	s.gapPct, s.nGap = mean(gaps), len(gaps)
	return s
}

// tally counts every checked op, warm-up included, and reports each
// failure on standard error.
func tally(sets ...[]op) result {
	var r result
	for _, ops := range sets {
		for _, o := range ops {
			r.Attempted++
			if o.failed != nil {
				r.Failed++
				fmt.Fprintf(os.Stderr, "pbbench: %s failed: %v\n", o.kind, o.failed)
			}
		}
	}
	r.Correct = r.Failed == 0
	return r
}

// print writes the human-readable table: every end-to-end metric that
// applies to the workload, with its unit and sample count.
func (s summary) print(heap float64) {
	row := func(name string, v float64, unit, note string) {
		fmt.Printf("  %-20s %12.4f %-6s %s\n", name, v, unit, note)
	}
	kinds := make([]string, 0, len(s.byKind))
	for k := range s.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	row("ops_per_s", s.opsPerS, "1/s", fmt.Sprintf("%d ops", len(s.ops)))
	row("op_p50_ms", s.opP50, "ms", fmt.Sprintf("geometric mean of the per-kind medians of %s", strings.Join(s.w.primary, ", ")))
	tailNote := fmt.Sprintf("p%.1f of %d samples (%d beyond it), each relative to its kind's median, times op_p50", s.tailPct, s.nPrimary, tailMinBeyond)
	if !s.tailOK {
		tailNote = fmt.Sprintf("maximum: %d samples are too few for a tail with %d beyond it", s.nPrimary, tailMinBeyond)
	}
	row("op_tail_ms", s.opTail, "ms", tailNote)
	for _, k := range kinds {
		name := k + "_p50_ms"
		switch k {
		case "exact":
			name = "exact_query_p50_ms"
		case "cold":
			name = "query_p50_ms"
		case "meal", "band", "envelope", "disjunction":
			name = "query_p50_ms[" + k + "]"
		}
		row(name, median(s.byKind[k]), "ms", fmt.Sprintf("%d samples", len(s.byKind[k])))
	}
	var writes, queries []float64
	var nodes []int64
	for _, o := range s.ops {
		if o.kind == "cycle" {
			writes = append(writes, ms(o.write))
			queries = append(queries, ms(o.dur-o.write))
		}
		if o.kind == "exact" {
			nodes = append(nodes, o.milpN)
		}
	}
	if len(writes) > 0 {
		row("write_p50_ms", median(writes), "ms", fmt.Sprintf("%d samples (insert %d + delete %d rows)", len(writes), writeBatch, writeBatch))
		row("query_p50_ms", median(queries), "ms", fmt.Sprintf("%d samples (the read after each write)", len(queries)))
	}
	if xs := s.byKind["replace"]; len(xs) > 0 {
		v, pct, ok := tail(xs)
		note := fmt.Sprintf("p%.1f of %d samples", pct, len(xs))
		if !ok {
			note = fmt.Sprintf("maximum of %d samples", len(xs))
		}
		row("replace_tail_ms", v, "ms", note)
	}
	if len(nodes) > 0 {
		fmt.Printf("  %-20s %v\n", "milp.nodes per op", nodes)
	}
	row("gap_pct", s.gapPct, "%", fmt.Sprintf("mean certified gap over %d objective answers", s.nGap))
	row("heap_mb", heap, "MB", "live heap after a forced GC at the end of the measured phase")
	row("failed_frac", float64(s.failed)/float64(max(1, len(s.ops))), "", fmt.Sprintf("%d of %d measured ops", s.failed, len(s.ops)))
}
