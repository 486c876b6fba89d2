package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/paql"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/sketch"
	"repro/internal/translate"
)

// span is one timed call. Spans live in memory until the run ends;
// parent is the index of the enclosing span (-1 for a top-level span of
// its op) and op the index of the op it belongs to.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"startMs"` // since the tracer started
	End    float64 `json:"endMs"`
	Alloc  uint64  `json:"allocBytes"`
	// Derived spans are not timed by the tracer: their length is a
	// duration the layer itself reported (sketch.Result.BoundTime).
	Derived bool `json:"derived,omitempty"`

	alloc0 uint64
}

// opSpan is the root record of one op.
type opSpan struct {
	Kind  string           `json:"kind"`
	Start float64          `json:"startMs"`
	End   float64          `json:"endMs"`
	Count map[string]int64 `json:"counts,omitempty"`
}

// tracer records spans for the traced run. Every method is a no-op on
// a nil tracer, so the untraced paths can share code with the traced ones.
type tracer struct {
	origin time.Time
	ops    []opSpan
	spans  []span
	stack  []int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1e6 }

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *tracer) beginOp(kind string) int {
	if t == nil {
		return -1
	}
	t.ops = append(t.ops, opSpan{Kind: kind, Start: t.now(), Count: map[string]int64{}})
	t.stack = t.stack[:0]
	return len(t.ops) - 1
}

func (t *tracer) endOp(i int) {
	if t == nil {
		return
	}
	t.ops[i].End = t.now()
}

// count adds n to a named counter of the current op.
func (t *tracer) count(name string, n int64) {
	if t == nil || len(t.ops) == 0 {
		return
	}
	t.ops[len(t.ops)-1].Count[name] += n
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: len(t.ops) - 1, Parent: parent, alloc0: t.allocs(), Start: t.now()})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = t.now()
	s.Alloc = t.allocs() - s.alloc0
	t.stack = t.stack[:len(t.stack)-1]
}

// derived records a child of span parent lasting d, a duration the
// layer reported rather than one the tracer timed.
func (t *tracer) derived(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	ms := float64(d.Nanoseconds()) / 1e6
	t.spans = append(t.spans, span{Name: name, Op: p.Op, Parent: parent, Start: p.Start, End: p.Start + ms, Derived: true})
}

// write saves the spans as JSON for offline inspection.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Ops   []opSpan `json:"ops"`
		Spans []span   `json:"spans"`
	}{t.ops, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes folds the spans into per-op self time per layer: a span's
// time minus its children's.
func (t *tracer) selfTimes() []map[string]float64 {
	out := make([]map[string]float64, len(t.ops))
	for i := range out {
		out[i] = map[string]float64{}
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		out[s.Op][s.Name] += d
		if s.Parent >= 0 {
			out[s.Op][t.spans[s.Parent].Name] -= d
		}
	}
	return out
}

// topLevel sums each op's top-level span time; the rest of the op's
// wall time is unattributed.
func (t *tracer) topLevel() []float64 {
	out := make([]float64, len(t.ops))
	for _, s := range t.spans {
		if s.Parent < 0 {
			out[s.Op] += s.End - s.Start
		}
	}
	return out
}

// tracedQuery evaluates one query by calling each layer the engine
// composes, in the engine's order, with the planner choosing every
// knob: prepare, plan, then either fingerprint → tree acquisition
// (cache, patch or build) → sketch.Solve, or translate → local-search
// warm start → MILP. The answer is checked after the op's clock stops.
func tracedQuery(e *env, tr *tracer, kind, text string, exact bool) op {
	o := op{kind: kind}
	oi := tr.beginOp(kind)
	start := time.Now()
	a, err := tracedEval(e, tr, oi, kind, text, exact, &o)
	o.dur = time.Since(start)
	tr.endOp(oi)
	if err != nil {
		o.failed = err
		return o
	}
	o.failed = checkAnswer(e.sys.DB(), a)
	return o
}

func tracedEval(e *env, tr *tracer, oi int, kind, text string, exact bool, o *op) (answer, error) {
	ctx := context.Background()
	cache, memo := e.sys.SketchCache(), e.sys.SketchMemo()

	s := tr.begin("core.prepare")
	prep, err := core.PrepareContext(ctx, e.sys.DB(), text)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	prep.SketchCache, prep.SketchMemo = cache, memo
	inst := prep.Instance
	tr.count("candidates", int64(len(inst.Rows)))

	s = tr.begin("plan.plan")
	qp := prep.Plan(core.Options{Catalog: e.sys.Catalog(), SketchCache: cache,
		SketchMemo: memo, SketchIncremental: true})
	tr.end(s)

	a := answer{query: text, exact: exact}
	var mult []int
	switch {
	case qp.Strategy == plan.StrategySketch && !exact:
		sres, err := tracedSketch(tr, prep, qp)
		if err != nil {
			return a, err
		}
		if !sres.Feasible {
			return a, fmt.Errorf("%s: sketch found no package", kind)
		}
		mult, a.certified, a.bound = sres.Mult, sres.Certified, sres.Bound
		o.gap, o.hasGap = sres.Gap, sres.Certified
	case qp.Strategy == plan.StrategySolver:
		mult, a.certified, a.bound, err = tracedExact(tr, prep)
		if err != nil {
			return a, err
		}
		o.gap, o.hasGap = 0, true
		o.milpN = tr.ops[oi].Count["milp.nodes"]
	default:
		return a, fmt.Errorf("%s: planner chose %s", kind, qp.Strategy)
	}

	s = tr.begin("core.package")
	rows := inst.Materialize(mult)
	obj, err := paql.ObjectiveValue(prep.Query.Objective, rows)
	tr.end(s)
	a.pkg = &core.Package{Mult: mult, CandidateIDs: inst.IDs, Rows: rows, Objective: obj}
	return a, err
}

// tracedSketch is the sketch path: the memo's fingerprint, the tree
// from the shared cache or patched or built here, then sketch.Solve
// over that tree. Solve gets a one-tree cache holding exactly it, so
// its own acquisition is a hit and the shared cache's counters see one
// lookup per query, as on the untraced path.
func tracedSketch(tr *tracer, prep *core.Prepared, qp *plan.Plan) (*sketch.Result, error) {
	inst := prep.Instance
	s := tr.begin("core.fingerprint")
	fp, patch := prep.SketchMemo.Advance(prep)
	tr.end(s)

	sopts := sketch.Options{Ctx: context.Background(), MaxPartitionSize: qp.Tau, Depth: qp.Depth,
		Parallelism: qp.Parallelism, Fingerprint: &fp}
	switch qp.Bound {
	case plan.BoundRawLP, plan.BoundTreeLP, plan.BoundTreeLPTighten, plan.BoundDescend1:
		sopts.BoundMode = qp.Bound
	}
	key := sketch.KeyFor(inst, sopts)
	tree, hit := prep.SketchCache.Get(key)
	if !hit {
		if patch != nil && qp.Incremental {
			base := key
			base.Fingerprint = patch.BaseFingerprint
			if bt, ok := prep.SketchCache.Peek(base); ok {
				s = tr.begin("sketch.patch")
				tree, ok = bt.ApplyDelta(inst.Rows, patch.Remap, sopts)
				tr.end(s)
				if ok {
					tr.count("delta", int64(patch.DeltaSize(len(inst.Rows))))
				} else {
					tree = nil
				}
			}
		}
		if tree == nil {
			s = tr.begin("sketch.build")
			tree = sketch.BuildTree(inst, sopts)
			tr.end(s)
		}
		prep.SketchCache.Put(key, tree)
	}
	one := sketch.NewCache(1)
	one.Put(key, tree)
	sopts.Cache = one

	s = tr.begin("sketch.solve")
	sres, err := sketch.Solve(inst, sopts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tr.derived("bound.pass", s, sres.BoundTime)
	tr.count("sketch.nodes", sres.Nodes)
	tr.count("sketch.lp_iters", int64(sres.LPIters))
	tr.count("refined", int64(sres.Refined))
	tr.count("repaired", int64(sres.Repaired))
	tr.count("bound.rounds", int64(sres.BoundRounds))
	return sres, nil
}

// tracedExact is the exact path: translate to a MILP, warm-start it
// with local search under the engine's 200 ms budget, and solve. The
// branch-and-bound dual bound is the certificate.
func tracedExact(tr *tracer, prep *core.Prepared) (mult []int, certified bool, bound float64, err error) {
	ctx := context.Background()
	inst := prep.Instance
	s := tr.begin("translate.translate")
	model, err := translate.Translate(prep.Analysis, inst.Rows, inst.IDs)
	tr.end(s)
	if err != nil {
		return nil, false, 0, err
	}
	mopts := milp.Options{Ctx: ctx}
	if model.NumIndicators() == 0 && prep.Query.Objective != nil && inst.MaxMult > 0 {
		s = tr.begin("search.warmstart")
		ls, lerr := search.LocalSearch(inst, prep.DB, search.Options{Ctx: ctx, Limit: 1,
			Restarts: 2, MaxK: 1, Timeout: 200 * time.Millisecond})
		tr.end(s)
		if lerr == nil && len(ls.Packages) > 0 {
			seed := make([]float64, model.MILP.LP.NumVars())
			for i, m := range ls.Packages[0].Mult {
				seed[i] = float64(m)
			}
			mopts.InitialIncumbent = seed
			tr.count("search.sql_queries", int64(ls.Queries))
		}
	}
	s = tr.begin("milp.solve")
	sol := milp.Solve(model.MILP, mopts)
	tr.end(s)
	tr.count("milp.nodes", int64(sol.Nodes))
	tr.count("lp.iters", int64(sol.LPIters))
	if sol.Status != milp.StatusOptimal {
		return nil, false, 0, fmt.Errorf("exact: MILP status %v", sol.Status)
	}
	return model.Multiplicities(sol.X), true, sol.Objective + inst.ObjK, nil
}

// tracedWriteRead is one write-read cycle with the write as a minidb
// span and the read traced layer by layer.
func tracedWriteRead(e *env, tr *tracer) []op {
	start := time.Now()
	oi := tr.beginOp("write")
	s := tr.begin("minidb.write")
	err := e.write()
	tr.end(s)
	tr.count("rows_written", 2*writeBatch)
	tr.endOp(oi)
	wrote := time.Since(start)
	if err != nil {
		return []op{{kind: "cycle", dur: wrote, write: wrote, failed: err}}
	}
	o := tracedQuery(e, tr, "cycle", MealQuery, false)
	o.dur += wrote
	o.write = wrote
	return []op{o}
}
