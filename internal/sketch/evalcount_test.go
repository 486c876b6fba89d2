package sketch_test

import (
	"maps"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sketch"
	"repro/internal/value"
)

// countingArg wraps an aggregate argument and counts its evaluations
// per row, keyed by the row's backing array. It renders like the
// argument it wraps, so it reads the same aggregate column.
type countingArg struct {
	inner expr.Expr
	mu    *sync.Mutex
	calls map[*value.V]int
}

func (c *countingArg) Eval(row schema.Row) (value.V, error) {
	if len(row) > 0 {
		c.mu.Lock()
		c.calls[&row[0]]++
		c.mu.Unlock()
	}
	return c.inner.Eval(row)
}

func (c *countingArg) String() string        { return c.inner.String() }
func (c *countingArg) Children() []expr.Expr { return []expr.Expr{c.inner} }
func (c *countingArg) CloneWith(k []expr.Expr) expr.Expr {
	return &countingArg{inner: k[0], mu: c.mu, calls: c.calls}
}

func (c *countingArg) reset() {
	c.mu.Lock()
	clear(c.calls)
	c.mu.Unlock()
}

// wrapAggArgs replaces every aggregate argument of the query with a
// counter; aggregates over the same argument share one.
func wrapAggArgs(q *paql.Query) map[string]*countingArg {
	counters := map[string]*countingArg{}
	wrap := func(n expr.Expr) {
		agg, ok := n.(*paql.Agg)
		if !ok || agg.Arg == nil {
			return
		}
		if _, done := agg.Arg.(*countingArg); done {
			return
		}
		key := agg.Arg.String()
		c := counters[key]
		if c == nil {
			c = &countingArg{inner: agg.Arg, mu: &sync.Mutex{}, calls: map[*value.V]int{}}
			counters[key] = c
		}
		agg.Arg = c
	}
	expr.Walk(q.SuchThat, wrap)
	if q.Objective != nil {
		expr.Walk(q.Objective.Expr, wrap)
	}
	return counters
}

// TestAggregateArgumentsEvaluatedOncePerCandidate pins the single
// weighing path: building the instance and running three SketchRefine
// solves with a growing exclusion list (the LIMIT 3 loop of the sketch
// strategy) evaluates each distinct aggregate argument exactly once per
// candidate row. Evaluations over representative rows are not counted,
// and neither is the independent paql.Satisfies check every returned
// package gets: those are replayed afterwards and subtracted.
func TestAggregateArgumentsEvaluatedOncePerCandidate(t *testing.T) {
	prep := boundPrep(t, 8000, mealQuery+"\nLIMIT 3")
	rows, ids := prep.Instance.Rows, prep.Instance.IDs
	if len(rows) < 5000 {
		t.Fatalf("only %d candidates; the check needs at least 5000", len(rows))
	}
	if prep.Query.Limit != 3 {
		t.Fatalf("LIMIT = %d, want 3", prep.Query.Limit)
	}
	counters := wrapAggArgs(prep.Query)
	if len(counters) != 2 {
		t.Fatalf("%d distinct aggregate arguments, want 2 (calories, protein)", len(counters))
	}

	inst, err := search.NewInstance(prep.Analysis, rows, ids)
	if err != nil {
		t.Fatal(err)
	}
	opts := sketch.Options{Seed: 1}
	var pkgs [][]int
	for k := 0; k < prep.Query.Limit; k++ {
		res, err := sketch.Solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("solve %d found no feasible package", k+1)
		}
		pkgs = append(pkgs, res.Mult)
		opts.Exclude = append(opts.Exclude, res.Mult)
	}
	solved := map[string]map[*value.V]int{}
	for key, c := range counters {
		solved[key] = maps.Clone(c.calls)
		c.reset()
	}
	for _, mult := range pkgs {
		if ok, err := inst.Validate(mult); err != nil || !ok {
			t.Fatalf("returned package fails validation (ok=%v err=%v)", ok, err)
		}
	}

	for key, c := range counters {
		bad := 0
		for i, row := range rows {
			p := &row[0]
			if got := solved[key][p] - c.calls[p]; got != 1 {
				if bad < 3 {
					t.Errorf("%s: candidate %d evaluated %d times outside the package check, want 1", key, i, got)
				}
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d candidates not evaluated exactly once", key, bad, len(rows))
		}
	}
}
