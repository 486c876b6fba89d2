package translate

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/value"
)

// Columns is the per-tuple side of a query's aggregates over one row
// set. Every PaQL aggregate is linear in one per-tuple quantity, its
// argument under its filter (COUNT weighs presence, SUM the value, AVG
// their difference, MIN/MAX select on the value), so Columns evaluates
// it once per distinct (argument, filter) pair and the MILP
// translation, the search instance and every SketchRefine level read
// their weights from that one walk. Read-only once built, so safe for
// concurrent use; the slices it hands out are shared.
type Columns struct {
	n    int
	cols map[string]*column
}

// column is one (argument, filter) pair evaluated over the rows.
type column struct {
	present []bool    // the filter passes and the argument, if any, is non-NULL
	vals    []float64 // numeric argument value where present, else 0 (nil for COUNT(*))
	// nonNumeric is the first present non-numeric argument value (NULL
	// if none): SUM weights and MIN/MAX statistics are then undefined.
	nonNumeric value.V
	err        error // the first evaluation error; the column is unusable
}

// NewColumns evaluates the analysis's aggregates over rows, one walk
// per distinct (argument, filter) pair. Evaluation errors are kept per
// column and reported by whichever consumer reads that column.
func NewColumns(a *paql.Analysis, rows []schema.Row) *Columns {
	c := &Columns{n: len(rows), cols: map[string]*column{}}
	for _, agg := range a.Aggs {
		if k := colKey(agg); c.cols[k] == nil {
			c.cols[k] = evalColumn(agg, rows)
		}
	}
	return c
}

// colKey names the (argument, filter) pair an aggregate reads.
func colKey(a *paql.Agg) string {
	k := "*"
	if a.Arg != nil {
		k = a.Arg.String()
	}
	if a.Filter != nil {
		k += " WHERE " + a.Filter.String()
	}
	return k
}

func evalColumn(a *paql.Agg, rows []schema.Row) *column {
	col := &column{present: make([]bool, len(rows)), nonNumeric: value.Null()}
	if a.Arg != nil {
		col.vals = make([]float64, len(rows))
	}
	for i, row := range rows {
		if a.Filter != nil {
			ok, err := expr.EvalBool(a.Filter, row)
			if err != nil {
				col.err = err
				return col
			}
			if !ok {
				continue
			}
		}
		if a.Arg == nil {
			col.present[i] = true
			continue
		}
		v, err := a.Arg.Eval(row)
		if err != nil {
			col.err = err
			return col
		}
		if v.IsNull() {
			continue
		}
		col.present[i] = true
		f, ok := v.AsFloat()
		if !ok {
			if col.nonNumeric.IsNull() {
				col.nonNumeric = v
			}
			continue
		}
		col.vals[i] = f
	}
	return col
}

// column returns the evaluated column an aggregate reads.
func (c *Columns) column(a *paql.Agg) (*column, error) {
	col := c.cols[colKey(a)]
	if col == nil {
		return nil, fmt.Errorf("translate: no column for aggregate %s (columns built for another query)", a)
	}
	if col.err != nil {
		return nil, col.err
	}
	return col, nil
}

// weights returns the per-row contribution of a SUM or COUNT
// aggregate: 0 when the filter rejects the tuple or the argument is
// NULL, otherwise 1 (COUNT) or the argument value (SUM).
func (c *Columns) weights(a *paql.Agg) ([]float64, error) {
	col, err := c.column(a)
	if err != nil {
		return nil, err
	}
	if a.Fn == "SUM" {
		if !col.nonNumeric.IsNull() {
			return nil, fmt.Errorf("translate: non-numeric value %s under %s", col.nonNumeric, a)
		}
		return col.vals, nil
	}
	w := make([]float64, c.n)
	for i, p := range col.present {
		if p {
			w[i] = 1
		}
	}
	return w, nil
}

// affineWeights weighs an affine form Σ coef·agg per row (the constant
// term is the caller's).
func (c *Columns) affineWeights(f *affine) ([]float64, error) {
	w := make([]float64, c.n)
	for key, coef := range f.coeffs {
		if coef == 0 {
			continue
		}
		aw, err := c.weights(f.aggs[key])
		if err != nil {
			return nil, err
		}
		for i, wi := range aw {
			w[i] += coef * wi
		}
	}
	return w, nil
}

// avgWeights weighs the linearized AVG(arg) ⋚ k per row, SUM(arg) −
// k·COUNT(arg), and returns the COUNT(arg) weights of its non-empty
// guard alongside. COUNT is over the argument, not COUNT(*): a NULL
// argument enters neither the sum nor the count, so its weight is 0.
func (c *Columns) avgWeights(a *paql.Agg, k float64) (w, cnt []float64, err error) {
	sw, err := c.weights(&paql.Agg{Fn: "SUM", Arg: a.Arg, Filter: a.Filter})
	if err != nil {
		return nil, nil, err
	}
	if cnt, err = c.weights(&paql.Agg{Fn: "COUNT", Arg: a.Arg, Filter: a.Filter}); err != nil {
		return nil, nil, err
	}
	w = make([]float64, c.n)
	for i := range w {
		w[i] = sw[i] - k*cnt[i]
	}
	return w, cnt, nil
}

// AggStats reports MIN and MAX of the aggregate's argument over the
// rows its filter admits, which makes Columns the prune.StatsProvider
// of the §4.1 cardinality bounds. ok is false when the range is
// undefined: no argument (COUNT(*)), no present value, a non-numeric
// value or an evaluation error.
func (c *Columns) AggStats(a *paql.Agg) (minVal, maxVal float64, ok bool) {
	col, err := c.column(a)
	if err != nil || !col.nonNumeric.IsNull() {
		return 0, 0, false
	}
	for i, v := range col.vals {
		switch {
		case !col.present[i]:
		case !ok:
			minVal, maxVal, ok = v, v, true
		case v < minVal:
			minVal = v
		case v > maxVal:
			maxVal = v
		}
	}
	return minVal, maxVal, ok
}
