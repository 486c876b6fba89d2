package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/schema"
)

// answer is one returned package plus the claims made about it. The
// checker re-derives everything it can from the query text and the
// current table, trusting none of the solver's weight vectors.
type answer struct {
	query     string
	pkg       *core.Package
	certified bool
	bound     float64
	exact     bool // the op is the exact-path query: its gap must be 0
}

// checkAnswer re-validates a package against the table as it is now:
//
//   - every tuple the multiplicity vector selects still exists at its
//     position with the id the package reported, and satisfies WHERE;
//   - SUCH THAT holds over those rows and the objective evaluates to
//     the reported value;
//   - an objective answer carries a certified bound that brackets the
//     objective, and an exact answer has gap 0.
func checkAnswer(db *minidb.DB, a answer) error {
	q, err := paql.Parse(a.query)
	if err != nil {
		return fmt.Errorf("check: parse: %w", err)
	}
	tab, ok := db.Table(q.Table)
	if !ok {
		return fmt.Errorf("check: table %s missing", q.Table)
	}
	if _, err := paql.Analyze(q, tab.Schema); err != nil {
		return fmt.Errorf("check: bind: %w", err)
	}
	p := a.pkg
	if p == nil {
		return fmt.Errorf("check: no package")
	}
	if len(p.Mult) != len(p.CandidateIDs) {
		return fmt.Errorf("check: %d multiplicities for %d candidates", len(p.Mult), len(p.CandidateIDs))
	}
	var rows []schema.Row
	var ids []int64
	for i, m := range p.Mult {
		if m < 0 {
			return fmt.Errorf("check: negative multiplicity %d", m)
		}
		if m == 0 {
			continue
		}
		pos := p.CandidateIDs[i]
		if pos < 0 || pos >= len(tab.Rows) {
			return fmt.Errorf("check: tuple at position %d no longer exists", pos)
		}
		row := tab.Rows[pos]
		if q.Where != nil {
			ok, err := expr.EvalBool(q.Where, row)
			if err != nil || !ok {
				return fmt.Errorf("check: tuple id %s fails WHERE", row[colID])
			}
		}
		for k := 0; k < m; k++ {
			rows = append(rows, row)
			ids = append(ids, rowID(row))
		}
	}
	// The rows the package reports must be exactly the rows the table
	// holds at those positions: a deleted or moved row shows up here.
	if len(p.Rows) != len(rows) {
		return fmt.Errorf("check: package reports %d tuples, multiplicities select %d", len(p.Rows), len(rows))
	}
	reported := make([]int64, len(p.Rows))
	for i, r := range p.Rows {
		reported[i] = rowID(r)
	}
	if !sameMultiset(ids, reported) {
		return fmt.Errorf("check: reported tuple ids differ from the table's rows")
	}
	ok, err = paql.Satisfies(q.SuchThat, rows)
	if err != nil || !ok {
		return fmt.Errorf("check: SUCH THAT does not hold (%v)", err)
	}
	if q.Objective == nil {
		return nil
	}
	obj, err := paql.ObjectiveValue(q.Objective, rows)
	if err != nil {
		return fmt.Errorf("check: objective: %w", err)
	}
	tol := 1e-6 * math.Max(1, math.Abs(obj))
	if math.Abs(obj-p.Objective) > tol {
		return fmt.Errorf("check: objective %g, reported %g", obj, p.Objective)
	}
	if !a.certified {
		return fmt.Errorf("check: objective answer without a certificate")
	}
	if q.Objective.Sense == paql.Maximize && a.bound < obj-tol ||
		q.Objective.Sense == paql.Minimize && a.bound > obj+tol {
		return fmt.Errorf("check: certified bound %g does not bracket objective %g", a.bound, obj)
	}
	if a.exact && math.Abs(a.bound-obj) > tol {
		return fmt.Errorf("check: exact answer with gap (bound %g, objective %g)", a.bound, obj)
	}
	return nil
}

// checkReplacement adds the exploration invariants: every pinned
// candidate is in the package, and the package differs from every
// package the session showed before.
func checkReplacement(p *core.Package, pinned []int, earlier []*core.Package) error {
	for _, i := range pinned {
		if i < 0 || i >= len(p.Mult) || p.Mult[i] < 1 {
			return fmt.Errorf("check: pinned candidate %d missing from the package", i)
		}
	}
	key := core.MultKey(p.Mult)
	for k, e := range earlier {
		if core.MultKey(e.Mult) == key {
			return fmt.Errorf("check: replacement repeats package %d of the session", k+1)
		}
	}
	return nil
}

func rowID(r schema.Row) int64 {
	id, _ := r[colID].AsInt()
	return id
}

func sameMultiset(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]int64(nil), a...)
	y := append([]int64(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
