package translate

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/lp"
	"repro/internal/paql"
)

// LinearAtom is one linear constraint Σᵢ W[i]·x_i (Op) RHS over the
// candidate tuples. Search strategies consume these for incremental
// feasibility checks and for generating the §4.2 replacement SQL.
type LinearAtom struct {
	W      []float64
	Op     lp.Op
	RHS    float64
	Source string // rendered source atom, for SQL generation and logs
}

// Check evaluates the atom against a multiplicity vector.
func (la *LinearAtom) Check(mult []int) bool {
	s := 0.0
	for i, m := range mult {
		if m != 0 {
			s += la.W[i] * float64(m)
		}
	}
	return la.CheckSum(s)
}

// CheckSum evaluates the atom given a precomputed Σ W·x.
func (la *LinearAtom) CheckSum(s float64) bool {
	const tol = 1e-9
	switch la.Op {
	case lp.LE:
		return s <= la.RHS+tol
	case lp.GE:
		return s >= la.RHS-tol
	case lp.EQ:
		return s >= la.RHS-tol && s <= la.RHS+tol
	}
	return false
}

// ConjunctiveAtoms extracts the linear SUM/COUNT comparison atoms that
// appear as top-level conjuncts of the query's SUCH THAT formula,
// weighted over the candidate columns. The boolean result reports
// whether the atoms are EXACTLY the formula (pure): when false (the
// formula also has disjunctions, AVG/MIN/MAX atoms, or non-linear
// parts), the atoms are still necessary conditions usable for sound
// pruning, but candidates must be re-validated with paql.Satisfies.
//
// Strict comparisons relax to their closed forms (sound for pruning).
func ConjunctiveAtoms(a *paql.Analysis, cols *Columns) ([]*LinearAtom, bool) {
	if a.Query.SuchThat == nil {
		return nil, true
	}
	pure := true
	var atoms []*LinearAtom
	var visit func(n bnode)
	visit = func(n bnode) {
		switch node := n.(type) {
		case *bAnd:
			for _, k := range node.kids {
				visit(k)
			}
		case *bOr:
			pure = false
		case *bAtom:
			la, ok := linearAtom(cols, node.e)
			if !ok {
				pure = false
				return
			}
			atoms = append(atoms, la...)
		}
	}
	visit(nnf(a.Query.SuchThat, false))
	return atoms, pure
}

// comparisonForm decomposes an affine SUM/COUNT comparison L op R into
// the affine form of L − R.
func comparisonForm(b *expr.Binary) (*affine, error) {
	l, err := affineForm(b.L)
	if err != nil {
		return nil, err
	}
	r, err := affineForm(b.R)
	if err != nil {
		return nil, err
	}
	diff := newAffine()
	diff.addScaled(l, 1)
	diff.addScaled(r, -1)
	return diff, nil
}

// linearAtom converts one comparison into linear atoms (an equality
// yields LE+GE). ok=false for shapes with no (closed) linear form.
func linearAtom(cols *Columns, e expr.Expr) ([]*LinearAtom, bool) {
	b, isCmp := e.(*expr.Binary)
	if !isCmp || !b.Op.Comparison() {
		return nil, false
	}
	// AVG/MIN/MAX atoms are not usable for incremental sums; skip.
	if agg, _, _, ok, _ := specialAtom(b); ok && agg != nil {
		return nil, false
	}
	diff, err := comparisonForm(b)
	if err != nil {
		return nil, false
	}
	w, err := cols.affineWeights(diff)
	if err != nil {
		return nil, false
	}
	rhs := -diff.konst
	src := e.String()
	switch b.Op {
	case expr.OpLe, expr.OpLt:
		return []*LinearAtom{{W: w, Op: lp.LE, RHS: rhs, Source: src}}, true
	case expr.OpGe, expr.OpGt:
		return []*LinearAtom{{W: w, Op: lp.GE, RHS: rhs, Source: src}}, true
	case expr.OpEq:
		return []*LinearAtom{
			{W: w, Op: lp.LE, RHS: rhs, Source: src},
			{W: w, Op: lp.GE, RHS: rhs, Source: src},
		}, true
	}
	return nil, false
}

// ObjectiveWeights linearizes the query objective over the candidate
// columns: value(pkg) = Σ W[i]·mult[i] + Const. An error is returned
// for non-affine objectives.
func ObjectiveWeights(a *paql.Analysis, cols *Columns) (w []float64, konst float64, err error) {
	if a.Query.Objective == nil {
		return make([]float64, cols.n), 0, nil
	}
	form, err := affineForm(a.Query.Objective.Expr)
	if err != nil {
		return nil, 0, fmt.Errorf("translate: objective: %w", err)
	}
	if w, err = cols.affineWeights(form); err != nil {
		return nil, 0, err
	}
	return w, form.konst, nil
}
