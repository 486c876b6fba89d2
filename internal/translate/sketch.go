package translate

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/lp"
	"repro/internal/paql"
)

// DefaultMaxSketchBranches caps the disjunctive-normal-form expansion
// CompileSketch performs: a SUCH THAT formula whose DNF has more
// branches than this is rejected as not sketchable (each branch costs
// one full sketch descent, so the cap bounds SketchRefine's work).
const DefaultMaxSketchBranches = 8

// SketchAtomKind classifies one lowered atom of a sketch branch.
type SketchAtomKind int

const (
	// SketchLinear is an affine SUM/COUNT comparison: one (or, for
	// equality, two) exact linear rows at every level.
	SketchLinear SketchAtomKind = iota
	// SketchAvg is an AVG(arg) ⋚ c atom rewritten to its linear form
	// SUM(arg·w) − c·COUNT_w ⋚ 0 (the PVLDB 2016 linearization); the
	// non-empty guard is emitted as a separate SketchAtLeast atom.
	SketchAvg
	// SketchElim is a MIN/MAX elimination row: tuples violating the
	// bound may not enter the package (Σ_bad x ≤ 0). Exact over real
	// tuples; relaxed over partition nodes via min/max envelopes.
	SketchElim
	// SketchAtLeast is an at-least-one row (Σ_good x ≥ 1): the
	// MIN/MAX witness requirement and the AVG/MIN/MAX non-empty
	// guards. Exact over real tuples; relaxed over partition nodes.
	SketchAtLeast
)

// SketchAtom is one atom of a sketch branch, lowered far enough that it
// weighs to exact linear rows over any candidate set. The same atom
// weighs over real tuples (refine) and over representative rows (the
// sketch levels); selector kinds (SketchElim/SketchAtLeast) are instead
// re-weighted over partition nodes from subtree envelopes, which is why
// they expose their predicate through Selector.
type SketchAtom struct {
	// Kind drives how the atom is weighted at each level.
	Kind SketchAtomKind

	cmp *expr.Binary // SketchLinear: the source comparison
	agg *paql.Agg    // SketchAvg/SketchElim/SketchAtLeast: the aggregate
	op  expr.BinOp   // SketchAvg: comparison op; selectors: predicate op
	c   float64      // threshold constant (aggregate on the left)
	all bool         // SketchAtLeast: select every present tuple (guard)
	src string       // rendered source atom, for rows and diagnostics
}

// Source returns the rendered source atom the lowering came from.
func (at *SketchAtom) Source() string { return at.src }

// IsSelector reports whether the atom carries 0/1 selector weights
// (SketchElim/SketchAtLeast) that partition levels must re-weight from
// subtree envelopes rather than from representative rows.
func (at *SketchAtom) IsSelector() bool {
	return at.Kind == SketchElim || at.Kind == SketchAtLeast
}

// SketchBranch is one DNF branch: a conjunction of sketch atoms. A
// package satisfying every atom of any branch satisfies the SUCH THAT
// formula.
type SketchBranch struct {
	// Atoms is the branch's conjunction, in formula order.
	Atoms []*SketchAtom
}

// CompileSketch lowers the query's SUCH THAT formula into
// disjunctive-normal-form branches of sketch atoms, the form
// SketchRefine descends one branch at a time: affine SUM/COUNT
// comparisons stay single rows, AVG atoms are linearized as
// SUM − c·COUNT plus a non-empty guard, and MIN/MAX atoms lower to
// elimination and at-least-one selector rows. maxBranches caps the DNF
// expansion (0 = DefaultMaxSketchBranches). rewrites counts the
// AVG/MIN/MAX source atoms that were rewritten.
//
// A nil SUCH THAT yields one empty branch (everything is feasible); a
// constant-false formula yields zero branches. Errors name the atom
// that blocks sketch evaluation.
func CompileSketch(a *paql.Analysis, maxBranches int) (branches []SketchBranch, rewrites int, err error) {
	if maxBranches <= 0 {
		maxBranches = DefaultMaxSketchBranches
	}
	if a.Query.SuchThat == nil {
		return []SketchBranch{{}}, 0, nil
	}
	raw, err := dnfBranches(nnf(a.Query.SuchThat, false), maxBranches)
	if err != nil {
		return nil, 0, err
	}
	rewritten := map[*bAtom]bool{}
	for _, rb := range raw {
		atoms := make([]*SketchAtom, 0, len(rb))
		drop := false
		for _, ba := range rb {
			lowered, dropBranch, wasRewrite, err := lowerSketchAtom(ba.e)
			if err != nil {
				return nil, 0, err
			}
			if dropBranch {
				drop = true
				break
			}
			if wasRewrite && !rewritten[ba] {
				rewritten[ba] = true
				rewrites++
			}
			atoms = append(atoms, lowered...)
		}
		if !drop {
			branches = append(branches, SketchBranch{Atoms: atoms})
		}
	}
	return branches, rewrites, nil
}

// dnfBranches expands a negation-normal-form tree into DNF: a list of
// branches, each a conjunction of atoms. cap bounds the branch count.
func dnfBranches(n bnode, cap int) ([][]*bAtom, error) {
	switch node := n.(type) {
	case *bAtom:
		return [][]*bAtom{{node}}, nil
	case *bOr:
		var out [][]*bAtom
		for _, k := range node.kids {
			kb, err := dnfBranches(k, cap)
			if err != nil {
				return nil, err
			}
			out = append(out, kb...)
			if len(out) > cap {
				return nil, fmt.Errorf("SUCH THAT expands to more than %d disjunctive branches; SketchRefine caps the DNF blow-up (simplify the formula or use -strategy solver)", cap)
			}
		}
		return out, nil
	case *bAnd:
		out := [][]*bAtom{nil}
		for _, k := range node.kids {
			kb, err := dnfBranches(k, cap)
			if err != nil {
				return nil, err
			}
			next := make([][]*bAtom, 0, len(out)*len(kb))
			for _, pre := range out {
				for _, suf := range kb {
					branch := make([]*bAtom, 0, len(pre)+len(suf))
					branch = append(append(branch, pre...), suf...)
					next = append(next, branch)
					if len(next) > cap {
						return nil, fmt.Errorf("SUCH THAT expands to more than %d disjunctive branches; SketchRefine caps the DNF blow-up (simplify the formula or use -strategy solver)", cap)
					}
				}
			}
			out = next
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown formula node %T", n)
}

// lowerSketchAtom lowers one comparison (or constant boolean) into
// sketch atoms. dropBranch reports a constant-false atom (the branch is
// unsatisfiable); wasRewrite reports an AVG/MIN/MAX rewrite. Errors
// name the offending atom.
func lowerSketchAtom(e expr.Expr) (atoms []*SketchAtom, dropBranch, wasRewrite bool, err error) {
	if v, ok := constBool(e); ok {
		return nil, !v, false, nil
	}
	b, ok := e.(*expr.Binary)
	if !ok || !b.Op.Comparison() {
		return nil, false, false, fmt.Errorf("atom %s is not a comparison over aggregates", e)
	}
	agg, c, op, special, err := specialAtom(b)
	if err != nil {
		return nil, false, false, fmt.Errorf("atom %s blocks SketchRefine: %w", e, err)
	}
	src := e.String()
	if special {
		switch agg.Fn {
		case "AVG":
			switch op {
			case expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt:
			default:
				return nil, false, false, fmt.Errorf("atom %s blocks SketchRefine: AVG with %s has no exact linear form", e, op)
			}
			return []*SketchAtom{
				{Kind: SketchAvg, agg: agg, op: op, c: c, src: src},
				{Kind: SketchAtLeast, agg: agg, all: true, src: src + " [non-empty guard]"},
			}, false, true, nil
		case "MIN", "MAX":
			return lowerMinMax(agg, op, c, e, src)
		}
	}
	if _, err := comparisonForm(b); err != nil {
		return nil, false, false, fmt.Errorf("atom %s is not an affine SUM/COUNT comparison (no linear form)", e)
	}
	return []*SketchAtom{{Kind: SketchLinear, cmp: b, src: src}}, false, false, nil
}

// lowerMinMax lowers a MIN/MAX comparison into selector atoms, the
// same elimination + at-least-one scheme the exact MILP uses
// (encodeMinMax): bounds that constrain every package member eliminate
// the violating tuples and require a surviving witness; bounds that
// only need one witness require a tuple on the right side of the
// threshold.
func lowerMinMax(agg *paql.Agg, op expr.BinOp, c float64, e expr.Expr, src string) ([]*SketchAtom, bool, bool, error) {
	isMin := agg.Fn == "MIN"
	switch {
	case (isMin && (op == expr.OpGe || op == expr.OpGt)) || (!isMin && (op == expr.OpLe || op == expr.OpLt)):
		var badOp expr.BinOp
		switch {
		case isMin && op == expr.OpGe:
			badOp = expr.OpLt
		case isMin && op == expr.OpGt:
			badOp = expr.OpLe
		case !isMin && op == expr.OpLe:
			badOp = expr.OpGt
		default: // MAX <
			badOp = expr.OpGe
		}
		return []*SketchAtom{
			{Kind: SketchElim, agg: agg, op: badOp, c: c, src: src},
			{Kind: SketchAtLeast, agg: agg, all: true, src: src + " [witness guard]"},
		}, false, true, nil
	case (isMin && (op == expr.OpLe || op == expr.OpLt)) || (!isMin && (op == expr.OpGe || op == expr.OpGt)):
		return []*SketchAtom{
			{Kind: SketchAtLeast, agg: agg, op: op, c: c, src: src},
		}, false, true, nil
	}
	return nil, false, false, fmt.Errorf("atom %s blocks SketchRefine: %s with %s has no exact linear form", e, agg.Fn, op)
}

// Weigh compiles the atom into exact linear rows over the rows the
// columns were built from: over the candidates, the rows the refine
// MILPs and the final feasibility check enforce; over a level's
// representatives, that level's approximation of the non-selector
// kinds (partition levels re-weight selectors from subtree envelopes).
func (at *SketchAtom) Weigh(cols *Columns) ([]*LinearAtom, error) {
	switch at.Kind {
	case SketchLinear:
		// Strict comparisons are tightened by the shared epsilon, not
		// relaxed to their closed forms: sketch branches need
		// sufficient conditions (a package passing the rows satisfies
		// the formula), where ConjunctiveAtoms only needs necessary
		// ones.
		rows, ok := linearAtom(cols, at.cmp)
		if !ok {
			return nil, fmt.Errorf("atom %s is not an affine SUM/COUNT comparison", at.cmp)
		}
		switch at.cmp.Op {
		case expr.OpLt:
			rows[0].RHS -= eps(rows[0].RHS)
		case expr.OpGt:
			rows[0].RHS += eps(rows[0].RHS)
		}
		return rows, nil
	case SketchAvg:
		// The same weights as encodeAvg: COUNT(*) weights would let
		// NULL-argument tuples shift the rewritten average.
		w, _, err := cols.avgWeights(at.agg, at.c)
		if err != nil {
			return nil, err
		}
		row := &LinearAtom{W: w, Source: at.src}
		switch at.op {
		case expr.OpLe:
			row.Op, row.RHS = lp.LE, 0
		case expr.OpLt:
			row.Op, row.RHS = lp.LE, -eps(at.c)
		case expr.OpGe:
			row.Op, row.RHS = lp.GE, 0
		case expr.OpGt:
			row.Op, row.RHS = lp.GE, eps(at.c)
		default:
			return nil, fmt.Errorf("AVG with %s has no exact linear form", at.op)
		}
		return []*LinearAtom{row}, nil
	case SketchElim, SketchAtLeast:
		sel, err := at.Selector(cols)
		if err != nil {
			return nil, err
		}
		return []*LinearAtom{sel.TupleAtom()}, nil
	}
	return nil, fmt.Errorf("unknown sketch atom kind %d", at.Kind)
}

// Selector is the per-candidate view of a selector atom
// (SketchElim/SketchAtLeast): which tuples are present under the
// aggregate's filter, their argument values, and the predicate that
// selects them (bad tuples for an elimination row, good tuples for an
// at-least-one row). Partition levels use it to re-weight the atom over
// nodes from subtree envelopes; Col names the bare unfiltered argument
// column when the envelope fast path applies (-1 otherwise).
type Selector struct {
	Kind    SketchAtomKind
	Present []bool    // filter passes and the argument is non-NULL
	Vals    []float64 // argument value per candidate (0 when absent)
	Col     int       // bare argument column ordinal, or -1
	All     bool      // predicate selects every present tuple (guards)
	Op      expr.BinOp
	C       float64
	Source  string
}

// Selector returns the selector view of the atom over the rows the
// columns were built from; Present and Vals are the shared column
// slices. It errors on non-selector kinds.
func (at *SketchAtom) Selector(cols *Columns) (*Selector, error) {
	if !at.IsSelector() {
		return nil, fmt.Errorf("atom %s is not a selector", at.src)
	}
	col, err := cols.column(at.agg)
	if err != nil {
		return nil, err
	}
	c := -1
	if at.agg.Filter == nil {
		if ac, ok := at.agg.Arg.(*expr.Col); ok {
			c = ac.Idx
		}
	}
	return &Selector{
		Kind: at.Kind, Present: col.present, Vals: col.vals, Col: c,
		All: at.all, Op: at.op, C: at.c, Source: at.src,
	}, nil
}

// Match reports whether a present tuple with the given argument value
// is selected by the predicate.
func (s *Selector) Match(v float64) bool {
	if s.All {
		return true
	}
	switch s.Op {
	case expr.OpLe:
		return v <= s.C
	case expr.OpLt:
		return v < s.C
	case expr.OpGe:
		return v >= s.C
	case expr.OpGt:
		return v > s.C
	}
	return false
}

// TupleAtom is the exact tuple-level row of the selector: Σ_bad x ≤ 0
// for eliminations, Σ_good x ≥ 1 for at-least-one rows — the same rows
// the exact MILP enforces for MIN/MAX atoms and AVG guards.
func (s *Selector) TupleAtom() *LinearAtom {
	w := make([]float64, len(s.Present))
	for i := range w {
		if s.Present[i] && s.Match(s.Vals[i]) {
			w[i] = 1
		}
	}
	if s.Kind == SketchElim {
		return &LinearAtom{W: w, Op: lp.LE, RHS: 0, Source: s.Source}
	}
	return &LinearAtom{W: w, Op: lp.GE, RHS: 1, Source: s.Source}
}
