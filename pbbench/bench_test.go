package main

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 0, 40)
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	// 40 samples: the 30th smallest has exactly 10 above it.
	if !ok || v != 30 || pct != 75 {
		t.Fatalf("tail of 1..40 = %v at p%v (ok=%v), want 30 at p75", v, pct, ok)
	}
	v, _, ok = tail(xs[:11])
	if !ok || v != 30 {
		t.Fatalf("tail of 11 samples = %v (ok=%v), want the smallest, 30", v, ok)
	}
	v, pct, ok = tail(xs[:10])
	if ok || v != 40 || pct != 100 {
		t.Fatalf("tail of 10 samples = %v at p%v (ok=%v), want the maximum and ok=false", v, pct, ok)
	}
	if v, _, ok := tail(nil); ok || v != 0 {
		t.Fatalf("tail of no samples = %v (ok=%v)", v, ok)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := geomean([]float64{2, 8}); got < 3.9999 || got > 4.0001 {
		t.Fatalf("geomean = %v, want 4", got)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b := newRowGen(7), newRowGen(7)
	if !reflect.DeepEqual(a.rows(500), b.rows(500)) {
		t.Fatal("same seed, different rows")
	}
	// Write batches continue the same stream, ids included.
	wa, wb := a.rows(writeBatch), b.rows(writeBatch)
	if !reflect.DeepEqual(wa, wb) || rowID(wa[0]) != 501 {
		t.Fatalf("write batches differ or ids do not continue (first id %d)", rowID(wa[0]))
	}
	if reflect.DeepEqual(newRowGen(7).rows(50), newRowGen(8).rows(50)) {
		t.Fatal("different seeds, same rows")
	}
	ta, tb := priceThresholds(7, priceQueries), priceThresholds(7, priceQueries)
	if !reflect.DeepEqual(ta, tb) || len(ta) != priceQueries {
		t.Fatal("same seed, different thresholds")
	}
	seen := map[float64]bool{}
	for _, p := range ta {
		if seen[p] || p < 2+18*0.55-0.01 || p > 2+18*0.78+0.01 {
			t.Fatalf("threshold %v repeated or outside 55-78%% of the price range", p)
		}
		seen[p] = true
	}
	ea, _ := newEnv(3, 10)
	eb, _ := newEnv(3, 10)
	for i := 0; i < 3; i++ {
		if sa, sb := ea.writeBatchSQL(), eb.writeBatchSQL(); sa != sb {
			t.Fatalf("delete %d differs: %q vs %q", i, sa, sb)
		}
	}
	for i := 0; i < 2*len(readKinds); i++ {
		ka, qa := ea.nextRead()
		kb, qb := eb.nextRead()
		if ka.kind != kb.kind || qa != qb {
			t.Fatalf("query %d differs: %q vs %q", i, qa, qb)
		}
	}
}

// smallAnswer runs the meal query on a small table and returns the
// environment and the checkable answer.
func smallAnswer(t *testing.T) (*env, answer) {
	t.Helper()
	e, err := newEnv(5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.sys.QueryContext(context.Background(), MealQuery)
	if err != nil || len(res.Packages) == 0 {
		t.Fatalf("query: %v", err)
	}
	a := answer{query: MealQuery, pkg: res.Packages[0], certified: res.Stats.Certified,
		bound: res.Stats.BoundValue, exact: res.Stats.Exact}
	if err := checkAnswer(e.sys.DB(), a); err != nil {
		t.Fatalf("a correct package was rejected: %v", err)
	}
	return e, a
}

func clonePkg(p *core.Package) *core.Package {
	c := *p
	c.Mult = append([]int(nil), p.Mult...)
	return &c
}

func TestCheckerRejectsFlippedMultiplicity(t *testing.T) {
	e, a := smallAnswer(t)
	for _, want := range []int{0, 1} {
		bad := clonePkg(a.pkg)
		for i, m := range bad.Mult {
			if (m > 0) == (want == 0) {
				bad.Mult[i] = want
				break
			}
		}
		b := a
		b.pkg = bad
		if err := checkAnswer(e.sys.DB(), b); err == nil {
			t.Fatalf("package with one multiplicity flipped to %d was accepted", want)
		}
	}
}

func TestCheckerRejectsDeletedRow(t *testing.T) {
	e, a := smallAnswer(t)
	id := rowID(a.pkg.Rows[0])
	if _, err := e.sys.ExecSQL(fmt.Sprintf("DELETE FROM %s WHERE id = %d", Table, id)); err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(e.sys.DB(), a); err == nil {
		t.Fatalf("package holding deleted row id %d was accepted", id)
	}
}

func TestCheckerRejectsWrongClaims(t *testing.T) {
	e, a := smallAnswer(t)
	for name, mutate := range map[string]func(*answer){
		"objective":        func(b *answer) { p := clonePkg(b.pkg); p.Objective++; b.pkg = p },
		"uncertified":      func(b *answer) { b.certified = false },
		"bound below":      func(b *answer) { b.bound = b.pkg.Objective - 1 },
		"exact with a gap": func(b *answer) { b.exact, b.bound = true, b.pkg.Objective+1 },
	} {
		b := a
		mutate(&b)
		if err := checkAnswer(e.sys.DB(), b); err == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
}

func TestCheckReplacement(t *testing.T) {
	p := &core.Package{Mult: []int{1, 0, 1}}
	if err := checkReplacement(p, []int{0}, []*core.Package{{Mult: []int{1, 1, 0}}}); err != nil {
		t.Fatalf("valid replacement rejected: %v", err)
	}
	if err := checkReplacement(p, []int{1}, nil); err == nil {
		t.Fatal("replacement without its pinned tuple accepted")
	}
	if err := checkReplacement(p, nil, []*core.Package{{Mult: []int{1, 0, 1}}}); err == nil {
		t.Fatal("replacement repeating an earlier package accepted")
	}
}
