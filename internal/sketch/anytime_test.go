package sketch_test

// Anytime-mode unit tests: with a certified gap tolerance set, the
// disjunctive descent must stop as soon as the interval proven by the
// pre-pass bounds covers the tolerance — and must still return a
// certified interval when it does.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

const anytimeQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	SUCH THAT COUNT(*) = 3 AND (SUM(P.protein) >= 0 OR SUM(P.calories) <= 2500)
	MAXIMIZE SUM(P.protein)`

func anytimePrep(t *testing.T, n int) *core.Prepared {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.PrepareContext(context.Background(), db, anytimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestAnytimeEarlyExit: a tolerance loose enough to accept any certified
// interval must stop the descent after the first feasible branch of a
// two-branch disjunction, note the early exit, and still certify.
func TestAnytimeEarlyExit(t *testing.T) {
	prep := anytimePrep(t, 400)
	res, err := sketch.Solve(prep.Instance, sketch.Options{
		MaxPartitionSize: 32, Seed: 1, GapTolerance: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("first branch (SUM(protein) >= 0) must be feasible")
	}
	if res.Branches >= 2 {
		t.Fatalf("descended %d branches; the anytime exit should have stopped after 1", res.Branches)
	}
	if !res.Certified {
		t.Fatal("early exit must still carry a certified interval")
	}
	if res.Bound < res.Objective-1e-6*(1+res.Objective) {
		t.Fatalf("maximize bound %g below found objective %g", res.Bound, res.Objective)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "anytime:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no anytime note in %v", res.Notes)
	}
}

// TestAnytimeOffDescendsAllBranches: the control run — tolerance zero
// must descend every DNF branch and still report a certified interval,
// proving the bound pass alone never changes what is searched.
func TestAnytimeOffDescendsAllBranches(t *testing.T) {
	prep := anytimePrep(t, 400)
	res, err := sketch.Solve(prep.Instance, sketch.Options{
		MaxPartitionSize: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("query must be feasible")
	}
	if res.Branches != 2 {
		t.Fatalf("descended %d branches, want both", res.Branches)
	}
	if !res.Certified {
		t.Fatalf("full descent of a certified query must certify: %+v", res)
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "anytime:") {
			t.Fatalf("tolerance 0 must never early-exit: %v", res.Notes)
		}
	}
}
