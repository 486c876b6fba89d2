package sketch_test

// End-to-end coverage of the full PaQL atom grammar through
// sketch.Solve: AVG rewrites, MIN/MAX envelope pruning, disjunctive
// branches, and their interaction with REPEAT and pinned tuples. Each
// test cross-checks against the exact MILP solver where it is cheap.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

// grammarPrep prepares a recipes query with the given SUCH THAT /
// objective tail.
func grammarPrep(t *testing.T, n int, tail string) *core.Prepared {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.PrepareContext(context.Background(), db, "SELECT PACKAGE(R) AS P FROM recipes R "+tail)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// exactObjective solves the instance exactly and returns the optimum.
func exactObjective(t *testing.T, prep *core.Prepared) float64 {
	t.Helper()
	res, err := prep.RunContext(context.Background(), core.Options{Strategy: core.Solver, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) == 0 {
		t.Fatal("exact solver found no package")
	}
	return res.Packages[0].Objective
}

// feasibleAndValid asserts the sketch result is feasible and that the
// claimed package truly satisfies the formula end to end.
func feasibleAndValid(t *testing.T, prep *core.Prepared, res *sketch.Result) {
	t.Helper()
	if !res.Feasible {
		t.Fatalf("sketch infeasible: %v", res.Notes)
	}
	ok, err := prep.Instance.Validate(res.Mult)
	if err != nil || !ok {
		t.Fatalf("sketch package fails full validation (ok=%v err=%v)", ok, err)
	}
}

func TestSketchAvgAtomVsExact(t *testing.T) {
	prep := grammarPrep(t, 400, `
		SUCH THAT COUNT(*) = 3 AND AVG(P.calories) <= 700
		MAXIMIZE SUM(P.protein)`)
	res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	feasibleAndValid(t, prep, res)
	if res.AtomRewrites != 1 {
		t.Errorf("AtomRewrites = %d, want 1", res.AtomRewrites)
	}
	if res.Branches != 1 {
		t.Errorf("Branches = %d, want 1", res.Branches)
	}
	if res.Levels < 1 {
		t.Errorf("Levels = %d, want >= 1 (sketch actually ran)", res.Levels)
	}
	opt := exactObjective(t, prep)
	if res.Objective > opt+1e-6 {
		t.Fatalf("sketch objective %g beats the exact optimum %g", res.Objective, opt)
	}
	if res.Objective < 0.85*opt {
		t.Errorf("sketch objective %g more than 15%% below exact %g", res.Objective, opt)
	}
}

func TestSketchMinMaxAtomsVsExact(t *testing.T) {
	prep := grammarPrep(t, 400, `
		SUCH THAT COUNT(*) = 3 AND MIN(P.protein) >= 10 AND MAX(P.calories) <= 900
		MAXIMIZE SUM(P.protein)`)
	res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	feasibleAndValid(t, prep, res)
	if res.AtomRewrites != 2 {
		t.Errorf("AtomRewrites = %d, want 2", res.AtomRewrites)
	}
	// The formula itself proves the per-tuple bounds; spot-check anyway.
	for i, m := range res.Mult {
		if m == 0 {
			continue
		}
		prot, _ := prep.Instance.Rows[i][6].AsFloat()
		cal, _ := prep.Instance.Rows[i][5].AsFloat()
		if prot < 10 || cal > 900 {
			t.Errorf("tuple %d (protein %g, calories %g) violates the MIN/MAX bounds", i, prot, cal)
		}
	}
	opt := exactObjective(t, prep)
	if res.Objective > opt+1e-6 {
		t.Fatalf("sketch objective %g beats the exact optimum %g", res.Objective, opt)
	}
}

func TestSketchDisjunctionDescendsBothBranches(t *testing.T) {
	prep := grammarPrep(t, 400, `
		SUCH THAT COUNT(*) = 3 AND (SUM(P.calories) <= 1600 OR AVG(P.protein) >= 22)
		MAXIMIZE SUM(P.protein)`)
	res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	feasibleAndValid(t, prep, res)
	if res.Branches != 2 {
		t.Errorf("Branches = %d, want 2 (both DNF branches descended)", res.Branches)
	}
	opt := exactObjective(t, prep)
	if res.Objective > opt+1e-6 {
		t.Fatalf("sketch objective %g beats the exact optimum %g", res.Objective, opt)
	}
	if res.Objective < 0.85*opt {
		t.Errorf("sketch objective %g more than 15%% below exact %g", res.Objective, opt)
	}
}

// TestSketchEnvelopePruneForcesCluster builds two well-separated value
// clusters that land in different partitions and checks the MIN bound
// prunes the low cluster at the sketch level already: every chosen
// tuple comes from the admissible cluster, with no repair pass needed.
func TestSketchEnvelopePruneForcesCluster(t *testing.T) {
	db := minidb.New()
	if _, err := db.Exec("CREATE TABLE t (x INT, y INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		// Low cluster: x in [0, 32). High cluster: x in [100, 132).
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", 100+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	prep, err := core.PrepareContext(context.Background(), db, `
		SELECT PACKAGE(T) AS P FROM t T
		SUCH THAT COUNT(*) = 4 AND MIN(P.x) >= 100
		MAXIMIZE SUM(P.y)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 8, Depth: depth, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			feasibleAndValid(t, prep, res)
			for i, m := range res.Mult {
				if m == 0 {
					continue
				}
				x, _ := prep.Instance.Rows[i][0].AsFloat()
				if x < 100 {
					t.Errorf("tuple with x=%g slipped past the MIN envelope prune", x)
				}
			}
			// Optimum picks the four largest y values in the high
			// cluster: 31+30+29+28.
			if res.Objective != 118 {
				t.Errorf("objective %g, want 118 (exact on this tiny instance)", res.Objective)
			}
		})
	}
}

// TestSketchMinMaxWithRepeatAndPins exercises the new atoms together
// with REPEAT multiplicities and pinned tuples.
func TestSketchMinMaxWithRepeatAndPins(t *testing.T) {
	prep := grammarPrep(t, 300, `REPEAT 1
		SUCH THAT COUNT(*) = 4 AND MIN(P.protein) >= 8 AND AVG(P.calories) <= 750
		MAXIMIZE SUM(P.protein)`)
	// Pin an admissible tuple (protein >= 8) so the pin cannot conflict
	// with the MIN bound.
	pin := -1
	for i, row := range prep.Instance.Rows {
		prot, _ := row[6].AsFloat()
		cal, _ := row[5].AsFloat()
		if prot >= 8 && cal <= 700 {
			pin = i
			break
		}
	}
	if pin < 0 {
		t.Fatal("no pinnable tuple in the dataset")
	}
	res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Seed: 1, Require: []int{pin}})
	if err != nil {
		t.Fatal(err)
	}
	feasibleAndValid(t, prep, res)
	if res.Mult[pin] < 1 {
		t.Fatalf("pinned tuple %d missing from the package", pin)
	}
	for i, m := range res.Mult {
		if m > 2 {
			t.Errorf("tuple %d multiplicity %d exceeds REPEAT 1", i, m)
		}
	}
}

// TestSketchDisjunctionInfeasibleBranchFallsToOther makes the first DNF
// branch unsatisfiable and checks the second one still produces the
// package.
func TestSketchDisjunctionInfeasibleBranchFallsToOther(t *testing.T) {
	prep := grammarPrep(t, 300, `
		SUCH THAT COUNT(*) = 3 AND (SUM(P.calories) <= 0 OR MAX(P.calories) <= 800)
		MAXIMIZE SUM(P.protein)`)
	res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	feasibleAndValid(t, prep, res)
	if res.Branches != 2 {
		t.Errorf("Branches = %d, want 2", res.Branches)
	}
	for i, m := range res.Mult {
		if m == 0 {
			continue
		}
		cal, _ := prep.Instance.Rows[i][1].AsFloat()
		if cal > 800 {
			t.Errorf("tuple with calories %g violates the surviving branch", cal)
		}
	}
}

// TestSketchHierarchicalAvgDepth2 runs an AVG query through a real
// depth-2 tree: the rewrite must survive every level of the descent.
func TestSketchHierarchicalAvgDepth2(t *testing.T) {
	prep := grammarPrep(t, 3000, `
		SUCH THAT COUNT(*) = 5 AND AVG(P.calories) <= 650 AND MIN(P.protein) >= 5
		MAXIMIZE SUM(P.protein)`)
	res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	feasibleAndValid(t, prep, res)
	if res.Levels != 2 {
		t.Errorf("Levels = %d, want 2", res.Levels)
	}
}
