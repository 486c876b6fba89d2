package bench

// E15 measures what the certified-bound engine costs and what the
// anytime mode saves:
//
//   - the "certified" cells run the paper's meal query end-to-end and
//     separately time a standalone leaf-envelope LP bound at the same
//     scale, so the bound pass's share of the full solve is visible;
//   - the "anytime" cells run a two-branch disjunctive query twice —
//     gap tolerance off, then 5% — and check the tolerance run stops
//     after fewer branches while still returning a certified interval.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bound"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/paql"
	"repro/internal/sketch"
)

// E15Disjunctive places the trivially-feasible high-objective branch
// first, so a certified-gap early exit can skip the second branch.
const E15Disjunctive = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	SUCH THAT COUNT(*) = 3 AND (SUM(P.protein) >= 0 OR SUM(P.calories) <= 2500)
	MAXIMIZE SUM(P.protein)`

// RunE15 sweeps the bound-overhead and anytime cells. It fails if no
// anytime cell exits early with a certificate — the feature's whole
// claim.
func RunE15(cfg Config) error {
	sizes := []int{100000, 1000000}
	if cfg.Quick {
		sizes = []int{5000, 20000}
	}
	fmt.Fprintln(cfg.Out, "== E15: certified bounds — overhead and anytime early exit ==")
	tw := newTable(cfg.Out, "n", "cell", "time", "objective", "bound", "gap", "certified", "branches", "note")
	earlyExits := 0
	for _, n := range sizes {
		if err := runE15Certified(cfg, tw, n); err != nil {
			return err
		}
		early, err := runE15Anytime(cfg, tw, n)
		if err != nil {
			return err
		}
		if early {
			earlyExits++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if earlyExits == 0 {
		return fmt.Errorf("e15: no anytime cell exited early with a certificate; the claim vanished")
	}
	fmt.Fprintf(cfg.Out, "(claim check: every answer ships a certified objective ∈ [bound, found] interval; the standalone bound LP is a fraction of the solve; GapTolerance=5%% exited early on %d of %d cells)\n", earlyExits, len(sizes))
	return nil
}

// runE15Certified runs the meal query end-to-end under the planner and
// then times a standalone leaf-envelope LP bound over the same
// candidates, reporting both on one row each.
func runE15Certified(cfg Config, tw interface{ Write([]byte) (int, error) }, n int) error {
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	prep, err := core.PrepareContext(context.Background(), db, MealQuery)
	if err != nil {
		return err
	}
	opts := core.Options{Seed: cfg.seed(), SketchCache: sketch.NewCache(0),
		SketchMemo: core.NewFingerprintMemo(), Catalog: catalog.New(db)}
	start := time.Now()
	res, err := prep.RunContext(context.Background(), opts)
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("e15: n=%d certified: %w", n, err)
	}
	if !res.Stats.Certified || len(res.Packages) == 0 {
		return fmt.Errorf("e15: n=%d: full solve returned no certified interval (certified=%v)", n, res.Stats.Certified)
	}
	fmt.Fprintf(tw, "%d\tcertified/full\t%s\t%.0f\t%.0f\t%.2f%%\t%v\t%d\t\n",
		n, ms(elapsed), res.Packages[0].Objective, res.Stats.BoundValue,
		100*res.Stats.Gap, res.Stats.Certified, res.Stats.SketchBranches)

	// Standalone bound: leaf-envelope groups over a default tree, the
	// exact tuple-level atoms, one LP solve. The tree build is excluded
	// — the solve needs it anyway — so this is the marginal cost of
	// certification.
	inst := prep.Instance
	atoms := inst.Atoms
	if !inst.Pure {
		return fmt.Errorf("e15: n=%d: meal query must lower to conjunctive atoms", n)
	}
	tree := sketch.BuildTree(inst, sketch.Options{Seed: cfg.seed()})
	leaves := tree.Leaves()
	groups := make([]bound.Group, len(leaves))
	for i := range leaves {
		hi := lp.Inf
		if inst.MaxMult > 0 {
			hi = float64(len(leaves[i].Tuples) * inst.MaxMult)
		}
		groups[i] = bound.Group{Tuples: leaves[i].Tuples, Hi: hi}
	}
	sense := lp.Minimize
	if prep.Query.Objective.Sense == paql.Maximize {
		sense = lp.Maximize
	}
	start = time.Now()
	p, err := bound.Relax(atoms, inst.ObjW, sense, groups)
	if err != nil {
		return err
	}
	out := bound.Solve(nil, p, inst.ObjK)
	boundTime := time.Since(start)
	// Tightness of the standalone envelope against the answer the full
	// solve found: how much certified gap this one cheap LP buys on its
	// own (E16 measures what the staged pipeline tightens on top).
	tightness := bound.Interval{Found: res.Packages[0].Objective, Bound: out.Bound}
	fmt.Fprintf(tw, "%d\tbound/leaf-lp\t%s\t-\t%.0f\t%.2f%%\t%v\t-\t%d leaves, %d iters\n",
		n, ms(boundTime), out.Bound, 100*tightness.Gap(), out.Certified, len(groups), out.Iterations)
	return nil
}

// runE15Anytime runs the disjunctive query with the tolerance off and
// at 5%, reporting whether the tolerance run certified AND descended
// fewer branches.
func runE15Anytime(cfg Config, tw interface{ Write([]byte) (int, error) }, n int) (bool, error) {
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return false, err
	}
	prep, err := core.PrepareContext(context.Background(), db, E15Disjunctive)
	if err != nil {
		return false, err
	}
	var offBranches int
	var offTime time.Duration
	early := false
	for _, tol := range []float64{0, 0.05} {
		opts := core.Options{Strategy: core.SketchRefineStrategy, Seed: cfg.seed(),
			SketchCache: sketch.NewCache(0), SketchMemo: core.NewFingerprintMemo(),
			GapTolerance: tol}
		start := time.Now()
		res, err := prep.RunContext(context.Background(), opts)
		elapsed := time.Since(start)
		if err != nil {
			return false, fmt.Errorf("e15: n=%d anytime tol=%g: %w", n, tol, err)
		}
		if len(res.Packages) == 0 {
			return false, fmt.Errorf("e15: n=%d anytime tol=%g: no package", n, tol)
		}
		cell, note := "anytime/off", ""
		if tol > 0 {
			cell = "anytime/gap5"
			if res.Stats.Certified && res.Stats.SketchBranches < offBranches {
				early = true
				note = fmt.Sprintf("early exit: %d of %d branches, %.2fx faster",
					res.Stats.SketchBranches, offBranches, float64(offTime)/float64(elapsed))
			}
		} else {
			offBranches = res.Stats.SketchBranches
			offTime = elapsed
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f\t%.0f\t%.2f%%\t%v\t%d\t%s\n",
			n, cell, ms(elapsed), res.Packages[0].Objective, res.Stats.BoundValue,
			100*res.Stats.Gap, res.Stats.Certified, res.Stats.SketchBranches, note)
	}
	return early, nil
}
