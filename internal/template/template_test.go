package template

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/paql"
)

const mealText = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free' AND R.calories <= 900
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1000 AND 2400
	MAXIMIZE SUM(P.protein)`

func TestFromTextDecomposesSlots(t *testing.T) {
	tpl, err := FromText(mealText)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpl.Base) != 2 {
		t.Errorf("base slots = %v", tpl.Base)
	}
	if len(tpl.Globals) != 2 {
		t.Errorf("global slots = %v", tpl.Globals)
	}
	if tpl.ObjectiveSense != "MAXIMIZE" || !strings.Contains(tpl.Objective, "SUM") {
		t.Errorf("objective = %s %s", tpl.ObjectiveSense, tpl.Objective)
	}
}

func TestToPaQLRoundTrip(t *testing.T) {
	tpl, err := FromText(mealText)
	if err != nil {
		t.Fatal(err)
	}
	q, err := tpl.Parse()
	if err != nil {
		t.Fatalf("template does not re-parse: %v\n%s", err, tpl.ToPaQL())
	}
	if q.Table != "recipes" || q.Objective == nil || q.SuchThat == nil || q.Where == nil {
		t.Error("round trip lost clauses")
	}
	// and the round-tripped query still runs
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 40, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	res, err := core.EvaluateContext(context.Background(), db, tpl.ToPaQL(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 1 {
		t.Errorf("round-tripped query found %d packages", len(res.Packages))
	}
}

func TestSlotEditing(t *testing.T) {
	tpl := New("recipes", "R")
	if err := tpl.AddBase("R.gluten = 'free'"); err != nil {
		t.Fatal(err)
	}
	if err := tpl.AddBase("bogus ("); err == nil {
		t.Error("bad base should fail")
	}
	if err := tpl.AddGlobal("COUNT(*) = 3"); err != nil {
		t.Fatal(err)
	}
	if err := tpl.AddGlobal("SUM(P.calories WHERE P.mealtype = 'snack') <= 500"); err != nil {
		t.Fatalf("filtered aggregate slot: %v", err)
	}
	if err := tpl.AddGlobal("NOT VALID ("); err == nil {
		t.Error("bad global should fail")
	}
	if err := tpl.SetObjective("maximize", "SUM(P.protein)"); err != nil {
		t.Fatal(err)
	}
	if err := tpl.SetObjective("upward", "SUM(P.protein)"); err == nil {
		t.Error("bad sense should fail")
	}
	if err := tpl.SetObjective("MINIMIZE", "SUM(("); err == nil {
		t.Error("bad objective expression should fail")
	}
	if err := tpl.RemoveGlobal(1); err != nil {
		t.Fatal(err)
	}
	if err := tpl.RemoveGlobal(7); err == nil {
		t.Error("out-of-range removal should fail")
	}
	if err := tpl.RemoveBase(0); err != nil {
		t.Fatal(err)
	}
	if err := tpl.RemoveBase(0); err == nil {
		t.Error("removing from empty base should fail")
	}
	tpl.ClearObjective()
	if tpl.ObjectiveSense != "" {
		t.Error("objective not cleared")
	}
	text := tpl.ToPaQL()
	if _, err := paql.Parse(text); err != nil {
		t.Errorf("edited template does not parse: %v\n%s", err, text)
	}
}

func TestRepeatAndLimitSurvive(t *testing.T) {
	tpl, err := FromText(`SELECT PACKAGE(R) AS P FROM recipes R REPEAT 2 SUCH THAT COUNT(*) = 4 LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Repeat != 2 || tpl.Limit != 3 {
		t.Errorf("repeat=%d limit=%d", tpl.Repeat, tpl.Limit)
	}
	q, err := tpl.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if q.Repeat != 2 || q.Limit != 3 {
		t.Errorf("round trip: repeat=%d limit=%d", q.Repeat, q.Limit)
	}
}

func TestRenderShowsSampleAndSlots(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 40, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	res, err := core.EvaluateContext(context.Background(), db, mealText, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tpl, _ := FromText(mealText)
	tab, _ := db.Table("recipes")
	var sb strings.Builder
	tpl.Render(&sb, tab.Schema, res.Packages[0], []string{"name", "calories", "protein"})
	out := sb.String()
	for _, want := range []string{"Sample package:", "calories", "Base constraints", "Global constraints", "MAXIMIZE", "[g0]", "Aggregates:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// render without a sample
	sb.Reset()
	tpl.Render(&sb, tab.Schema, nil, nil)
	if !strings.Contains(sb.String(), "Base constraints") {
		t.Error("sample-less render broken")
	}
}
