// Mealplanner reproduces the paper's running example and demo scenario
// (§1, §7): an athlete builds a high-protein, gluten-free daily plan of
// three meals totalling 2000-2500 calories — then explores the package
// space interactively: pins a meal she likes, asks for replacements,
// and requests constraint suggestions for the "fat" column, exactly the
// Figure 1 interactions.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	pb "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/explore"
	"repro/internal/template"
)

const mealQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func main() {
	sys := pb.New()
	if err := dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: 500, Seed: 42}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== the athlete's daily plan (PaQL, §2) ===")
	res, err := sys.Query(mealQuery)
	if err != nil {
		log.Fatal(err)
	}
	pb.FormatResult(os.Stdout, sys, res)

	// Adaptive exploration (§3.3): keep the best meal, replace the rest.
	fmt.Println("\n=== adaptive exploration: pin the highest-protein meal, replace the others ===")
	ses, err := sys.Explore(mealQuery)
	if err != nil {
		log.Fatal(err)
	}
	first, err := ses.RefreshContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	bestIdx, bestProt := -1, -1.0
	for i, m := range first.Mult {
		if m > 0 {
			p, _ := ses.Prepared().Instance.Rows[i][6].AsFloat() // protein column
			if p > bestProt {
				bestProt, bestIdx = p, i
			}
		}
	}
	if err := ses.Pin(bestIdx); err != nil {
		log.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		next, err := ses.ReplaceContext(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replacement %d keeps the pinned meal and reaches protein %g\n",
			round, next.Objective)
	}

	// Constraint suggestion (§3.1): highlight the fat column.
	fmt.Println("\n=== suggestions for the highlighted \"fat\" column ===")
	sugg, err := ses.Suggest(explore.Highlight{Column: "fat", Row: -1})
	if err != nil {
		log.Fatal(err)
	}
	for _, sg := range sugg {
		fmt.Printf("  [%-9s] %-44s %s\n", sg.Kind, sg.Text, sg.Why)
	}

	// The package template (§3.1) renders the same query as slots.
	fmt.Println("\n=== package template ===")
	tpl, err := template.FromText(mealQuery)
	if err != nil {
		log.Fatal(err)
	}
	tab, _ := sys.DB().Table("recipes")
	tpl.Render(os.Stdout, tab.Schema, ses.Current(), []string{"name", "calories", "protein", "fat"})

	// The package-space summary (§3.2).
	fmt.Println("\n=== package space (top 8 packages, 2 auto-chosen dimensions) ===")
	prep := ses.Prepared()
	many, err := prep.RunContext(context.Background(), core.Options{Limit: 8, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	sum, err := sys.Summarize(prep, many.Packages, 0, false)
	if err != nil {
		log.Fatal(err)
	}
	sum.RenderASCII(os.Stdout, 56, 12)
}
