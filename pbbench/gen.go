package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/schema"
	"repro/internal/value"
)

// The benchmark owns its data generator and query texts, so edits to
// the repository's own experiment harness or dataset package cannot
// change what it measures. Everything below is a pure function of the
// seed.

// Table is the one relation every workload queries.
const Table = "recipes"

var (
	cuisines  = []string{"italian", "mexican", "indian", "american", "thai", "french", "japanese"}
	mealTypes = []string{"breakfast", "lunch", "dinner", "snack"}
	dishes    = []string{"Bowl", "Soup", "Pasta", "Salad", "Stir-fry", "Stew", "Wrap", "Plate", "Curry", "Chili"}
)

// recipeSchema is the recipes relation: id is unique and ascending in
// insertion order, so the checker can find a row by id in O(log n).
func recipeSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "name", Type: schema.TString},
		schema.Column{Name: "cuisine", Type: schema.TString},
		schema.Column{Name: "mealtype", Type: schema.TString},
		schema.Column{Name: "gluten", Type: schema.TString},
		schema.Column{Name: "calories", Type: schema.TFloat},
		schema.Column{Name: "protein", Type: schema.TFloat},
		schema.Column{Name: "fat", Type: schema.TFloat},
		schema.Column{Name: "carbs", Type: schema.TFloat},
		schema.Column{Name: "price", Type: schema.TFloat},
		schema.Column{Name: "rating", Type: schema.TFloat},
	)
}

// colID is the ordinal of the id column in recipeSchema.
const colID = 0

// rowGen draws recipe rows from one seeded stream: log-normal
// calories, protein and fat correlated with calories, uniform price
// and rating, 65% gluten-free.
type rowGen struct {
	rng    *rand.Rand
	nextID int64
}

func newRowGen(seed int64) *rowGen {
	return &rowGen{rng: rand.New(rand.NewSource(seed)), nextID: 1}
}

func (g *rowGen) rows(n int) []schema.Row {
	out := make([]schema.Row, n)
	for i := range out {
		out[i] = g.row()
	}
	return out
}

func (g *rowGen) row() schema.Row {
	r := g.rng
	cal := math.Round(clamp(math.Exp(r.NormFloat64()*0.45+6.05), 80, 1400))
	protein := math.Round(clamp(cal*(0.02+0.03*r.Float64())+r.NormFloat64()*3, 1, 120))
	fat := math.Round(clamp(cal*(0.015+0.03*r.Float64())+r.NormFloat64()*4, 0, 110))
	carbs := math.Round(clamp(cal*0.10-fat*0.4+r.NormFloat64()*10+20, 0, 200))
	price := math.Round((2+r.Float64()*18)*100) / 100
	rating := math.Round((1+r.Float64()*4)*10) / 10
	gluten := "free"
	if r.Float64() < 0.35 {
		gluten = "full"
	}
	id := g.nextID
	g.nextID++
	return schema.Row{
		value.Int(id),
		value.Str(fmt.Sprintf("%s #%d", dishes[r.Intn(len(dishes))], id)),
		value.Str(cuisines[r.Intn(len(cuisines))]),
		value.Str(mealTypes[r.Intn(len(mealTypes))]),
		value.Str(gluten),
		value.Float(cal),
		value.Float(protein),
		value.Float(fat),
		value.Float(carbs),
		value.Float(price),
		value.Float(rating),
	}
}

func clamp(x, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, x)) }

// MealQuery is the paper's running example; write-read and the explore
// sessions issue it verbatim.
const MealQuery = `SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free'
SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
MAXIMIZE SUM(P.protein)`

// readKind is one of warm-read's query kinds. Each op draws the kind's
// SUCH THAT constants afresh from the seeded stream, so a run's median
// covers many solver instances rather than one; the WHERE clause and
// the aggregated columns never change, so every variant of a kind uses
// the same partition tree.
type readKind struct {
	kind  string
	exact bool // the planner must send it to the exact MILP
	text  func(r *rand.Rand) string
}

// between draws an integer in [lo, hi].
func between(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

var readKinds = []readKind{
	// The meal query with its calorie band shifted.
	{"meal", false, func(r *rand.Rand) string {
		lo := between(r, 1900, 2200)
		return fmt.Sprintf(`SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free'
SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d
MAXIMIZE SUM(P.protein)`, lo, lo+500)
	}},
	// Two BETWEEN bands: the rows the bound pass's Lagrangian rounds
	// dualize.
	{"band", false, func(r *rand.Rand) string {
		lo, fat := between(r, 1900, 2200), between(r, 15, 40)
		return fmt.Sprintf(`SELECT PACKAGE(R) AS P FROM recipes R
SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d AND SUM(P.fat) BETWEEN %d AND %d
MAXIMIZE SUM(P.protein)`, lo, lo+500, fat, fat+180)
	}},
	// Enforced through the tree's per-node MIN/MAX envelopes.
	{"envelope", false, func(r *rand.Rand) string {
		maxCal, lo := between(r, 850, 1000), between(r, 2400, 2700)
		return fmt.Sprintf(`SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'full'
SUCH THAT COUNT(*) = 5 AND MIN(P.protein) >= 5 AND MAX(P.calories) <= %d AND SUM(P.calories) BETWEEN %d AND %d
MAXIMIZE SUM(P.protein)`, maxCal, lo, lo+1000)
	}},
	// Two DNF branches, one with an AVG rewrite.
	{"disjunction", false, func(r *rand.Rand) string {
		avg, sum := between(r, 600, 700), between(r, 2800, 3200)
		return fmt.Sprintf(`SELECT PACKAGE(R) AS P FROM recipes R WHERE R.mealtype <> 'snack'
SUCH THAT COUNT(*) = 5 AND (AVG(P.calories) <= %d OR SUM(P.calories) <= %d)
MAXIMIZE SUM(P.protein)`, avg, sum)
	}},
	// Selective enough (a few hundred candidates) that the planner
	// sends it to the exact MILP.
	{"exact", true, func(r *rand.Rand) string {
		lo := between(r, 1900, 2200)
		return fmt.Sprintf(`SELECT PACKAGE(R) AS P FROM recipes R
WHERE R.cuisine = 'thai' AND R.mealtype = 'dinner' AND R.rating >= 4.8
SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d
MAXIMIZE SUM(P.protein)`, lo, lo+500)
	}},
}

// PriceQuery is the meal query restricted to R.price <= p; the
// cache-overflow workload rotates p over priceThresholds.
func PriceQuery(p float64) string {
	return fmt.Sprintf(`SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' AND R.price <= %.2f
SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
MAXIMIZE SUM(P.protein)`, p)
}

// priceThresholds draws n distinct price cut-offs, each keeping 55–78%
// of the rows (price is uniform on [2, 20]).
func priceThresholds(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[float64]bool{}
	out := make([]float64, 0, n)
	for len(out) < n {
		p := math.Round((2+18*(0.55+0.23*rng.Float64()))*100) / 100
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
