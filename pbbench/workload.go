package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	pb "repro"
	"repro/internal/core"
)

// Workload sizes. The explore loop runs on a smaller table because a
// Replace re-solves history+3 packages, so its cost grows with every
// call of a session.
const (
	bigRows        = 200000
	exploreRows    = 50000
	writeBatch     = 200 // rows inserted, then rows deleted, per write-read cycle
	priceQueries   = 40  // cache-overflow working set: more than the 32-tree LRU and the 32-entry memo
	exploreReplace = 5   // Replace calls per session
)

// op is one measured operation: a query, a write+query cycle, or an
// exploration step.
type op struct {
	kind   string
	dur    time.Duration // what the client waited for
	write  time.Duration // write-read: the insert+delete part of dur
	gap    float64       // certified relative gap of the answer
	hasGap bool
	pkgs   int   // explore Replace: packages the evaluation was asked for
	milpN  int64 // exact op: branch-and-bound nodes
	failed error // evaluation error or failed check
}

// workload is one seeded scenario. step runs one unit of the closed
// loop (one op, or a whole session for explore) through the public
// packagebuilder surface; traced runs the same unit through each
// layer's own functions with a span around every call.
type workload struct {
	name    string
	why     string
	rows    int
	primary []string // op kinds op_p50 and op_tail summarise
	warm    func(e *env) []op
	step    func(e *env) []op
	traced  func(e *env, tr *tracer) []op
}

// env is a loaded system plus the seeded streams the workload draws
// its writes, thresholds and pins from.
type env struct {
	sys        *pb.System
	gen        *rowGen
	oldest     int64 // smallest live id (write-read deletes from here)
	thresholds []float64
	next       int
	rng        *rand.Rand
}

func newEnv(seed int64, rows int) (*env, error) {
	e := &env{sys: pb.New(), gen: newRowGen(seed), oldest: 1,
		thresholds: priceThresholds(seed, priceQueries),
		rng:        rand.New(rand.NewSource(seed * 7919))}
	if _, err := e.sys.DB().CreateTable(Table, recipeSchema()); err != nil {
		return nil, err
	}
	if err := e.sys.DB().InsertRows(Table, e.gen.rows(rows)); err != nil {
		return nil, err
	}
	return e, nil
}

var workloads = []*workload{
	{
		name:    "warm-read",
		why:     "200k rows, five query kinds round-robin; the four sketch trees stay in the 32-tree LRU, so time goes to prepare, descent and the bound pass; one kind takes the exact MILP",
		rows:    bigRows,
		primary: []string{"meal", "band", "envelope", "disjunction", "exact"},
		warm: func(e *env) []op {
			var ops []op
			for range readKinds {
				ops = append(ops, warmReadStep(e)...)
			}
			return ops
		},
		step: warmReadStep,
		traced: func(e *env, tr *tracer) []op {
			k, text := e.nextRead()
			return []op{tracedQuery(e, tr, k.kind, text, k.exact)}
		},
	},
	{
		name:    "write-read",
		why:     "200k rows; each cycle inserts 200 rows, deletes the 200 oldest and runs the meal query, so every read patches the cached tree: the write path beside the read path",
		rows:    bigRows,
		primary: []string{"cycle"},
		warm:    func(e *env) []op { return []op{queryOp(e, "meal", MealQuery, false)} },
		step:    writeReadStep,
		traced:  tracedWriteRead,
	},
	{
		name:    "cache-overflow",
		why:     "200k rows; 40 price thresholds rotate, more than the 32-tree LRU and 32-entry memo hold, so every query builds its tree: the cold counterpart of warm-read",
		rows:    bigRows,
		primary: []string{"cold"},
		warm: func(e *env) []op {
			var ops []op
			for range e.thresholds {
				ops = append(ops, overflowStep(e)...)
			}
			return ops
		},
		step:   overflowStep,
		traced: func(e *env, tr *tracer) []op { return []op{tracedQuery(e, tr, "cold", e.nextPrice(), false)} },
	},
	{
		name:    "explore-session",
		why:     "the paper's interactive loop on 50k rows: Explore and Refresh, pin one tuple, then five Replace calls that each re-solve history+3 packages",
		rows:    exploreRows,
		primary: []string{"replace"},
		warm: func(e *env) []op {
			// One Refresh builds the tree the sessions share.
			ses, err := e.sys.ExploreContext(context.Background(), MealQuery)
			if err != nil {
				return []op{{kind: "refresh", failed: err}}
			}
			_, err = ses.RefreshContext(context.Background())
			return []op{{kind: "refresh", failed: err}}
		},
		step:   func(e *env) []op { return exploreSession(e, nil) },
		traced: func(e *env, tr *tracer) []op { return exploreSession(e, tr) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// nextRead picks the next kind round-robin and draws its constants.
func (e *env) nextRead() (readKind, string) {
	k := readKinds[e.next%len(readKinds)]
	e.next++
	return k, k.text(e.rng)
}

func (e *env) nextPrice() string {
	p := e.thresholds[e.next%len(e.thresholds)]
	e.next++
	return PriceQuery(p)
}

func warmReadStep(e *env) []op {
	k, text := e.nextRead()
	return []op{queryOp(e, k.kind, text, k.exact)}
}

func overflowStep(e *env) []op {
	return []op{queryOp(e, "cold", e.nextPrice(), false)}
}

// queryOp runs one PaQL query through System.QueryContext with every
// knob left to the planner, then checks the answer.
func queryOp(e *env, kind, text string, exact bool) op {
	start := time.Now()
	res, err := e.sys.QueryContext(context.Background(), text)
	o := op{kind: kind, dur: time.Since(start)}
	if err != nil {
		o.failed = err
		return o
	}
	if len(res.Packages) == 0 {
		o.failed = fmt.Errorf("%s: no package", o.kind)
		return o
	}
	if exact && res.Stats.Strategy != pb.Solver {
		o.failed = fmt.Errorf("%s: planner chose %s, not the exact solver", o.kind, res.Stats.Strategy)
		return o
	}
	o.gap, o.hasGap = res.Stats.Gap, res.Stats.Certified
	if exact {
		o.milpN = res.Stats.Nodes
	}
	o.failed = checkAnswer(e.sys.DB(), answer{query: text, pkg: res.Packages[0],
		certified: res.Stats.Certified, bound: res.Stats.BoundValue, exact: exact})
	return o
}

// writeBatchSQL is the DELETE that removes the batch oldest live ids.
func (e *env) writeBatchSQL() string {
	lo := e.oldest
	e.oldest += writeBatch
	return fmt.Sprintf("DELETE FROM %s WHERE id >= %d AND id < %d", Table, lo, lo+writeBatch)
}

// write inserts one fresh batch and deletes the oldest one, keeping the
// table size constant.
func (e *env) write() error {
	if err := e.sys.DB().InsertRows(Table, e.gen.rows(writeBatch)); err != nil {
		return err
	}
	res, err := e.sys.ExecSQLContext(context.Background(), e.writeBatchSQL())
	if err != nil {
		return err
	}
	if res.Affected != writeBatch {
		return fmt.Errorf("delete removed %d rows, want %d", res.Affected, writeBatch)
	}
	return nil
}

func writeReadStep(e *env) []op {
	start := time.Now()
	err := e.write()
	wrote := time.Since(start)
	if err != nil {
		return []op{{kind: "cycle", dur: wrote, write: wrote, failed: err}}
	}
	o := queryOp(e, "cycle", MealQuery, false)
	o.dur += wrote
	o.write = wrote
	return []op{o}
}

// exploreSession runs one §3.3 session: Explore + Refresh, pin one
// tuple of the shown package, then exploreReplace Replace calls. With a
// tracer each call is a span; the session API is the layer measured.
func exploreSession(e *env, tr *tracer) []op {
	ctx := context.Background()
	var ops []op
	refresh := op{kind: "refresh"}
	sp := tr.beginOp("refresh")
	start := time.Now()
	s := tr.begin("explore.open")
	ses, err := e.sys.ExploreContext(ctx, MealQuery)
	tr.end(s)
	var cur *core.Package
	if err == nil {
		s = tr.begin("explore.refresh")
		cur, err = ses.RefreshContext(ctx)
		tr.end(s)
	}
	refresh.dur = time.Since(start)
	tr.endOp(sp)
	if err != nil {
		refresh.failed = err
		return []op{refresh}
	}
	refresh = checkExplore(e, refresh, ses.Stats(), cur, nil, nil)
	ops = append(ops, refresh)
	if refresh.failed != nil {
		return ops
	}
	var chosen []int
	for i, m := range cur.Mult {
		if m > 0 {
			chosen = append(chosen, i)
		}
	}
	pin := chosen[e.rng.Intn(len(chosen))]
	if err := ses.Pin(pin); err != nil {
		return append(ops, op{kind: "replace", failed: err})
	}
	for r := 0; r < exploreReplace; r++ {
		earlier := append([]*core.Package(nil), ses.History()...)
		o := op{kind: "replace", pkgs: len(earlier) + 3}
		sp := tr.beginOp("replace")
		start := time.Now()
		s := tr.begin("explore.replace")
		p, err := ses.ReplaceContext(ctx)
		tr.end(s)
		o.dur = time.Since(start)
		tr.endOp(sp)
		if err != nil {
			o.failed = err
			return append(ops, o)
		}
		o = checkExplore(e, o, ses.Stats(), p, ses.Pinned(), earlier)
		ops = append(ops, o)
		if o.failed != nil {
			return ops
		}
	}
	return ops
}

func checkExplore(e *env, o op, st *core.Stats, p *core.Package, pinned []int, earlier []*core.Package) op {
	if st == nil {
		o.failed = fmt.Errorf("%s: no statistics", o.kind)
		return o
	}
	o.gap, o.hasGap = st.Gap, st.Certified
	if err := checkAnswer(e.sys.DB(), answer{query: MealQuery, pkg: p,
		certified: st.Certified, bound: st.BoundValue}); err != nil {
		o.failed = err
		return o
	}
	o.failed = checkReplacement(p, pinned, earlier)
	return o
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
