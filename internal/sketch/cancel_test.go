package sketch_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

const cancelQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func cancelPrep(t *testing.T, n int) *core.Prepared {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.PrepareContext(context.Background(), db, cancelQuery)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// A context canceled before Solve starts returns ErrCanceled without
// publishing anything to the cache.
func TestSolveCanceledBeforeStart(t *testing.T) {
	prep := cancelPrep(t, 500)
	cache := sketch.NewCache(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sketch.Solve(prep.Instance, sketch.Options{
		Ctx: ctx, MaxPartitionSize: 32, Seed: 1, Cache: cache,
	})
	if !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("Solve on canceled ctx returned %v, want ErrCanceled", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("canceled solve published %d tree(s) to the cache", cache.Len())
	}
	// The cache stays usable: the same options solve cleanly afterwards.
	res, err := sketch.Solve(prep.Instance, sketch.Options{
		Ctx: context.Background(), MaxPartitionSize: 32, Seed: 1, Cache: cache,
	})
	if err != nil || !res.Feasible {
		t.Fatalf("follow-up solve after cancel: feasible=%v err=%v", res != nil && res.Feasible, err)
	}
	if cache.Len() != 1 {
		t.Fatalf("follow-up solve cached %d trees, want 1", cache.Len())
	}
}

// Concurrent solves sharing a fingerprint coalesce onto one tree
// build: every solver gets the same feasible answer and the cache
// records at most one real build (misses can exceed builds only by
// the flights that joined).
func TestConcurrentSolvesCoalesce(t *testing.T) {
	prep := cancelPrep(t, 2000)
	cache := sketch.NewCache(4)
	const clients = 8
	var wg sync.WaitGroup
	results := make([]*sketch.Result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sketch.Solve(prep.Instance, sketch.Options{
				Ctx: context.Background(), MaxPartitionSize: 64, Seed: 1, Cache: cache,
			})
		}(i)
	}
	wg.Wait()
	coalesced := 0
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !results[i].Feasible {
			t.Fatalf("client %d: infeasible", i)
		}
		if results[i].Coalesced {
			coalesced++
		}
	}
	st := cache.Stats()
	if st.Entries != 1 {
		t.Fatalf("cache holds %d trees, want 1", st.Entries)
	}
	if int(st.Coalesced) != coalesced {
		t.Fatalf("cache counted %d coalesced, results flag %d", st.Coalesced, coalesced)
	}
	// All clients race one flight; everyone who missed the initial Get
	// but did not win the flight must have coalesced.
	if int(st.Misses) != coalesced+1 {
		t.Fatalf("stats %v: want misses == coalesced+1 (one real build)", st)
	}
}

// A joiner whose own context is canceled while parked on another
// solve's flight unblocks promptly with ErrCanceled; the builder is
// unaffected.
func TestCoalescedJoinerCancel(t *testing.T) {
	prep := cancelPrep(t, 50000)
	cache := sketch.NewCache(4)
	opts := func(ctx context.Context) sketch.Options {
		return sketch.Options{Ctx: ctx, MaxPartitionSize: 16, Depth: 3, Seed: 1, Cache: cache, Parallelism: 1}
	}
	builderDone := make(chan error, 1)
	go func() {
		_, err := sketch.Solve(prep.Instance, opts(context.Background()))
		builderDone <- err
	}()
	ctx, cancel := context.WithCancel(context.Background())
	joinerDone := make(chan error, 1)
	go func() {
		_, err := sketch.Solve(prep.Instance, opts(ctx))
		joinerDone <- err
	}()
	cancel()
	if err := <-joinerDone; err != nil && !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("joiner returned %v, want nil or ErrCanceled", err)
	}
	if err := <-builderDone; err != nil {
		t.Fatalf("builder failed: %v", err)
	}
}
