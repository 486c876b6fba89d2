package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/sketch"
)

// settleGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime helpers) or the deadline passes,
// returning the final count.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationStress races concurrent solves — half of them
// canceled mid-flight — and then checks the three invariants the
// lifecycle layer promises: canceled queries report ErrCanceled (never
// a corrupt result), no goroutine outlives its query, and the shared
// partition-tree cache stays consistent (exactly one tree, still
// serving hits). Run under -race this also proves the checkpoint
// plumbing doesn't data-race with the solver's own parallelism.
func TestCancellationStress(t *testing.T) {
	db := lcDB(t, 20000)
	prep, err := PrepareContext(context.Background(), db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	prep.SketchCache = cache
	opts := Options{Strategy: SketchRefineStrategy, SketchCache: cache}
	// Warm the tree so the raced solves measure solve cancellation, not
	// build coalescing (cancel_test.go covers cold builds).
	if _, err := prep.RunContext(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	cancels := make([]context.CancelFunc, workers)
	for i := 0; i < workers; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func(i int, ctx context.Context) {
			defer wg.Done()
			_, errs[i] = prep.RunContext(ctx, opts)
		}(i, ctx)
	}
	// Cancel the odd half mid-flight; the even half runs to completion.
	time.Sleep(2 * time.Millisecond)
	for i := 1; i < workers; i += 2 {
		cancels[i]()
	}
	wg.Wait()
	for i := 0; i < workers; i += 2 {
		cancels[i]()
	}

	for i, err := range errs {
		if i%2 == 0 {
			if err != nil {
				t.Errorf("uncanceled worker %d: %v", i, err)
			}
		} else if err != nil && !errors.Is(err, lifecycle.ErrCanceled) {
			// nil is fine — the solve may have finished before the cancel.
			t.Errorf("canceled worker %d: %v, want nil or ErrCanceled", i, err)
		}
	}
	if n := settleGoroutines(baseline); n > baseline+2 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, n)
	}
	// Cache consistency: still exactly one tree, and it still serves.
	if got := cache.Len(); got != 1 {
		t.Errorf("cache entries = %d, want 1", got)
	}
	hitsBefore := cache.Stats().Hits
	if res, err := prep.RunContext(context.Background(), opts); err != nil || len(res.Packages) == 0 {
		t.Fatalf("post-stress solve: packages=%v err=%v", res, err)
	}
	if cache.Stats().Hits <= hitsBefore {
		t.Error("post-stress solve missed the cache")
	}
}

// TestCanceledBuildLeavesCacheConsistent cancels a solve during the
// offline partition-tree build (a deadline shorter than the build) and
// checks the cache discards the partial tree: no entry is published,
// and a follow-up uncanceled solve rebuilds cleanly.
func TestCanceledBuildLeavesCacheConsistent(t *testing.T) {
	db := lcDB(t, 50000)
	prep, err := PrepareContext(context.Background(), db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	prep.SketchCache = cache
	opts := Options{Strategy: SketchRefineStrategy, SketchCache: cache}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := prep.RunContext(ctx, opts)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // land inside the cold build
	cancel()
	if err := <-done; err != nil && !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("canceled build = %v, want nil or ErrCanceled", err)
	} else if err != nil && cache.Len() != 0 {
		t.Errorf("canceled build published %d cache entries", cache.Len())
	}
	// The cache recovers: a clean solve builds and publishes one tree.
	if res, err := prep.RunContext(context.Background(), opts); err != nil || len(res.Packages) == 0 {
		t.Fatalf("rebuild solve: err=%v", err)
	}
	if cache.Len() != 1 {
		t.Errorf("cache entries after rebuild = %d, want 1", cache.Len())
	}
}

// TestCanceled1MReturnsPromptly is the acceptance bar for cooperative
// cancellation at scale: over a warmed 1M-row partition tree, a cancel
// fired mid-solve must return within 250ms. Short mode skips it (the
// dataset generation and warm build dominate the test's wall time).
func TestCanceled1MReturnsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row dataset build in -short mode")
	}
	db := lcDB(t, 1000000)
	prep, err := PrepareContext(context.Background(), db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	prep.SketchCache = cache
	opts := Options{Strategy: SketchRefineStrategy, SketchCache: cache}
	if _, err := prep.RunContext(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := prep.RunContext(ctx, opts)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // give the solve time to start
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if lat := time.Since(start); lat > 250*time.Millisecond {
			t.Errorf("cancel-to-return latency %v > 250ms", lat)
		}
		if err != nil && !errors.Is(err, lifecycle.ErrCanceled) {
			t.Errorf("err = %v, want nil or ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled 1M solve did not return within 5s")
	}
	// The warm tree survived the cancel.
	if res, err := prep.RunContext(context.Background(), opts); err != nil || len(res.Packages) == 0 {
		t.Fatalf("post-cancel solve: err=%v", err)
	}
}
