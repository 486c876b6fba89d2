package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/sketch"
)

// RunE14 is the serving-load experiment behind the lifecycle layer:
// concurrent clients push the running-example query through an
// admission controller (the same one pbserver mounts) over a warmed
// 1M-row partition tree, and the table reports throughput and the
// latency distribution per client count — plus a deliberately
// saturated row showing the controller shedding instead of queueing
// without bound.
//
//	clients  queries  shed  qps  p50  p95  p99
//
// Quick mode shrinks the table and the per-client query count so the
// experiment fits a CI smoke job.
func RunE14(cfg Config) error {
	n := 1000000
	clientSweeps := []int{1, 4, 16, 64}
	perClient := 8
	if cfg.Quick {
		n = 5000
		clientSweeps = []int{1, 4, 8}
		perClient = 4
	}
	fmt.Fprintf(cfg.Out, "== E14: query lifecycle under load (admission control, %d rows) ==\n", n)
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	cache := sketch.NewCache(0)
	memo := core.NewFingerprintMemo()
	opts := core.Options{Strategy: core.SketchRefineStrategy, Seed: cfg.seed(),
		SketchCache: cache, SketchMemo: memo}
	prep, err := core.PrepareContext(context.Background(), db, MealQuery)
	if err != nil {
		return err
	}
	prep.SketchCache = cache
	prep.SketchMemo = memo
	// Warm the partition tree once: the load rows then measure serving
	// latency, not the offline partitioning step.
	if _, err := prep.RunContext(context.Background(), opts); err != nil {
		return err
	}

	tw := newTable(cfg.Out, "clients", "inflight/queue", "queries", "shed", "qps", "p50", "p95", "p99")
	for _, clients := range clientSweeps {
		adm := lifecycle.NewController(4, 16)
		if err := runE14Row(tw, prep, opts, adm, clients, perClient, "4/16"); err != nil {
			return err
		}
	}
	// Saturation row: one slot, no queue — most arrivals must shed.
	adm := lifecycle.NewController(1, 0)
	if err := runE14Row(tw, prep, opts, adm, 16, perClient, "1/0"); err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(claim check: bounded in-flight keeps tail latency flat as clients grow; at saturation the controller sheds instead of queueing without bound)")
	return nil
}

// runE14Row drives clients×perClient queries through the controller
// and prints one table row. Shed queries (ErrAdmission) count toward
// the shed column, not the latency distribution.
func runE14Row(tw io.Writer, prep *core.Prepared, opts core.Options,
	adm *lifecycle.Controller, clients, perClient int, admLabel string) error {
	var mu sync.Mutex
	var lats []time.Duration
	var shed int
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				qStart := time.Now()
				release, err := adm.Acquire(context.Background())
				if err != nil {
					mu.Lock()
					if errors.Is(err, lifecycle.ErrAdmission) {
						shed++
					} else if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				_, rerr := prep.RunContext(context.Background(), opts)
				release()
				mu.Lock()
				if rerr != nil && firstErr == nil {
					firstErr = rerr
				}
				lats = append(lats, time.Since(qStart))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}
	qps := float64(len(lats)) / elapsed.Seconds()
	fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%.1f\t%s\t%s\t%s\n",
		clients, admLabel, len(lats), shed, qps,
		ms(percentile(lats, 0.50)), ms(percentile(lats, 0.95)), ms(percentile(lats, 0.99)))
	return nil
}

// percentile returns the p-quantile of the latency sample (nearest
// rank); zero for an empty sample.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
