// Command pbench regenerates every experiment of the internal/bench
// harness (its package doc lists them): the Figure 1 interface
// reproduction (F1) and the quantitative experiments E1-E16 derived from
// the paper's §4 evaluation techniques, §5 research directions, and the
// SketchRefine follow-up papers.
//
// Usage:
//
//	pbench                 # run everything
//	pbench -exp e3         # one experiment
//	pbench -quick          # smaller sweeps
//	pbench -seed 7         # different synthetic data
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: f1, e1..e16, all")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	seed := flag.Int64("seed", 42, "synthetic dataset seed")
	flag.Parse()

	cfg := bench.Config{Out: os.Stdout, Quick: *quick, Seed: *seed}
	if err := bench.Run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
}
