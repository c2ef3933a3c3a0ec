// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time, checks every output it produces, and prints
// a human-readable report followed, as its last line, by one JSON object
// with the run's verdict and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper|manycore|litmus|serve \
//	    --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --record
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer ledger instead, and writes its spans as a
// Chrome trace under .bench_build/spans/. --record regenerates the
// recorded outputs under perfbench/testdata/ that every run checks
// against. README.md defines each workload and metric.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"
)

// Paths relative to the repository root, where the benchmark runs.
const (
	// dataDir holds the recorded outputs every run checks against.
	dataDir = "perfbench/testdata"
	// spanDir receives the traced runs' spans.
	spanDir = ".bench_build/spans"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		o      options
		secs   int
		trace  int
		record bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper, manycore, litmus or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the workload's generated inputs")
	flag.IntVar(&secs, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.BoolVar(&record, "record", false, "regenerate the recorded outputs in "+dataDir+" and exit")
	flag.Parse()
	if flag.NArg() > 0 || secs < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.seconds = time.Duration(secs) * time.Second
	ctx := context.Background()

	if record {
		if err := recordOutputs(ctx, dataDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	var tr *tracer
	if trace == 1 {
		tr = newTracer()
	}
	r, err := run(ctx, o, tr)
	if err != nil {
		log.Fatal(err)
	}
	if tr == nil {
		rss, err := peakRSS()
		if err != nil {
			log.Fatal(err)
		}
		r.metrics["peak_rss_mb"] = rss
	} else {
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			log.Fatal(err)
		}
		r.note("spans written to %s", path)
	}
	if err := r.write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run dispatches to the workload's untraced or traced run.
func run(ctx context.Context, o options, tr *tracer) (*report, error) {
	switch o.workload {
	case "paper", "manycore":
		spec := paperSpec()
		if o.workload == "manycore" {
			spec = manycoreSpec()
		}
		if tr != nil {
			return traceSweep(ctx, spec, o, tr)
		}
		return runSweep(ctx, spec, o)
	case "litmus":
		if tr != nil {
			return traceLitmus(o, tr)
		}
		return runLitmus(o)
	case "serve":
		if tr != nil {
			return traceServe(ctx, o, tr)
		}
		return runServe(ctx, o)
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, manycore, litmus or serve)", o.workload)
}
