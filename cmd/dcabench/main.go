// Command dcabench regenerates the tables and figures of "Dynamic Cluster
// Assignment Mechanisms" (Canal, Parcerisa, González — HPCA 2000) from the
// repository's simulator and workload analogs.
//
// Usage:
//
//	dcabench                      # every exhibit, default budgets
//	dcabench -exp fig14,fig16     # selected exhibits
//	dcabench -measure 1000000     # longer measurement windows
//	dcabench -benchmarks go,gcc   # restrict the workload set
//	dcabench -j 4                 # bound the worker pool (default: all cores)
//	dcabench -clusters 4          # run the grid on a 4-cluster machine
//	dcabench -progress=false      # silence the per-cell completion log
//	dcabench -json grid.json      # archive the grid (jobs + digests + stats)
//	dcabench -store ./results     # reuse cells across invocations by digest
//	dcabench -attrib              # per-cell stall taxonomy (printed + in -json)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/job/store"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated exhibit ids (table1,table2,fig3..fig16) or 'all'")
		warmup   = flag.Uint64("warmup", 100_000, "warm-up instructions per run (not measured)")
		measure  = flag.Uint64("measure", 1_000_000, "measured instructions per run")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all eight)")
		csvPath  = flag.String("csv", "", "also write the raw grid as CSV to this file")
		jsonPath = flag.String("json", "", "also write the full grid — jobs, digests, per-cell stats — as JSON to this file ('-' for stdout)")
		storeDir = flag.String("store", "", "cache results as JSON under this directory; cells already present are not re-simulated")
		jobs     = flag.Int("j", 0, "grid cells to simulate in parallel (0 = all cores)")
		clusters = flag.Int("clusters", 2, "cluster count of the steered machine (2 = the paper's asymmetric processor, else config.ClusteredN)")
		progress = flag.Bool("progress", true, "log per-cell completion and ETA to stderr")
		attrib   = flag.Bool("attrib", false, "attribute every measured cycle to a stall class; breakdowns are printed and folded into -json")
	)
	flag.Parse()

	spec := job.GridSpec{Clusters: *clusters, Warmup: *warmup, Measure: *measure}
	pool := job.PoolOptions{Parallelism: *jobs}
	if *progress {
		pool.Progress = func(p job.Progress) {
			if p.Err != nil {
				fmt.Fprintf(os.Stderr, "[%3d/%3d] %s/%s FAILED: %v\n",
					p.Completed, p.Total, p.Job.Scheme, p.Job.Benchmark, p.Err)
				return
			}
			eta := "--"
			if p.Remaining > 0 {
				eta = p.Remaining.Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-16s %-8s %8v  ETA %s\n",
				p.Completed, p.Total, p.Job.Scheme, p.Job.Benchmark,
				p.Elapsed.Round(time.Millisecond), eta)
		}
	}
	if *benches != "" {
		spec.Benchmarks = strings.Split(*benches, ",")
		for _, b := range spec.Benchmarks {
			if err := job.ValidateBenchmark(b); err != nil {
				fatal(err)
			}
		}
	}

	// With -store, cells run through Cached (content-addressed result
	// reuse) over a memory-fronted disk store.
	var cached *store.Cached
	if *storeDir != "" {
		disk, err := store.NewDisk(*storeDir)
		if err != nil {
			fatal(err)
		}
		cached = store.NewCached(store.Tiered{Fast: store.NewMemory(1024), Slow: disk}, nil)
		pool.Runner = cached
	}

	// With -json - the machine-readable export owns stdout; the banner,
	// tables and timings move to stderr so the output stays parseable.
	human := os.Stdout
	if *jsonPath == "-" {
		human = os.Stderr
	}

	var wanted []experiments.Exhibit
	if *exp == "all" {
		wanted = experiments.Exhibits()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.ExhibitByID(strings.TrimSpace(id))
			if !ok {
				fatal(fmt.Errorf("unknown exhibit %q", id))
			}
			wanted = append(wanted, e)
		}
	}

	// Run the union of the schemes the requested exhibits need as one
	// grid; the base machine is added to it.
	spec.Schemes = experiments.SchemesFor(wanted)
	effBenches := spec.EffectiveBenchmarks()
	workers := job.Workers(pool.Parallelism, (len(spec.Schemes)+1)*len(effBenches))
	start := time.Now()
	fmt.Fprintf(human, "running %d scheme(s) x %d benchmark(s), %d+%d instructions each, %d worker(s)...\n\n",
		len(spec.Schemes)+1, len(effBenches), spec.Warmup, spec.Measure, workers)
	res, err := experiments.Run(context.Background(), spec, pool, *attrib)
	if err != nil {
		fatal(err)
	}
	for _, e := range wanted {
		fmt.Fprintln(human, "==", e.Title)
		fmt.Fprintln(human, e.Render(res))
	}
	if *attrib {
		fmt.Fprintln(human, "== Cycle attribution (stall taxonomy per cell)")
		fmt.Fprintln(human, res.FormatAttribution())
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(human, "raw grid written to %s\n", *csvPath)
	}
	if *jsonPath != "" {
		export := res.Export()
		raw, err := json.MarshalIndent(export, "", "  ")
		if err != nil {
			fatal(err)
		}
		raw = append(raw, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(raw)
		} else if err := os.WriteFile(*jsonPath, raw, 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Fprintf(human, "grid export (%d cells) written to %s\n", len(export.Cells), *jsonPath)
		}
	}
	if cached != nil {
		m := cached.Metrics()
		fmt.Fprintf(human, "result store: %d hits, %d simulated, %d coalesced\n", m.Hits, m.Misses, m.Coalesced)
	}
	fmt.Fprintf(human, "total simulation time: %v\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcabench:", err)
	os.Exit(1)
}
