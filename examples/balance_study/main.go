// Balance study: visualize the workload-balance / communication trade-off
// at the heart of the paper. For three schemes — modulo (perfect balance,
// pathological communication), ldst-slice (good locality, poor balance)
// and general (the proposed compromise) — print the ready-difference
// histogram the paper plots in Figures 6, 9 and 12, as ASCII bars.
//
// The three simulations run concurrently on the experiments engine's
// worker pool; the histograms print in scheme order regardless of which
// simulation finishes first.
//
// Usage: go run ./examples/balance_study [benchmark]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/stats"
)

func main() {
	bench := "m88ksim"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	schemes := []string{"modulo", "ldst-slice", "general"}

	spec := job.GridSpec{Schemes: schemes, Benchmarks: []string{bench}, Warmup: 20_000, Measure: 150_000}
	res, err := experiments.Run(context.Background(), spec, job.PoolOptions{}, false)
	if err != nil {
		log.Fatal(err)
	}

	// The engine always runs the base machine too; use it as the yardstick.
	base := res.Get(job.BaseScheme, bench)
	fmt.Printf("conventional base on %q — IPC %.2f\n", bench, base.IPC())

	for _, scheme := range schemes {
		r := res.Get(scheme, bench)
		fmt.Printf("\n%s on %q — IPC %.2f (%+.1f%% over base), comm/instr %.3f\n",
			scheme, bench, r.IPC(), res.Speedup(scheme, bench), r.CommPerInstr())
		fmt.Println("ready(FP) - ready(INT) distribution (% of cycles):")
		for d := -stats.BalanceRange; d <= stats.BalanceRange; d++ {
			pct := r.Balance.Percent(d)
			fmt.Printf("%+4d %5.1f%% %s\n", d, pct, strings.Repeat("#", int(pct)))
		}
	}
	fmt.Println("\nmodulo centers the distribution but pays in copies; slice steering")
	fmt.Println("skews toward one cluster; general balance holds the center at a")
	fmt.Println("fraction of modulo's communication volume — the paper's Figure 12 story.")
}
