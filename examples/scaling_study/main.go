// Scaling study: sweep cluster count × steering scheme and watch the
// balance/communication trade-off evolve past the paper's two clusters.
//
// The paper evaluates dynamic steering on a two-cluster machine, but its
// balance and slice mechanisms are defined over an arbitrary cluster
// count. This example runs a scheme grid on the 2-cluster paper machine
// and on the symmetric 4- and 8-cluster machines (config.ClusteredN,
// crossbar fabric), plus a 4-cluster ring variant, and prints IPC,
// speed-up over the conventional base, and communications per instruction
// for each point. Every grid reuses the experiments worker-pool engine, so
// the sweep saturates all cores.
//
// Usage: go run ./examples/scaling_study [benchmark ...]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/workload"
)

// schemes are the N-generalized policies worth comparing across cluster
// counts: the round-robin and random bounds, the operand-only baseline,
// and the paper's two strongest balance schemes.
var schemes = []string{"modulo", "random", "operand", "br-nonslice", "general"}

// warmup and measure are the per-cell window: dcabench's default.
const warmup, measure = 100_000, 1_000_000

func main() {
	benches := workload.Names()
	if len(os.Args) > 1 {
		benches = os.Args[1:]
	}

	fmt.Printf("scaling study: %d scheme(s) x {2,4,8} clusters on %v\n\n", len(schemes), benches)
	table := stats.NewTable("IPC (G-mean speed-up % over 2-cluster base | comm/instr)",
		"scheme", "2 clusters", "4 clusters", "8 clusters")

	grids := map[int]*experiments.Result{}
	for _, n := range []int{2, 4, 8} {
		spec := job.GridSpec{Schemes: schemes, Benchmarks: benches, Clusters: n, Warmup: warmup, Measure: measure}
		res, err := experiments.Run(context.Background(), spec, job.PoolOptions{}, false)
		if err != nil {
			log.Fatal(err)
		}
		grids[n] = res
	}

	cell := func(res *experiments.Result, scheme string) string {
		total, _ := res.MeanComm(scheme)
		return fmt.Sprintf("%+6.1f%% | %.3f", res.MeanSpeedup(scheme), total)
	}
	for _, s := range schemes {
		table.AddRow(s, cell(grids[2], s), cell(grids[4], s), cell(grids[8], s))
	}
	fmt.Print(table.String())

	// One off-grid point: the 4-cluster ring, where copies between
	// opposite clusters take two hops. Compare against the crossbar to
	// price the fabric.
	fmt.Println("\n4-cluster fabric comparison (general steering, first benchmark):")
	bench := benches[0]
	crossbar := grids[4].Get("general", bench)
	ring, err := runRing(bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  crossbar: IPC %.2f  comm/instr %.3f\n", crossbar.IPC(), crossbar.CommPerInstr())
	fmt.Printf("  ring:     IPC %.2f  comm/instr %.3f\n", ring.IPC(), ring.CommPerInstr())

	fmt.Println("\nreading the table: modulo stays perfectly balanced at every N but its")
	fmt.Println("communication volume explodes with cluster count; operand-following")
	fmt.Println("collapses into one cluster once nothing forces it out; the balance")
	fmt.Println("schemes keep spreading work while holding copies per instruction far")
	fmt.Println("below modulo — the paper's trade-off, amplified by scale.")
}

// runRing simulates general steering on the 4-cluster ring machine over
// the grid's window.
func runRing(bench string) (*stats.Run, error) {
	p, err := workload.Load(bench)
	if err != nil {
		return nil, err
	}
	cfg := config.ClusteredNRing(4)
	params := steer.DefaultParams()
	params.Clusters = cfg.NumClusters()
	st, err := steer.NewWithParams("general", p, params)
	if err != nil {
		return nil, err
	}
	m, err := core.New(cfg, p, st)
	if err != nil {
		return nil, err
	}
	return m.RunWithWarmup(warmup, measure)
}
