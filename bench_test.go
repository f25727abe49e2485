package repro

// The repository-level benchmark harness: one testing.B target per table
// and figure of the paper's evaluation (run them with `go test -bench=.`),
// plus ablation benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the simulator substrates.
//
// Each figure bench runs the exact experiment grid of its exhibit at a
// reduced instruction budget (the shape of the results, not their absolute
// values, is the reproduction target; use cmd/dcabench -measure to run
// longer windows) and prints the rendered table once. The reported
// "ns/op" measures total simulation cost of the grid.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/workload"
)

// benchSpec returns the reduced-budget grid the figure benches run over
// the given schemes.
func benchSpec(schemes ...string) job.GridSpec {
	return job.GridSpec{Schemes: schemes, Warmup: 10_000, Measure: 60_000}
}

var printMu sync.Mutex

// runExhibit executes one exhibit's grid and prints its table on the first
// iteration.
func runExhibit(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ExhibitByID(id)
	if !ok {
		b.Fatalf("unknown exhibit %s", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), benchSpec(e.Schemes...), job.PoolOptions{}, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printMu.Lock()
			fmt.Printf("\n== %s\n%s\n", e.Title, e.Render(res))
			printMu.Unlock()
		}
	}
}

// --- One bench per paper exhibit ---

func BenchmarkTable1Workloads(b *testing.B) { runExhibit(b, "table1") }

func BenchmarkFig3StaticVsDynamic(b *testing.B) { runExhibit(b, "fig3") }

func BenchmarkFig4SliceSteering(b *testing.B) { runExhibit(b, "fig4") }

func BenchmarkFig5Communications(b *testing.B) { runExhibit(b, "fig5") }

func BenchmarkFig6Balance(b *testing.B) { runExhibit(b, "fig6") }

func BenchmarkFig7NonSliceBalance(b *testing.B) { runExhibit(b, "fig7") }

func BenchmarkFig8Communications(b *testing.B) { runExhibit(b, "fig8") }

func BenchmarkFig9Balance(b *testing.B) { runExhibit(b, "fig9") }

func BenchmarkFig11SliceBalance(b *testing.B) { runExhibit(b, "fig11") }

func BenchmarkFig12Balance(b *testing.B) { runExhibit(b, "fig12") }

func BenchmarkFig13PrioritySliceBalance(b *testing.B) { runExhibit(b, "fig13") }

func BenchmarkFig14GeneralBalance(b *testing.B) { runExhibit(b, "fig14") }

func BenchmarkFig15Replication(b *testing.B) { runExhibit(b, "fig15") }

func BenchmarkFig16FIFO(b *testing.B) { runExhibit(b, "fig16") }

// --- Ablations (design choices DESIGN.md calls out) ---

// ablationRun measures general-balance speed-up over base on two
// representative benchmarks under modified parameters or configs.
func ablationRun(b *testing.B, params steer.Params, mutate func(*config.Config)) float64 {
	b.Helper()
	benches := []string{"go", "m88ksim"}
	var runs, bases []*stats.Run
	for _, bench := range benches {
		p, err := workload.Load(bench)
		if err != nil {
			b.Fatal(err)
		}
		bm, err := core.New(config.Base(), p, core.NaiveSteerer{})
		if err != nil {
			b.Fatal(err)
		}
		baseRun, err := bm.RunWithWarmup(10_000, 60_000)
		if err != nil {
			b.Fatal(err)
		}
		st, err := steer.NewWithParams("general", p, params)
		if err != nil {
			b.Fatal(err)
		}
		cfg := config.Clustered()
		if mutate != nil {
			mutate(cfg)
		}
		m, err := core.New(cfg, p, st)
		if err != nil {
			b.Fatal(err)
		}
		r, err := m.RunWithWarmup(10_000, 60_000)
		if err != nil {
			b.Fatal(err)
		}
		runs, bases = append(runs, r), append(bases, baseRun)
	}
	return stats.GeoMeanSpeedup(runs, bases)
}

// BenchmarkAblationImbalanceMetric compares the combined I1+I2 imbalance
// counter against each metric alone (Section 3.5 reports I1 alone comes
// close to the combination).
func BenchmarkAblationImbalanceMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		combined := ablationRun(b, steer.DefaultParams(), nil)
		i1Only := steer.DefaultParams()
		i1Only.UseI2 = new(bool) // disable I2
		i2Only := steer.DefaultParams()
		i2Only.UseI1 = new(bool)
		s1 := ablationRun(b, i1Only, nil)
		s2 := ablationRun(b, i2Only, nil)
		if i == 0 {
			fmt.Printf("\n== Ablation: imbalance metric (general, go+m88ksim G-mean %%)\n"+
				"combined=%.1f  I1-only=%.1f  I2-only=%.1f\n", combined, s1, s2)
		}
	}
}

// BenchmarkAblationThreshold sweeps the strong-imbalance threshold
// (paper's empirical choice: 8).
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		line := "\n== Ablation: imbalance threshold (general, go+m88ksim G-mean %)\n"
		for _, th := range []int{2, 4, 8, 16, 32} {
			p := steer.DefaultParams()
			p.Threshold = th
			line += fmt.Sprintf("threshold=%-2d %.1f\n", th, ablationRun(b, p, nil))
		}
		if i == 0 {
			fmt.Print(line)
		}
	}
}

// BenchmarkAblationWindow sweeps the I2 averaging window (paper: N=16).
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		line := "\n== Ablation: I2 averaging window (general, go+m88ksim G-mean %)\n"
		for _, n := range []int{4, 8, 16, 32, 64} {
			p := steer.DefaultParams()
			p.Window = n
			line += fmt.Sprintf("window=%-2d %.1f\n", n, ablationRun(b, p, nil))
		}
		if i == 0 {
			fmt.Print(line)
		}
	}
}

// BenchmarkAblationBuses compares 1 vs 3 inter-cluster buses (Section 3.8
// claims one bus per direction performs at the same level).
func BenchmarkAblationBuses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		three := ablationRun(b, steer.DefaultParams(), nil)
		one := ablationRun(b, steer.DefaultParams(), func(c *config.Config) {
			c.InterClusterBuses = 1
		})
		if i == 0 {
			fmt.Printf("\n== Ablation: inter-cluster buses (general, go+m88ksim G-mean %%)\n"+
				"3 buses=%.1f  1 bus=%.1f\n", three, one)
		}
	}
}

// BenchmarkAblationCopyLatency compares 1- vs 2-cycle bypass latency.
func BenchmarkAblationCopyLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lat1 := ablationRun(b, steer.DefaultParams(), nil)
		lat2 := ablationRun(b, steer.DefaultParams(), func(c *config.Config) {
			c.CopyLatency = 2
		})
		if i == 0 {
			fmt.Printf("\n== Ablation: copy latency (general, go+m88ksim G-mean %%)\n"+
				"1 cycle=%.1f  2 cycles=%.1f\n", lat1, lat2)
		}
	}
}

// BenchmarkAblationCriticalityTarget sweeps the priority scheme's critical
// fraction target (paper: 50%).
func BenchmarkAblationCriticalityTarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		line := "\n== Ablation: criticality target (br-priority, go+m88ksim G-mean %)\n"
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			params := steer.DefaultParams()
			params.CriticalFraction = frac
			var runs, bases []*stats.Run
			for _, bench := range []string{"go", "m88ksim"} {
				p, _ := workload.Load(bench)
				bm, _ := core.New(config.Base(), p, core.NaiveSteerer{})
				baseRun, err := bm.RunWithWarmup(10_000, 60_000)
				if err != nil {
					b.Fatal(err)
				}
				st, _ := steer.NewWithParams("br-priority", p, params)
				m, _ := core.New(config.Clustered(), p, st)
				r, err := m.RunWithWarmup(10_000, 60_000)
				if err != nil {
					b.Fatal(err)
				}
				runs, bases = append(runs, r), append(bases, baseRun)
			}
			line += fmt.Sprintf("target=%.2f %.1f\n", frac, stats.GeoMeanSpeedup(runs, bases))
		}
		if i == 0 {
			fmt.Print(line)
		}
	}
}

// --- Extension benches (beyond the paper's evaluation) ---

// BenchmarkExtensionFPWorkloads runs the SpecFP analogs: the base machine
// already spreads FP code across both clusters (the naive split), so the
// steering gain shrinks — which is exactly the paper's Section 1 argument
// for why the interesting case is integer code.
func BenchmarkExtensionFPWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		line := "\n== Extension: SpecFP analogs (speed-up % over base)\n"
		for _, bench := range workload.FPNames() {
			p, err := workload.Load(bench)
			if err != nil {
				b.Fatal(err)
			}
			bm, _ := core.New(config.Base(), p, core.NaiveSteerer{})
			baseRun, err := bm.RunWithWarmup(10_000, 60_000)
			if err != nil {
				b.Fatal(err)
			}
			st, _ := steer.New("general", p)
			m, _ := core.New(config.Clustered(), p, st)
			r, err := m.RunWithWarmup(10_000, 60_000)
			if err != nil {
				b.Fatal(err)
			}
			line += fmt.Sprintf("%-8s general=%+6.1f%%  comm/i=%.3f  split=[%d %d]\n",
				bench, stats.Speedup(r, baseRun), r.CommPerInstr(), r.Steered[0], r.Steered[1])
		}
		if i == 0 {
			fmt.Print(line)
		}
	}
}

// BenchmarkExtensionDecomposition isolates the two ingredients of general
// balance steering: operand-following alone ("operand"), randomness alone
// ("random"), against the full scheme and modulo.
func BenchmarkExtensionDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), benchSpec("operand", "random", "modulo", "general"), job.PoolOptions{}, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n== Extension: general-balance decomposition (G-mean %% over base)\n")
			for _, s := range []string{"operand", "random", "modulo", "general"} {
				total, _ := res.MeanComm(s)
				fmt.Printf("%-8s %+6.1f%%  comm/i=%.3f\n", s, res.MeanSpeedup(s), total)
			}
		}
	}
}

// BenchmarkExtensionSymmetricClusters checks the conclusion's claim that
// the schemes carry over to symmetric clusters: general balance steering
// on a machine where both clusters execute everything.
func BenchmarkExtensionSymmetricClusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		line := "\n== Extension: symmetric clusters (general, speed-up % over base)\n"
		for _, bench := range []string{"go", "m88ksim", "tomcatv"} {
			p, err := workload.Load(bench)
			if err != nil {
				b.Fatal(err)
			}
			bm, _ := core.New(config.Base(), p, core.NaiveSteerer{})
			baseRun, err := bm.RunWithWarmup(10_000, 60_000)
			if err != nil {
				b.Fatal(err)
			}
			st, _ := steer.New("general", p)
			m, _ := core.New(config.Symmetric(), p, st)
			r, err := m.RunWithWarmup(10_000, 60_000)
			if err != nil {
				b.Fatal(err)
			}
			line += fmt.Sprintf("%-8s %+6.1f%%  split=[%d %d]\n",
				bench, stats.Speedup(r, baseRun), r.Steered[0], r.Steered[1])
		}
		if i == 0 {
			fmt.Print(line)
		}
	}
}

// --- Engine benches ---

// BenchmarkGridParallelism measures how the experiment grid scales with
// the worker-pool size, from a serial run up to every core, and with the
// cluster count of the simulated machine (bigger machines cost more per
// cell — the simulation work grows with clusters, not just the fabric).
// The grid is fig14's (modulo, general, ub + implicit base over all
// benchmarks) — the paper's headline figure and a representative mix of
// cheap and expensive cells. Compare ns/op across the sub-benchmarks.
//
// Every iteration simulates every cell from scratch on job.Direct. A
// runner shared across iterations would stop measuring simulation: a
// job.Checkpointed restores, for a repeated cell, a snapshot that has
// already measured its window, so nothing is simulated.
func BenchmarkGridParallelism(b *testing.B) {
	var levels []int
	for j := 1; j < runtime.NumCPU(); j *= 2 {
		levels = append(levels, j)
	}
	levels = append(levels, runtime.NumCPU())
	for _, clusters := range []int{2, 4, 8} {
		for _, j := range levels {
			b.Run(fmt.Sprintf("clusters=%d/j=%d", clusters, j), func(b *testing.B) {
				spec := benchSpec("modulo", "general", job.UBScheme)
				spec.Clusters = clusters
				pool := job.PoolOptions{Parallelism: j, Runner: job.Direct{}}
				for i := 0; i < b.N; i++ {
					if _, err := experiments.Run(context.Background(), spec, pool, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTraceReplay measures the record-once/replay-many oracle front
// end on the fig14 grid (modulo, general, ub + implicit base over all
// benchmarks — the same grid as BenchmarkGridParallelism): "direct"
// re-executes the functional emulator inside every cell, "traced" records
// each benchmark's oracle stream once (internal/trace) and replays the
// compact encoding for every other scheme cell. The ratio of the two
// ns/op values is the traced grid's throughput multiple (EXPERIMENTS.md,
// "Earlier per-layer readings", records one); results are bit-identical
// either way (golden-locked by TestGoldenTracedRunner).
func BenchmarkTraceReplay(b *testing.B) {
	for _, mode := range []string{"direct", "traced"} {
		b.Run(mode, func(b *testing.B) {
			var pool job.PoolOptions
			if mode == "traced" {
				// One runner for all iterations: the first grid records
				// once per benchmark, everything after replays — the
				// steady state of a long-lived job.Traced runner.
				pool.Runner = &job.Traced{}
			}
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(context.Background(), benchSpec("modulo", "general", job.UBScheme), pool, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkCoreCyclesPerSecond measures raw simulation throughput.
func BenchmarkCoreCyclesPerSecond(b *testing.B) {
	p, err := workload.Load("compress")
	if err != nil {
		b.Fatal(err)
	}
	st, _ := steer.New("general", p)
	m, err := core.New(config.Clustered(), p, st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := m.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N), "instrs")
}

// BenchmarkEmulator measures the functional oracle alone.
func BenchmarkEmulator(b *testing.B) {
	p, err := workload.Load("gcc")
	if err != nil {
		b.Fatal(err)
	}
	m := emu.New(p)
	b.ResetTimer()
	if _, err := m.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCacheAccess measures the cache model's lookup cost.
func BenchmarkCacheAccess(b *testing.B) {
	h, err := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.L1D.Access(uint64(i*64), i%4 == 0)
	}
}
