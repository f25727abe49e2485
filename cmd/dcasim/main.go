// Command dcasim runs one benchmark under one steering scheme on the
// clustered timing simulator and prints the full measurement record.
//
// Every run is a job of the run layer (internal/job), printed with its
// content digest: a named workload on its scheme's machine is the grid
// cell cmd/dcaserve would cache and serve under the same key. The scheme
// picks the machine: base and ub name the reference machines, fifo the
// FIFO-queue machine, and -clusters sizes the clustered ones. -program
// runs an assembly file in place of the named workload, -replay fetches
// the oracle stream from a recording, and -pipetrace, -attrib and -konata
// are probes on the job's machine.
//
// Usage:
//
//	dcasim -bench compress -scheme general
//	dcasim -bench go -scheme fifo            # FIFO queues implied
//	dcasim -bench li -scheme base            # the conventional baseline
//	dcasim -bench go -clusters 4             # a 4-cluster symmetric machine
//	dcasim -program prog.s -scheme general   # assemble and run a file
//	dcasim -bench go -pipetrace 5000         # pipeline trace from cycle 5000
//	dcasim -bench go -replay go.trace        # fetch from a dcatrace recording
//	dcasim -bench go -attrib                 # stall taxonomy: where cycles went
//	dcasim -bench go -konata go.kanata       # pipeline trace for the Konata viewer
//	dcasim -bench go -disagree               # scheme×scheme steering disagreement
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/probe"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "compress", "workload name (see -list)")
		file       = flag.String("program", "", "assembly file to run instead of a named workload")
		scheme     = flag.String("scheme", "general", "steering scheme (see -list)")
		clusters   = flag.Int("clusters", 2, "cluster count (2 = the paper's asymmetric machine, else config.ClusteredN)")
		warmup     = flag.Uint64("warmup", 100_000, "warm-up instructions")
		measure    = flag.Uint64("measure", 1_000_000, "measured instructions (0 = run to halt)")
		list       = flag.Bool("list", false, "list workloads and schemes, then exit")
		pipetrace  = flag.Uint64("pipetrace", 0, "print a pipeline trace for 30 cycles starting at this cycle")
		replay     = flag.String("replay", "", "fetch the oracle stream from this dcatrace recording instead of the live emulator")
		attrib     = flag.Bool("attrib", false, "attribute every measured cycle to a stall class and print the breakdown")
		konata     = flag.String("konata", "", "write a Konata (Kanata) pipeline trace of the run to this file")
		konataFrom = flag.Uint64("konata-from", 0, "first cycle of the Konata export window")
		konataTo   = flag.Uint64("konata-to", 0, "last cycle of the Konata export window (0 = to the end)")
		disagree   = flag.Bool("disagree", false, "run -bench under every scheme and print the steering disagreement matrix")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:", workload.Names())
		fmt.Println("schemes:  ", steer.Names())
		return
	}
	if *disagree {
		if err := checkDisagree(flag.Visit); err != nil {
			fatal(err)
		}
	}
	if err := job.ValidateClusters(*clusters); err != nil {
		fatal(err)
	}
	if err := job.ValidateScheme(*scheme); err != nil {
		fatal(err)
	}
	if err := job.ValidateSchemeClusters(*scheme, *clusters); err != nil {
		fatal(err)
	}
	if *file == "" {
		if err := job.ValidateBenchmark(*bench); err != nil {
			fatal(err)
		}
	}
	if *disagree {
		if err := runDisagree(*bench, *clusters, *warmup, *measure); err != nil {
			fatal(err)
		}
		return
	}

	j := planJob(*scheme, *bench, *clusters, *warmup, *measure)
	key := j.Key()
	var (
		p   *prog.Program
		err error
	)
	if *file != "" {
		// An assembly file is not a named workload: its job key would not
		// identify the program, so none is printed.
		if p, err = asm.AssembleFile(*file); err != nil {
			fatal(err)
		}
		j.Benchmark, key = p.Name, ""
	} else if p, err = workload.Load(j.Benchmark); err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *replay != "" {
		raw, err := os.ReadFile(*replay)
		if err != nil {
			fatal(err)
		}
		tr, err := trace.Decode(raw)
		if err != nil {
			fatal(err)
		}
		ctx = job.WithOracle(ctx, func() (core.Oracle, error) { return trace.NewReplayer(tr, p) })
	}

	// Assemble the requested probe stack. Probes are passive — the printed
	// measurements and the result digest are bit-identical with and without
	// them.
	var (
		at     *probe.Attribution
		fore   *probe.Forensics
		kon    *probe.Konata
		kfile  *os.File
		probes []core.Probe
	)
	if *pipetrace > 0 {
		probes = append(probes, &probe.Text{W: os.Stdout, From: *pipetrace, To: *pipetrace + 30})
	}
	if *attrib {
		at = probe.NewAttribution()
		fore = &probe.Forensics{}
		probes = append(probes, at, fore)
	}
	if *konata != "" {
		f, err := os.Create(*konata)
		if err != nil {
			fatal(err)
		}
		kfile = f
		kon = probe.NewKonata(f)
		kon.From, kon.To = *konataFrom, *konataTo
		probes = append(probes, kon)
	}
	if stack := probe.Multi(probes...); stack != nil {
		ctx = job.WithProbe(ctx, func() core.Probe { return stack })
	}

	r, err := job.RunProgram(ctx, j, p)
	if err != nil {
		fatal(err)
	}
	cfg := j.Config

	name := r.Benchmark
	t := stats.NewTable(fmt.Sprintf("%s on %s (%s machine)", *scheme, name, cfg.Name),
		"metric", "value")
	if key != "" {
		t.AddRow("job key", key[:16]+"…")
	}
	// The full-result digest: what the trace smoke compares between live
	// and replayed runs (bit-identity, not just matching headline numbers).
	t.AddRow("result digest", job.ResultDigest(r))
	t.AddRow("cycles", fmt.Sprintf("%d", r.Cycles))
	t.AddRow("instructions", fmt.Sprintf("%d", r.Instructions))
	t.AddRow("IPC", fmt.Sprintf("%.3f", r.IPC()))
	t.AddRow("communications/instr", fmt.Sprintf("%.4f", r.CommPerInstr()))
	t.AddRow("critical comm/instr", fmt.Sprintf("%.4f", r.CriticalCommPerInstr()))
	if len(r.Steered) > 2 {
		split := ""
		for c, n := range r.Steered {
			if c > 0 {
				split += " / "
			}
			split += fmt.Sprintf("%d", n)
		}
		t.AddRow("steered per cluster", split)
	} else {
		t.AddRow("steered int/fp", fmt.Sprintf("%d / %d", r.SteeredAt(0), r.SteeredAt(1)))
	}
	t.AddRow("replicated regs/cycle", fmt.Sprintf("%.2f", r.ReplicatedRegsAvg))
	t.AddRow("branch mispredict rate", fmt.Sprintf("%.4f", r.MispredictRate()))
	t.AddRow("L1D / L1I miss rate", fmt.Sprintf("%.4f / %.4f", r.L1DMissRate, r.L1IMissRate))
	fmt.Print(t.String())

	label := "readyFP - readyINT"
	if cfg.NumClusters() > 2 {
		label = "max-min ready spread"
	}
	fmt.Printf("\nworkload balance (%s, %% of cycles):\n", label)
	for d := -stats.BalanceRange; d <= stats.BalanceRange; d++ {
		bar := ""
		for i := 0; i < int(r.Balance.Percent(d)); i++ {
			bar += "#"
		}
		fmt.Printf("%+4d %5.1f%% %s\n", d, r.Balance.Percent(d), bar)
	}

	if at != nil {
		fmt.Printf("\ncycle attribution (%d measured cycles, total and exclusive):\n%s",
			at.Total(), at.Report().Table())
		fmt.Printf("\nsteering decisions (%d, by deciding mechanism):\n%s",
			fore.Decisions(), fore.ReasonTable())
	}
	if kon != nil {
		if err := kon.Close(); err != nil {
			fatal(err)
		}
		if err := kfile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nKonata pipeline trace written to %s (open with the Konata viewer)\n", *konata)
	}
}

// disagreeExcludes names the flags that change what a single run
// simulates or observes. -disagree runs its own grid — -bench under every
// scheme on the -clusters machine — so it would ignore them.
var disagreeExcludes = []string{
	"program", "replay", "scheme",
	"pipetrace", "attrib", "konata", "konata-from", "konata-to",
}

// checkDisagree rejects -disagree beside any flag of disagreeExcludes that
// visit (flag.Visit: the flags set explicitly) reports, naming it.
func checkDisagree(visit func(func(*flag.Flag))) error {
	var bad string
	visit(func(f *flag.Flag) {
		if bad == "" && slices.Contains(disagreeExcludes, f.Name) {
			bad = f.Name
		}
	})
	if bad != "" {
		return fmt.Errorf("-disagree runs -bench under every scheme; it does not take -%s", bad)
	}
	return nil
}

// runDisagree runs the benchmark under every registered steering scheme
// and prints how often each pair placed the same instruction differently.
func runDisagree(bench string, clusters int, warmup, measure uint64) error {
	schemes := steer.Names()
	sort.Strings(schemes)
	d, err := job.Disagreement(context.Background(), job.GridSpec{
		Schemes:    schemes,
		Benchmarks: []string{bench},
		Clusters:   clusters,
		Warmup:     warmup,
		Measure:    measure,
	})
	if err != nil {
		return err
	}
	fmt.Printf("steering disagreement on %s (%% of decisions placed on different clusters;\nevery scheme steers the same committed-path stream, decisions index-aligned):\n\n%s",
		bench, d.Table())
	return nil
}

// planJob builds the run's job: exactly the canonical cell job.Spec plans
// (the scheme's machine, default balance parameters sized to it; none for
// the pseudo-schemes), so its key is the one cmd/dcaserve serves. It is
// built here rather than through Spec.Plan because dcasim also runs what
// a servable job may not carry: -measure 0 (run to halt) and -program
// files.
func planJob(scheme, bench string, clusters int, warmup, measure uint64) job.Job {
	cfg := job.ConfigFor(scheme, clusters)
	j := job.Job{Config: cfg, Scheme: scheme, Benchmark: bench, Warmup: warmup, Measure: measure}
	if scheme != job.BaseScheme && scheme != job.UBScheme {
		j.Params = steer.DefaultParams()
		j.Params.Clusters = cfg.NumClusters()
	}
	return j
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcasim:", err)
	os.Exit(1)
}
