package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV dumps the full grid as CSV — one row per (scheme, benchmark)
// cell with every derived metric, in report order (see reportJobs) — for
// external plotting of the figures. The two-cluster columns keep their
// historical names (steered_int, steered_fp); grids over larger machines
// append one steered_cN column per extra cluster.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	jobs := r.reportJobs()
	clusters := 2
	for _, j := range jobs {
		if run := r.Get(j.Scheme, j.Benchmark); run != nil && len(run.Steered) > clusters {
			clusters = len(run.Steered)
		}
	}
	header := []string{
		"scheme", "benchmark", "cycles", "instructions", "ipc",
		"speedup_pct", "comm_per_instr", "critical_comm_per_instr",
		"steered_int", "steered_fp",
	}
	for c := 2; c < clusters; c++ {
		header = append(header, fmt.Sprintf("steered_c%d", c))
	}
	header = append(header,
		"replicated_regs", "mispredict_rate", "l1d_miss_rate", "l1i_miss_rate")
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return fmt.Sprintf("%.6f", v) }
	for _, j := range jobs {
		scheme, bench := j.Scheme, j.Benchmark
		run := r.Get(scheme, bench)
		if run == nil {
			continue
		}
		row := []string{
			scheme, bench,
			fmt.Sprintf("%d", run.Cycles),
			fmt.Sprintf("%d", run.Instructions),
			f(run.IPC()),
			f(r.Speedup(scheme, bench)),
			f(run.CommPerInstr()),
			f(run.CriticalCommPerInstr()),
		}
		for c := 0; c < clusters; c++ {
			row = append(row, fmt.Sprintf("%d", run.SteeredAt(c)))
		}
		row = append(row,
			f(run.ReplicatedRegsAvg),
			f(run.MispredictRate()),
			f(run.L1DMissRate),
			f(run.L1IMissRate),
		)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
