package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Exhibit identifies one reproducible table or figure.
type Exhibit struct {
	// ID is the flag value ("fig3", "table1", ...).
	ID string
	// Title is the caption shown above the output.
	Title string
	// Schemes lists the steering schemes the exhibit needs (base is
	// implicit; "ub" requests the upper-bound machine).
	Schemes []string
	// Render formats the exhibit from a grid result.
	Render func(*Result) string
}

// Exhibits returns every exhibit in paper order.
func Exhibits() []Exhibit {
	return []Exhibit{
		{"table1", "Table 1: benchmarks and their (synthetic) inputs", nil, renderTable1},
		{"table2", "Table 2: machine parameters", nil, renderTable2},
		{"fig3", "Figure 3: static versus dynamic partitioning (% over base)",
			[]string{"static-ldst-cons", "static-ldst", "ldst-slice"}, renderFig3},
		{"fig4", "Figure 4: LdSt slice versus Br slice steering (% over base)",
			[]string{"ldst-slice", "br-slice"}, renderFig4},
		{"fig5", "Figure 5: communications per dynamic instruction (slice steering)",
			[]string{"ldst-slice", "br-slice"}, renderFig5},
		{"fig6", "Figure 6: ready-difference distribution, slice steering (SpecInt average)",
			[]string{"ldst-slice", "br-slice"}, renderFig6},
		{"fig7", "Figure 7: non-slice balance steering versus slice steering (% over base)",
			[]string{"ldst-slice", "br-slice", "ldst-nonslice", "br-nonslice"}, renderFig7},
		{"fig8", "Figure 8: communications per dynamic instruction (SpecInt average)",
			[]string{"ldst-slice", "br-slice", "ldst-nonslice", "br-nonslice"}, renderFig8},
		{"fig9", "Figure 9: ready-difference distribution, non-slice balance steering",
			[]string{"ldst-nonslice", "br-nonslice"}, renderFig9},
		{"fig11", "Figure 11: slice balance steering performance (% over base)",
			[]string{"ldst-slicebal", "br-slicebal"}, renderFig11},
		{"fig12", "Figure 12: ready-difference distribution, modulo vs slice balance",
			[]string{"modulo", "ldst-slicebal", "br-slicebal"}, renderFig12},
		{"fig13", "Figure 13: priority slice balance steering performance (% over base)",
			[]string{"ldst-priority", "br-priority"}, renderFig13},
		{"fig14", "Figure 14: general balance steering vs modulo vs 16-way upper bound",
			[]string{"modulo", "general", UBScheme}, renderFig14},
		{"fig15", "Figure 15: register replication under general balance steering",
			[]string{"general"}, renderFig15},
		{"fig16", "Figure 16: general balance steering versus FIFO-based steering",
			[]string{"fifo", "general"}, renderFig16},
	}
}

// ExhibitByID finds an exhibit.
func ExhibitByID(id string) (Exhibit, bool) {
	for _, e := range Exhibits() {
		if e.ID == id {
			return e, true
		}
	}
	return Exhibit{}, false
}

// SchemesFor returns the union of the schemes the exhibits need, in
// exhibit order without duplicates — the one grid that renders them all
// (BaseScheme is implicit: the grid always adds it).
func SchemesFor(exhibits []Exhibit) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range exhibits {
		for _, s := range e.Schemes {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

func renderTable1(*Result) string {
	t := stats.NewTable("", "benchmark", "input", "character")
	for _, name := range workload.Names() {
		info, err := workload.Get(name)
		if err != nil {
			continue
		}
		t.AddRow(info.Name, info.Input, info.Character)
	}
	return t.String()
}

func renderTable2(*Result) string {
	c := config.Clustered()
	t := stats.NewTable("", "parameter", "value")
	t.AddRow("fetch/decode/retire width", fmt.Sprintf("%d / %d / %d", c.FetchWidth, c.DecodeWidth, c.RetireWidth))
	t.AddRow("fetch queue", fmt.Sprintf("%d instructions", c.FetchQueue))
	t.AddRow("max in-flight instructions", fmt.Sprintf("%d", c.MaxInFlight))
	for i, cl := range c.Clusters {
		t.AddRow(fmt.Sprintf("cluster %d functional units", i+1),
			fmt.Sprintf("%d intALU + %d int mul/div + %d fpALU + %d fp mul/div",
				cl.SimpleIntALUs, cl.ComplexIntUnits, cl.FPALUs, cl.FPMulDivUnits))
		t.AddRow(fmt.Sprintf("cluster %d issue width / IQ / regs", i+1),
			fmt.Sprintf("%d / %d / %d", cl.IssueWidth, cl.IQSize, cl.PhysRegs))
	}
	t.AddRow("inter-cluster buses", fmt.Sprintf("%d per direction, %d-cycle copies", c.InterClusterBuses, c.CopyLatency))
	t.AddRow("L1 I-cache", cacheLine(c.Mem.L1I))
	t.AddRow("L1 D-cache", cacheLine(c.Mem.L1D)+fmt.Sprintf(", %d R/W ports", c.DCachePorts))
	t.AddRow("L2 cache", cacheLine(c.Mem.L2))
	t.AddRow("branch predictor", "combined: 1K selector, gshare 64K/16-bit, bimodal 2K")
	return t.String()
}

func cacheLine(c mem.Config) string {
	return fmt.Sprintf("%dKB, %d-way, %dB lines, %d-cycle hit",
		c.SizeBytes>>10, c.Assoc, c.LineBytes, c.HitLatency)
}

// speedupTable renders per-benchmark speed-ups for a set of schemes plus
// the mean row.
func speedupTable(r *Result, schemes []string) string {
	headers := append([]string{"benchmark"}, schemes...)
	t := stats.NewTable("", headers...)
	for _, bench := range r.Opts.Benchmarks {
		vals := make([]float64, len(schemes))
		for i, s := range schemes {
			vals[i] = r.Speedup(s, bench)
		}
		t.AddRowF(bench, 1, vals...)
	}
	means := make([]float64, len(schemes))
	for i, s := range schemes {
		means[i] = r.MeanSpeedup(s)
	}
	t.AddRowF("G-mean", 1, means...)
	return t.String()
}

func renderFig3(r *Result) string {
	return speedupTable(r, []string{"static-ldst-cons", "static-ldst", "ldst-slice"}) +
		"\n(static-ldst-cons = compile-time flow-insensitive slice, the paper's\n" +
		"static comparator; static-ldst = profile-derived upper bound on static)\n"
}

func renderFig4(r *Result) string {
	return speedupTable(r, []string{"ldst-slice", "br-slice"})
}

func commTable(r *Result, schemes []string) string {
	t := stats.NewTable("", "benchmark", "scheme", "comm/instr", "critical", "non-critical")
	for _, bench := range r.Opts.Benchmarks {
		for _, s := range schemes {
			run := r.Get(s, bench)
			if run == nil {
				continue
			}
			total, crit := run.CommPerInstr(), run.CriticalCommPerInstr()
			t.AddRow(bench, s, fmt.Sprintf("%.3f", total),
				fmt.Sprintf("%.3f", crit), fmt.Sprintf("%.3f", total-crit))
		}
	}
	return t.String()
}

func renderFig5(r *Result) string {
	return commTable(r, []string{"ldst-slice", "br-slice"})
}

func balanceTable(r *Result, schemes []string) string {
	headers := append([]string{"readyFP-readyINT"}, schemes...)
	t := stats.NewTable("", headers...)
	for d := -stats.BalanceRange; d <= stats.BalanceRange; d++ {
		cells := []string{fmt.Sprintf("%d", d)}
		for _, s := range schemes {
			h := r.MergedBalance(s)
			cells = append(cells, fmt.Sprintf("%.1f%%", h.Percent(d)))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

func renderFig6(r *Result) string {
	return balanceTable(r, []string{"ldst-slice", "br-slice"})
}

func renderFig7(r *Result) string {
	return speedupTable(r, []string{"ldst-slice", "br-slice", "ldst-nonslice", "br-nonslice"})
}

func renderFig8(r *Result) string {
	schemes := []string{"ldst-slice", "br-slice", "ldst-nonslice", "br-nonslice"}
	t := stats.NewTable("", "scheme", "comm/instr", "critical", "non-critical")
	for _, s := range schemes {
		total, crit := r.MeanComm(s)
		t.AddRow(s, fmt.Sprintf("%.3f", total), fmt.Sprintf("%.3f", crit),
			fmt.Sprintf("%.3f", total-crit))
	}
	return t.String()
}

func renderFig9(r *Result) string {
	return balanceTable(r, []string{"ldst-nonslice", "br-nonslice"})
}

func renderFig11(r *Result) string {
	return speedupTable(r, []string{"ldst-slicebal", "br-slicebal"})
}

func renderFig12(r *Result) string {
	return balanceTable(r, []string{"modulo", "ldst-slicebal", "br-slicebal"})
}

func renderFig13(r *Result) string {
	return speedupTable(r, []string{"ldst-priority", "br-priority"})
}

func renderFig14(r *Result) string {
	return speedupTable(r, []string{"modulo", "general", UBScheme})
}

func renderFig15(r *Result) string {
	t := stats.NewTable("", "benchmark", "replicated regs/cycle")
	sum := 0.0
	n := 0
	for _, bench := range r.Opts.Benchmarks {
		run := r.Get("general", bench)
		if run == nil {
			continue
		}
		t.AddRowF(bench, 1, run.ReplicatedRegsAvg)
		sum += run.ReplicatedRegsAvg
		n++
	}
	if n > 0 {
		t.AddRowF("mean", 1, sum/float64(n))
	}
	return t.String()
}

func renderFig16(r *Result) string {
	out := speedupTable(r, []string{"fifo", "general"})
	fifoTotal, _ := r.MeanComm("fifo")
	genTotal, _ := r.MeanComm("general")
	return out + fmt.Sprintf("\ncomm/instr: fifo %.3f vs general %.3f\n", fifoTotal, genTotal)
}
