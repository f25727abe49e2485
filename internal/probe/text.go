package probe

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Text writes one line per pipeline event within a cycle window, in the
// style of SimpleScalar's pipetrace output (dcasim -pipetrace).
type Text struct {
	// W receives the trace.
	W io.Writer
	// From and To bound the traced cycles (To = 0 means unbounded).
	From, To uint64
}

// Fetch implements core.Probe (unused).
func (t *Text) Fetch(uint64, *core.FetchInfo) {}

// Steer implements core.Probe (unused).
func (t *Text) Steer(*core.SteerDecision) {}

// Cycle implements core.Probe (unused).
func (t *Text) Cycle(*core.CycleSample) {}

// Event implements core.Probe: one line per event inside the window.
func (t *Text) Event(cycle uint64, ev core.Event, d *core.DynInst) {
	if cycle < t.From || (t.To > 0 && cycle > t.To) {
		return
	}
	what := "—"
	if d != nil {
		if d.IsCopy {
			what = fmt.Sprintf("copy %v->%v (r%d seq %d)", d.SrcCluster, d.Cluster, d.DestReg(), d.Seq)
		} else {
			what = fmt.Sprintf("pc=%d %v [%v] seq %d", d.PC, d.Inst, d.Cluster, d.Seq)
		}
	}
	fmt.Fprintf(t.W, "%8d %-9s %s\n", cycle, ev, what)
}
