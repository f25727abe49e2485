// Package probe implements the built-in probes for the timing core's
// introspection seam (core.Probe): cycle attribution against a stall
// taxonomy, steering forensics with a scheme×scheme disagreement matrix,
// Konata pipeline-trace export, and the text pipetrace.
//
// Every probe here is passive: it copies what it keeps out of the seam's
// reused buffers and never feeds anything back into the simulation. The
// differential harness and the golden grid run bit-identical with these
// probes attached and detached; probe output is observability, never part
// of a result digest.
package probe

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Multi fans the probe stream out to several probes in order; nil entries
// are skipped. It returns nil when no live probe remains, so the result
// can be handed to Machine.SetProbe unconditionally.
func Multi(ps ...core.Probe) core.Probe {
	live := make([]core.Probe, 0, len(ps))
	for _, p := range ps {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []core.Probe

func (m multi) Fetch(cycle uint64, f *core.FetchInfo) {
	for _, p := range m {
		p.Fetch(cycle, f)
	}
}

func (m multi) Event(cycle uint64, ev core.Event, d *core.DynInst) {
	for _, p := range m {
		p.Event(cycle, ev, d)
	}
}

func (m multi) Steer(dec *core.SteerDecision) {
	for _, p := range m {
		p.Steer(dec)
	}
}

func (m multi) Cycle(s *core.CycleSample) {
	for _, p := range m {
		p.Cycle(s)
	}
}

// Attribution accumulates the per-cycle stall taxonomy over the measured
// phase of a run. The taxonomy is total and exclusive, so the class
// totals sum exactly to stats.Run.Cycles; the probe also reconstructs the
// workload-balance histogram from the same samples, which must equal
// stats.Run.Balance bit-for-bit (both are enforced by
// TestGoldenProbeInvariants).
type Attribution struct {
	counts  [core.NumStallClasses]uint64
	total   uint64
	balance stats.BalanceHist
}

// NewAttribution returns an empty attribution probe.
func NewAttribution() *Attribution { return &Attribution{} }

// Fetch implements core.Probe (unused).
func (a *Attribution) Fetch(uint64, *core.FetchInfo) {}

// Event implements core.Probe (unused).
func (a *Attribution) Event(uint64, core.Event, *core.DynInst) {}

// Steer implements core.Probe (unused).
func (a *Attribution) Steer(*core.SteerDecision) {}

// Cycle implements core.Probe: warm-up samples are dropped so the totals
// reconcile with the measurement record.
func (a *Attribution) Cycle(s *core.CycleSample) {
	if !s.Measuring {
		return
	}
	a.counts[s.Class]++
	a.total++
	a.balance.Record(core.BalanceDiff(s.Ready[:s.NumClusters]))
}

// Total returns the measured cycles attributed so far.
func (a *Attribution) Total() uint64 { return a.total }

// Cycles returns the cycles attributed to one class so far.
func (a *Attribution) Cycles(c core.StallClass) uint64 { return a.counts[c] }

// Balance returns the balance histogram rebuilt from the cycle samples;
// after a measured run it must equal the run's stats.Run.Balance
// bit-for-bit.
func (a *Attribution) Balance() *stats.BalanceHist { return &a.balance }

// Report snapshots the attribution as a wire-encodable record, classes in
// taxonomy order (zero-count classes included, so the shape is stable).
func (a *Attribution) Report() *Report {
	r := &Report{TotalCycles: a.total}
	r.Buckets = make([]Bucket, 0, int(core.NumStallClasses))
	for c := core.StallClass(0); c < core.NumStallClasses; c++ {
		b := Bucket{Class: c.String(), Cycles: a.counts[c]}
		if a.total > 0 {
			b.Percent = 100 * float64(a.counts[c]) / float64(a.total)
		}
		r.Buckets = append(r.Buckets, b)
	}
	return r
}

// Report is the cycle-attribution summary of one run: where every
// measured cycle went, by stall class. It is a wire type (dcabench -json
// export, dcaserve probed job responses).
type Report struct {
	// TotalCycles is the number of measured cycles attributed; it equals
	// stats.Run.Cycles for the run the probe observed.
	TotalCycles uint64 `json:"total_cycles"`
	// Buckets holds one entry per taxonomy class, in taxonomy order.
	Buckets []Bucket `json:"buckets"`
}

// Bucket is one stall-taxonomy class total.
type Bucket struct {
	Class   string  `json:"class"`
	Cycles  uint64  `json:"cycles"`
	Percent float64 `json:"percent"`
}

// Sum returns the bucket total, which must equal TotalCycles (the
// taxonomy is total and exclusive).
func (r *Report) Sum() uint64 {
	var s uint64
	for _, b := range r.Buckets {
		s += b.Cycles
	}
	return s
}

// Cycles returns the total for a class name (0 for unknown classes).
func (r *Report) Cycles(class string) uint64 {
	for _, b := range r.Buckets {
		if b.Class == class {
			return b.Cycles
		}
	}
	return 0
}

// Table renders the report as an aligned text table, classes in taxonomy
// order, zero-count classes skipped.
func (r *Report) Table() string {
	var sb strings.Builder
	for _, b := range r.Buckets {
		if b.Cycles == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-20s %7.3f%%  %12d\n", b.Class, b.Percent, b.Cycles)
	}
	return sb.String()
}
