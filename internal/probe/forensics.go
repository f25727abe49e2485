package probe

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
)

// DefaultMaxRecords bounds the detailed steering records a Forensics
// probe retains; the compact per-decision choice stream is unbounded
// (one byte per program instruction).
const DefaultMaxRecords = 1 << 16

// SteerRecord is one retained steering decision (a copy of the seam's
// reused SteerDecision, minus the full instruction encoding).
type SteerRecord struct {
	Cycle   uint64
	ProgSeq uint64
	PC      int
	// Policy, Final and Reason say what the policy answered, where the
	// instruction actually went, and which mechanism decided.
	Policy core.ClusterID
	Final  core.ClusterID
	Reason core.SteerReason
	// Ready and IQLen are the per-cluster decision-time state (first
	// NumClusters entries meaningful).
	NumClusters int
	Ready       [config.MaxClusters]int
	IQLen       [config.MaxClusters]int
}

// Forensics records steering decisions: a bounded window of detailed
// records, per-reason totals, and the compact per-decision choice stream
// that the scheme×scheme disagreement matrix compares. Decisions arrive
// in program (decode) order, so two runs of the same oracle stream under
// different schemes produce index-aligned choice streams.
type Forensics struct {
	// MaxRecords caps Records (0 = DefaultMaxRecords, negative =
	// unlimited).
	MaxRecords int
	// Records holds the first MaxRecords decisions in full detail.
	Records []SteerRecord

	reasons [core.NumSteerReasons]uint64
	choices []uint8
}

// Fetch implements core.Probe (unused).
func (f *Forensics) Fetch(uint64, *core.FetchInfo) {}

// Event implements core.Probe (unused).
func (f *Forensics) Event(uint64, core.Event, *core.DynInst) {}

// Cycle implements core.Probe (unused).
func (f *Forensics) Cycle(*core.CycleSample) {}

// Steer implements core.Probe.
func (f *Forensics) Steer(dec *core.SteerDecision) {
	f.reasons[dec.Reason]++
	f.choices = append(f.choices, uint8(dec.Final))
	limit := f.MaxRecords
	if limit == 0 {
		limit = DefaultMaxRecords
	}
	if limit < 0 || len(f.Records) < limit {
		r := SteerRecord{
			Cycle:       dec.Cycle,
			ProgSeq:     dec.ProgSeq,
			PC:          dec.PC,
			Policy:      dec.Policy,
			Final:       dec.Final,
			Reason:      dec.Reason,
			NumClusters: dec.NumClusters,
		}
		for c := 0; c < dec.NumClusters; c++ {
			r.Ready[c] = dec.Ready[c]
			r.IQLen[c] = dec.IQLen[c]
		}
		f.Records = append(f.Records, r)
	}
}

// Decisions returns the number of steering decisions observed.
func (f *Forensics) Decisions() uint64 { return uint64(len(f.choices)) }

// Reason returns how many decisions the given mechanism settled.
func (f *Forensics) Reason(r core.SteerReason) uint64 { return f.reasons[r] }

// Choices returns the per-decision chosen clusters in decode order. The
// slice is the probe's own storage; callers must not mutate it.
func (f *Forensics) Choices() []uint8 { return f.choices }

// ReasonTable renders the per-reason totals as an aligned text table,
// zero rows skipped.
func (f *Forensics) ReasonTable() string {
	total := f.Decisions()
	var sb strings.Builder
	for r := core.SteerReason(0); r < core.NumSteerReasons; r++ {
		n := f.reasons[r]
		if n == 0 {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(n) / float64(total)
		}
		fmt.Fprintf(&sb, "  %-12s %7.3f%%  %12d\n", r, pct, n)
	}
	return sb.String()
}

// Disagreement is the scheme×scheme steering-disagreement matrix: entry
// [i][j] compares the choice streams of schemes i and j, decision by
// decision, over one committed-path stream. It is a wire type.
type Disagreement struct {
	// Schemes indexes the matrix.
	Schemes []string `json:"schemes"`
	// Compared[i][j] is the number of decisions compared (the shorter of
	// the two streams: runs stop on a commit budget, so the in-flight
	// tails can differ in length).
	Compared [][]uint64 `json:"compared"`
	// Differ[i][j] counts compared decisions that chose different
	// clusters; Frac[i][j] is Differ/Compared (0 when nothing compared).
	Differ [][]uint64  `json:"differ"`
	Frac   [][]float64 `json:"frac"`
}

// ComputeDisagreement builds the matrix from per-scheme choice streams
// (choices[i] belongs to schemes[i]; the two slices must be the same
// length, runs over one committed-path stream so indexes align).
func ComputeDisagreement(schemes []string, choices [][]uint8) (*Disagreement, error) {
	if len(schemes) != len(choices) {
		return nil, fmt.Errorf("probe: %d schemes but %d choice streams", len(schemes), len(choices))
	}
	n := len(schemes)
	d := &Disagreement{
		Schemes:  append([]string(nil), schemes...),
		Compared: make([][]uint64, n),
		Differ:   make([][]uint64, n),
		Frac:     make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		d.Compared[i] = make([]uint64, n)
		d.Differ[i] = make([]uint64, n)
		d.Frac[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			m := len(choices[i])
			if len(choices[j]) < m {
				m = len(choices[j])
			}
			var diff uint64
			for k := 0; k < m; k++ {
				if choices[i][k] != choices[j][k] {
					diff++
				}
			}
			d.Compared[i][j] = uint64(m)
			d.Differ[i][j] = diff
			if m > 0 {
				d.Frac[i][j] = float64(diff) / float64(m)
			}
		}
	}
	return d, nil
}

// Table renders the disagreement fractions as an aligned matrix (percent
// of decisions where the row and column schemes chose different
// clusters).
func (d *Disagreement) Table() string {
	var sb strings.Builder
	w := 0
	for _, s := range d.Schemes {
		if len(s) > w {
			w = len(s)
		}
	}
	fmt.Fprintf(&sb, "  %-*s", w, "")
	for _, s := range d.Schemes {
		fmt.Fprintf(&sb, " %*s", w, s)
	}
	sb.WriteByte('\n')
	for i, s := range d.Schemes {
		fmt.Fprintf(&sb, "  %-*s", w, s)
		for j := range d.Schemes {
			fmt.Fprintf(&sb, " %*.1f", w, 100*d.Frac[i][j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
