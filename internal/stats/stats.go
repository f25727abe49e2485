// Package stats collects and formats the measurements the paper reports:
// IPC and speed-up, inter-cluster communications per instruction (split into
// critical and non-critical), the distribution of the ready-instruction
// difference between clusters (workload balance, Figures 6/9/12), and
// register replication (Figure 15).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// BalanceHist is the distribution of the per-cycle workload-balance
// scalar, clipped to ±Range as in the paper's figures. On the two-cluster
// machine the scalar is the paper's signed difference (#ready FP cluster −
// #ready INT cluster); on N > 2 clusters it is the max−min ready-count
// spread across clusters (always ≥ 0).
type BalanceHist struct {
	// Buckets[i] counts cycles with difference i−Range; index 2*Range is
	// +Range. Differences beyond ±Range clip into the end buckets.
	Buckets [2*BalanceRange + 1]uint64 `json:"Buckets"`
	// Samples is the total cycle count recorded.
	Samples uint64 `json:"Samples"`
}

// BalanceRange is the clip range of the histogram (the paper plots −10..10).
const BalanceRange = 10

// Record adds one cycle's difference sample.
func (h *BalanceHist) Record(diff int) {
	if diff > BalanceRange {
		diff = BalanceRange
	}
	if diff < -BalanceRange {
		diff = -BalanceRange
	}
	h.Buckets[diff+BalanceRange]++
	h.Samples++
}

// Percent returns the percentage of cycles in bucket diff.
func (h *BalanceHist) Percent(diff int) float64 {
	if h.Samples == 0 {
		return 0
	}
	return 100 * float64(h.Buckets[diff+BalanceRange]) / float64(h.Samples)
}

// Merge accumulates other into h (used to average across benchmarks).
func (h *BalanceHist) Merge(other *BalanceHist) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Samples += other.Samples
}

// ImbalancePercent returns the percentage of cycles with |diff| ≥ k.
func (h *BalanceHist) ImbalancePercent(k int) float64 {
	if h.Samples == 0 {
		return 0
	}
	var n uint64
	for d := -BalanceRange; d <= BalanceRange; d++ {
		if d >= k || d <= -k {
			n += h.Buckets[d+BalanceRange]
		}
	}
	return 100 * float64(n) / float64(h.Samples)
}

// Run is the full measurement record of one simulation.
type Run struct {
	// Scheme and Benchmark identify the experiment cell.
	Scheme    string `json:"Scheme"`
	Benchmark string `json:"Benchmark"`

	// Cycles and Instructions give IPC; Instructions counts committed
	// program instructions (copies excluded, matching the paper's
	// "dynamic instructions").
	Cycles       uint64 `json:"Cycles"`
	Instructions uint64 `json:"Instructions"`

	// Copies is the number of inter-cluster copy instructions inserted.
	Copies uint64 `json:"Copies"`
	// CriticalCopies counts copies whose arrival found a consumer already
	// waiting on them (the paper's "critical communication").
	CriticalCopies uint64 `json:"CriticalCopies"`

	// Balance is the per-cycle ready-difference histogram.
	Balance BalanceHist `json:"Balance"`

	// ReplicatedRegsAvg is the average number of logical registers mapped
	// in more than one cluster per cycle (Figure 15; on the two-cluster
	// machine: mapped in both).
	ReplicatedRegsAvg float64 `json:"ReplicatedRegsAvg"`

	// Steered counts instructions sent to each cluster (index = cluster;
	// one entry per cluster of the simulated machine).
	Steered []uint64 `json:"Steered"`

	// Mispredicts counts resolved conditional-branch and indirect-target
	// mispredictions; Branches the executed control transfers.
	Mispredicts uint64 `json:"Mispredicts"`
	Branches    uint64 `json:"Branches"`

	// L1DMissRate and L1IMissRate snapshot cache behaviour.
	L1DMissRate float64 `json:"L1DMissRate"`
	L1IMissRate float64 `json:"L1IMissRate"`
}

// SteeredAt returns the number of instructions steered to cluster c, zero
// when the machine had fewer clusters (reports index the largest machine
// in a grid).
func (r *Run) SteeredAt(c int) uint64 {
	if c < 0 || c >= len(r.Steered) {
		return 0
	}
	return r.Steered[c]
}

// IPC returns committed instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CommPerInstr returns total communications per dynamic instruction
// (Figures 5 and 8).
func (r *Run) CommPerInstr() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Copies) / float64(r.Instructions)
}

// CriticalCommPerInstr returns critical communications per instruction.
func (r *Run) CriticalCommPerInstr() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.CriticalCopies) / float64(r.Instructions)
}

// MispredictRate returns mispredictions per control transfer.
func (r *Run) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// Speedup returns the percent improvement of r over base, following the
// paper's "performance improvement (%)" axis: 100*(IPC/IPCbase − 1).
func Speedup(r, base *Run) float64 {
	b := base.IPC()
	if b == 0 {
		return 0
	}
	return 100 * (r.IPC()/b - 1)
}

// GeoMeanSpeedup returns the geometric mean of per-benchmark IPC ratios,
// expressed as a percentage improvement. The paper's summary bars use
// G-mean or H-mean of per-benchmark improvements; geometric mean of ratios
// is the conventional choice for normalized throughput.
func GeoMeanSpeedup(runs, bases []*Run) float64 {
	if len(runs) == 0 || len(runs) != len(bases) {
		return 0
	}
	logSum := 0.0
	n := 0
	for i := range runs {
		b := bases[i].IPC()
		v := runs[i].IPC()
		if b <= 0 || v <= 0 {
			continue
		}
		logSum += math.Log(v / b)
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * (math.Exp(logSum/float64(n)) - 1)
}

// Table renders rows of (label, columns...) as an aligned text table. It is
// the shared formatter for every figure/table reproduction.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowF appends a row where numeric cells are formatted with %.*f.
func (t *Table) AddRowF(label string, prec int, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.*f", prec, v))
	}
	t.AddRow(cells...)
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.rows {
		line(row)
	}
	return sb.String()
}

// SortedKeys returns the sorted keys of a string-keyed map; reports iterate
// deterministically.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
