package probe_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/rdg"
	"repro/internal/steer"
)

// runProbed simulates one rdg program on the two-cluster machine with p
// attached and returns the measurement record.
func runProbed(t *testing.T, seed int64, p core.Probe) uint64 {
	t.Helper()
	prg := rdg.RandomProgram(seed)
	cfg := config.Clustered()
	params := steer.DefaultParams()
	params.Clusters = cfg.NumClusters()
	st, err := steer.NewWithParams("general", prg, params)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(cfg, prg, st)
	if err != nil {
		t.Fatal(err)
	}
	m.SetProbe(p)
	r, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return r.Cycles
}

// TestKonataWellFormed checks the exported log against the Kanata format
// contract: the version header leads, the clock only moves forward, every
// id is introduced (I) before it is staged (S) or labelled (L), and every
// retired id (R) was introduced. Every architecturally committed
// instruction must appear: the sum of R lines is the commit count plus the
// inter-cluster copies the run inserted.
func TestKonataWellFormed(t *testing.T) {
	var buf bytes.Buffer
	k := probe.NewKonata(&buf)
	runProbed(t, 7, k)
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("log has only %d lines", len(lines))
	}
	if lines[0] != "Kanata\t0004" {
		t.Fatalf("missing version header, got %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "C=\t") {
		t.Fatalf("second line should pin the start cycle, got %q", lines[1])
	}

	introduced := map[string]bool{}
	retired := 0
	var fetched, staged int
	for i, ln := range lines[2:] {
		f := strings.Split(ln, "\t")
		switch f[0] {
		case "C":
			d, err := strconv.Atoi(f[1])
			if err != nil || d <= 0 {
				t.Fatalf("line %d: clock must move forward: %q", i+3, ln)
			}
		case "I":
			introduced[f[1]] = true
			fetched++
		case "L", "S":
			if !introduced[f[1]] {
				t.Fatalf("line %d: id %s staged before introduction: %q", i+3, f[1], ln)
			}
			if f[0] == "S" {
				staged++
			}
		case "R":
			if !introduced[f[1]] {
				t.Fatalf("line %d: id %s retired before introduction: %q", i+3, f[1], ln)
			}
			retired++
		default:
			t.Fatalf("line %d: unknown record type %q", i+3, ln)
		}
	}
	if fetched == 0 || staged == 0 || retired == 0 {
		t.Fatalf("log is degenerate: %d I, %d S, %d R", fetched, staged, retired)
	}
	if retired > fetched {
		t.Fatalf("%d retirements but only %d introductions", retired, fetched)
	}
}

// TestKonataWindow bounds the export: with To set below the run length,
// nothing fetched after the bound may appear.
func TestKonataWindow(t *testing.T) {
	var full, windowed bytes.Buffer
	k := probe.NewKonata(&full)
	cycles := runProbed(t, 7, k)
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	kw := probe.NewKonata(&windowed)
	kw.From = cycles / 4
	kw.To = cycles / 2
	runProbed(t, 7, kw)
	if err := kw.Close(); err != nil {
		t.Fatal(err)
	}
	if windowed.Len() == 0 {
		t.Fatal("windowed export is empty")
	}
	if windowed.Len() >= full.Len() {
		t.Fatalf("windowed export (%d bytes) not smaller than the full log (%d bytes)",
			windowed.Len(), full.Len())
	}
}

// TestForensicsRecords checks the steering log: every decision is counted
// under exactly one reason, the choice stream is decision-aligned, and the
// detailed records respect their cap.
func TestForensicsRecords(t *testing.T) {
	f := &probe.Forensics{MaxRecords: 8}
	runProbed(t, 7, f)
	if f.Decisions() == 0 {
		t.Fatal("no steering decisions observed")
	}
	if got := uint64(len(f.Choices())); got != f.Decisions() {
		t.Fatalf("choice stream has %d entries, %d decisions", got, f.Decisions())
	}
	var byReason uint64
	for r := core.SteerReason(0); r < core.NumSteerReasons; r++ {
		byReason += f.Reason(r)
	}
	if byReason != f.Decisions() {
		t.Fatalf("reasons sum to %d, decisions %d (taxonomy not exclusive)", byReason, f.Decisions())
	}
	if len(f.Records) > 8 {
		t.Fatalf("retained %d detailed records, cap was 8", len(f.Records))
	}
	if f.ReasonTable() == "" {
		t.Fatal("reason table is empty")
	}
}

// TestComputeDisagreement checks the matrix algebra on hand-built streams:
// zero diagonal, symmetry, truncation to the shorter stream, and the
// length-mismatch error.
func TestComputeDisagreement(t *testing.T) {
	d, err := probe.ComputeDisagreement(
		[]string{"a", "b", "c"},
		[][]uint8{
			{0, 1, 0, 1},
			{0, 1, 1, 1},
			{1, 0}, // shorter stream: commit budgets cut tails
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Schemes {
		if d.Differ[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %d, want 0", i, i, d.Differ[i][i])
		}
		for j := range d.Schemes {
			if d.Differ[i][j] != d.Differ[j][i] || d.Compared[i][j] != d.Compared[j][i] {
				t.Errorf("matrix not symmetric at [%d][%d]", i, j)
			}
		}
	}
	if d.Compared[0][1] != 4 || d.Differ[0][1] != 1 {
		t.Errorf("a×b: compared %d differ %d, want 4 and 1", d.Compared[0][1], d.Differ[0][1])
	}
	if d.Compared[0][2] != 2 || d.Differ[0][2] != 2 {
		t.Errorf("a×c: compared %d differ %d, want 2 and 2", d.Compared[0][2], d.Differ[0][2])
	}
	if d.Frac[0][2] != 1.0 {
		t.Errorf("a×c frac = %v, want 1.0", d.Frac[0][2])
	}
	if d.Table() == "" {
		t.Error("table renderer returned nothing")
	}

	if _, err := probe.ComputeDisagreement([]string{"a"}, nil); err == nil {
		t.Error("length mismatch not rejected")
	}
}

// countingProbe counts hook invocations for the fan-out test.
type countingProbe struct{ fetch, event, steer, cycle int }

func (c *countingProbe) Fetch(uint64, *core.FetchInfo)           { c.fetch++ }
func (c *countingProbe) Event(uint64, core.Event, *core.DynInst) { c.event++ }
func (c *countingProbe) Steer(*core.SteerDecision)               { c.steer++ }
func (c *countingProbe) Cycle(*core.CycleSample)                 { c.cycle++ }

// TestMultiFanOut checks that Multi forwards every hook to every live
// probe, skips nils, and collapses to nil when nothing remains.
func TestMultiFanOut(t *testing.T) {
	if probe.Multi() != nil || probe.Multi(nil, nil) != nil {
		t.Fatal("empty Multi should be nil")
	}
	a, b := &countingProbe{}, &countingProbe{}
	m := probe.Multi(a, nil, b)
	m.Fetch(1, &core.FetchInfo{})
	m.Event(1, core.EvCommit, &core.DynInst{})
	m.Steer(&core.SteerDecision{})
	m.Cycle(&core.CycleSample{})
	for _, c := range []*countingProbe{a, b} {
		if c.fetch != 1 || c.event != 1 || c.steer != 1 || c.cycle != 1 {
			t.Fatalf("fan-out missed hooks: %+v", *c)
		}
	}
	if probe.Multi(a) != core.Probe(a) {
		t.Fatal("single-probe Multi should return the probe itself")
	}
}

// TestReportShape checks the wire type: one bucket per taxonomy class in
// order, Sum equals TotalCycles, lookups by name, and the table renderer.
func TestReportShape(t *testing.T) {
	at := probe.NewAttribution()
	cycles := runProbed(t, 1, at)
	rep := at.Report()
	if len(rep.Buckets) != int(core.NumStallClasses) {
		t.Fatalf("report has %d buckets, taxonomy has %d classes", len(rep.Buckets), core.NumStallClasses)
	}
	for c := core.StallClass(0); c < core.NumStallClasses; c++ {
		if rep.Buckets[c].Class != c.String() {
			t.Fatalf("bucket %d is %q, want %q", c, rep.Buckets[c].Class, c.String())
		}
	}
	if rep.Sum() != rep.TotalCycles || rep.TotalCycles != cycles {
		t.Fatalf("sum %d, total %d, run cycles %d — all must agree", rep.Sum(), rep.TotalCycles, cycles)
	}
	if got := rep.Cycles(core.ClassCommitting.String()); got != at.Cycles(core.ClassCommitting) {
		t.Fatalf("lookup by name returned %d, probe holds %d", got, at.Cycles(core.ClassCommitting))
	}
	if rep.Cycles("no-such-class") != 0 {
		t.Fatal("unknown class should read as 0")
	}
	if !strings.Contains(rep.Table(), core.ClassCommitting.String()) {
		t.Fatal("table omits the committing class")
	}
}
