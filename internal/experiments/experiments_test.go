package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/stats"
)

// smallSpec keeps unit-test grids fast.
func smallSpec(schemes ...string) job.GridSpec {
	return job.GridSpec{
		Schemes:    schemes,
		Benchmarks: []string{"compress", "go"},
		Warmup:     5_000,
		Measure:    30_000,
	}
}

// runSmall runs smallSpec(schemes...) on the default pool.
func runSmall(t *testing.T, schemes ...string) *Result {
	t.Helper()
	res, err := Run(context.Background(), smallSpec(schemes...), job.PoolOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunGridBasics(t *testing.T) {
	res := runSmall(t, "general", "modulo")
	for _, scheme := range []string{job.BaseScheme, "general", "modulo"} {
		for _, bench := range res.Spec.Benchmarks {
			run := res.Get(scheme, bench)
			if run == nil {
				t.Fatalf("missing run %s/%s", scheme, bench)
			}
			if run.IPC() <= 0 {
				t.Errorf("%s/%s: IPC = %f", scheme, bench, run.IPC())
			}
		}
	}
	if res.Get("nope", "compress") != nil {
		t.Error("Get returned a run for an unknown scheme")
	}
}

func TestSpeedupAndMeans(t *testing.T) {
	res := runSmall(t, "general")
	if s := res.Speedup(job.BaseScheme, "compress"); s != 0 {
		t.Errorf("base speedup vs itself = %f, want 0", s)
	}
	mean := res.MeanSpeedup("general")
	if mean < -50 || mean > 200 {
		t.Errorf("mean speedup %f implausible", mean)
	}
	total, crit := res.MeanComm("general")
	if crit > total {
		t.Errorf("critical comm %f exceeds total %f", crit, total)
	}
	h := res.MergedBalance("general")
	if h.Samples == 0 {
		t.Error("merged balance has no samples")
	}
}

func TestExhibitRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Exhibits() {
		if e.ID == "" || e.Title == "" || e.Render == nil {
			t.Errorf("exhibit %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate exhibit id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every paper exhibit must be present.
	for _, want := range []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
		if !ids[want] {
			t.Errorf("missing exhibit %s", want)
		}
	}
	if _, ok := ExhibitByID("fig4"); !ok {
		t.Error("ExhibitByID failed for fig4")
	}
	if _, ok := ExhibitByID("fig99"); ok {
		t.Error("ExhibitByID invented an exhibit")
	}
}

func TestTableExhibitsRenderWithoutRuns(t *testing.T) {
	// Table 1 and Table 2 are static: they must render from an empty grid.
	empty := &Result{Runs: map[string]map[string]*stats.Run{}}
	for _, id := range []string{"table1", "table2"} {
		e, ok := ExhibitByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out := e.Render(empty)
		if len(out) < 40 {
			t.Errorf("%s rendered too little:\n%s", id, out)
		}
	}
}

func TestAllExhibitsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit grid in -short mode")
	}
	res := runSmall(t, SchemesFor(Exhibits())...)
	for _, e := range Exhibits() {
		out := e.Render(res)
		if out == "" {
			t.Errorf("%s rendered empty", e.ID)
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("%s contains NaN:\n%s", e.ID, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	res := runSmall(t, "general")
	var buf strings.Builder
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + (base + general) x 2 benchmarks
	if len(lines) != 1+2*2 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "scheme,benchmark,cycles") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}
	// Rows in report order: base first, then the other schemes sorted,
	// each over the benchmarks in grid order.
	for i, want := range []string{"base,compress,", "base,go,", "general,compress,", "general,go,"} {
		if !strings.HasPrefix(lines[i+1], want) {
			t.Errorf("CSV row %d = %s, want the %s cell", i+1, lines[i+1], strings.TrimSuffix(want, ","))
		}
	}
}
