package job

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/workload"
)

// planned builds a representative spread of canonical jobs: pseudo-schemes,
// FIFO, balance schemes, default and tweaked params, several machine sizes.
func planned(t *testing.T) []Job {
	t.Helper()
	tweaked := steer.DefaultParams()
	tweaked.Threshold = 4
	tweaked.Window = 32
	off := false
	tweaked.UseI2 = &off
	specs := []Spec{
		{Scheme: BaseScheme, Benchmark: "go", Warmup: 100, Measure: 1000},
		{Scheme: UBScheme, Benchmark: "compress", Warmup: 100, Measure: 1000},
		{Scheme: "fifo", Benchmark: "gcc", Warmup: 50, Measure: 500},
		{Scheme: "general", Benchmark: "li", Warmup: 0, Measure: 2000},
		{Scheme: "general", Benchmark: "li", Clusters: 4, Warmup: 0, Measure: 2000},
		{Scheme: "fifo", Benchmark: "perl", Clusters: 8, Warmup: 10, Measure: 100},
		{Scheme: "modulo", Benchmark: "vortex", Warmup: 1, Measure: 1, Params: &tweaked},
	}
	jobs := make([]Job, 0, len(specs))
	for _, s := range specs {
		j, err := s.Plan()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// TestJobRoundTrip is the serialization property the store depends on:
// decode(encode(j)) == j exactly, and the content digest is stable across
// any number of round trips.
func TestJobRoundTrip(t *testing.T) {
	for _, j := range planned(t) {
		key := j.Key()
		raw, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		var back Job
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(j, back) {
			t.Errorf("%s/%s: round trip diverged:\n  in  %+v\n  out %+v", j.Scheme, j.Benchmark, j, back)
		}
		if back.Key() != key {
			t.Errorf("%s/%s: digest changed across round trip: %s != %s", j.Scheme, j.Benchmark, back.Key(), key)
		}
		raw2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(raw2) {
			t.Errorf("%s/%s: re-encoding is not byte-identical", j.Scheme, j.Benchmark)
		}
	}
}

// TestKeyDiscriminates checks the digest separates every planned job and
// is insensitive to how the identical job was arrived at.
func TestKeyDiscriminates(t *testing.T) {
	jobs := planned(t)
	keys := make(map[string]string, len(jobs))
	for _, j := range jobs {
		k := j.Key()
		if len(k) != 64 {
			t.Errorf("key %q is not a hex sha256", k)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("digest collision between %s/%s and %s", j.Scheme, j.Benchmark, prev)
		}
		keys[k] = j.Scheme + "/" + j.Benchmark
	}

	// Same cell planned twice — including once from a JSON-decoded spec —
	// must hash identically.
	a, err := Spec{Scheme: "general", Benchmark: "go", Warmup: 10, Measure: 100}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var spec Spec
	if err := json.Unmarshal([]byte(`{"scheme":"general","benchmark":"go","warmup":10,"measure":100}`), &spec); err != nil {
		t.Fatal(err)
	}
	b, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("identical cells hash differently: %s != %s", a.Key(), b.Key())
	}
}

// TestPseudoSchemeParamsCanonicalized checks the canonicalization rule:
// steering parameters cannot affect the base/ub machines, so planned
// pseudo-scheme jobs zero them — different callers' params defaults must
// not split the cache.
func TestPseudoSchemeParamsCanonicalized(t *testing.T) {
	tweaked := steer.DefaultParams()
	tweaked.Threshold = 99
	a, err := Spec{Scheme: BaseScheme, Benchmark: "go", Warmup: 10, Measure: 100}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{Scheme: BaseScheme, Benchmark: "go", Warmup: 10, Measure: 100, Params: &tweaked}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("base jobs with different (ignored) params hash differently")
	}
	if !reflect.DeepEqual(a.Params, steer.Params{}) {
		t.Errorf("base job params = %+v, want zeroed", a.Params)
	}
}

// TestRunRoundTrip runs one real (tiny) simulation and checks the result
// JSON round-trips bit-identically — the property that makes cache hits
// equal to cold runs.
func TestRunRoundTrip(t *testing.T) {
	j, err := Spec{Scheme: "general", Benchmark: "compress", Warmup: 200, Measure: 2_000}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Direct{}.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	digest := ResultDigest(r)
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back := new(stats.Run)
	if err := json.Unmarshal(raw, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Errorf("stats.Run round trip diverged:\n  in  %+v\n  out %+v", r, back)
	}
	if ResultDigest(back) != digest {
		t.Errorf("result digest changed across round trip")
	}
}

// TestValidateMessages pins the shared error text every entry point emits.
func TestValidateMessages(t *testing.T) {
	if err := ValidateScheme("nope"); err == nil ||
		!strings.Contains(err.Error(), `unknown scheme "nope"`) ||
		!strings.Contains(err.Error(), "general") {
		t.Errorf("ValidateScheme: %v", err)
	}
	if err := ValidateScheme(BaseScheme); err != nil {
		t.Errorf("pseudo-scheme rejected: %v", err)
	}
	if err := ValidateClusters(-1); err == nil || !strings.Contains(err.Error(), "clusters unsupported") {
		t.Errorf("ValidateClusters: %v", err)
	}
	if err := ValidateClusters(0); err != nil {
		t.Errorf("clusters=0 rejected: %v", err)
	}
	if err := ValidateBenchmark("nope"); err == nil || !strings.Contains(err.Error(), `unknown benchmark "nope"`) {
		t.Errorf("ValidateBenchmark: %v", err)
	}
}

// TestGridSpecPlan checks deterministic expansion, dedup of schemes and
// benchmarks (first occurrence kept) and the lazy benchmark default.
func TestGridSpecPlan(t *testing.T) {
	want := []string{"base/go", "base/gcc", "general/go", "general/gcc", "modulo/go", "modulo/gcc"}
	for _, benches := range [][]string{{"go", "gcc"}, {"go", "gcc", "go"}, {"go", "go", "gcc", "gcc"}} {
		g := GridSpec{
			Schemes:    []string{BaseScheme, "general", BaseScheme, "modulo"},
			Benchmarks: benches,
			Warmup:     10,
			Measure:    100,
		}
		jobs, err := g.Plan()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, j := range jobs {
			got = append(got, j.Scheme+"/"+j.Benchmark)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("benchmarks %v: grid = %v, want %v", benches, got, want)
		}
		if eff := g.EffectiveBenchmarks(); !reflect.DeepEqual(eff, []string{"go", "gcc"}) {
			t.Errorf("benchmarks %v: EffectiveBenchmarks = %v, want [go gcc]", benches, eff)
		}
	}

	lazy, err := GridSpec{Schemes: []string{"general"}, Warmup: 1, Measure: 1}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy) != len(workload.Names()) {
		t.Errorf("lazy grid has %d jobs, want %d", len(lazy), len(workload.Names()))
	}

	if _, err := (GridSpec{Schemes: []string{"nope"}, Measure: 1}).Plan(); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown scheme: err = %v, want one naming it", err)
	}
	if _, err := (GridSpec{Schemes: []string{"general"}, Clusters: 99, Measure: 1}).Plan(); err == nil || !strings.Contains(err.Error(), "clusters unsupported") {
		t.Errorf("bad cluster count: err = %v, want the cluster error", err)
	}
}

// TestPseudoSchemesTakeNoClusterCount: base and ub name fixed machines, so
// a spec asking for either on any cluster count but 0 or 2 is refused,
// naming the scheme and the count, instead of being planned silently on
// the fixed machine; on 0 and 2 each plans to one key.
func TestPseudoSchemesTakeNoClusterCount(t *testing.T) {
	for _, scheme := range []string{BaseScheme, UBScheme} {
		for _, n := range []int{1, 3, 4, 8} {
			_, err := Spec{Scheme: scheme, Benchmark: "go", Clusters: n, Warmup: 100, Measure: 1000}.Plan()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", scheme)) ||
				!strings.Contains(err.Error(), fmt.Sprintf("not %d", n)) {
				t.Errorf("%s on %d clusters: err = %v, want a refusal naming the scheme and the count", scheme, n, err)
			}
		}
		keys := make(map[string]bool)
		for _, n := range []int{0, 2} {
			j, err := Spec{Scheme: scheme, Benchmark: "go", Clusters: n, Warmup: 100, Measure: 1000}.Plan()
			if err != nil {
				t.Fatalf("%s on %d clusters: %v", scheme, n, err)
			}
			keys[j.Key()] = true
		}
		if len(keys) != 1 {
			t.Errorf("%s plans to %d keys on 0 and 2 clusters, want 1", scheme, len(keys))
		}
	}
}

// TestGridPlansPseudoSchemesOnTheirMachines: a grid on N clusters plans
// base and ub on their fixed machines (clusters 0), so dcabench -clusters
// and /v1/grids keep the two-cluster base as the speed-up denominator.
// The base cell's key is the one dcasim -bench go -scheme base -warmup 100
// -measure 1000 prints: planning it through the grid moved no key.
func TestGridPlansPseudoSchemesOnTheirMachines(t *testing.T) {
	const baseKey = "b21b53e18868c4c1"
	jobs, err := GridSpec{
		Schemes:    []string{BaseScheme, UBScheme, "general"},
		Benchmarks: []string{"go"},
		Clusters:   4,
		Warmup:     100,
		Measure:    1000,
	}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:2] {
		want, err := Spec{Scheme: j.Scheme, Benchmark: "go", Warmup: 100, Measure: 1000}.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if j.Key() != want.Key() {
			t.Errorf("%s in a 4-cluster grid: key %s, want the clusters-0 key %s", j.Scheme, j.Key(), want.Key())
		}
	}
	if k := jobs[0].Key(); !strings.HasPrefix(k, baseKey) {
		t.Errorf("base key %s, want %s…", k, baseKey)
	}
	if n := jobs[2].Config.NumClusters(); n != 4 {
		t.Errorf("general in a 4-cluster grid runs on %d clusters, want 4", n)
	}
}

// TestPlanRejectsBadWindow: a spec or grid whose params carry an I2
// window no balance scheme can run with (empty, negative, or past
// MaxWindow) is refused at plan time, naming the field, before anything
// simulates; the bounds themselves plan and run.
func TestPlanRejectsBadWindow(t *testing.T) {
	for _, w := range []int{0, -1, MaxWindow + 1} {
		p := steer.DefaultParams()
		p.Window = w
		spec := Spec{Scheme: "general", Benchmark: "go", Measure: 1000, Params: &p}
		if _, err := spec.Plan(); err == nil || !strings.Contains(err.Error(), "Window") {
			t.Errorf("Window %d: Spec.Plan err = %v, want one naming Window", w, err)
		}
		grid := GridSpec{Schemes: []string{"general"}, Benchmarks: []string{"go"}, Measure: 1000, Params: &p}
		if err := grid.Validate(); err == nil || !strings.Contains(err.Error(), "Window") {
			t.Errorf("Window %d: GridSpec.Validate err = %v, want one naming Window", w, err)
		}
		if _, err := grid.Plan(); err == nil || !strings.Contains(err.Error(), "Window") {
			t.Errorf("Window %d: GridSpec.Plan err = %v, want one naming Window", w, err)
		}
	}
	for _, w := range []int{1, MaxWindow} {
		p := steer.DefaultParams()
		p.Window = w
		j, err := Spec{Scheme: "general", Benchmark: "go", Clusters: 8, Measure: 1000, Params: &p}.Plan()
		if err != nil {
			t.Fatalf("Window %d: %v", w, err)
		}
		if _, err := (Direct{}).Run(context.Background(), j); err != nil {
			t.Errorf("Window %d: %v", w, err)
		}
	}
}

// FuzzSpecPlan drives the wire-input path every service route shares: bytes
// that decode as a JSON Spec are either refused by Plan or, with the
// windows capped so each input stays cheap, simulate to a result or an
// error — never a panic — and a planned base or ub spec never names a
// cluster count its fixed machine ignores. The seeds include the empty and
// negative I2 windows, which would panic in the steering schemes if Plan
// let them through, and base on 4 clusters.
func FuzzSpecPlan(f *testing.F) {
	seed := func(s Spec, window int) {
		p := steer.DefaultParams()
		p.Window = window
		s.Params = &p
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	base := Spec{Scheme: "general", Benchmark: "go", Warmup: 100, Measure: 1000}
	seed(base, steer.DefaultParams().Window)
	seed(base, 0)
	seed(base, -1)
	seed(Spec{Scheme: "ldst-priority", Benchmark: "gcc", Clusters: 8, Warmup: 100, Measure: 1000}, steer.DefaultParams().Window)
	seed(Spec{Scheme: BaseScheme, Benchmark: "go", Clusters: 4, Warmup: 100, Measure: 1000}, steer.DefaultParams().Window)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Spec
		if json.Unmarshal(raw, &s) != nil {
			return
		}
		j, err := s.Plan()
		if err != nil {
			return
		}
		if (s.Scheme == BaseScheme || s.Scheme == UBScheme) && s.Clusters != 0 && s.Clusters != 2 {
			t.Fatalf("%s planned on %d clusters", s.Scheme, s.Clusters)
		}
		j.Warmup = min(j.Warmup, 500)
		j.Measure = min(j.Measure, 2_000)
		if r, err := (Direct{}).Run(context.Background(), j); r == nil && err == nil {
			t.Fatal("Direct.Run returned neither a result nor an error")
		}
	})
}

// TestSelfPlacingMachinesIgnoreThePolicy: some machines place every
// instruction themselves. The FIFO-queue machines choose the FIFO, and
// with it the cluster; the base machine forces every instruction by its
// datapath; the upper bound has one cluster. There the steering scheme
// cannot move a result, so these machines need no machine override in
// dcasim and the fifo scheme needs no heuristic of its own.
func TestSelfPlacingMachinesIgnoreThePolicy(t *testing.T) {
	schemes := []string{"general", "modulo", "random", "ldst-slice", "br-priority"}
	machines := []*config.Config{config.FIFOClustered(), config.ClusteredNFIFO(4), config.Base(), config.UpperBound()}
	for _, cfg := range machines {
		for _, bench := range []string{"go", "gcc"} {
			var first *stats.Run
			for _, scheme := range schemes {
				params := steer.DefaultParams()
				params.Clusters = cfg.NumClusters()
				j := Job{Config: cfg, Scheme: scheme, Params: params, Benchmark: bench, Warmup: 1_000, Measure: 5_000}
				r, err := Direct{}.Run(context.Background(), j)
				if err != nil {
					t.Fatalf("%s/%s on %s: %v", scheme, bench, cfg.Name, err)
				}
				r.Scheme = ""
				if first == nil {
					first = r
				} else if !reflect.DeepEqual(r, first) {
					t.Errorf("%s on %s: %s gives %d cycles, steered %v; %s gives %d, steered %v",
						bench, cfg.Name, scheme, r.Cycles, r.Steered, schemes[0], first.Cycles, first.Steered)
				}
			}
		}
	}
}
