package main

import (
	"testing"

	"repro/internal/job"
)

// TestPlanJobIsTheCanonicalCell: without -machine, dcasim's job is the one
// job.Spec plans, so the key it prints is the one cmd/dcaserve serves; and
// -machine clustered on two clusters is general's own machine.
func TestPlanJobIsTheCanonicalCell(t *testing.T) {
	for _, scheme := range []string{"general", "fifo", job.BaseScheme, job.UBScheme} {
		for _, clusters := range []int{2, 4} {
			want, err := job.Spec{Scheme: scheme, Benchmark: "go", Clusters: clusters, Warmup: 10, Measure: 20}.Plan()
			if err != nil {
				t.Fatal(err)
			}
			got, err := planJob(scheme, "go", "", clusters, 10, 20)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key() != want.Key() {
				t.Errorf("%s on %d clusters: dcasim plans %+v, job.Spec %+v", scheme, clusters, got, want)
			}
		}
	}
	def, _ := planJob("general", "go", "", 2, 10, 20)
	override, err := planJob("general", "go", "clustered", 2, 10, 20)
	if err != nil || override.Key() != def.Key() {
		t.Errorf("-machine clustered is not the default general job (%v)", err)
	}
	if _, err := planJob("general", "go", "base", 4, 10, 20); err == nil {
		t.Error("-machine base accepted a cluster count")
	}
}
