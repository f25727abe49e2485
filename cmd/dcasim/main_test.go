package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/job"
)

// TestPlanJobIsTheCanonicalCell: dcasim's job is the one job.Spec plans,
// so the key it prints is the one cmd/dcaserve serves; and where job.Spec
// refuses a cell (base or ub sized to 4 clusters), dcasim's check refuses
// it too.
func TestPlanJobIsTheCanonicalCell(t *testing.T) {
	for _, scheme := range []string{"general", "fifo", job.BaseScheme, job.UBScheme} {
		for _, clusters := range []int{2, 4} {
			want, err := job.Spec{Scheme: scheme, Benchmark: "go", Clusters: clusters, Warmup: 10, Measure: 20}.Plan()
			if (scheme == job.BaseScheme || scheme == job.UBScheme) && clusters != 2 {
				if err == nil || job.ValidateSchemeClusters(scheme, clusters) == nil {
					t.Errorf("%s on %d clusters: job.Spec err = %v, dcasim's check accepts it; want both to refuse",
						scheme, clusters, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := job.ValidateSchemeClusters(scheme, clusters); err != nil {
				t.Errorf("%s on %d clusters: dcasim refuses: %v", scheme, clusters, err)
			}
			if got := planJob(scheme, "go", clusters, 10, 20); got.Key() != want.Key() {
				t.Errorf("%s on %d clusters: dcasim plans %+v, job.Spec %+v", scheme, clusters, got, want)
			}
		}
	}
}

// TestCheckDisagree: -disagree runs its own grid, so every flag that would
// change what a single run simulates or observes is refused by name, and
// the flags the grid does use are accepted.
func TestCheckDisagree(t *testing.T) {
	for _, tc := range []struct {
		set     []string // flags set explicitly, as flag.Visit reports them
		refused string   // "" when the combination is accepted
	}{
		{nil, ""},
		{[]string{"bench", "clusters", "warmup", "measure", "disagree"}, ""},
		{[]string{"disagree", "program"}, "program"},
		{[]string{"bench", "disagree", "replay"}, "replay"},
		{[]string{"disagree", "scheme"}, "scheme"},
		{[]string{"disagree", "pipetrace"}, "pipetrace"},
		{[]string{"attrib", "disagree"}, "attrib"},
		{[]string{"disagree", "konata"}, "konata"},
		{[]string{"disagree", "konata-from"}, "konata-from"},
		{[]string{"disagree", "konata-to"}, "konata-to"},
	} {
		err := checkDisagree(func(fn func(*flag.Flag)) {
			for _, name := range tc.set {
				fn(&flag.Flag{Name: name})
			}
		})
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%v: refused: %v", tc.set, err)
		case tc.refused != "" && err == nil:
			t.Errorf("%v: accepted, want -%s refused", tc.set, tc.refused)
		case tc.refused != "" && !strings.Contains(err.Error(), "-"+tc.refused):
			t.Errorf("%v: error %q does not name -%s", tc.set, err, tc.refused)
		}
	}
}
