package steer

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// lockstep feeds every hook the core calls to two policies, counts the
// Steer calls on which they answer differently, and steers the machine by
// the first.
type lockstep struct {
	a, b      core.Steerer
	decisions uint64
	differ    uint64
}

func (l *lockstep) Name() string { return l.a.Name() + "|" + l.b.Name() }

func (l *lockstep) Steer(info *core.SteerInfo) core.ClusterID {
	ca, cb := l.a.Steer(info), l.b.Steer(info)
	l.decisions++
	if ca != cb {
		l.differ++
	}
	return ca
}

func (l *lockstep) OnCycle(cycle uint64, ready []int) {
	l.a.OnCycle(cycle, ready)
	l.b.OnCycle(cycle, ready)
}

func (l *lockstep) OnBranchResolved(pc int, mispredicted bool) {
	l.a.OnBranchResolved(pc, mispredicted)
	l.b.OnBranchResolved(pc, mispredicted)
}

func (l *lockstep) OnLoadResolved(pc int, l1Miss bool) {
	l.a.OnLoadResolved(pc, l1Miss)
	l.b.OnLoadResolved(pc, l1Miss)
}

// TestPriorityWithoutCriticalSlicesIsGeneral pins Section 3.8's definition:
// general balance is priority slice balance with the criticality threshold
// at infinity. A Priority whose threshold is MaxUint64, and whose epoch
// never ends so the threshold cannot adapt down, finds no critical slice,
// so both send every instruction through steerByOperandsAndBalance and
// must agree on every decision, on real workloads and both slice kinds.
func TestPriorityWithoutCriticalSlicesIsGeneral(t *testing.T) {
	for _, bench := range []string{"gcc", "go", "compress"} {
		p, err := workload.Load(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []SliceKind{LdStSlice, BrSlice} {
			for _, cfg := range []*config.Config{config.Clustered(), config.ClusteredN(4)} {
				params := DefaultParams()
				params.Clusters = cfg.NumClusters()
				params.Epoch = math.MaxUint64
				pri := NewPriority(kind, params)
				pri.threshold = math.MaxUint64
				ls := &lockstep{a: NewGeneral(params), b: pri}
				m, err := core.New(cfg, p, ls)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(150_000); err != nil {
					t.Fatal(err)
				}
				if ls.differ != 0 || ls.decisions < 150_000 {
					t.Errorf("%s %v %d clusters: %d of %d decisions differ from general",
						bench, kind, cfg.NumClusters(), ls.differ, ls.decisions)
				}
			}
		}
	}
}
