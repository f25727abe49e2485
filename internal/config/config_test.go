package config

import "testing"

func TestPresetsValidate(t *testing.T) {
	for _, c := range []*Config{Clustered(), Base(), UpperBound(), FIFOClustered(), Symmetric()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestClusteredMatchesTable2(t *testing.T) {
	c := Clustered()
	if c.FetchWidth != 8 || c.DecodeWidth != 8 || c.RetireWidth != 8 {
		t.Error("pipeline widths differ from Table 2")
	}
	if c.MaxInFlight != 64 {
		t.Error("in-flight limit differs from Table 2")
	}
	if c.NumClusters() != 2 {
		t.Fatal("clustered machine must have 2 clusters")
	}
	c1, c2 := c.Clusters[0], c.Clusters[1]
	if c1.SimpleIntALUs != 3 || c1.ComplexIntUnits != 1 || c1.FPALUs != 0 {
		t.Errorf("cluster 1 FUs wrong: %+v", c1)
	}
	if c2.SimpleIntALUs != 3 || c2.FPALUs != 3 || c2.FPMulDivUnits != 1 || c2.ComplexIntUnits != 0 {
		t.Errorf("cluster 2 FUs wrong: %+v", c2)
	}
	if c1.IssueWidth != 4 || c2.IssueWidth != 4 || c1.IQSize != 64 || c1.PhysRegs != 96 {
		t.Error("per-cluster resources differ from Table 2")
	}
	if c.InterClusterBuses != 3 || c.CopyLatency != 1 {
		t.Error("bus parameters differ from Table 2")
	}
	if c.DCachePorts != 3 {
		t.Error("D-cache ports differ from Table 2")
	}
	if c.Mem.L1D.SizeBytes != 64<<10 || c.Mem.L1D.Assoc != 2 || c.Mem.L1D.LineBytes != 32 {
		t.Error("L1D geometry differs from Table 2")
	}
	if c.Mem.L2.SizeBytes != 256<<10 || c.Mem.L2.Assoc != 4 || c.Mem.L2.LineBytes != 64 {
		t.Error("L2 geometry differs from Table 2")
	}
}

func TestBaseRemovesFPClusterIntCapability(t *testing.T) {
	c := Base()
	if c.FPClusterSimpleInt {
		t.Error("base must not execute simple int in FP cluster")
	}
	// One ALU remains as the FP pipeline's address-generation unit (see
	// the Base doc comment); steering never sends integer code there.
	if c.Clusters[1].SimpleIntALUs != 1 {
		t.Error("base FP cluster must keep exactly the AGU")
	}
}

func TestUpperBoundIsSingleCluster(t *testing.T) {
	c := UpperBound()
	if c.NumClusters() != 1 {
		t.Fatal("upper bound must be one cluster")
	}
	if c.Clusters[0].IssueWidth != 16 {
		t.Error("upper bound issue width must be 16")
	}
	if c.InterClusterBuses != 0 {
		t.Error("upper bound must have no buses")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Clusters = nil },
		func(c *Config) {
			for len(c.Clusters) <= MaxClusters {
				c.Clusters = append(c.Clusters, c.Clusters[0])
			}
		},
		func(c *Config) { c.CopyDist = [][]int{{0}} },
		func(c *Config) { c.CopyDist = CrossbarDistances(2, 0) },
		func(c *Config) {
			c.CopyDist = CrossbarDistances(2, 1)
			c.CopyDist[0][0] = 1
		},
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.MaxInFlight = 0 },
		func(c *Config) { c.Clusters[0].IssueWidth = 0 },
		func(c *Config) { c.Clusters[0].PhysRegs = 10 },
		func(c *Config) { c.CopyLatency = 0 },
		func(c *Config) { c.DCachePorts = 0 },
		func(c *Config) { c.Mem.L1D.LineBytes = 33 },
		func(c *Config) { c.Mode = IQFIFO; c.Clusters[0].FIFOs = 0 },
	}
	for i, mutate := range mutations {
		c := Clustered()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestValidateFetchQueue(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth func(c *Config) int
		ok    bool
	}{
		{"zero", func(*Config) int { return 0 }, false},
		{"below fetch width", func(c *Config) int { return c.FetchWidth - 1 }, false},
		{"fetch width", func(c *Config) int { return c.FetchWidth }, true},
		{"not a power of two", func(c *Config) int { return c.FetchWidth + 3 }, true},
		{"cap", func(*Config) int { return MaxFetchQueue }, true},
		{"above cap", func(*Config) int { return MaxFetchQueue + 1 }, false},
	} {
		for _, c := range []*Config{Clustered(), ClusteredN(8)} {
			c.FetchQueue = tc.depth(c)
			err := c.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("%s: FetchQueue %d (%s): Validate() = %v, want ok=%v", c.Name, c.FetchQueue, tc.name, err, tc.ok)
			}
		}
	}
}

// TestPresetFetchQueue pins the presets' fetch-queue depth to four fetch
// groups, and checks it covers a full decode group in every front-end
// pipeline stage, so the bound alone never starves dispatch.
func TestPresetFetchQueue(t *testing.T) {
	presets := []*Config{Clustered(), Base(), UpperBound(), FIFOClustered(), Symmetric()}
	for n := 1; n <= MaxClusters; n++ {
		presets = append(presets, ClusteredN(n), ClusteredNRing(n), ClusteredNFIFO(n))
	}
	for _, c := range presets {
		if c.FetchQueue != 4*c.FetchWidth {
			t.Errorf("%s: FetchQueue %d, want 4 x FetchWidth = %d", c.Name, c.FetchQueue, 4*c.FetchWidth)
		}
		if need := c.DecodeWidth * (c.FrontEndDepth + 1); c.FetchQueue < need {
			t.Errorf("%s: FetchQueue %d < DecodeWidth x (FrontEndDepth+1) = %d", c.Name, c.FetchQueue, need)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	if c := Clustered(); c.FetchQueue != 32 {
		t.Errorf("paper machine FetchQueue %d, want 32", c.FetchQueue)
	}
}

func TestSymmetricClustersAreIdentical(t *testing.T) {
	c := Symmetric()
	if c.NumClusters() != 2 {
		t.Fatal("symmetric machine must have 2 clusters")
	}
	if c.Clusters[0] != c.Clusters[1] {
		t.Errorf("clusters differ: %+v vs %+v", c.Clusters[0], c.Clusters[1])
	}
	if c.Clusters[0].ComplexIntUnits == 0 || c.Clusters[0].FPALUs == 0 {
		t.Error("symmetric clusters must be fully equipped")
	}
}

func TestDefaultLatencies(t *testing.T) {
	l := DefaultLatencies()
	if l.SimpleInt != 1 || l.IntMul != 3 || l.IntDiv != 20 {
		t.Errorf("integer latencies wrong: %+v", l)
	}
	if l.FPALU != 2 || l.FPMul != 4 || l.FPDiv != 12 {
		t.Errorf("FP latencies wrong: %+v", l)
	}
}
