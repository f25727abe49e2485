// Package config defines the machine parameters of the simulated processor.
// The defaults reproduce Table 2 of Canal, Parcerisa and González (HPCA
// 2000); presets build the paper's three machines — the conventional base,
// the two-cluster machine the steering schemes run on, and the 16-way
// upper-bound processor of Figure 14 — plus generalized N-cluster machines
// (ClusteredN) with configurable inter-cluster topologies (ring, crossbar)
// for scaling studies beyond the paper's evaluation.
package config

import (
	"fmt"

	"repro/internal/mem"
)

// MaxClusters bounds the cluster count a configuration may declare. The
// steering structures (map-table entries, per-source location masks) size
// their fixed arrays with it.
const MaxClusters = 8

// MaxFetchQueue caps Config.FetchQueue. The fetch queue is allocated once
// per machine (and copied by every warm-state checkpoint), so an absurd
// depth must fail validation rather than size a huge ring; the cap is
// eight times the deepest preset's (ClusteredN(MaxClusters): 128).
const MaxFetchQueue = 1024

// IQMode selects the issue-queue organization of a cluster.
type IQMode int

const (
	// IQOutOfOrder is a fully associative window: any ready instruction
	// may issue (the paper's main schemes).
	IQOutOfOrder IQMode = iota
	// IQFIFO models the Palacharla/Jouppi/Smith organization: a set of
	// FIFOs from whose heads instructions issue (Figure 16's comparison).
	IQFIFO
)

// Cluster describes one cluster's datapath.
type Cluster struct {
	// SimpleIntALUs count the single-cycle integer/logic units.
	SimpleIntALUs int `json:"SimpleIntALUs"`
	// ComplexIntUnits count integer multiply/divide units.
	ComplexIntUnits int `json:"ComplexIntUnits"`
	// FPALUs count pipelined FP add/compare units.
	FPALUs int `json:"FPALUs"`
	// FPMulDivUnits count FP multiply/divide units.
	FPMulDivUnits int `json:"FPMulDivUnits"`
	// IssueWidth is the per-cluster issue bandwidth (copies included).
	IssueWidth int `json:"IssueWidth"`
	// IQSize is the instruction queue capacity.
	IQSize int `json:"IQSize"`
	// PhysRegs is the physical register file size.
	PhysRegs int `json:"PhysRegs"`
	// FIFOs and FIFODepth configure the queue when Mode is IQFIFO.
	FIFOs     int `json:"FIFOs"`
	FIFODepth int `json:"FIFODepth"`
}

// Latencies gives execution latencies in cycles per operation group.
type Latencies struct {
	SimpleInt int `json:"SimpleInt"` // add/logic/shift/compare, EA computation
	IntMul    int `json:"IntMul"`
	IntDiv    int `json:"IntDiv"` // unpipelined
	FPALU     int `json:"FPALU"`  // add/sub/compare/convert/move
	FPMul     int `json:"FPMul"`
	FPDiv     int `json:"FPDiv"` // unpipelined
}

// DefaultLatencies returns SimpleScalar's default functional-unit timings,
// which the paper's framework inherits.
func DefaultLatencies() Latencies {
	return Latencies{SimpleInt: 1, IntMul: 3, IntDiv: 20, FPALU: 2, FPMul: 4, FPDiv: 12}
}

// Config is the full machine description.
type Config struct {
	// Name labels the configuration in reports.
	Name string `json:"Name"`

	// FetchWidth, DecodeWidth and RetireWidth are the front/back-end
	// bandwidths (Table 2: 8 each).
	FetchWidth  int `json:"FetchWidth"`
	DecodeWidth int `json:"DecodeWidth"`
	RetireWidth int `json:"RetireWidth"`
	// MaxInFlight bounds simultaneously in-flight instructions (ROB size).
	MaxInFlight int `json:"MaxInFlight"`
	// FrontEndDepth is the fetch-to-dispatch pipeline depth in cycles; it
	// sets the refill portion of the misprediction penalty.
	FrontEndDepth int `json:"FrontEndDepth"`
	// FetchQueue is the depth of the fetch (decode) queue between fetch
	// and dispatch, in instructions: fetch stops while it is full. The
	// presets use 4×FetchWidth, which is at least DecodeWidth ×
	// (FrontEndDepth+1), so the bound alone never starves dispatch.
	FetchQueue int `json:"FetchQueue"`

	// Clusters holds one entry per cluster (at most MaxClusters). On the
	// paper's machines index 0 is the integer cluster and index 1 (when
	// present) the FP cluster; N-cluster machines use symmetric clusters.
	Clusters []Cluster `json:"Clusters"`
	// Mode selects the issue-queue organization (all clusters).
	Mode IQMode `json:"Mode"`

	// InterClusterBuses is the number of communications per cycle per
	// direction (Table 2: 3). Zero disables inter-cluster copies (the
	// base machine).
	InterClusterBuses int `json:"InterClusterBuses"`
	// CopyLatency is the bus traversal time in cycles between any two
	// clusters (paper: 1). CopyDist, when set, overrides it per pair.
	CopyLatency int `json:"CopyLatency"`
	// CopyDist, when non-nil, is the full inter-cluster latency matrix:
	// CopyDist[from][to] is the copy latency in cycles from cluster
	// `from` to cluster `to`. It must be NumClusters×NumClusters with a
	// zero diagonal and positive off-diagonal entries. RingDistances and
	// CrossbarDistances build the two standard topologies. Nil means the
	// uniform CopyLatency (the paper's point-to-point 2-cluster fabric).
	CopyDist [][]int `json:"CopyDist"`
	// FPClusterSimpleInt reports whether the FP cluster can execute
	// simple integer operations (true for the clustered machine, false
	// for the conventional base).
	FPClusterSimpleInt bool `json:"FPClusterSimpleInt"`

	// DCachePorts is the number of L1D read/write ports (Table 2: 3).
	DCachePorts int `json:"DCachePorts"`

	// Lat holds the functional-unit latencies.
	Lat Latencies `json:"Lat"`

	// Mem configures the cache hierarchy.
	Mem mem.HierarchyConfig `json:"Mem"`

	// BTBSets, BTBAssoc and RASEntries configure indirect-target
	// prediction.
	BTBSets    int `json:"BTBSets"`
	BTBAssoc   int `json:"BTBAssoc"`
	RASEntries int `json:"RASEntries"`
}

// NumClusters returns the cluster count.
func (c *Config) NumClusters() int { return len(c.Clusters) }

// CopyLatencyBetween returns the inter-cluster copy latency from cluster
// `from` to cluster `to`: the CopyDist matrix entry when a topology is
// configured, the uniform CopyLatency otherwise.
func (c *Config) CopyLatencyBetween(from, to int) int {
	if c.CopyDist != nil {
		return c.CopyDist[from][to]
	}
	return c.CopyLatency
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if len(c.Clusters) < 1 || len(c.Clusters) > MaxClusters {
		return fmt.Errorf("config %s: %d clusters unsupported (want 1..%d)", c.Name, len(c.Clusters), MaxClusters)
	}
	if c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("config %s: non-positive pipeline widths", c.Name)
	}
	if c.MaxInFlight <= 0 {
		return fmt.Errorf("config %s: MaxInFlight must be positive", c.Name)
	}
	// A queue shallower than one fetch group could never accept a full
	// group; the cap keeps the once-allocated ring small.
	if c.FetchQueue < c.FetchWidth || c.FetchQueue > MaxFetchQueue {
		return fmt.Errorf("config %s: FetchQueue %d out of range (want FetchWidth %d..%d)",
			c.Name, c.FetchQueue, c.FetchWidth, MaxFetchQueue)
	}
	for i, cl := range c.Clusters {
		if cl.IssueWidth <= 0 || cl.IQSize <= 0 || cl.PhysRegs <= 0 {
			return fmt.Errorf("config %s: cluster %d has non-positive resources", c.Name, i)
		}
		if c.Mode == IQFIFO && (cl.FIFOs <= 0 || cl.FIFODepth <= 0) {
			return fmt.Errorf("config %s: cluster %d FIFO geometry missing", c.Name, i)
		}
		// Physical registers must cover the committed architectural state
		// plus at least one in-flight rename or dispatch can deadlock.
		if cl.PhysRegs < 64+1 {
			return fmt.Errorf("config %s: cluster %d needs at least 65 physical registers", c.Name, i)
		}
	}
	if len(c.Clusters) > 1 && c.InterClusterBuses > 0 && c.CopyDist == nil && c.CopyLatency <= 0 {
		return fmt.Errorf("config %s: CopyLatency must be positive with buses enabled", c.Name)
	}
	if c.CopyDist != nil {
		n := len(c.Clusters)
		if len(c.CopyDist) != n {
			return fmt.Errorf("config %s: CopyDist has %d rows, want %d", c.Name, len(c.CopyDist), n)
		}
		for i, row := range c.CopyDist {
			if len(row) != n {
				return fmt.Errorf("config %s: CopyDist row %d has %d entries, want %d", c.Name, i, len(row), n)
			}
			for j, d := range row {
				if i == j && d != 0 {
					return fmt.Errorf("config %s: CopyDist[%d][%d] = %d, diagonal must be zero", c.Name, i, j, d)
				}
				if i != j && d <= 0 {
					return fmt.Errorf("config %s: CopyDist[%d][%d] = %d, off-diagonal must be positive", c.Name, i, j, d)
				}
			}
		}
	}
	if c.DCachePorts <= 0 {
		return fmt.Errorf("config %s: DCachePorts must be positive", c.Name)
	}
	for _, f := range []mem.Config{c.Mem.L1I, c.Mem.L1D, c.Mem.L2} {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("config %s: %w", c.Name, err)
		}
	}
	return nil
}

// Clustered returns the paper's two-cluster machine (Table 2): 8-wide
// fetch/decode/retire, a 32-entry fetch queue, 64 in-flight, two clusters
// with 64-entry queues,
// 4-wide issue, 96 physical registers each; cluster 1 has 3 simple ALUs and
// the integer mul/div, cluster 2 has 3 simple ALUs, 3 FP ALUs and the FP
// mul/div; 3 buses per direction with 1-cycle copies.
func Clustered() *Config {
	return &Config{
		Name:          "clustered",
		FetchWidth:    8,
		DecodeWidth:   8,
		RetireWidth:   8,
		MaxInFlight:   64,
		FrontEndDepth: 2,
		FetchQueue:    32,
		Clusters: []Cluster{
			{SimpleIntALUs: 3, ComplexIntUnits: 1, IssueWidth: 4, IQSize: 64, PhysRegs: 96, FIFOs: 8, FIFODepth: 8},
			{SimpleIntALUs: 3, FPALUs: 3, FPMulDivUnits: 1, IssueWidth: 4, IQSize: 64, PhysRegs: 96, FIFOs: 8, FIFODepth: 8},
		},
		InterClusterBuses:  3,
		CopyLatency:        1,
		FPClusterSimpleInt: true,
		DCachePorts:        3,
		Lat:                DefaultLatencies(),
		Mem:                mem.DefaultHierarchyConfig(),
		BTBSets:            512,
		BTBAssoc:           4,
		RASEntries:         32,
	}
}

// Base returns the conventional microarchitecture the paper measures
// speed-ups against: the same resources as Clustered but with no simple
// integer units in the FP cluster and no inter-cluster bypasses. Integer
// programs therefore run entirely on cluster 1. The rare integer↔FP
// register transfers that remain (conversions, FP loads' address operands)
// travel through memory in a real machine; they are modeled with a 4-cycle
// transfer (see DESIGN.md).
func Base() *Config {
	c := Clustered()
	c.Name = "base"
	// One simple ALU remains as the FP pipeline's address-generation unit:
	// a conventional FP datapath computes FP-load/store addresses even
	// though it executes no general integer code (FPClusterSimpleInt=false
	// keeps the steering from sending any there).
	c.Clusters[1].SimpleIntALUs = 1
	c.FPClusterSimpleInt = false
	c.InterClusterBuses = 1
	c.CopyLatency = 4
	return c
}

// UpperBound returns Figure 14's reference machine: a single 16-way-issue
// processor (8-way integer + 8-way FP) with no partitioning and therefore
// no communication penalty. Its integer throughput matches the clustered
// machine's combined width.
func UpperBound() *Config {
	c := Clustered()
	c.Name = "upper-bound"
	c.Clusters = []Cluster{{
		SimpleIntALUs:   6,
		ComplexIntUnits: 1,
		FPALUs:          3,
		FPMulDivUnits:   1,
		IssueWidth:      16,
		IQSize:          128,
		PhysRegs:        192,
		FIFOs:           16,
		FIFODepth:       8,
	}}
	c.MaxInFlight = 64
	c.InterClusterBuses = 0
	c.FPClusterSimpleInt = true
	return c
}

// Symmetric returns a two-cluster machine with identical, fully equipped
// clusters — the "generic clustered architecture with symmetric clusters"
// the paper's conclusions claim the schemes extend to. Every instruction
// class can execute in either cluster, so steering is fully unconstrained
// (the FP-register file is still split per cluster in hardware terms; the
// simulator models the symmetric case by allowing FP mappings in both).
func Symmetric() *Config {
	c := Clustered()
	c.Name = "symmetric"
	for i := range c.Clusters {
		c.Clusters[i] = Cluster{
			SimpleIntALUs:   3,
			ComplexIntUnits: 1,
			FPALUs:          2,
			FPMulDivUnits:   1,
			IssueWidth:      4,
			IQSize:          64,
			PhysRegs:        96,
			FIFOs:           8,
			FIFODepth:       8,
		}
	}
	return c
}

// FIFOClustered returns the clustered machine with the issue queues
// organized as 8 FIFOs of depth 8 per cluster, for the Figure 16
// comparison with Palacharla/Jouppi/Smith's steering.
func FIFOClustered() *Config {
	c := Clustered()
	c.Name = "clustered-fifo"
	c.Mode = IQFIFO
	return c
}

// CrossbarDistances builds the copy-latency matrix of a full crossbar: every
// cluster reaches every other in hopLatency cycles. It reproduces the
// uniform CopyLatency behaviour in matrix form and is the default fabric of
// ClusteredN.
func CrossbarDistances(n, hopLatency int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = hopLatency
			}
		}
	}
	return m
}

// RingDistances builds the copy-latency matrix of a bidirectional ring:
// the latency between two clusters is their minimal hop count around the
// ring times hopLatency. Rings are the cheapest fabric to lay out and the
// one whose communication cost grows with cluster count, which is what
// makes the N-cluster steering trade-off interesting.
func RingDistances(n, hopLatency int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			if i == j {
				continue
			}
			hops := i - j
			if hops < 0 {
				hops = -hops
			}
			if around := n - hops; around < hops {
				hops = around
			}
			m[i][j] = hops * hopLatency
		}
	}
	return m
}

// ClusteredN returns an N-cluster machine for the scaling studies the
// paper's conclusions point at: n identical, fully equipped clusters (each
// the Symmetric cluster: every instruction class can execute anywhere, so
// steering is fully unconstrained), connected by a single-hop crossbar with
// 1-cycle copies. The front-end width, fetch queue and in-flight window
// scale with the cluster count so added clusters receive added supply
// (4-wide fetch, a 16-entry fetch-queue share and a 32-entry window share
// per cluster, matching the paper's machine at n = 2).
// Swap CopyDist for RingDistances(n, CopyLatency) to study a ring fabric.
func ClusteredN(n int) *Config {
	c := Clustered()
	c.Name = fmt.Sprintf("clustered-%d", n)
	c.FetchWidth = 4 * n
	c.DecodeWidth = 4 * n
	c.RetireWidth = 4 * n
	c.FetchQueue = 16 * n
	c.MaxInFlight = 32 * n
	c.Clusters = make([]Cluster, n)
	for i := range c.Clusters {
		c.Clusters[i] = Cluster{
			SimpleIntALUs:   3,
			ComplexIntUnits: 1,
			FPALUs:          2,
			FPMulDivUnits:   1,
			IssueWidth:      4,
			IQSize:          64,
			PhysRegs:        96,
			FIFOs:           8,
			FIFODepth:       8,
		}
	}
	c.CopyDist = CrossbarDistances(n, c.CopyLatency)
	return c
}

// ClusteredNRing returns ClusteredN on a bidirectional ring instead of the
// crossbar: copies between opposite clusters pay up to ⌊n/2⌋ hops.
func ClusteredNRing(n int) *Config {
	c := ClusteredN(n)
	c.Name = fmt.Sprintf("clustered-%d-ring", n)
	c.CopyDist = RingDistances(n, c.CopyLatency)
	return c
}

// ClusteredNFIFO returns ClusteredN with the issue queues organized as
// FIFOs (the N-cluster analog of FIFOClustered), for FIFO-based steering
// on larger machines.
func ClusteredNFIFO(n int) *Config {
	c := ClusteredN(n)
	c.Name = fmt.Sprintf("clustered-%d-fifo", n)
	c.Mode = IQFIFO
	return c
}
