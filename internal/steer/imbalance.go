// Package steer implements the dynamic cluster-assignment policies of
// Canal, Parcerisa and González (HPCA 2000), Section 3: slice steering,
// non-slice balance steering, slice balance steering, priority slice
// balance steering, general balance steering, modulo steering, the
// FIFO-based scheme of Palacharla/Jouppi/Smith, and a profile-based
// re-creation of Sastry/Palacharla/Smith's static partitioning.
//
// Policies implement the core.Steerer interface: the pipeline calls Steer
// for every program instruction in decode order, plus per-cycle and
// resolution hooks that feed the balance and criticality machinery.
//
// The balance machinery is generalized from the paper's two clusters to N
// (Params.Clusters): each cluster keeps its own workload counter, and the
// paper's signed imbalance counter is recovered as the pairwise difference
// of counters — on a two-cluster machine every decision is bit-identical
// to the original signed-delta formulation.
package steer

import "repro/internal/core"

// Params carries the tunable constants of the balance machinery. The
// paper's empirically chosen values are the defaults.
type Params struct {
	// Threshold is the strong-imbalance cutoff on the combined counter
	// (paper: 8).
	Threshold int `json:"Threshold"`
	// Window is the number of cycles the instantaneous imbalance metric
	// I2 is averaged over (paper: N=16).
	Window int `json:"Window"`
	// Epoch is the criticality-threshold adjustment period in cycles for
	// the priority scheme (paper: 8192).
	Epoch uint64 `json:"Epoch"`
	// CriticalFraction is the target fraction of instructions in critical
	// slices (paper: 0.5).
	CriticalFraction float64 `json:"CriticalFraction"`
	// IssueWidth is the per-cluster issue width the I2 metric compares
	// ready counts against (Table 2: 4).
	IssueWidth int `json:"IssueWidth"`
	// Clusters is the cluster count of the machine the policy will steer
	// for; 0 means the paper's two. It must match the config.Config the
	// core.Machine runs (job.Spec.Plan sets it from the planned machine,
	// so every grid and CLI keeps them in sync).
	Clusters int `json:"Clusters"`
	// UseI1 and UseI2 optionally disable one component of the combined
	// imbalance metric for the ablation study (nil or true = enabled).
	UseI1 *bool `json:"UseI1"`
	UseI2 *bool `json:"UseI2"`
}

// DefaultParams returns the paper's constants (on the paper's two-cluster
// machine).
func DefaultParams() Params {
	return Params{Threshold: 8, Window: 16, Epoch: 8192, CriticalFraction: 0.5, IssueWidth: 4, Clusters: 2}
}

// clusterCount normalizes Params.Clusters (0 → the paper's 2).
//
//dca:hotpath
func (p Params) clusterCount() int {
	if p.Clusters < 1 {
		return 2
	}
	return p.Clusters
}

// imbalance implements Section 3.5's workload-imbalance estimation,
// generalized to N clusters. Each cluster c carries two counters:
//
//   - I2: its ready-instruction count, recorded only on cycles when some
//     cluster has more ready instructions than its issue width while
//     another has fewer (otherwise every cluster issues at full rate and
//     the workload is considered balanced), averaged over the last Window
//     cycles;
//   - I1: the number of instructions steered to the cluster, incremented
//     as each instruction is steered — so every instruction decoded in the
//     same cycle sees a different balance value and massed same-cluster
//     steerings are avoided (Section 3.5's wording). Because it is
//     cumulative, policies that react to it alternate clusters in
//     hysteresis-band-sized chunks.
//
// Decisions read the counters only through pairwise differences
// (delta(c, o) = avg(I2[c]) − avg(I2[o]) + I1[c] − I1[o], with the window
// average taken over the difference so integer truncation matches the
// original), which on a two-cluster machine reduces exactly to the
// paper's single signed counter: delta(FP, Int) is the combined counter,
// positive when the FP cluster is the more loaded one.
type imbalance struct {
	p      Params
	n      int
	window [][]int // per cluster: Window gated ready-count samples
	sum    []int   // per cluster: running window sum
	idx    int
	filled int
	i1     []int
	useI1  bool
	useI2  bool
}

func newImbalance(p Params) *imbalance {
	n := p.clusterCount()
	im := &imbalance{p: p, n: n, sum: make([]int, n), i1: make([]int, n), useI1: true, useI2: true}
	im.window = make([][]int, n)
	for c := range im.window {
		im.window[c] = make([]int, p.Window)
	}
	if p.UseI1 != nil {
		im.useI1 = *p.UseI1
	}
	if p.UseI2 != nil {
		im.useI2 = *p.UseI2
	}
	return im
}

// onCycle records the cycle's instantaneous I2 samples. Ready counts are
// recorded only when at least one cluster is above its issue width and at
// least one below (the paper's gate: otherwise all clusters issue at full
// rate); ungated cycles record zeros, decaying the window average.
//
//dca:hotpath
func (im *imbalance) onCycle(ready []int) {
	width := im.p.IssueWidth
	gated := false
	if im.useI2 {
		over, under := false, false
		for c := 0; c < im.n; c++ {
			r := 0
			if c < len(ready) {
				r = ready[c]
			}
			if r > width {
				over = true
			}
			if r < width {
				under = true
			}
		}
		gated = over && under
	}
	for c := 0; c < im.n; c++ {
		sample := 0
		if gated && c < len(ready) {
			sample = ready[c]
		}
		im.sum[c] -= im.window[c][im.idx]
		im.window[c][im.idx] = sample
		im.sum[c] += sample
	}
	im.idx = (im.idx + 1) % im.p.Window
	if im.filled < im.p.Window {
		im.filled++
	}
}

// onSteer adjusts the steered-count counter for one steered instruction.
// The counters are saturating hardware counters: a cluster's count may
// exceed the least-loaded cluster's by at most 4×threshold, so a long
// one-sided phase (e.g. a large slice pinned to one cluster) cannot wind
// the difference up beyond what a few balancing cycles can work off. The
// counters are renormalized so their minimum stays at zero (differences,
// the only thing decisions read, are unaffected).
//
// Because the minimum is zero between calls (the counters start at zero
// and every call restores it), the clamp reads the counter alone, and only
// an increment of a zero counter can raise the minimum: when no other
// counter is zero it is now one, and one pass lowers every counter by one.
//
//dca:hotpath
func (im *imbalance) onSteer(c core.ClusterID) {
	if !im.useI1 || c < 0 || int(c) >= im.n {
		return
	}
	v := im.i1[c]
	if v >= 4*im.p.Threshold {
		return
	}
	im.i1[c] = v + 1
	if v != 0 {
		return
	}
	for _, x := range im.i1 {
		if x == 0 {
			return
		}
	}
	for i := range im.i1 {
		im.i1[i]--
	}
}

// delta returns the combined imbalance counter read pairwise: positive
// when cluster c is more loaded than cluster o. The window average is
// computed on the difference of sums, reproducing the truncated integer
// division of the paper's single-counter hardware.
//
//dca:hotpath
func (im *imbalance) delta(c, o core.ClusterID) int {
	avg := 0
	if im.filled > 0 {
		avg = (im.sum[c] - im.sum[o]) / im.filled
	}
	return avg + im.i1[c] - im.i1[o]
}

// deltaGE reports delta(c, o) >= a without the integer division (the
// division dominated the steering cost on wide machines when every
// cluster pair was compared per steered instruction; strongInBand and
// overloaded still call it). It reproduces delta's
// truncated-toward-zero semantics exactly:
// with q = trunc(ds/f), q >= b reduces to ds >= b*f when ds >= 0 (floor)
// and to ds > (b-1)*f when ds < 0 (ceiling). TestDeltaComparisons pins the
// equivalence against the division form.
//
//dca:hotpath
func (im *imbalance) deltaGE(c, o core.ClusterID, a int) bool {
	di := im.i1[c] - im.i1[o]
	if im.filled == 0 {
		return di >= a
	}
	ds := im.sum[c] - im.sum[o]
	b := a - di
	if ds >= 0 {
		return ds >= b*im.filled
	}
	return ds > (b-1)*im.filled
}

// value returns the two-cluster reading of the counter — delta(FP, Int),
// the paper's combined imbalance counter (positive = FP cluster more
// loaded). It is only meaningful on two clusters; N-cluster decisions use
// delta/leastLoaded directly.
//
//dca:hotpath
func (im *imbalance) value() int {
	return im.delta(core.FPCluster, core.IntCluster)
}

// key returns cluster c's load key, K_c = sum_c + i1_c·filled: filled
// times the cluster's combined counter before the window average's
// truncation. With the window still empty it is the I1 count alone
// (delta then reads I1 only). Key differences bound the pairwise counter
// from both sides (see strong and lighter), which is what makes the
// balance tests linear in the cluster count.
//
//dca:hotpath
func (im *imbalance) key(c int) int {
	if im.filled == 0 {
		return im.i1[c]
	}
	return im.sum[c] + im.i1[c]*im.filled
}

// strong reports whether any pair of clusters differs by at least the
// threshold (on two clusters: |combined counter| ≥ threshold). It makes
// one pass for the largest and smallest key: delta(c, o) ≥ T requires
// K_c − K_o > (T−1)·filled and is implied by K_c − K_o ≥ T·filled
// (DESIGN.md, "Linear-time balance tests"), so the key spread decides
// every state except one strictly between those bounds, which falls back
// to the pairwise test. With an empty window the keys are the I1 counts
// and their spread is exact.
//
//dca:hotpath
func (im *imbalance) strong() bool {
	if im.n < 2 {
		return false
	}
	lo, hi := im.key(0), im.key(0)
	for c := 1; c < im.n; c++ {
		k := im.key(c)
		lo, hi = min(lo, k), max(hi, k)
	}
	t, f := im.p.Threshold, im.filled
	spread := hi - lo
	if f == 0 {
		return spread >= t
	}
	switch {
	case spread >= t*f:
		return true
	case spread <= (t-1)*f:
		return false
	}
	return im.strongInBand(lo, hi)
}

// strongInBand decides strong for a key spread strictly between
// (T−1)·filled and T·filled (lo and hi are the smallest and largest key)
// with the pairwise test, deltaGE, on the only ordered pairs (c, o) that
// can pass it: delta(c, o) ≥ T requires K_c − K_o > (T−1)·filled, so K_c
// must exceed lo + (T−1)·filled and K_o must stay below
// hi − (T−1)·filled.
//
//dca:hotpath
func (im *imbalance) strongInBand(lo, hi int) bool {
	t := im.p.Threshold
	d := (t - 1) * im.filled
	for c := 0; c < im.n; c++ {
		if im.key(c) <= lo+d {
			continue
		}
		for o := 0; o < im.n; o++ {
			if o != c && im.key(o) < hi-d && im.deltaGE(core.ClusterID(c), core.ClusterID(o), t) {
				return true
			}
		}
	}
	return false
}

// allClusters returns the candidate set holding every cluster of the
// machine.
//
//dca:hotpath
func (im *imbalance) allClusters() core.ClusterSet {
	return firstClusters(im.n)
}

// firstClusters returns the set of clusters 0..n−1.
//
//dca:hotpath
func firstClusters(n int) core.ClusterSet {
	return core.ClusterSet(1<<uint(n)) - 1
}

// overloaded reports whether cluster c is currently on the loaded side of
// the counters: strictly more loaded than the least-loaded cluster.
//
//dca:hotpath
func (im *imbalance) overloaded(c core.ClusterID) bool {
	if c < 0 || int(c) >= im.n {
		return false
	}
	return im.deltaGE(c, im.leastLoaded(im.allClusters(), nil), 1)
}

// readyAt reads the ready count for cluster c, treating a short or nil
// slice as zero.
//
//dca:hotpath
func readyAt(ready []int, c core.ClusterID) int {
	if int(c) < len(ready) {
		return ready[c]
	}
	return 0
}

// lighter reports delta(c, o) < 0 from the two clusters' keys and window
// sums: with ds = sum_c − sum_o, a non-negative ds truncates like a floor,
// so the counter is negative iff K_c < K_o; a negative ds truncates like a
// ceiling, so it is negative iff K_c ≤ K_o − filled. With an empty window
// the keys are the I1 counts, compared directly.
//
//dca:hotpath
func (im *imbalance) lighter(kc, sc, ko, so int) bool {
	if im.filled == 0 || sc >= so {
		return kc < ko
	}
	return kc <= ko-im.filled
}

// leastLoaded returns the cluster of the candidate set the counters say
// has the most spare capacity: a candidate replaces the incumbent when the
// pairwise counter says it is strictly less loaded, or on a counter tie
// when it has strictly fewer raw ready instructions (the lowest cluster
// index wins after that). Each candidate's key is computed once and
// compared exactly (lighter), so the scan is one pass. It runs once per
// steered instruction, so it stays closure- and allocation-free.
//
//dca:hotpath
func (im *imbalance) leastLoaded(cands core.ClusterSet, ready []int) core.ClusterID {
	best := core.AnyCluster
	var bestK, bestS int
	for i := 0; i < im.n; i++ {
		c := core.ClusterID(i)
		if !cands.Has(c) {
			continue
		}
		k, s := im.key(i), im.sum[i]
		switch {
		case best == core.AnyCluster, im.lighter(k, s, bestK, bestS):
		case !im.lighter(bestK, bestS, k, s) && readyAt(ready, c) < readyAt(ready, best):
		default:
			continue
		}
		best, bestK, bestS = c, k, s
	}
	return best
}
