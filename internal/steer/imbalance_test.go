package steer

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestDeltaComparisons pins the division-free comparison helpers to the
// reference formulation: for every (sum, i1, filled) state, deltaGE and
// deltaSign must agree exactly with the truncated-division delta they
// replace, including negative differences (where Go's division truncates
// toward zero, i.e. takes the ceiling).
func TestDeltaComparisons(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	im := &imbalance{n: 2, sum: make([]int, 2), i1: make([]int, 2)}
	for iter := 0; iter < 200_000; iter++ {
		im.sum[0] = r.Intn(400) - 200
		im.sum[1] = r.Intn(400) - 200
		im.i1[0] = r.Intn(80)
		im.i1[1] = r.Intn(80)
		im.filled = r.Intn(17) // 0 = window not yet filled
		a := r.Intn(41) - 20
		c, o := core.ClusterID(0), core.ClusterID(1)
		if r.Intn(2) == 0 {
			c, o = o, c
		}

		want := im.delta(c, o) >= a
		if got := im.deltaGE(c, o, a); got != want {
			t.Fatalf("deltaGE(%v,%v,%d) = %v, want %v (sum=%v i1=%v filled=%d delta=%d)",
				c, o, a, got, want, im.sum, im.i1, im.filled, im.delta(c, o))
		}

		wantSign := 0
		switch d := im.delta(c, o); {
		case d > 0:
			wantSign = 1
		case d < 0:
			wantSign = -1
		}
		if got := im.deltaSign(c, o); got != wantSign {
			t.Fatalf("deltaSign(%v,%v) = %d, want %d (sum=%v i1=%v filled=%d)",
				c, o, got, wantSign, im.sum, im.i1, im.filled)
		}
	}
}

// The reference forms below are the balance rules as first written: every
// cluster pair compared through deltaGE, and the operand count taken one
// cluster at a time. Production code runs the linear forms; these stay as
// the definitions TestLinearBalanceMatchesPairwise holds them to.

// strongPairwise is strong's definition: some ordered pair of clusters has
// delta ≥ threshold.
func (im *imbalance) strongPairwise() bool {
	for c := 0; c < im.n; c++ {
		for o := c + 1; o < im.n; o++ {
			cc, oo := core.ClusterID(c), core.ClusterID(o)
			if im.deltaGE(cc, oo, im.p.Threshold) || im.deltaGE(oo, cc, im.p.Threshold) {
				return true
			}
		}
	}
	return false
}

// deltaSign returns the sign of delta(c, o) using only deltaGE.
func (im *imbalance) deltaSign(c, o core.ClusterID) int {
	if im.deltaGE(c, o, 1) {
		return 1
	}
	if !im.deltaGE(c, o, 0) {
		return -1
	}
	return 0
}

// leastLoadedRef is leastLoaded with two deltaGE calls per candidate.
func (im *imbalance) leastLoadedRef(cands core.ClusterSet, ready []int) core.ClusterID {
	best := core.AnyCluster
	for i := 0; i < im.n; i++ {
		c := core.ClusterID(i)
		if !cands.Has(c) {
			continue
		}
		if best == core.AnyCluster {
			best = c
			continue
		}
		switch im.deltaSign(c, best) {
		case -1:
			best = c
		case 0:
			if readyAt(ready, c) < readyAt(ready, best) {
				best = c
			}
		}
	}
	return best
}

// onSteerRef is onSteer with the minimum scanned before the increment and
// again before the renormalization.
func (im *imbalance) onSteerRef(c core.ClusterID) {
	if !im.useI1 || c < 0 || int(c) >= im.n {
		return
	}
	lowest := func() int {
		m := im.i1[0]
		for _, v := range im.i1[1:] {
			m = min(m, v)
		}
		return m
	}
	if im.i1[c]-lowest() < 4*im.p.Threshold {
		im.i1[c]++
	}
	if m := lowest(); m != 0 {
		for i := range im.i1 {
			im.i1[i] -= m
		}
	}
}

// operandsInRef counts how many sources currently reside in cluster c
// (replicated operands count for every cluster holding them).
func operandsInRef(info *core.SteerInfo, c core.ClusterID) int {
	n := 0
	for i := 0; i < info.NumSrcs; i++ {
		if info.SrcIn[i].Has(c) {
			n++
		}
	}
	return n
}

// operandMajorityRef is the per-cluster majority rule: the clusters with
// the highest operand count.
func operandMajorityRef(info *core.SteerInfo, n int) core.ClusterSet {
	best, cands := 0, core.ClusterSet(0)
	for c := 0; c < n; c++ {
		id := core.ClusterID(c)
		switch k := operandsInRef(info, id); {
		case k > best:
			best, cands = k, core.ClusterSet(0).Add(id)
		case k == best:
			cands = cands.Add(id)
		}
	}
	return cands
}

// TestLinearBalanceMatchesPairwise sweeps counter states from a fixed seed
// — 1 to 8 clusters, thresholds −1, 0, 1, 8 and 33, every fill level of a
// 16-cycle window, I1 or I2 switched off — and requires the linear-time
// strong, leastLoaded, onSteer and operand-majority rules to return
// exactly what the pairwise and per-cluster references return. A third of
// the states are built so the key spread falls strictly between
// (T−1)·filled and T·filled, the band where strong falls back to the
// pairwise test.
func TestLinearBalanceMatchesPairwise(t *testing.T) {
	const window = 16
	thresholds := []int{-1, 0, 1, 8, 33}
	r := rand.New(rand.NewSource(20000))
	var band, bandStrong, strongTrue int
	for iter := 0; iter < 150_000; iter++ {
		inBand := iter%3 == 0
		n := 1 + r.Intn(8)
		th := thresholds[r.Intn(len(thresholds))]
		filled := r.Intn(window + 1)
		useI1, useI2 := r.Intn(4) != 0, r.Intn(4) != 0
		if inBand {
			// The band is empty unless T ≥ 1, filled ≥ 2 and two
			// clusters can differ.
			n = 2 + r.Intn(7)
			th = thresholds[2+r.Intn(3)]
			filled = 2 + r.Intn(window-1)
			useI2 = true
		}
		im := newImbalance(Params{Threshold: th, Window: window, IssueWidth: 4, Clusters: n})
		im.filled = filled
		im.useI1 = useI1
		perCycle := []int{1, 2, 4, 12}[r.Intn(4)]
		for c := 0; c < n; c++ {
			if useI1 {
				im.i1[c] = r.Intn(4*max(th, 1) + 1)
			}
			if useI2 && filled > 0 {
				im.sum[c] = r.Intn(perCycle*filled + 1)
			}
		}
		// The I1 counters' minimum is zero between onSteer calls.
		lowest := im.i1[0]
		for _, v := range im.i1 {
			lowest = min(lowest, v)
		}
		for c := range im.i1 {
			im.i1[c] -= lowest
		}
		f := filled
		if inBand {
			// Place every key in [base, base+spread] with both ends
			// taken, spread strictly inside ((T−1)·f, T·f).
			spread := (th-1)*f + 1 + r.Intn(f-1)
			base := 4*th*f + r.Intn(f)
			hi, lo := r.Intn(n), r.Intn(n-1)
			if lo >= hi {
				lo++
			}
			keyLo, keyHi := 0, 0
			for c := 0; c < n; c++ {
				off := r.Intn(spread + 1)
				switch c {
				case hi:
					off = spread
				case lo:
					off = 0
				}
				im.sum[c] = base + off - im.i1[c]*f
				if k := im.key(c); c == 0 || k < keyLo {
					keyLo = k
				}
				if k := im.key(c); c == 0 || k > keyHi {
					keyHi = k
				}
			}
			if d := keyHi - keyLo; d <= (th-1)*f || d >= th*f {
				t.Fatalf("band construction missed: spread %d, T=%d filled=%d", d, th, f)
			}
			band++
			if im.strongPairwise() {
				bandStrong++
			}
		}

		want := im.strongPairwise()
		if got := im.strong(); got != want {
			t.Fatalf("strong() = %v, pairwise %v (n=%d T=%d filled=%d sum=%v i1=%v)",
				got, want, n, th, f, im.sum, im.i1)
		}
		if want {
			strongTrue++
		}

		cands := core.ClusterSet(r.Intn(1<<uint(n)-1) + 1)
		var ready []int
		switch r.Intn(3) {
		case 1:
			ready = make([]int, n)
		case 2:
			ready = make([]int, r.Intn(n+1))
		}
		for c := range ready {
			ready[c] = r.Intn(6)
		}
		for _, cs := range []core.ClusterSet{cands, im.allClusters()} {
			if got, want := im.leastLoaded(cs, ready), im.leastLoadedRef(cs, ready); got != want {
				t.Fatalf("leastLoaded(%08b, %v) = %v, reference %v (n=%d filled=%d sum=%v i1=%v)",
					cs, ready, got, want, n, f, im.sum, im.i1)
			}
		}

		info := &core.SteerInfo{NumClusters: n, NumSrcs: r.Intn(3)}
		for i := 0; i < info.NumSrcs; i++ {
			info.SrcIn[i] = core.ClusterSet(r.Intn(256))
			if r.Intn(4) == 0 {
				info.SrcIn[i] = info.SrcIn[0] // the same register read twice
			}
		}
		if got, want := operandMajority(info, im.allClusters()), operandMajorityRef(info, n); got != want {
			t.Fatalf("operandMajority(srcs=%d %08b %08b) = %08b, reference %08b (n=%d)",
				info.NumSrcs, info.SrcIn[0], info.SrcIn[1], got, want, n)
		}

		ref := im.clone()
		c := core.ClusterID(r.Intn(n + 1)) // n = out of range, a no-op
		im.onSteer(c)
		ref.onSteerRef(c)
		for i := range im.i1 {
			if im.i1[i] != ref.i1[i] {
				t.Fatalf("onSteer(%v): i1 = %v, reference %v", c, im.i1, ref.i1)
			}
		}
	}
	// Both outcomes must be exercised, overall and inside the band.
	if band != 50_000 || bandStrong == 0 || bandStrong == band || strongTrue == 0 || strongTrue == 150_000 {
		t.Fatalf("sweep too narrow: %d band states (%d strong), %d of 150000 strong", band, bandStrong, strongTrue)
	}
	t.Logf("%d band states (%d strong), %d of 150000 strong", band, bandStrong, strongTrue)
}
