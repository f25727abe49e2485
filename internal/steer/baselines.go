package steer

import (
	"math/bits"

	"repro/internal/core"
)

// Operand is a decomposition baseline, not a paper scheme: pure
// operand-following with no balance machinery. Steering rule: an
// instruction goes to the cluster where most of its operands live, ties to
// the lowest-numbered cluster. Comparing it with General (§3.8) isolates
// how much of the general-balance gain comes from communication avoidance
// alone versus the imbalance counters.
type Operand struct {
	core.NopSteerer
}

// NewOperand returns the operand-following baseline.
func NewOperand() *Operand { return &Operand{} }

// Name implements core.Steerer.
func (*Operand) Name() string { return "operand" }

// Steer implements core.Steerer.
//
//dca:hotpath
func (*Operand) Steer(info *core.SteerInfo) core.ClusterID {
	if info.Forced != core.AnyCluster {
		return info.Forced
	}
	// The lowest-numbered cluster of the operand-majority set.
	m := operandMajority(info, firstClusters(info.Clusters()))
	return core.ClusterID(bits.TrailingZeros8(uint8(m)))
}

// Random is the second decomposition baseline, not a paper scheme.
// Steering rule: steerable instructions pick a cluster uniformly at random
// (deterministic xorshift): like modulo (§3.6) it ignores dependences, but
// without modulo's perfect short-term balance. It bounds how much of
// modulo's behaviour is the alternation itself.
type Random struct {
	core.NopSteerer
	state uint64
}

// NewRandom returns the deterministic random baseline.
func NewRandom(seed uint64) *Random { return &Random{state: seed | 1} }

// Name implements core.Steerer.
func (*Random) Name() string { return "random" }

// Steer implements core.Steerer.
//
//dca:hotpath
func (s *Random) Steer(info *core.SteerInfo) core.ClusterID {
	if info.Forced != core.AnyCluster {
		return info.Forced
	}
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return core.ClusterID(s.state % uint64(info.Clusters()))
}
