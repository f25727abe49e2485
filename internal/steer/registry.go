package steer

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/prog"
)

// Names lists every registered scheme identifier, sorted. The identifiers
// match the paper's terminology:
//
//	naive           conventional int/FP split (the base machine's rule)
//	modulo          alternate clusters (§3.6's balance control)
//	ldst-slice      LdSt slice steering (§3.3)
//	br-slice        Br slice steering (§3.4)
//	ldst-nonslice   non-slice balance steering over the LdSt slice (§3.5)
//	br-nonslice     non-slice balance steering over the Br slice (§3.5)
//	ldst-slicebal   slice balance steering, LdSt slices (§3.6)
//	br-slicebal     slice balance steering, Br slices (§3.6)
//	ldst-priority   priority slice balance steering, LdSt slices (§3.7)
//	br-priority     priority slice balance steering, Br slices (§3.7)
//	general         general balance steering (§3.8)
//	fifo            FIFO-based steering of [15] (§3.9): placed by the core's
//	                FIFO mode (config.FIFOClustered), not by the policy
//	static-ldst     Sastry et al.'s static partitioning, profile-derived (§3.3)
//	static-br       the same over branch slices
//	static-ldst-cons  compile-time (flow-insensitive) static partitioning
//	operand         decomposition baseline: operand-following only, no balance
//	random          decomposition baseline: uniform random placement
//
// The balance-based schemes (modulo, nonslice, slicebal, priority, general,
// operand, random) generalize to N-cluster machines via Params.Clusters;
// the slice and static schemes are inherently two-way partitioners (slice
// ↔ integer cluster, rest ↔ cluster 1) and keep that behaviour on larger
// machines. fifo is N-way through the core's FIFO mode
// (config.ClusteredNFIFO).
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var factories = map[string]func(p *prog.Program, params Params) (core.Steerer, error){
	"naive": func(*prog.Program, Params) (core.Steerer, error) {
		return core.NaiveSteerer{}, nil
	},
	"modulo": func(*prog.Program, Params) (core.Steerer, error) {
		return NewModulo(), nil
	},
	"ldst-slice": func(*prog.Program, Params) (core.Steerer, error) {
		return NewSlice(LdStSlice), nil
	},
	"br-slice": func(*prog.Program, Params) (core.Steerer, error) {
		return NewSlice(BrSlice), nil
	},
	"ldst-nonslice": func(_ *prog.Program, p Params) (core.Steerer, error) {
		return NewNonSliceBalance(LdStSlice, p), nil
	},
	"br-nonslice": func(_ *prog.Program, p Params) (core.Steerer, error) {
		return NewNonSliceBalance(BrSlice, p), nil
	},
	"ldst-slicebal": func(_ *prog.Program, p Params) (core.Steerer, error) {
		return NewSliceBalance(LdStSlice, p), nil
	},
	"br-slicebal": func(_ *prog.Program, p Params) (core.Steerer, error) {
		return NewSliceBalance(BrSlice, p), nil
	},
	"ldst-priority": func(_ *prog.Program, p Params) (core.Steerer, error) {
		return NewPriority(LdStSlice, p), nil
	},
	"br-priority": func(_ *prog.Program, p Params) (core.Steerer, error) {
		return NewPriority(BrSlice, p), nil
	},
	"general": func(_ *prog.Program, p Params) (core.Steerer, error) {
		return NewGeneral(p), nil
	},
	"fifo": func(*prog.Program, Params) (core.Steerer, error) {
		return NewFIFOBased(), nil
	},
	"static-ldst": func(pr *prog.Program, _ Params) (core.Steerer, error) {
		return NewStatic(pr, LdStSlice, 0)
	},
	"static-br": func(pr *prog.Program, _ Params) (core.Steerer, error) {
		return NewStatic(pr, BrSlice, 0)
	},
	"static-ldst-cons": func(pr *prog.Program, _ Params) (core.Steerer, error) {
		return NewStaticConservative(pr, LdStSlice), nil
	},
	"operand": func(*prog.Program, Params) (core.Steerer, error) {
		return NewOperand(), nil
	},
	"random": func(*prog.Program, Params) (core.Steerer, error) {
		return NewRandom(0x5EED), nil
	},
}

// Known reports whether name is a registered scheme identifier.
func Known(name string) bool {
	_, ok := factories[name]
	return ok
}

// New builds the named scheme with the paper's default parameters. Schemes
// that need the program (the static partitioner's profiling pass) receive
// p; the rest ignore it.
func New(name string, p *prog.Program) (core.Steerer, error) {
	return NewWithParams(name, p, DefaultParams())
}

// NewWithParams builds the named scheme with explicit balance parameters.
func NewWithParams(name string, p *prog.Program, params Params) (core.Steerer, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("steer: unknown scheme %q (known: %v)", name, Names())
	}
	return f(p, params)
}
