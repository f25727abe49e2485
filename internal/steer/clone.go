package steer

import (
	"maps"

	"repro/internal/core"
)

// This file implements core.CloneableSteerer for every registered scheme,
// so warm-state checkpointing (core's Machine.Checkpoint) can snapshot
// steering tables and balance counters at the warm-up boundary. Warm
// state is scheme-dependent — the slice tables, imbalance windows and
// criticality counters a policy trained during warm-up are part of the
// checkpoint — so each clone must share no mutable state with its source.
// Stateless or frozen-immutable policies return the receiver itself.

// clone deep-copies the imbalance counters: the per-cluster I2 windows,
// their running sums and the I1 steered counts.
func (im *imbalance) clone() *imbalance {
	ni := *im
	ni.sum = append([]int(nil), im.sum...)
	ni.i1 = append([]int(nil), im.i1...)
	ni.window = make([][]int, len(im.window))
	for c := range im.window {
		ni.window[c] = append([]int(nil), im.window[c]...)
	}
	return &ni
}

// clone deep-copies the slice table; the parent table and the scratch
// buffer are arrays, copied with the struct.
func (l sliceLearner) clone() sliceLearner {
	l.ids = maps.Clone(l.ids)
	return l
}

// CloneSteerer implements core.CloneableSteerer (Operand is stateless).
func (s *Operand) CloneSteerer() core.Steerer { return s }

// CloneSteerer implements core.CloneableSteerer.
func (s *Random) CloneSteerer() core.Steerer {
	ns := *s
	return &ns
}

// CloneSteerer implements core.CloneableSteerer.
func (s *Modulo) CloneSteerer() core.Steerer {
	ns := *s
	return &ns
}

// CloneSteerer implements core.CloneableSteerer (FIFOBased is stateless).
func (s *FIFOBased) CloneSteerer() core.Steerer { return s }

// CloneSteerer implements core.CloneableSteerer.
func (s *General) CloneSteerer() core.Steerer {
	return &General{im: s.im.clone()}
}

// CloneSteerer implements core.CloneableSteerer.
func (s *Slice) CloneSteerer() core.Steerer {
	return &Slice{sliceLearner: s.sliceLearner.clone()}
}

// CloneSteerer implements core.CloneableSteerer.
func (s *NonSliceBalance) CloneSteerer() core.Steerer {
	return &NonSliceBalance{sliceLearner: s.sliceLearner.clone(), im: s.im.clone()}
}

// clone deep-copies the slice-balance state (also used by the embedding
// Priority, whose promoted CloneSteerer this keeps correct by overriding).
func (s *SliceBalance) clone() *SliceBalance {
	ns := *s
	ns.sliceLearner = s.sliceLearner.clone()
	ns.im = s.im.clone()
	table := make(map[int]*sliceState, len(s.table))
	for sid, st := range s.table {
		table[sid] = cloneSliceState(st)
	}
	ns.table = table
	return &ns
}

func cloneSliceState(st *sliceState) *sliceState {
	c := *st
	return &c
}

// CloneSteerer implements core.CloneableSteerer.
func (s *SliceBalance) CloneSteerer() core.Steerer { return s.clone() }

// CloneSteerer implements core.CloneableSteerer. It must override the
// implementation promoted from the embedded *SliceBalance, which would
// otherwise drop the epoch and criticality counters.
func (s *Priority) CloneSteerer() core.Steerer {
	ns := *s
	ns.SliceBalance = s.SliceBalance.clone()
	return &ns
}

// CloneSteerer implements core.CloneableSteerer. The per-PC assignment is
// frozen at construction and never mutated, so the receiver is its own
// snapshot.
func (s *Static) CloneSteerer() core.Steerer { return s }
