package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/isa"
)

// The probe seam: the timing core's single observation mechanism. A Probe
// attaches to a machine with SetProbe and receives every pipeline-boundary
// event (fetch, steering decision, dispatch, issue, copy, writeback,
// commit, redirect) plus one sample per simulated cycle. The seam is nil
// by default and every callsite sits behind an `m.probe != nil` guard
// inside a //dca:hotpath helper (the probeguard lint check enforces the
// guard), so a detached machine pays one pointer test per hook and the
// steady-state cycle loop stays allocation-free (TestSteadyStateCycleAllocs).
//
// Probes are passive by contract: they observe reused buffers, never
// mutate machine state, and nothing a probe produces can reach a
// stats.Run or a result digest. The differential harness and the golden
// grid run bit-identical with probes attached and detached
// (TestProbePassivityDifferential, TestGoldenProbeInvariants), which is
// the enforced form of that contract. internal/probe ships the built-in
// implementations (cycle attribution, steering forensics, Konata export
// and the text pipetrace).

// Probe receives the timing core's introspection stream. Implementations
// must be fast — the machine calls them inline from the cycle loop — and
// must not retain the pointed-to buffers across calls: FetchInfo,
// SteerDecision and CycleSample are reused, and a *DynInst is recycled at
// commit.
type Probe interface {
	// Fetch is called once per instruction entering the decode queue.
	Fetch(cycle uint64, f *FetchInfo)
	// Event is called at the pipeline boundaries of the Event enum:
	// dispatch, copy insertion, issue, completion (writeback), commit and
	// fetch redirect.
	Event(cycle uint64, ev Event, d *DynInst)
	// Steer is called once per program instruction, at the single point
	// where the steering decision is made (the first dispatch attempt).
	Steer(dec *SteerDecision)
	// Cycle is called once per simulated cycle, after every stage has run.
	Cycle(s *CycleSample)
}

// SetProbe installs (or, with nil, removes) the machine's probe.
func (m *Machine) SetProbe(p Probe) { m.probe = p }

// Event identifies a pipeline event.
type Event uint8

const (
	// EvDispatch is rename+steer placing an instruction in a cluster.
	EvDispatch Event = iota
	// EvCopyInserted is the creation of an inter-cluster copy.
	EvCopyInserted
	// EvIssue is an instruction leaving an issue queue.
	EvIssue
	// EvComplete is a result (or address) becoming available.
	EvComplete
	// EvCommit is in-order retirement.
	EvCommit
	// EvRedirect is fetch resuming after a resolved misprediction.
	EvRedirect
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EvDispatch:
		return "dispatch"
	case EvCopyInserted:
		return "copy"
	case EvIssue:
		return "issue"
	case EvComplete:
		return "complete"
	case EvCommit:
		return "commit"
	case EvRedirect:
		return "redirect"
	default:
		return fmt.Sprintf("Event(%d)", uint8(e))
	}
}

// FetchInfo describes one instruction entering the decode queue.
type FetchInfo struct {
	// ID is the probe-scoped fetch id (1-based, assigned in fetch order).
	// DynInst.FetchID carries it through dispatch and beyond, so event
	// streams can be joined back to fetch records. Fetch ids exist only
	// while a probe is attached.
	ID uint64
	// Seq is the architectural (oracle) sequence number.
	Seq uint64
	// PC and Inst identify the static instruction.
	PC   int
	Inst isa.Inst
	// Mispredict reports that this is a control transfer the front end
	// mispredicted: fetch stalls after it until the branch resolves.
	Mispredict bool
}

// SteerReason names the mechanism that decided a steering decision's final
// placement: the policy, a window machine's correction of it, or FIFO mode.
type SteerReason uint8

const (
	// ReasonPolicy: the policy's answer stood unmodified.
	ReasonPolicy SteerReason = iota
	// ReasonForced: a datapath constraint forced the cluster; the policy
	// was consulted (its tables train on every instruction) but overridden.
	ReasonForced
	// ReasonClamped: the policy answered an out-of-range cluster and the
	// machine clamped it to the integer cluster.
	ReasonClamped
	// ReasonCapability: the capability safety net moved the instruction to
	// a cluster whose functional units can execute it.
	ReasonCapability
	// ReasonFIFO: FIFO mode placed an unforced instruction by the
	// Palacharla/Jouppi/Smith heuristic, which chooses the cluster with
	// the FIFO. The policy's answer is never read there, so every
	// unforced decision on a FIFO-mode machine has this reason.
	ReasonFIFO
	// NumSteerReasons bounds the enum for counting arrays.
	NumSteerReasons
)

// String names the reason.
func (r SteerReason) String() string {
	switch r {
	case ReasonPolicy:
		return "policy"
	case ReasonForced:
		return "forced"
	case ReasonClamped:
		return "clamped"
	case ReasonCapability:
		return "capability"
	case ReasonFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("SteerReason(%d)", uint8(r))
	}
}

// SteerDecision is one steering decision, captured at decision time (the
// first dispatch attempt of a program instruction). Only the first
// NumClusters entries of the per-cluster arrays are meaningful.
type SteerDecision struct {
	Cycle   uint64
	ProgSeq uint64
	PC      int
	Inst    isa.Inst
	// Forced is the datapath constraint (AnyCluster when the policy was
	// free to choose); Policy is the policy's raw answer; Final is the
	// placement dispatch will use if it dispatches this cycle (in FIFO
	// mode a stall places the instruction afresh on a later attempt, so
	// the eventual cluster can differ).
	Forced ClusterID
	Policy ClusterID
	Final  ClusterID
	// Reason states which mechanism decided Final.
	Reason SteerReason
	// NumClusters sizes the arrays below.
	NumClusters int
	// Ready and IQLen are each cluster's ready count and issue-queue
	// occupancy at decision time; IQFree is the remaining queue capacity.
	Ready  [config.MaxClusters]int
	IQLen  [config.MaxClusters]int
	IQFree [config.MaxClusters]int
}

// StallClass attributes one simulated cycle to the reason the machine did
// (or did not) make forward progress, judged at the commit point: a cycle
// that retires is committing; otherwise the oldest in-flight instruction
// (or, with an empty window, the front end) is the critical resource. The
// taxonomy is total and exclusive — every cycle lands in exactly one
// class, and per-run class totals sum exactly to stats.Run.Cycles
// (TestGoldenProbeInvariants enforces both across the golden grid).
type StallClass uint8

const (
	// ClassCommitting: at least one instruction retired this cycle.
	ClassCommitting StallClass = iota
	// ClassExecute: the oldest instruction is mid-execution (functional
	// unit, cache access or address generation); raw execution latency.
	ClassExecute
	// ClassFetchStall: nothing in flight and the front end has not
	// delivered (I-cache miss stall or front-end pipeline fill).
	ClassFetchStall
	// ClassMispredictRecovery: nothing in flight and fetch is stalled on
	// an unresolved mispredicted branch, or the front end is refilling
	// directly after a redirect.
	ClassMispredictRecovery
	// ClassCopyWait: the oldest instruction is an inter-cluster copy, or
	// waits on an operand that an inserted copy must deliver — the paper's
	// communication penalty, seen from the commit point.
	ClassCopyWait
	// ClassOperandWait: the oldest instruction waits on a locally
	// produced operand.
	ClassOperandWait
	// ClassFUContention: the oldest instruction is ready but lost
	// structural arbitration — functional units, issue width, an
	// inter-cluster bus, or a D-cache port.
	ClassFUContention
	// ClassROBFull: the oldest instruction is executing and dispatch is
	// blocked on the in-flight window limit.
	ClassROBFull
	// ClassLSQBlock: the oldest load is blocked behind an earlier store
	// with a pending address or data, or dispatch is blocked on LSQ
	// capacity.
	ClassLSQBlock
	// ClassIdle: the machine is fully drained (program ended).
	ClassIdle
	// NumStallClasses bounds the enum for counting arrays.
	NumStallClasses
)

// String names the class (the strings are the wire/report vocabulary).
func (c StallClass) String() string {
	switch c {
	case ClassCommitting:
		return "committing"
	case ClassExecute:
		return "execute"
	case ClassFetchStall:
		return "fetch-stall"
	case ClassMispredictRecovery:
		return "mispredict-recovery"
	case ClassCopyWait:
		return "copy-wait"
	case ClassOperandWait:
		return "operand-wait"
	case ClassFUContention:
		return "fu-contention"
	case ClassROBFull:
		return "rob-full"
	case ClassLSQBlock:
		return "lsq-block"
	case ClassIdle:
		return "idle"
	default:
		return fmt.Sprintf("StallClass(%d)", uint8(c))
	}
}

// CycleSample is the per-cycle introspection record. Only the first
// NumClusters entries of the per-cluster arrays are meaningful. The
// buffer is reused; probes must copy what they keep.
type CycleSample struct {
	// Cycle is the sampled cycle.
	Cycle uint64
	// Class attributes the cycle to a stall taxonomy bucket.
	Class StallClass
	// Measuring reports whether this cycle counts toward stats.Run (false
	// during warm-up). Attribution that must reconcile with Run.Cycles
	// sums only measuring samples.
	Measuring bool
	// Retired is the number of instructions committed this cycle.
	Retired int
	// NumClusters sizes the arrays below.
	NumClusters int
	// Ready is each cluster's ready count — exactly the values the
	// machine's balance histogram recorded for this cycle, so a probe
	// can reproduce stats.Run.Balance bit-for-bit via BalanceDiff.
	Ready [config.MaxClusters]int
	// IQLen is each cluster's issue-queue occupancy.
	IQLen [config.MaxClusters]int
	// BusUsed is the number of inter-cluster copies that left each source
	// cluster this cycle.
	BusUsed [config.MaxClusters]int
	// ReplicatedRegs is the number of architectural registers currently
	// mapped in more than one cluster.
	ReplicatedRegs int
	// RobLen and DqLen are the reorder-buffer and decode-queue depths.
	RobLen int
	DqLen  int
}

// BalanceDiff reduces per-cluster ready counts to the balance histogram's
// scalar: on one and two clusters the paper's signed difference
// (ready[1] − ready[0], with ready[1] = 0 on a single cluster); on more
// clusters the max−min spread. Exported so probes can reproduce
// stats.Run.Balance from CycleSample.Ready bit-for-bit; the machine's own
// sampling goes through it too, so the two cannot drift.
//
//dca:hotpath
func BalanceDiff(ready []int) int {
	switch len(ready) {
	case 1:
		return -ready[0]
	case 2:
		return ready[1] - ready[0]
	default:
		lo, hi := ready[0], ready[0]
		for _, r := range ready[1:] {
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		return hi - lo
	}
}

// --- Guarded dispatch helpers (the only probe callsites) ---

// probeEvent forwards a pipeline event to the attached probe.
//
//dca:hotpath
func (m *Machine) probeEvent(ev Event, d *DynInst) {
	if m.probe != nil {
		m.probe.Event(m.cycle, ev, d)
	}
}

// probeFetched assigns the fetch id and forwards the fetch record. A
// detached machine leaves FetchID zero everywhere.
//
//dca:hotpath
func (m *Machine) probeFetched(fi *fetched) {
	if m.probe != nil {
		m.probeFetchSeq++
		fi.probeID = m.probeFetchSeq
		f := &m.probeFetchBuf
		f.ID = fi.probeID
		f.Seq = fi.step.Seq
		f.PC = fi.step.PC
		f.Inst = fi.step.Inst
		f.Mispredict = fi.mispredict
		m.probe.Fetch(m.cycle, f)
	}
}

// probeSteered captures the steering decision the dispatch stage just
// made; Final and Reason are resolveTarget's.
//
//dca:hotpath
func (m *Machine) probeSteered(fi *fetched, forced, policy ClusterID) {
	if m.probe != nil {
		dec := &m.probeSteerBuf
		dec.Cycle = m.cycle
		dec.ProgSeq = fi.step.Seq
		dec.PC = fi.step.PC
		dec.Inst = fi.step.Inst
		dec.Forced = forced
		dec.Policy = policy
		nc := m.cfg.NumClusters()
		dec.NumClusters = nc
		for c := 0; c < nc; c++ {
			dec.Ready[c] = m.readySample[c]
			dec.IQLen[c] = m.iqs[c].Len()
			dec.IQFree[c] = m.iqs[c].Free()
		}
		dec.Final, _, dec.Reason = m.resolveTarget(fi)
		m.probe.Steer(dec)
	}
}

// probeCycle classifies and forwards the per-cycle sample.
//
//dca:hotpath
func (m *Machine) probeCycle(retired int) {
	if m.probe != nil {
		s := &m.probeSample
		s.Cycle = m.cycle
		s.Class = m.classifyCycle(retired)
		s.Measuring = m.measuring
		s.Retired = retired
		nc := m.cfg.NumClusters()
		s.NumClusters = nc
		for c := 0; c < nc; c++ {
			s.Ready[c] = m.readySample[c]
			s.IQLen[c] = m.iqs[c].Len()
			s.BusUsed[c] = m.busUsed[c]
		}
		s.ReplicatedRegs = m.rt.replicatedCount()
		s.RobLen = m.robLen
		s.DqLen = m.dqLen
		m.probe.Cycle(s)
	}
}

// classifyCycle attributes the cycle that just finished to a StallClass.
// The chain is a priority order over end-of-cycle state, so the taxonomy
// is total and exclusive by construction. Runs only under probeCycle's
// guard.
//
// A full fetch queue has no class of its own: it is a symptom, not a
// cause. With instructions in flight the head's class names what holds
// dispatch back (rob-full, lsq-block, or the head's own wait); with an
// empty window a full queue can only be one whose front is still in the
// front-end pipeline, which is fetch-stall or mispredict-recovery.
func (m *Machine) classifyCycle(retired int) StallClass {
	if retired > 0 {
		return ClassCommitting
	}
	if m.robLen == 0 {
		// Nothing in flight: the front end is the story. The refill after a
		// redirect is charged to the misprediction: the first post-redirect
		// fetch group is still in the front-end pipeline (availableAt within
		// FrontEndDepth+1 of the redirect), or fetch is serving the
		// redirect-imposed one-cycle stall.
		if m.waitingBranch {
			return ClassMispredictRecovery
		}
		if m.dqLen > 0 {
			if m.lastRedirect > 0 && m.dqFront().availableAt <= m.lastRedirect+uint64(m.cfg.FrontEndDepth)+1 {
				return ClassMispredictRecovery
			}
			return ClassFetchStall
		}
		if !m.fetchDone {
			if m.lastRedirect > 0 && m.fetchStallUntil == m.lastRedirect+1 {
				return ClassMispredictRecovery
			}
			return ClassFetchStall
		}
		return ClassIdle
	}
	d := m.robFront()
	if d.IsCopy {
		// Commit is blocked at an inter-cluster copy, whatever its state:
		// communication penalty.
		return ClassCopyWait
	}
	switch d.state {
	case stateWaiting:
		if d.issueReady {
			return ClassFUContention
		}
		for i := 0; i < d.numSrcs; i++ {
			if !d.srcReady[i] && d.srcViaCopy[i] {
				return ClassCopyWait
			}
		}
		return ClassOperandWait
	case stateMemWait:
		// A load parked in the LSQ: blocked by disambiguation, or eligible
		// but starved of a D-cache port this cycle.
		if m.ldst.classify(d, m.files) == loadBlocked {
			return ClassLSQBlock
		}
		return ClassFUContention
	case stateDone:
		if d.isStore {
			// Commit needs the store's data and a D-cache port.
			if d.numSrcs > 1 && !m.files[d.Cluster].Ready(d.srcPhys[1]) {
				if d.srcViaCopy[1] {
					return ClassCopyWait
				}
				return ClassOperandWait
			}
			return ClassFUContention
		}
		// The head completed after commit ran this cycle; it retires next
		// cycle. Charge it like an executing head.
		return m.classifyExecuting()
	default: // stateIssued
		return m.classifyExecuting()
	}
}

// classifyExecuting refines "the head is mid-execution": if dispatch is
// simultaneously blocked on a window resource (in-flight limit, LSQ
// capacity), the cycle is the classic window-full stall; otherwise it is
// raw execution latency.
func (m *Machine) classifyExecuting() StallClass {
	if m.dqLen > 0 {
		fi := m.dqFront()
		if fi.availableAt <= m.cycle && fi.steered {
			if m.progInFlight+1 > m.cfg.MaxInFlight {
				return ClassROBFull
			}
			if fi.step.Inst.Op.IsMem() && m.ldst.Free() < 1 {
				return ClassLSQBlock
			}
		}
	}
	return ClassExecute
}
