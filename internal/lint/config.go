package lint

// DefaultAnalyzers returns the repository's analyzer set with its scopes —
// the single source of truth cmd/dcalint and ci's TestDCALint both run.
//
// Scope rationale:
//
//   - determinism covers every package a result digest or golden file can
//     observe: the simulated machine (core, steer, emu, isa, bpred, mem),
//     workload construction (prog, asm, workload), analysis outputs (rdg,
//     stats, experiments), the machine description (config), the oracle
//     trace codec (trace — its encodings are content-addressed, so any
//     nondeterminism would change digests), and the job planners
//     ("repro/internal/job" exactly — the queue, store and worker
//     subpackages legitimately read the wall clock for leases and ETAs),
//     and the introspection reports (probe — attribution, forensics and
//     disagreement tables ride grid exports and server responses, so
//     their content must be as reproducible as the digests they ride
//     alongside).
//   - lockdiscipline covers the queue and store, whose mutexes every
//     worker contends on, and the flight group, whose mutex every
//     coalesced request passes through (store.Cached, Checkpointed and
//     Traced all coalesce on it): a blocking call there would stall every
//     request for every key.
//   - wirecontract roots are the two digest formats (Job, stats.Run), the
//     serve/worker wire types, the trace header (trace.Meta — what
//     dcatrace info prints and tools parse), and the attribution report
//     (probe.Report — it rides dcaserve job responses and dcabench -json
//     exports); the closure walk pulls in everything they embed
//     (config.Config, steer.Params, ...).
//   - noalloc needs no scope: the //dca:hotpath annotation opts in
//     function by function.
//   - probeguard names the timing core's observation interface: its
//     methods may be called from hotpath functions only behind the
//     `m.probe != nil` guard, which is what makes a detached machine pay
//     one predictable branch and no interface dispatch per hook.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(DeterminismConfig{
			Packages: []string{
				"repro/internal/core",
				"repro/internal/steer",
				"repro/internal/emu",
				"repro/internal/isa",
				"repro/internal/bpred",
				"repro/internal/mem",
				"repro/internal/prog",
				"repro/internal/asm",
				"repro/internal/workload",
				"repro/internal/rdg",
				"repro/internal/stats",
				"repro/internal/config",
				"repro/internal/experiments",
				"repro/internal/job",
				"repro/internal/trace",
				"repro/internal/probe",
			},
		}),
		NewNoalloc(),
		NewProbeGuard(ProbeGuardConfig{
			Interfaces: []string{"repro/internal/core.Probe"},
		}),
		NewLockDiscipline(LockDisciplineConfig{
			Packages: []string{
				"repro/internal/job/flight",
				"repro/internal/job/queue",
				"repro/internal/job/store",
			},
			IOInterfaces: []string{
				"repro/internal/job/store.Store",
			},
		}),
		NewWireContract(WireContractConfig{
			Module: "repro",
			Roots: []string{
				"repro/internal/job.Job",
				"repro/internal/job.Spec",
				"repro/internal/job.GridSpec",
				"repro/internal/stats.Run",
				"repro/internal/job/queue.Enqueued",
				"repro/internal/job/queue.Lease",
				"repro/internal/job/queue.LeaseRequest",
				"repro/internal/job/queue.LeaseResponse",
				"repro/internal/job/queue.CompleteRequest",
				"repro/internal/job/queue.Stats",
				"repro/cmd/dcaserve.gridEvent",
				"repro/cmd/dcaserve.watchEvent",
				"repro/internal/trace.Meta",
				"repro/internal/probe.Report",
			},
		}),
	}
}
