package job

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/steer"
)

// machineEnv is what a wrapping caller threads through the context to
// whichever runner below builds the machine (RunProgram, which Direct
// calls, or Checkpointed's warm phase): where the machine fetches from,
// and what observes it. Carrying it in the context is what lets Traced compose
// over Checkpointed, and a probing caller over both, without any of them
// knowing the others' concrete types.
type machineEnv struct {
	// oracle builds the fetch oracle for one machine; nil means the live
	// functional emulator. Runners call it once per machine they build, so
	// a source backed by a recorded trace hands every consumer a fresh
	// replay cursor.
	oracle func() (core.Oracle, error)
	// probe builds the probe for one machine; nil leaves it unobserved.
	// Sources must return a new probe per call — reusing one across
	// machines double-counts.
	probe func() core.Probe
}

type machineEnvKey struct{}

func envFrom(ctx context.Context) machineEnv {
	env, _ := ctx.Value(machineEnvKey{}).(machineEnv)
	return env
}

// WithOracle returns ctx with src as the fetch-oracle source for every
// machine a runner below builds (Traced sets it to a replay of its shared
// recording; dcasim -replay to a recording file). A source over a trace
// must cover the job's window plus core.FetchAheadBound of its machine,
// or the run fails when the stream runs dry.
func WithOracle(ctx context.Context, src func() (core.Oracle, error)) context.Context {
	env := envFrom(ctx)
	env.oracle = src
	return context.WithValue(ctx, machineEnvKey{}, env)
}

// WithProbe returns ctx with src as the probe source for every machine a
// runner below builds. Probes observe and never steer, so a probed run's
// result is bit-identical to an unprobed one's. Note that Checkpointed's
// restored machines inherit the probe of their warm key's first machine
// (every frontier descends from it, and clones carry the pointer), so
// per-measure probing there needs a fresh warm phase.
func WithProbe(ctx context.Context, src func() core.Probe) context.Context {
	env := envFrom(ctx)
	env.probe = src
	return context.WithValue(ctx, machineEnvKey{}, env)
}

// RunProgram simulates the job over p on a fresh machine: Warmup
// unmeasured instructions, then Measure measured ones (0 = until HALT).
// j.Benchmark only labels errors; p is what runs. Direct.Run is this over
// the job's named workload, and dcasim runs assembly files through it.
func RunProgram(ctx context.Context, j Job, p *prog.Program) (*stats.Run, error) {
	m, err := warmMachine(ctx, j, p)
	if err != nil {
		return nil, err
	}
	return measure(m, j)
}

// warmMachine builds the job's machine over p and runs its warm phase:
// RunProgram's first half, and Checkpointed's warm leader.
func warmMachine(ctx context.Context, j Job, p *prog.Program) (*core.Machine, error) {
	m, err := newMachine(ctx, j, p)
	if err != nil {
		return nil, err
	}
	if err := m.Warm(j.Warmup); err != nil {
		return nil, runErr(j, err)
	}
	return m, nil
}

// newMachine is the one place the run layer builds a machine: the job's
// configuration and steering policy over p, fetching from the context's
// oracle source and observed by its probe source, if set. Live, replayed
// and probed runs therefore travel one code path, and the bit-identity
// arguments stay one argument.
func newMachine(ctx context.Context, j Job, p *prog.Program) (*core.Machine, error) {
	var st core.Steerer = core.NaiveSteerer{}
	if j.Scheme != BaseScheme && j.Scheme != UBScheme {
		// The base and upper-bound machines run the paper's conventional
		// split; every other scheme is a registered policy.
		var err error
		if st, err = steer.NewWithParams(j.Scheme, p, j.Params); err != nil {
			return nil, err
		}
	}
	env := envFrom(ctx)
	var o core.Oracle // nil: the live emulator
	if env.oracle != nil {
		var err error
		if o, err = env.oracle(); err != nil {
			return nil, err
		}
	}
	m, err := core.NewWithOracle(j.Config, p, st, o)
	if err != nil {
		return nil, err
	}
	if env.probe != nil {
		m.SetProbe(env.probe())
	}
	return m, nil
}

// measure runs the job's measurement window on a warmed machine.
func measure(m *core.Machine, j Job) (*stats.Run, error) {
	r, err := m.Measure(j.Measure)
	if err != nil {
		return nil, runErr(j, err)
	}
	r.Scheme = j.Scheme
	return r, nil
}

func runErr(j Job, err error) error {
	return fmt.Errorf("job: %s/%s: %w", j.Scheme, j.Benchmark, err)
}
