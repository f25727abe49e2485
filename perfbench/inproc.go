package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/job"
	"repro/internal/job/store"
	"repro/internal/probe"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fig14Schemes is the paper's Figure 14 comparison on the two-cluster
// machine (base and the 16-way upper bound bracket the steered schemes).
var fig14Schemes = []string{job.BaseScheme, "modulo", "general", job.UBScheme}

// Windows, in committed instructions. grid-cold's are long enough that the
// steady-state cycle loop, not machine construction, dominates a cell: at
// 40k instructions the short base and upper-bound cells slowed by up to
// 1.98x when the host turned slow, against 1.29x for the long 8-cluster
// cells. sweep-reuse's three measure windows share one long warm-up, the
// case warm-state reuse exists for.
const (
	gridWarmup    = 10_000
	gridMeasure   = 90_000
	sweepWarmup   = 30_000
	setupRepeats  = 3 // set-up runs per untraced run; setup_s is their median
	minPasses     = 3 // timed passes even when -seconds is short
	tracedPassMin = 2 // traced passes of each kind in a traced run
)

var sweepMeasures = []uint64{5_000, 10_000, 20_000}

// inproc describes one in-process workload: the request sequence of a
// pass and the runner stack a pass sends it through.
type inproc struct {
	name string
	// plan returns one pass's requests in order.
	plan func() ([]job.Job, error)
	// stack builds a fresh runner for one pass (dir is the pass's own
	// store directory; tr is nil when untraced) and returns a function
	// that reads the stack's counters after the pass.
	stack func(dir string, tr *tracer) (job.Runner, func(map[string]float64), error)
	// corePass adds traced passes that call core directly (grid-cold).
	corePass bool
	// codec adds the trace recorder/codec/replayer timing (sweep-reuse).
	codec bool
}

func runGridCold(opt options) (*report, error) {
	return runInproc(opt, inproc{
		name: "grid-cold",
		plan: func() ([]job.Job, error) {
			return planAll([]job.GridSpec{
				{Schemes: fig14Schemes, Clusters: 2, Warmup: gridWarmup, Measure: gridMeasure},
				{Schemes: []string{"general"}, Clusters: 4, Warmup: gridWarmup, Measure: gridMeasure},
				{Schemes: []string{"general"}, Clusters: 8, Warmup: gridWarmup, Measure: gridMeasure},
			})
		},
		stack: func(_ string, tr *tracer) (job.Runner, func(map[string]float64), error) {
			if tr == nil {
				return job.Direct{}, func(map[string]float64) {}, nil
			}
			return spanRunner{tr, "Direct.Run", job.Direct{}}, func(map[string]float64) {}, nil
		},
		corePass: true,
	})
}

func runSweepReuse(opt options) (*report, error) {
	return runInproc(opt, inproc{
		name: "sweep-reuse",
		plan: func() ([]job.Job, error) {
			// Shortest window first, so its requests lead each warm key.
			specs := make([]job.GridSpec, 0, len(sweepMeasures))
			for _, m := range sweepMeasures {
				specs = append(specs, job.GridSpec{Schemes: fig14Schemes, Clusters: 2, Warmup: sweepWarmup, Measure: m})
			}
			sweep, err := planAll(specs)
			if err != nil {
				return nil, err
			}
			// Every cell is requested a second time, as a re-plot would.
			return append(sweep, sweep...), nil
		},
		stack: sweepStack,
		codec: true,
	})
}

// sweepStack is the run-layer stack the ROADMAP measures:
// Cached(Tiered{Memory, Disk}) over Traced (blobs in the same store) over
// Checkpointed. Traced runs put span wrappers between every pair of
// layers.
func sweepStack(dir string, tr *tracer) (job.Runner, func(map[string]float64), error) {
	disk, err := store.NewDisk(dir)
	if err != nil {
		return nil, nil, err
	}
	tiered := store.Tiered{Fast: store.NewMemory(1024), Slow: disk}
	var (
		results store.Store   = tiered
		blobs   job.BlobStore = tiered
		ckpt    job.Runner    = &job.Checkpointed{}
		traced  *job.Traced   = nil
		inner   job.Runner    = nil
		cached  *store.Cached = nil
		top     job.Runner    = nil
		wrapped               = tr != nil
	)
	if wrapped {
		s := spanStore{tr, tiered}
		results, blobs = s, s
		ckpt = spanRunner{tr, "Checkpointed.Run", ckpt}
	}
	traced = &job.Traced{Blobs: blobs, Next: ckpt}
	inner = traced
	if wrapped {
		inner = spanRunner{tr, "Traced.Run", traced}
	}
	cached = store.NewCached(results, inner)
	top = cached
	if wrapped {
		top = spanRunner{tr, "Cached.Run", cached}
	}
	counters := func(m map[string]float64) {
		cm, tm := cached.Metrics(), traced.Metrics()
		m["cached.hits"] = float64(cm.Hits)
		m["cached.misses"] = float64(cm.Misses)
		m["cached.coalesced"] = float64(cm.Coalesced)
		m["traced.recordings"] = float64(tm.Recordings)
		m["traced.extensions"] = float64(tm.Extensions)
		m["traced.live_fallbacks"] = float64(tm.LiveFallbacks)
	}
	return top, counters, nil
}

func planAll(specs []job.GridSpec) ([]job.Job, error) {
	var jobs []job.Job
	for _, g := range specs {
		planned, err := g.Plan()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, planned...)
	}
	return jobs, nil
}

// passResult is one pass: every slot's result (copied out of its machine)
// and host time, and the pass's wall time.
type passResult struct {
	runs    []*stats.Run
	elapsed []time.Duration
	wall    time.Duration
	err     error
}

// inprocRun is the state of one in-process run.
type inprocRun struct {
	w    inproc
	opt  options
	jobs []job.Job
	// first[i] reports whether slot i is the pass's first request for its
	// job, i.e. a distinct cell the pass produces.
	first  []bool
	ref    map[string]string // job key -> result digest of the first pass
	passes int
	tr     *tracer
	// ticking makes passes sample the host-speed reference between
	// requests (timed passes only).
	ticking bool
	// tracedCounters holds the stack's counters after the last traced
	// pass; core accumulates the direct-core passes.
	tracedCounters map[string]float64
	core           coreStats
}

// setup is what precedes the first timed sample: program load, plan, and
// one untimed pass. The first set-up pass's results become the reference
// digests; later set-up passes are checked against them.
func (r *inprocRun) setup(rep *report) (time.Duration, error) {
	start := time.Now()
	for _, b := range workload.Names() {
		end := r.tr.begin("workload.Load")
		_, err := workload.Load(b)
		end()
		if err != nil {
			return 0, err
		}
	}
	end := r.tr.begin("GridSpec.Plan")
	jobs, err := r.w.plan()
	end()
	if err != nil {
		return 0, err
	}
	p := r.pass(nil)
	if p.err != nil {
		return 0, p.err
	}
	took := time.Since(start)
	if r.ref == nil {
		r.jobs = jobs
		r.first = make([]bool, len(jobs))
		r.ref = make(map[string]string)
		for i, j := range jobs {
			k := j.Key()
			if _, seen := r.ref[k]; !seen {
				r.first[i] = true
				r.ref[k] = job.ResultDigest(p.runs[i])
			}
		}
	}
	r.check(rep, "set-up pass", p.runs)
	return took, nil
}

// pass sends the request sequence through a fresh stack on one worker.
// tr non-nil makes it a traced pass.
func (r *inprocRun) pass(tr *tracer) passResult {
	r.passes++
	dir := filepath.Join(r.opt.dir, fmt.Sprintf("pass%d", r.passes))
	defer os.RemoveAll(dir)
	jobs := r.jobs
	if jobs == nil {
		var err error
		if jobs, err = r.w.plan(); err != nil {
			return passResult{err: err}
		}
	}
	runner, counters, err := r.w.stack(dir, tr)
	if err != nil {
		return passResult{err: err}
	}
	elapsed := make([]time.Duration, len(jobs))
	if tr != nil {
		runner = &slotRunner{tr: tr, base: int64(r.passes) * 1_000_000, next: runner}
	}
	start := time.Now()
	end := tr.begin("job.RunAll")
	runs, err := job.RunAll(context.Background(), jobs, job.PoolOptions{
		Parallelism: 1,
		Runner:      runner,
		Progress: func(p job.Progress) {
			elapsed[p.Index] = p.Elapsed
			// With one worker the pool waits for this call, so the
			// reference sample falls between two requests and in
			// neither one's time.
			if r.ticking {
				r.opt.clock.tick()
			}
		},
	})
	end()
	wall := time.Since(start)
	if err != nil {
		return passResult{err: err}
	}
	if tr != nil {
		counters(r.tracedCounters)
	}
	// Results may point into their machines; keep copies so the machines
	// can be collected.
	for i, run := range runs {
		c := *run
		runs[i] = &c
	}
	return passResult{runs: runs, elapsed: elapsed, wall: wall}
}

// slotRunner tags each request's spans with its pass and position.
type slotRunner struct {
	tr   *tracer
	base int64
	n    int64
	next job.Runner
}

func (s *slotRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	s.tr.setID(s.base + s.n)
	s.n++
	return s.next.Run(ctx, j)
}

// check compares a pass against the reference digests.
func (r *inprocRun) check(rep *report, label string, runs []*stats.Run) {
	for i, run := range runs {
		if got, want := job.ResultDigest(run), r.ref[r.jobs[i].Key()]; got != want {
			rep.mismatch("%s %s slot %d (%s/%s): digest %s, want %s", r.w.name, label, i, r.jobs[i].Scheme, r.jobs[i].Benchmark, got[:12], want[:12])
		}
	}
}

// distinctInstr is the committed instructions (warm-up + measure) of the
// distinct cells a pass produces.
func (r *inprocRun) distinctInstr(runs []*stats.Run) float64 {
	t := 0.0
	for i, run := range runs {
		if r.first[i] {
			t += float64(r.jobs[i].Warmup + run.Instructions)
		}
	}
	return t
}

func runInproc(opt options, w inproc) (*report, error) {
	r := &inprocRun{w: w, opt: opt}
	rep := newReport()
	if opt.trace {
		return r.traced(rep)
	}

	// Each set-up is timed between reference samples and scaled to the
	// nominal host speed (hostclock.go).
	var setups, rawSetups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		took, err := r.setup(rep)
		if err != nil {
			return nil, err
		}
		opt.clock.burst()
		rawSetups = append(rawSetups, took.Seconds())
		setups = append(setups, took.Seconds()*opt.clock.scale(start, time.Now()))
	}
	rep.metrics["setup_s"] = median(setups)
	// Every run starts timing from a collected heap.
	runtime.GC()

	// Timed phase: whole passes until the time is up. Each request's host
	// time is scaled by the reference samples taken during its pass.
	slot := make([][]float64, len(r.jobs))
	var passes []passResult
	var walls, scales []float64
	r.ticking = true
	phase := time.Now()
	for len(passes) < minPasses || time.Since(phase).Seconds() < opt.seconds {
		start := time.Now()
		p := r.pass(nil)
		if p.err != nil {
			rep.mismatch("%s pass %d: %v", w.name, len(passes)+1, p.err)
			break
		}
		f := opt.clock.scale(start, time.Now())
		passes = append(passes, p)
		walls = append(walls, p.wall.Seconds())
		scales = append(scales, f)
		for i, d := range p.elapsed {
			slot[i] = append(slot[i], ms(d)*f)
		}
	}
	r.ticking = false
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	rep.metrics["peak_rss_mb"] = rss

	// Outputs are checked after the timed phase.
	for k, p := range passes {
		r.check(rep, fmt.Sprintf("pass %d", k+1), p.runs)
		rep.attempted += len(p.runs)
	}
	if w.codec {
		r.checkDirect(rep, nil, directSample)
	}

	// Each request slot is summarised by its median over the passes, so a
	// slow stretch of the host that covers less than half of the run
	// barely moves it. (A 10th percentile of ~15 samples per slot spread
	// more from run to run on the 2-vCPU host the benchmark was defined
	// on.)
	q := make([]float64, len(slot))
	var firstQ []float64
	for i, xs := range slot {
		q[i] = median(xs)
		if r.first[i] {
			firstQ = append(firstQ, q[i])
		}
	}
	passMS := sum(q)
	instr := r.distinctInstr(passes[0].runs)
	rep.metrics["sim_mips"] = instr / 1e6 / (passMS / 1e3)
	rep.metrics["capacity_rps"] = float64(len(q)) / (passMS / 1e3)
	rep.metrics["req_p50_ms"] = median(firstQ)
	rep.metrics["req_p99_ms"] = quantile(firstQ, 0.99)
	fmt.Printf("perfbench: %d passes of %d requests (%d distinct cells, %.0f instructions); pass wall min/median/max %.3f/%.3f/%.3f s (host time); sum of scaled slot medians %.3f s\n",
		len(passes), len(r.jobs), len(firstQ), instr, quantile(walls, 0), median(walls), quantile(walls, 1), passMS/1e3)
	fmt.Printf("perfbench: reference scale per pass %v; host-time sim_mips at the median pass wall %.4f\n",
		scales, instr/1e6/median(walls))
	fmt.Printf("perfbench: setup runs %v s scaled, %v s host time\n", setups, rawSetups)
	return rep, nil
}

// checkDirect runs up to limit distinct cells, a seeded sample, once more
// on a fresh job.Direct machine with cycle attribution attached and checks
// their digests against the reference. Given every distinct cell, it fills
// sim.* and attr.* from those runs.
func (r *inprocRun) checkDirect(rep *report, m map[string]float64, limit int) {
	var (
		cycles, instr uint64
		classes       = make(map[string]uint64)
		total         uint64
		size          float64
		n             int
	)
	var slots []int
	for i := range r.jobs {
		if r.first[i] {
			slots = append(slots, i)
		}
	}
	rand.New(rand.NewSource(r.opt.seed)).Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	for _, i := range slots[:min(limit, len(slots))] {
		j := r.jobs[i]
		run, at, err := job.RunWithAttribution(context.Background(), j)
		if err != nil {
			rep.mismatch("%s direct %s/%s: %v", r.w.name, j.Scheme, j.Benchmark, err)
			continue
		}
		raw, err := json.Marshal(run)
		if err != nil {
			rep.mismatch("%s direct %s/%s: %v", r.w.name, j.Scheme, j.Benchmark, err)
			continue
		}
		size += float64(len(raw))
		n++
		if got, want := job.ResultDigest(run), r.ref[j.Key()]; got != want {
			rep.mismatch("%s slot %d (%s/%s/%d): stack digest %s, direct %s", r.w.name, i, j.Scheme, j.Benchmark, j.Measure, want[:12], got[:12])
		}
		cycles += run.Cycles
		instr += run.Instructions
		for _, b := range at.Buckets {
			classes[b.Class] += b.Cycles
		}
		total += at.TotalCycles
		if at.TotalCycles != run.Cycles || at.Sum() != run.Cycles {
			rep.mismatch("%s %s/%s: attribution covers %d cycles, run has %d", r.w.name, j.Scheme, j.Benchmark, at.Sum(), run.Cycles)
		}
	}
	if m != nil && n > 0 {
		fillSim(m, cycles, instr, classes, total)
		m["store.result_bytes"] = size / float64(n)
	}
}

// fillSim sets sim.* and attr.* from summed cycle counts.
func fillSim(m map[string]float64, cycles, instr uint64, classes map[string]uint64, total uint64) {
	m["sim.cycles"] = float64(cycles)
	if cycles > 0 {
		m["sim.ipc"] = float64(instr) / float64(cycles)
	}
	for c := core.StallClass(0); c < core.NumStallClasses; c++ {
		if total > 0 {
			m["attr."+c.String()+"_pct"] = 100 * float64(classes[c.String()]) / float64(total)
		}
	}
}

// traced is the per-layer run: untraced passes alternate with traced ones
// (and, for grid-cold, with passes that call core directly) under a CPU
// profile, and the spans give each layer's self time.
func (r *inprocRun) traced(rep *report) (*report, error) {
	m := rep.metrics
	r.tr = newTracer()
	if _, err := r.setup(rep); err != nil {
		return nil, err
	}
	if r.w.codec {
		if err := r.codecLedger(m); err != nil {
			return nil, err
		}
	}
	r.tracedCounters = make(map[string]float64)

	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	var (
		plain, traced, direct []float64 // pass wall times, s
		ratios                []float64 // each traced pass's wall time over the untraced pass before it
		busy                  time.Duration
		instr                 float64 // distinct-cell instructions of the untraced passes
		rt                    runtimeTotals
		ids                   = map[int64]bool{} // traced pass ids
		coreIDs               = map[int64]bool{} // direct-core pass ids
	)
	phase := time.Now()
	for len(traced) < tracedPassMin || time.Since(phase).Seconds() < r.opt.seconds {
		before := readRuntime()
		p := r.pass(nil)
		rt.add(before, readRuntime())
		if p.err != nil {
			return nil, p.err
		}
		r.check(rep, "untraced pass", p.runs)
		plain = append(plain, p.wall.Seconds())
		instr += r.distinctInstr(p.runs)
		rep.attempted += len(p.runs)

		r.tr.setID(int64(r.passes+1) * 1_000_000)
		p = r.pass(r.tr)
		if p.err != nil {
			return nil, p.err
		}
		ids[int64(r.passes)] = true
		r.check(rep, "traced pass", p.runs)
		traced = append(traced, p.wall.Seconds())
		ratios = append(ratios, traced[len(traced)-1]/plain[len(plain)-1])
		busy += p.wall
		rep.attempted += len(p.runs)

		if r.w.corePass {
			r.passes++
			ids[int64(r.passes)] = true
			coreIDs[int64(r.passes)] = true
			r.tr.setID(int64(r.passes) * 1_000_000)
			start := time.Now()
			res := r.corePass()
			wall := time.Since(start)
			direct = append(direct, wall.Seconds())
			busy += wall
			r.checkCore(rep, res)
			rep.attempted += len(r.jobs)
		}
	}
	if err := prof.stop(m); err != nil {
		return nil, err
	}
	rt.fill(m, instr)
	rss, _ := peakRSSMiB(0)

	// The ledger sum check: the layers' spans must account for the traced
	// passes' wall time. job.RunAll's own self time (the pool, and any gap
	// between the calls the benchmark wraps) is left out of the sum, so
	// time no layer span covers shows as an error.
	inPass := func(s span) bool { return ids[s.ID/1_000_000] }
	self, total := r.tr.selfTimes(inPass)
	layers := total - self["job.RunAll"]
	rows := ledgerRows("runner pass", r.tr, func(s span) bool { return ids[s.ID/1_000_000] && !coreIDs[s.ID/1_000_000] }, len(traced))
	if len(direct) > 0 {
		ledgerRows("direct-core pass", r.tr, func(s span) bool { return coreIDs[s.ID/1_000_000] }, len(direct))
	}
	m["ledger.sum_err_pct"] = 100 * math.Abs(layers.Seconds()-busy.Seconds()) / busy.Seconds()
	// Adjacent passes are seconds apart, so host drift over minutes cancels
	// in their ratio.
	m["trace.overhead_pct"] = 100 * (median(ratios) - 1)
	for k, v := range r.tracedCounters {
		m[k] = v
	}

	if r.w.corePass {
		r.core.fill(m)
	} else {
		m["traced.self_ms"] = rows["Traced.Run"]
		var leader, follower []float64
		nLead := len(r.jobs) / 2 / len(sweepMeasures)
		for id := range ids {
			for i, d := range r.tr.durations("Checkpointed.Run", func(s span) bool { return s.ID/1_000_000 == id }) {
				if i < nLead {
					leader = append(leader, d)
				} else {
					follower = append(follower, d)
				}
			}
		}
		m["checkpointed.leader_ms"] = median(leader)
		m["checkpointed.follower_ms"] = median(follower)
		m["store.get_us"] = 1e3 * median(r.tr.durations("store.Get", inPass))
		m["store.put_us"] = 1e3 * median(r.tr.durations("store.Put", inPass))
		m["store.blob_get_us"] = 1e3 * median(r.tr.durations("store.GetBlob", inPass))
		m["store.blob_put_us"] = 1e3 * median(r.tr.durations("store.PutBlob", inPass))
		r.checkDirect(rep, m, len(r.jobs))
	}
	if m["ledger.sum_err_pct"] > ledgerTolerancePct {
		rep.mismatch("%s ledger: layer span self times sum to %.3f s, busy time %.3f s", r.w.name, layers.Seconds(), busy.Seconds())
	}
	if s := m["ledger.cpu_sum_pct"]; math.Abs(s-100) > ledgerTolerancePct {
		rep.mismatch("%s ledger: the cpu profile saw %.3f%% of the process's cpu time", r.w.name, s)
	}
	fmt.Printf("perfbench: traced run: %d untraced, %d traced, %d direct-core passes; busy %.3f s, layer spans %.3f s, job.RunAll self %.3f s; overhead per pass pair %v; peak rss %.1f MiB\n",
		len(plain), len(traced), len(direct), busy.Seconds(), layers.Seconds(), self["job.RunAll"].Seconds(), ratios, rss)
	rep.trace = map[string]any{"self_ms_per_runner_pass": rows, "spans": r.tr.spans}
	return rep, nil
}

// coreStats accumulates the direct-core passes' span totals.
type coreStats struct {
	newUS, checkpointMS []float64
	warm, measure       time.Duration
	instr, cycles       uint64
	simCycles, simInstr uint64
	classes             map[string]uint64
	attrTotal           uint64
	sampled             bool
	// slotAttr is each cell's stall-class cycles in the first pass; later
	// passes must repeat them exactly.
	slotAttr [][core.NumStallClasses]uint64
}

func (c *coreStats) fill(m map[string]float64) {
	m["core.new_us"] = median(c.newUS)
	m["core.checkpoint_ms"] = median(c.checkpointMS)
	busy := c.warm + c.measure
	m["core.ns_per_instr"] = float64(busy.Nanoseconds()) / float64(c.instr)
	m["core.ns_per_cycle"] = float64(busy.Nanoseconds()) / float64(c.cycles)
	m["core.warm_pct"] = 100 * c.warm.Seconds() / busy.Seconds()
	fillSim(m, c.simCycles, c.simInstr, c.classes, c.attrTotal)
}

// coreResult is one direct-core cell: the results of measuring the warm
// machine and of measuring its checkpoint, and the attribution.
type coreResult struct {
	live, restored *stats.Run
	at             *probe.Attribution
	err            error
}

// corePass runs every cell by calling core directly — the calls
// job.Direct and job.Checkpointed make — with a span around each call.
func (r *inprocRun) corePass() []coreResult {
	out := make([]coreResult, len(r.jobs))
	for i, j := range r.jobs {
		out[i] = r.coreCell(j)
	}
	return out
}

func (r *inprocRun) coreCell(j job.Job) coreResult {
	tr, cs := r.tr, &r.core
	end := tr.begin("workload.Load")
	p, err := workload.Load(j.Benchmark)
	end()
	if err != nil {
		return coreResult{err: err}
	}
	end = tr.begin("steer.New")
	st, err := steererFor(j, p)
	end()
	if err != nil {
		return coreResult{err: err}
	}
	t0 := time.Now()
	end = tr.begin("core.New")
	m, err := core.New(j.Config, p, st)
	end()
	if err != nil {
		return coreResult{err: err}
	}
	t1 := time.Now()
	end = tr.begin("Machine.Warm")
	err = m.Warm(j.Warmup)
	end()
	if err != nil {
		return coreResult{err: err}
	}
	t2 := time.Now()
	// The snapshot carries the attribution probe and the warm machine
	// does not, so Machine.Measure is timed without a probe and the probe
	// sees exactly the restored machine's measured cycles.
	at := probe.NewAttribution()
	m.SetProbe(at)
	end = tr.begin("Machine.Checkpoint")
	cp, ok := m.Checkpoint()
	end()
	m.SetProbe(nil)
	t3 := time.Now()
	end = tr.begin("Machine.Measure")
	live, err := m.Measure(j.Measure)
	end()
	if err != nil {
		return coreResult{err: err}
	}
	t4 := time.Now()
	res := coreResult{live: copyRun(live, j), at: at}
	if ok {
		end = tr.begin("Checkpoint.Measure")
		restored, err := cp.Measure(j.Measure)
		end()
		if err != nil {
			return coreResult{err: err}
		}
		res.restored = copyRun(restored, j)
	}
	cs.newUS = append(cs.newUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
	cs.checkpointMS = append(cs.checkpointMS, ms(t3.Sub(t2)))
	cs.warm += t2.Sub(t1)
	cs.measure += t4.Sub(t3)
	cs.instr += m.CommittedInstructions()
	cs.cycles += m.Cycle()
	return res
}

// checkCore checks a direct-core pass against job.Direct's digests and
// takes sim.* and attr.* from its first pass.
func (r *inprocRun) checkCore(rep *report, res []coreResult) {
	cs := &r.core
	first := !cs.sampled
	cs.sampled = true
	for i, c := range res {
		j := r.jobs[i]
		want := r.ref[j.Key()]
		switch {
		case c.err != nil:
			rep.mismatch("core %s/%s: %v", j.Scheme, j.Benchmark, c.err)
			continue
		case job.ResultDigest(c.live) != want:
			rep.mismatch("core %s/%s: Machine.Measure digest differs from job.Direct", j.Scheme, j.Benchmark)
		case c.restored != nil && job.ResultDigest(c.restored) != want:
			rep.mismatch("core %s/%s: Checkpoint.Measure digest differs from job.Direct", j.Scheme, j.Benchmark)
		case c.restored == nil:
			rep.mismatch("core %s/%s: machine could not be checkpointed", j.Scheme, j.Benchmark)
			continue
		case c.at.Total() != c.restored.Cycles:
			rep.mismatch("core %s/%s: attribution covers %d cycles, run has %d", j.Scheme, j.Benchmark, c.at.Total(), c.restored.Cycles)
		}
		var counts [core.NumStallClasses]uint64
		for k := range counts {
			counts[k] = c.at.Cycles(core.StallClass(k))
		}
		if !first {
			if counts != cs.slotAttr[i] {
				rep.mismatch("core %s/%s: attribution differs from the first direct-core pass", j.Scheme, j.Benchmark)
			}
			continue
		}
		cs.slotAttr = append(cs.slotAttr, counts)
		cs.simCycles += c.live.Cycles
		cs.simInstr += c.live.Instructions
		if cs.classes == nil {
			cs.classes = make(map[string]uint64)
		}
		for k, n := range counts {
			cs.classes[core.StallClass(k).String()] += n
		}
		cs.attrTotal += c.at.Total()
	}
}

// copyRun detaches a result from its machine and labels it as job.Direct
// does.
func copyRun(run *stats.Run, j job.Job) *stats.Run {
	c := *run
	c.Scheme = j.Scheme
	return &c
}

// steererFor builds a job's steering policy the way the job layer does:
// the conventional split for the base and upper-bound machines, the
// registered scheme otherwise.
func steererFor(j job.Job, p *prog.Program) (core.Steerer, error) {
	if j.Scheme == job.BaseScheme || j.Scheme == job.UBScheme {
		return core.NaiveSteerer{}, nil
	}
	return steer.NewWithParams(j.Scheme, p, j.Params)
}

// codecLedger times the trace recorder, codec and replayer on each
// program over sweep-reuse's longest window, and checks that a decoded
// trace is the recorded one and replays to its end.
func (r *inprocRun) codecLedger(m map[string]float64) error {
	window := uint64(sweepWarmup) + sweepMeasures[len(sweepMeasures)-1]
	var rec, rep time.Duration
	var steps, size float64
	for _, b := range workload.Names() {
		p, err := workload.Load(b)
		if err != nil {
			return err
		}
		t0 := time.Now()
		end := r.tr.begin("trace.Record")
		rc := trace.NewRecorder(p)
		err = rc.Extend(window)
		t := rc.Finalize(window)
		end()
		if err != nil {
			return err
		}
		rec += time.Since(t0)
		end = r.tr.begin("trace.Encode")
		raw := t.Encode()
		end()
		end = r.tr.begin("trace.Decode")
		back, err := trace.Decode(raw)
		end()
		if err != nil {
			return err
		}
		if back.Digest() != t.Digest() {
			return fmt.Errorf("trace of %s: decoded digest differs", b)
		}
		t0 = time.Now()
		end = r.tr.begin("trace.Replay")
		rp, err := trace.NewReplayer(back, p)
		if err != nil {
			end()
			return err
		}
		var st emu.Step
		for k := uint64(0); k < back.Steps; k++ {
			if err := rp.StepInto(&st); err != nil {
				end()
				return fmt.Errorf("replay %s step %d: %w", b, k, err)
			}
		}
		end()
		rep += time.Since(t0)
		steps += float64(t.Steps)
		size += float64(len(raw))
	}
	m["trace.record_ns_per_step"] = float64(rec.Nanoseconds()) / steps
	m["trace.replay_ns_per_step"] = float64(rep.Nanoseconds()) / steps
	m["trace.bytes_per_step"] = size / steps
	return nil
}
