// Command perfbench is the repository's benchmark: one workload per
// invocation, measured from outside the program through its documented
// entry points (the job and store libraries in-process, dcaserve and
// dcaworker over loopback). It prints a human-readable report and, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (endToEnd); with
// -trace 1 the run is traced and the metrics are the per-layer ledger
// (perLayer). Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
//
// README.md in this directory records why each workload exists, which
// layers it loads and bypasses, and how every metric is computed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the simulator sees; every workload reports
// every one of them (README.md gives each workload's definition).
var endToEnd = []metricDef{
	{"sim_mips", "Minstr/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer is the traced run's ledger. A layer a workload bypasses reports
// 0 for its metrics.
var perLayer = []metricDef{
	// internal/core with steer, emu, mem and bpred.
	{"core.ns_per_instr", "ns"},
	{"core.ns_per_cycle", "ns"},
	{"core.new_us", "us"},
	{"core.warm_pct", "%"},
	{"core.checkpoint_ms", "ms"},
	{"cpu.core_pct", "%"},
	{"cpu.steer_pct", "%"},
	{"cpu.emu_pct", "%"},
	{"cpu.mem_pct", "%"},
	{"cpu.bpred_pct", "%"},
	// The simulated machine: exact, repeatable counts.
	{"sim.cycles", "count"},
	{"sim.ipc", "instr/cycle"},
	{"attr.committing_pct", "%"},
	{"attr.execute_pct", "%"},
	{"attr.fetch-stall_pct", "%"},
	{"attr.mispredict-recovery_pct", "%"},
	{"attr.copy-wait_pct", "%"},
	{"attr.operand-wait_pct", "%"},
	{"attr.fu-contention_pct", "%"},
	{"attr.rob-full_pct", "%"},
	{"attr.lsq-block_pct", "%"},
	{"attr.idle_pct", "%"},
	// internal/job runners and internal/trace.
	{"checkpointed.leader_ms", "ms"},
	{"checkpointed.follower_ms", "ms"},
	{"traced.recordings", "count"},
	{"traced.extensions", "count"},
	{"traced.live_fallbacks", "count"},
	{"traced.self_ms", "ms"},
	{"trace.record_ns_per_step", "ns"},
	{"trace.replay_ns_per_step", "ns"},
	{"trace.bytes_per_step", "B"},
	{"cpu.job_pct", "%"},
	{"cpu.trace_pct", "%"},
	// internal/job/store.
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.blob_get_us", "us"},
	{"store.blob_put_us", "us"},
	{"store.result_bytes", "B"},
	{"cached.hits", "count"},
	{"cached.misses", "count"},
	{"cached.coalesced", "count"},
	{"cpu.store_pct", "%"},
	{"cpu.json_pct", "%"},
	// cmd/dcaserve and internal/obs.
	{"http.hit_p50_ms", "ms"},
	{"http.hit_p99_ms", "ms"},
	{"http.cold_p50_ms", "ms"},
	{"http.cold_p99_ms", "ms"},
	{"http.dup_p50_ms", "ms"},
	{"http.dup_p99_ms", "ms"},
	{"http.enqueue_p50_ms", "ms"},
	{"http.enqueue_p99_ms", "ms"},
	{"server.jobs_ms", "ms"},
	{"server.results_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"server.cpu_ms_per_req", "ms"},
	{"admission.rejected", "count"},
	{"http.non2xx", "count"},
	// internal/job/queue and internal/job/worker.
	{"queue.enqueued", "count"},
	{"queue.completed", "count"},
	{"queue.retried", "count"},
	{"queue.expired", "count"},
	{"server.lease_ms", "ms"},
	{"server.complete_ms", "ms"},
	{"worker.cpu_ms_per_job", "ms"},
	// The Go runtime of the process doing the work.
	{"go.alloc_mb_per_Minstr", "MiB"},
	{"go.gc_cycles", "1/pass"},
	{"go.gc_cpu_pct", "%"},
	{"cpu.gc_pct", "%"},
	{"cpu.runtime_pct", "%"},
	{"cpu.other_pct", "%"},
	// The ledger's own checks and the quality of the measurement.
	{"ledger.sum_err_pct", "%"},
	{"ledger.cpu_sum_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"fail_pct", "%"},
	{"gen.late_p99_ms", "ms"},
	{"host.ref_ms", "ms"},
}

// ledgerTolerancePct is the ledger sum check's tolerance: per-layer self
// times must sum to the measured busy time, and cpu.* shares to 100%,
// within this many percent.
const ledgerTolerancePct = 2.0

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the dcaserve and dcaworker binaries
	dir      string // this run's scratch directory
	// clock samples the host-speed reference (hostclock.go).
	clock *hostClock
}

// report is what a workload hands back: counts, metrics and the
// correctness verdict.
type report struct {
	attempted, failed int
	// mismatches lists every output check that failed.
	mismatches []string
	metrics    map[string]float64
	// trace is written to the run's trace file when the run is traced.
	trace any
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

// mismatch records a failed output check; it counts as a failed operation.
func (r *report) mismatch(format string, args ...any) {
	r.failed++
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

func main() {
	var (
		opt   options
		trace int
		work  string
		ref   bool
	)
	flag.StringVar(&opt.workload, "workload", "", "workload: grid-cold, sweep-reuse or serve-mix")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer ledger")
	flag.StringVar(&opt.bin, "bin", "", "directory holding the dcaserve and dcaworker binaries")
	flag.StringVar(&work, "work", "", "directory for per-run scratch files")
	flag.BoolVar(&ref, "ref", false, "serve host-speed reference samples on standard input and output (the benchmark starts this itself)")
	flag.Parse()
	if ref {
		if err := serveRef(); err != nil {
			fatalf("reference process: %v", err)
		}
		return
	}
	opt.trace = trace == 1
	if work == "" || opt.bin == "" || opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fatalf("usage: perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1")
	}
	run, ok := workloads[opt.workload]
	if !ok {
		fatalf("unknown workload %q (known: grid-cold, sweep-reuse, serve-mix)", opt.workload)
	}
	dir, err := os.MkdirTemp(work, fmt.Sprintf("%s-seed%d-", opt.workload, opt.seed))
	if err != nil {
		fatalf("%v", err)
	}
	opt.dir = dir

	host := hostInfo()
	if opt.clock, err = startHostClock(); err != nil {
		fatalf("%v", err)
	}
	opt.clock.burst()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v nproc=%d cpu=%q go=%s\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, host.NProc, host.CPU, host.GoVersion)

	rep, err := run(opt)
	if err != nil {
		opt.clock.stop()
		fatalf("%s: %v", opt.workload, err)
	}
	opt.clock.burst()
	if err := opt.clock.stop(); err != nil {
		fatalf("%v", err)
	}
	refs := opt.clock.all()
	host.RefMS = median(refs)
	rep.metrics["host.ref_ms"] = host.RefMS
	if rep.attempted > 0 {
		rep.metrics["fail_pct"] = 100 * float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("perfbench: host.ref_ms=%.4f (median of %d reference samples, nominal %.1f): %.1f\n",
		host.RefMS, len(refs), refNominalMS, refs)
	for _, m := range rep.mismatches {
		fmt.Printf("perfbench: MISMATCH %s\n", m)
	}

	if opt.trace {
		path := filepath.Join(filepath.Dir(work), "traces", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
		if err := writeJSONFile(path, map[string]any{"host": host, "metrics": rep.metrics, "ledger": rep.trace}); err != nil {
			fatalf("write trace: %v", err)
		}
		fmt.Printf("perfbench: spans and ledger written to %s\n", path)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !opt.trace {
			fatalf("%s: end-to-end metric %s was not measured", opt.workload, d.name)
		}
		fmt.Printf("  %-30s %16.6f %s\n", d.name, v, d.unit)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A percentile over requests that mostly failed is infinite;
			// JSON has no infinity, so report the largest finite value.
			v = math.MaxFloat64
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fmt.Printf("perfbench: fail_pct %.6f%% (attempted %d, failed %d)\n", rep.metrics["fail_pct"], rep.attempted, rep.failed)
	correct := len(rep.mismatches) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fatalf("%v", err)
	}
	// Scratch files are kept only when something went wrong.
	if correct {
		os.RemoveAll(dir)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"grid-cold":   runGridCold,
	"sweep-reuse": runSweepReuse,
	"serve-mix":   runServeMix,
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// host records what a result was measured on.
type host struct {
	NProc     int     `json:"nproc"`
	CPU       string  `json:"cpu"`
	GoVersion string  `json:"go_version"`
	RefMS     float64 `json:"ref_ms"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), CPU: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMiB returns a process's peak resident set (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
