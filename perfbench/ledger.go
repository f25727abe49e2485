package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/job"
	"repro/internal/job/store"
	"repro/internal/stats"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's start; parent is an index into the tracer's spans (-1 for a
// root) and id names the pass or request the span belongs to.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	ID     int64         `json:"id"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. In-process workloads
// run one job at a time, so the open spans form a single stack and each
// new span's parent is the innermost open one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
	id    int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it. A nil
// tracer records nothing, so untraced code paths share the same calls.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, ID: t.id})
	t.open = append(t.open, idx)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[idx].End = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
		t.mu.Unlock()
	}
}

// setID tags the spans that follow with a pass or request id.
func (t *tracer) setID(id int64) {
	if t != nil {
		t.mu.Lock()
		t.id = id
		t.mu.Unlock()
	}
}

// record adds a finished root span (for concurrent callers, whose spans
// do not nest).
func (t *tracer) record(name string, start, end time.Time, id int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: -1, ID: id})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the time its children
// cover, summed by span name, and the sum over every span.
func (t *tracer) selfTimes(keep func(span) bool) (map[string]time.Duration, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	byName := make(map[string]time.Duration)
	var total time.Duration
	for i, s := range t.spans {
		if keep(s) {
			byName[s.Name] += self[i]
			total += self[i]
		}
	}
	return byName, total
}

// durations returns the durations in milliseconds of the spans named name
// that keep accepts.
func (t *tracer) durations(name string, keep func(span) bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && keep(s) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// spanRunner times each Run of the runner it wraps.
type spanRunner struct {
	tr   *tracer
	name string
	next job.Runner
}

func (r spanRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	defer r.tr.begin(r.name)()
	return r.next.Run(ctx, j)
}

// spanStore times every call into a store; it serves both the result face
// (store.Store, under store.Cached) and the blob face (job.BlobStore,
// under job.Traced) of the tiered store it wraps.
type spanStore struct {
	tr   *tracer
	next store.Tiered
}

func (s spanStore) Get(key string) (*stats.Run, bool, error) {
	defer s.tr.begin("store.Get")()
	return s.next.Get(key)
}

func (s spanStore) Put(key string, r *stats.Run) error {
	defer s.tr.begin("store.Put")()
	return s.next.Put(key, r)
}

func (s spanStore) Len() int { return s.next.Len() }

func (s spanStore) GetBlob(key string) ([]byte, bool, error) {
	defer s.tr.begin("store.GetBlob")()
	return s.next.GetBlob(key)
}

func (s spanStore) PutBlob(key string, raw []byte) error {
	defer s.tr.begin("store.PutBlob")()
	return s.next.PutBlob(key, raw)
}

// runtimeSample reads the runtime/metrics the go.* ledger entries are
// deltas of.
type runtimeSample struct {
	allocBytes, gcCycles     uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		idleCPU:    s[4].Value.Float64(),
	}
}

// runtimeTotals accumulates runtime/metrics deltas over the passes the
// go.* entries describe.
type runtimeTotals struct {
	allocBytes, gcCycles uint64
	gcCPU, busyCPU       float64
	passes               int
}

func (t *runtimeTotals) add(before, after runtimeSample) {
	t.allocBytes += after.allocBytes - before.allocBytes
	t.gcCycles += after.gcCycles - before.gcCycles
	t.gcCPU += after.gcCPU - before.gcCPU
	t.busyCPU += (after.totalCPU - before.totalCPU) - (after.idleCPU - before.idleCPU)
	t.passes++
}

// fill sets the go.* entries; instr is the distinct-cell instructions the
// passes produced.
func (t *runtimeTotals) fill(m map[string]float64, instr float64) {
	if instr > 0 {
		m["go.alloc_mb_per_Minstr"] = float64(t.allocBytes) / (1 << 20) / (instr / 1e6)
	}
	if t.passes > 0 {
		m["go.gc_cycles"] = float64(t.gcCycles) / float64(t.passes)
	}
	if t.busyCPU > 0 {
		m["go.gc_cpu_pct"] = 100 * t.gcCPU / t.busyCPU
	}
}

// cpuProfile collects a runtime/pprof CPU profile in memory, with the
// process's CPU time as the kernel accounts it when the profile starts.
type cpuProfile struct {
	buf   bytes.Buffer
	start time.Duration
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{start: processCPU()}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// processCPU returns the user and system CPU time this process has used,
// as getrusage reports it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuBuckets are the cpu.* ledger entries in fold order: a sample goes to
// the first bucket whose rule matches its stack.
var cpuBuckets = []string{"gc", "json", "core", "steer", "emu", "mem", "bpred", "trace", "store", "job", "runtime", "other"}

// bucketOf folds one stack (leaf first) into a cpu.* bucket: garbage
// collection wherever it appears, then encoding/json, then the innermost
// frame from one of the simulator's packages (so allocation and copying a
// layer causes is charged to it), then the runtime, then everything else.
func bucketOf(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcAssistAlloc") ||
			strings.HasPrefix(f, "runtime.bgsweep") || strings.HasPrefix(f, "runtime.bgscavenge") {
			return "gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "encoding/json.") {
			return "json"
		}
	}
	for _, f := range stack {
		pkg, ok := strings.CutPrefix(f, "repro/internal/")
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(pkg, "job/store."):
			return "store"
		case strings.HasPrefix(pkg, "job."):
			return "job"
		}
		name, _, _ := strings.Cut(pkg, ".")
		switch name {
		case "core", "steer", "emu", "mem", "bpred", "trace":
			return name
		}
	}
	for _, f := range stack {
		if !strings.HasPrefix(f, "runtime.") {
			return "other"
		}
	}
	return "runtime"
}

// stop ends the profile and folds its sampled CPU time into cpu.* shares,
// each a percent of the CPU time the kernel accounted to the process over
// the profile. Their sum (ledger.cpu_sum_pct) is the share of that CPU time
// the profile saw: 100 when the sampler missed nothing.
func (p *cpuProfile) stop(m map[string]float64) error {
	pprof.StopCPUProfile()
	busy := processCPU() - p.start
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	cpuNS := make(map[string]int64)
	var total int64
	for _, s := range samples {
		cpuNS[bucketOf(s.stack)] += s.cpuNS
		total += s.cpuNS
	}
	if total == 0 || busy <= 0 {
		return fmt.Errorf("cpu profile holds no samples")
	}
	for _, b := range cpuBuckets {
		m["cpu."+b+"_pct"] = 100 * float64(cpuNS[b]) / float64(busy.Nanoseconds())
	}
	m["ledger.cpu_sum_pct"] = 100 * float64(total) / float64(busy.Nanoseconds())
	fmt.Printf("perfbench: cpu profile sampled %.3f s of %.3f s process cpu time\n", float64(total)/1e9, busy.Seconds())
	return nil
}

// profSample is one decoded CPU-profile sample: its stack as function
// names, leaf first, and the CPU time it stands for.
type profSample struct {
	stack []string
	cpuNS int64
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes,
// reading only what folding needs: samples (location ids and the count
// value), locations (their function ids, innermost inlined first) and
// function names.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs      []string
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]uint64{}
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, v, b)
				case 2:
					s.values = pbAppendUints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		// runtime/pprof writes two values per sample: the sample count
		// and the CPU nanoseconds it stands for.
		if len(s.values) < 2 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if n := funcNames[f]; int(n) < len(strs) {
					stack = append(stack, strs[n])
				}
			}
		}
		out = append(out, profSample{stack: stack, cpuNS: int64(s.values[1])})
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbVarint decodes one varint, returning it and its length (0 on error).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbAppendUints appends a repeated integer field, packed (bytes) or not.
func pbAppendUints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// ledgerRows prints the self time per pass of each span name among the
// spans keep accepts, largest first, and returns it in milliseconds.
func ledgerRows(label string, t *tracer, keep func(span) bool, passes int) map[string]float64 {
	self, _ := t.selfTimes(keep)
	out := make(map[string]float64, len(self))
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("perfbench: self time per %s:", label)
	for _, n := range names {
		v := ms(self[n]) / float64(max(passes, 1))
		out[n] = v
		fmt.Printf(" %s=%.3fms", n, v)
	}
	fmt.Println()
	return out
}
