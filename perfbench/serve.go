package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/job"
	"repro/internal/stats"
	"repro/internal/workload"
)

// serve-mix constants. The offered rate and the latency limit are fixed
// here, never derived per run, so two commits are offered the same load.
// The rate is about a seventh of the closed-loop capacity (about 360 req/s)
// measured on the 2-vCPU host the workload was defined on. At 100 req/s
// hits queued behind simulations on the two connections more often: in
// four alternated runs at each rate the median was 2.0 ms (1.79-2.12)
// against 1.8 ms (1.79-1.93), and the 99th percentile 39 ms against 32 ms.
// The open loop takes 70% of the run, so at this rate it holds over 1000
// requests, more than ten of them beyond its 99th percentile.
const (
	openRate       = 50.0            // open-loop arrivals per second, fixed interval
	latencyLimitMS = 250.0           // a request slower than this missed
	openShare      = 0.7             // share of -seconds spent in the open loop (enough samples for a p99)
	windowSeconds  = 1.0             // closed-loop capacity window
	openSegment    = 3 * time.Second // open-loop schedule between two reference samples
	cellMeasure    = 10_000
	hitWarmup      = 1_000
	coldWarmupBase = 2_000 // cold cells get distinct warm-ups from here up
	directSample   = 24    // seeded sample of distinct cells the timed runs re-simulate with job.Direct
	requestTimeout = 30 * time.Second
)

// Open-loop mix, as arrivals per block. A block holds 100 requests in
// cmd/dcaload's default proportions: 50 warm (cache hits), 30 cold (new
// cells) and 20 queue (enqueues the worker drains). The benchmark splits
// the warm share evenly between POST /v1/jobs repeats and
// GET /v1/results/{key} on the primed set, and sends 6 of the 30 cold
// requests as 3 "dup" arrivals, a new cell posted on both connections at
// once, which exercises coalescing. Those two splits are the benchmark's
// choice; no recorded traffic backs them. The closed loop draws the
// synchronous single-request kinds in the same proportions.
var openMix = []struct {
	kind     string
	arrivals int
}{
	{"hit-post", 25},
	{"hit-get", 25},
	{"cold", 24},
	{"dup", 3},
	{"enqueue", 20},
}

// hitSet is the primed working set: every steered Fig. 14 scheme on every
// benchmark.
func hitSet() []job.Spec {
	var out []job.Spec
	for _, s := range []string{"modulo", "general"} {
		for _, b := range workload.Names() {
			out = append(out, job.Spec{Scheme: s, Benchmark: b, Clusters: 2, Warmup: hitWarmup, Measure: cellMeasure})
		}
	}
	return out
}

// request is one generated HTTP request.
type request struct {
	id     int64
	kind   string // hit, cold, dup or enqueue
	method string
	path   string
	body   []byte
	spec   job.Spec
	key    string        // the job's content digest
	due    time.Duration // open loop: offset from the phase start
}

// outcome is what happened to one request.
type outcome struct {
	req              *request
	due, sent, done  time.Time
	status           int
	err              error
	body             []byte
	clientID         string
	closed           bool    // sent by the closed loop
	scale            float64 // open loop: the reference scale of the request's segment
	instr            float64
	withinLimitAndOK bool
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }
func (o *outcome) ok() bool               { return o.err == nil && o.status/100 == 2 }

// cellGen hands out cells; cold cells are unique within a run.
type cellGen struct {
	mu    sync.Mutex
	next  uint64
	hits  []job.Spec
	hkeys []string
	id    int64
	// order is the cycle of scheme × benchmark pairs that new cells walk
	// through: a fixed interleaving, rotated by a seeded offset. Every seed
	// simulates the same mix, and the same neighbouring pairs, which are
	// the cells that run at once on the two connections, so the peak
	// memory they need does not depend on the seed.
	order [][2]string
}

func newCellGen(seed int64) *cellGen {
	g := &cellGen{hits: hitSet()}
	for _, b := range workload.Names() {
		for _, s := range fig14Schemes {
			g.order = append(g.order, [2]string{s, b})
		}
	}
	k := rand.New(rand.NewSource(seed)).Intn(len(g.order))
	g.order = slices.Concat(g.order[k:], g.order[:k])
	return g
}

func (g *cellGen) newID() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.id++
	return g.id
}

// fresh returns a cell no earlier request used: the next scheme and
// benchmark of the seeded cycle, with a warm-up that grows by one
// instruction per turn of the cycle, so a cell's cost barely depends on how
// many cells the run has made.
func (g *cellGen) fresh() job.Spec {
	g.mu.Lock()
	n := g.next
	g.next++
	g.mu.Unlock()
	pair := g.order[n%uint64(len(g.order))]
	return job.Spec{
		Scheme:    pair[0],
		Benchmark: pair[1],
		Clusters:  2,
		Warmup:    coldWarmupBase + n/uint64(len(g.order)),
		Measure:   cellMeasure,
	}
}

// build makes a request of the given kind ("dup" returns the pair).
func (g *cellGen) build(kind string, rng *rand.Rand) ([]*request, error) {
	mk := func(kind, method, path string, spec job.Spec, body any) (*request, error) {
		j, err := spec.Plan()
		if err != nil {
			return nil, err
		}
		var raw []byte
		if body != nil {
			if raw, err = json.Marshal(body); err != nil {
				return nil, err
			}
		}
		return &request{id: g.newID(), kind: kind, method: method, path: path, body: raw, spec: spec, key: j.Key()}, nil
	}
	switch kind {
	case "hit-post":
		i := rng.Intn(len(g.hits))
		r, err := mk("hit", "POST", "/v1/jobs", g.hits[i], g.hits[i])
		return []*request{r}, err
	case "hit-get":
		i := rng.Intn(len(g.hits))
		r, err := mk("hit", "GET", "/v1/results/"+g.hkeys[i], g.hits[i], nil)
		return []*request{r}, err
	case "cold":
		s := g.fresh()
		r, err := mk("cold", "POST", "/v1/jobs", s, s)
		return []*request{r}, err
	case "dup":
		s := g.fresh()
		a, err := mk("dup", "POST", "/v1/jobs", s, s)
		if err != nil {
			return nil, err
		}
		b, err := mk("dup", "POST", "/v1/jobs", s, s)
		return []*request{a, b}, err
	case "enqueue":
		s := g.fresh()
		r, err := mk("enqueue", "POST", "/v1/queue", s, map[string]any{"spec": s})
		return []*request{r}, err
	}
	return nil, fmt.Errorf("unknown request kind %q", kind)
}

// deck deals request kinds in a fixed cycle that holds every kind in its
// exact share of openMix, each kind's requests spread evenly over the
// cycle, which starts at a seeded position. Seeds differ in where the
// cycle starts, not in the mix or in which kinds follow each other.
type deck struct {
	cards []string
	next  int
}

func newDeck(rng *rand.Rand, kinds ...string) *deck {
	type card struct {
		kind string
		key  float64
	}
	var cs []card
	for _, k := range openMix {
		if slices.Contains(kinds, k.kind) {
			for i := 0; i < k.arrivals; i++ {
				cs = append(cs, card{k.kind, (float64(i) + 0.5) / float64(k.arrivals)})
			}
		}
	}
	slices.SortStableFunc(cs, func(a, b card) int { return cmp.Compare(a.key, b.key) })
	d := &deck{next: rng.Intn(len(cs))}
	for _, c := range cs {
		d.cards = append(d.cards, c.kind)
	}
	return d
}

func (d *deck) draw() string {
	k := d.cards[d.next%len(d.cards)]
	d.next++
	return k
}

// proc is a started subprocess whose output goes to files.
type proc struct {
	cmd  *exec.Cmd
	done chan error
	out  string // stdout file
	log  string // stderr file
}

func startProc(dir, name, bin string, args ...string) (*proc, error) {
	out, err := os.Create(filepath.Join(dir, name+".out"))
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		out.Close()
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, logf
	// The child dies with the benchmark even if the benchmark is killed
	// before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		out.Close()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{cmd: cmd, done: make(chan error, 1), out: out.Name(), log: logf.Name()}
	go func() {
		err := cmd.Wait()
		out.Close()
		logf.Close()
		p.done <- err
	}()
	return p, nil
}

// stop asks the process to drain and waits for it to exit, killing it if
// it has not exited within ten seconds.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpuMS returns the process's user+system CPU time in milliseconds.
func (p *proc) cpuMS() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	s := string(raw)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	// Fields after the command name start at the state (field 3); utime
	// and stime are fields 14 and 15, in clock ticks of 10 ms.
	u, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (u + st) * 10
}

// service is one running dcaserve plus its worker.
type service struct {
	server, worker *proc
	base           string
	client         *http.Client
}

func (s *service) stop() {
	s.worker.stop()
	s.server.stop()
}

// startService starts dcaserve on a fresh store and one dcaworker loop,
// waits until the server is healthy, and primes the hit set. The time it
// takes is one set-up sample.
func startService(opt options, n int, g *cellGen) (*service, error) {
	dir := filepath.Join(opt.dir, fmt.Sprintf("service%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := startProc(dir, "dcaserve", filepath.Join(opt.bin, "dcaserve"),
		"-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	s := &service{server: srv, client: newClient()}
	deadline := time.Now().Add(15 * time.Second)
	for s.base == "" {
		raw, _ := os.ReadFile(srv.out)
		if _, rest, ok := strings.Cut(string(raw), "listening on "); ok {
			if line, _, ok := strings.Cut(rest, "\n"); ok {
				s.base = strings.TrimSpace(line)
			}
		}
		if s.base == "" {
			if time.Now().After(deadline) {
				s.stop()
				return nil, fmt.Errorf("dcaserve did not report its address (see %s)", srv.log)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("dcaserve not healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.worker, err = startProc(dir, "dcaworker", filepath.Join(opt.bin, "dcaworker"),
		"-server", s.base, "-n", "1", "-backoff", "100ms", "-id", "perfbench-worker")
	if err != nil {
		s.stop()
		return nil, err
	}
	for i, spec := range g.hits {
		o := s.send(&request{kind: "hit", method: "POST", path: "/v1/jobs", body: mustJSON(spec), key: g.hkeys[i]}, "perfbench-prime", time.Now())
		if !o.ok() {
			s.stop()
			return nil, fmt.Errorf("priming %s/%s: status %d, %v", spec.Scheme, spec.Benchmark, o.status, o.err)
		}
	}
	return s, nil
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// send performs one request; due is when it was scheduled.
func (s *service) send(r *request, clientID string, due time.Time) outcome {
	o := outcome{req: r, due: due, clientID: clientID}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, s.base+r.path, body)
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("X-Client-ID", clientID)
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	o.sent = time.Now()
	resp, err := s.client.Do(req)
	if err == nil {
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
	}
	o.done = time.Now()
	o.err = err
	return o
}

// scrape reads /metrics into series -> value.
func (s *service) scrape(clientID string) (map[string]float64, error) {
	o := s.send(&request{method: "GET", path: "/metrics"}, clientID, time.Now())
	if !o.ok() {
		return nil, fmt.Errorf("scrape /metrics: status %d, %v", o.status, o.err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(o.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// waitQueueIdle waits until the worker has drained the queue.
func (s *service) waitQueueIdle() error {
	start := time.Now()
	for {
		idle, err := s.queueIdle()
		if err != nil || idle {
			return err
		}
		if time.Since(start) > 60*time.Second {
			return fmt.Errorf("queue did not drain within 60 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *service) queueIdle() (bool, error) {
	o := s.send(&request{method: "GET", path: "/v1/queue/stats"}, "perfbench-poll", time.Now())
	if !o.ok() {
		return false, fmt.Errorf("queue stats: status %d, %v", o.status, o.err)
	}
	var st struct {
		Depth    int `json:"depth"`
		Inflight int `json:"inflight"`
	}
	if err := json.Unmarshal(o.body, &st); err != nil {
		return false, err
	}
	return st.Depth == 0 && st.Inflight == 0, nil
}

func runServeMix(opt options) (*report, error) {
	rep := newReport()
	m := rep.metrics
	tr := newTracer()
	g := newCellGen(opt.seed)
	for _, h := range g.hits {
		j, err := h.Plan()
		if err != nil {
			return nil, err
		}
		g.hkeys = append(g.hkeys, j.Key())
	}

	// Set-up, several times; the last service carries the load. Each is
	// timed between reference samples and scaled to the nominal host speed
	// (hostclock.go).
	var setups, rawSetups []float64
	var svc *service
	repeats := setupRepeats
	if opt.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		start := time.Now()
		s, err := startService(opt, i, g)
		if err != nil {
			return nil, err
		}
		took := time.Since(start).Seconds()
		if i < repeats-1 {
			s.stop()
		} else {
			svc = s
		}
		opt.clock.burst()
		rawSetups = append(rawSetups, took)
		setups = append(setups, took*opt.clock.scale(start, time.Now()))
	}
	defer svc.stop()
	m["setup_s"] = median(setups)

	// The open loop's schedule is generated before the clock starts.
	rng := rand.New(rand.NewSource(opt.seed))
	kinds := newDeck(rng, "hit-post", "hit-get", "cold", "dup", "enqueue")
	openSeconds := opt.seconds * openShare
	var sched []*request
	for i := 0; i < int(openRate*openSeconds); i++ {
		rs, err := g.build(kinds.draw(), rng)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			r.due = time.Duration(float64(i) / openRate * float64(time.Second))
			sched = append(sched, r)
		}
	}

	before, err := svc.scrape("perfbench-scrape-1")
	if err != nil {
		return nil, err
	}
	srvCPU, wrkCPU := svc.server.cpuMS(), svc.worker.cpuMS()
	clientID := func(r *request, traced bool) string {
		if traced {
			return fmt.Sprintf("pb-%d-%d", opt.seed, r.id)
		}
		return "perfbench"
	}

	// Both load phases run in segments. After each, with the service idle
	// and the queue drained so the worker does not share its CPU, pause
	// takes a reference sample and returns the scale, from the samples
	// before and after the segment, to the nominal host speed
	// (hostclock.go).
	last := time.Now()
	pause := func() float64 {
		if err := svc.waitQueueIdle(); err != nil {
			rep.mismatch("serve-mix: %v", err)
		}
		opt.clock.sample()
		now := time.Now()
		f := opt.clock.scale(last, now)
		last = now
		return f
	}
	open := svc.openLoop(sched, func(r *request) string { return clientID(r, opt.trace) }, pause)
	closed, windows := svc.closedLoop(g, opt.seed, opt.seconds-openSeconds, opt.trace, clientID, pause)
	after, err := svc.scrape("perfbench-scrape-2")
	if err != nil {
		return nil, err
	}
	srvCPU, wrkCPU = svc.server.cpuMS()-srvCPU, svc.worker.cpuMS()-wrkCPU
	rss, err := peakRSSMiB(svc.server.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = rss

	// Outputs are checked after both timed phases.
	all := append(append([]outcome(nil), open...), closed...)
	served := verifyResponses(rep, all)
	settleEnqueued(rep, svc, open, served)
	rep.attempted = len(all)

	// Open loop: latency from each request's due time; a failed request
	// counts as over the limit. The 99th percentile, set by simulations,
	// is taken over latencies scaled to the nominal host speed. The
	// median, set by hits, is host time: hits allocate little and follow
	// the reference less than simulations do. In five runs, one of them
	// in a slow host state where the reference took 1.7 times as long and
	// the median moved 10%, the median spread 6.3% unscaled and 27%
	// scaled.
	var lat, scaled, late []float64
	byKind := map[string][]float64{}
	for i := range open {
		o := &open[i]
		l := ms(o.latency())
		if !o.ok() {
			l = math.Inf(1)
		}
		lat = append(lat, l)
		scaled = append(scaled, l*o.scale)
		late = append(late, ms(o.sent.Sub(o.due)))
		byKind[o.req.kind] = append(byKind[o.req.kind], l)
	}
	m["req_p50_ms"] = median(lat)
	m["req_p99_ms"] = quantile(scaled, 0.99)
	m["gen.late_p99_ms"] = quantile(late, 0.99)
	for _, k := range []string{"hit", "cold", "dup", "enqueue"} {
		m["http."+k+"_p50_ms"] = median(byKind[k])
		m["http."+k+"_p99_ms"] = quantile(byKind[k], 0.99)
	}

	// Closed loop: requests per second that succeeded within the limit,
	// per window and scaled, summarised by the median over the windows
	// (steadier from run to run than the 75th percentile: 7.4-7.8%
	// against 9.4-11.8% in two ten-run sets); sim_mips is that rate times
	// the instructions an average counted request simulated.
	var rates, hostRates []float64
	for _, w := range windows {
		rates = append(rates, w.rate()/w.scale)
		hostRates = append(hostRates, w.rate())
	}
	var counted, instr float64
	for i := range all {
		if all[i].closed && all[i].withinLimitAndOK {
			counted++
			instr += all[i].instr
		}
	}
	m["capacity_rps"] = median(rates)
	if counted > 0 {
		m["sim_mips"] = m["capacity_rps"] * instr / counted / 1e6
	}

	// Server-side view.
	delta := func(series string) float64 { return after[series] - before[series] }
	m["cached.hits"] = delta("dcaserve_store_hits_total")
	m["cached.misses"] = delta("dcaserve_store_misses_total")
	m["cached.coalesced"] = delta("dcaserve_store_coalesced_total")
	m["admission.rejected"] = delta("dcaserve_admission_rejected_total")
	m["queue.enqueued"] = delta("dcaserve_queue_enqueued_total")
	m["queue.completed"] = delta("dcaserve_queue_completed_total")
	m["queue.retried"] = delta("dcaserve_queue_retried_total")
	m["queue.expired"] = delta("dcaserve_queue_expired_total")
	var non2xx float64
	for i := range all {
		if all[i].err == nil && all[i].status/100 != 2 {
			non2xx++
		}
	}
	m["http.non2xx"] = non2xx
	m["server.cpu_ms_per_req"] = srvCPU / float64(len(all))
	if c := m["queue.completed"]; c > 0 {
		m["worker.cpu_ms_per_job"] = wrkCPU / c
	}
	if err := serverLedger(rep, svc, all, before, after, opt.trace); err != nil {
		return nil, err
	}
	if opt.trace {
		for i := range all {
			if o := &all[i]; o.req != nil && !o.sent.IsZero() {
				tr.record("http."+o.req.kind, o.sent, o.done, o.req.id)
			}
		}
		rep.trace = map[string]any{"spans": tr.spans}
		// Each traced window is paired with the untraced window after it,
		// so host drift over minutes cancels in their ratio.
		var ratios []float64
		for k := 0; k+1 < len(windows); k += 2 {
			if windows[k].traced && !windows[k+1].traced && windows[k].count > 0 {
				ratios = append(ratios, windows[k+1].rate()/windows[k].rate())
			}
		}
		m["trace.overhead_pct"] = 100 * (median(ratios) - 1)
		if err := serveCore(rep, g, all, served, opt.seed); err != nil {
			return nil, err
		}
	} else {
		directCheck(rep, g, all, served, opt.seed)
	}

	fmt.Printf("perfbench: open loop %d requests at %.0f/s over %.1f s (host-time p99 %.4f ms); closed loop %d requests in %d windows (scaled rates min/median/max %.1f/%.1f/%.1f; host-time median %.4f)\n",
		len(open), openRate, openSeconds, quantile(lat, 0.99), len(closed), len(windows), quantile(rates, 0), median(rates), quantile(rates, 1), median(hostRates))
	fmt.Printf("perfbench: setup runs %v s scaled, %v s host time\n", setups, rawSetups)
	return rep, nil
}

// openLoop sends the schedule at its due times on at most nproc
// connections, in segments of openSegment: after each, once its requests
// have completed, it calls pause, which returns the segment's reference
// scale, and the next segment's due times start when pause returns. A request whose connections are all busy waits, and
// its latency still counts from its due time.
func (s *service) openLoop(sched []*request, clientID func(*request) string, pause func() float64) []outcome {
	out := make([]outcome, len(sched))
	for lo := 0; lo < len(sched); {
		hi := lo
		for hi < len(sched) && sched[hi].due < sched[lo].due+openSegment {
			hi++
		}
		s.sendSegment(sched[lo:hi], out[lo:hi], clientID)
		f := pause()
		for i := lo; i < hi; i++ {
			out[i].scale = f
		}
		lo = hi
	}
	return out
}

// sendSegment sends one open-loop segment, due times counted from its
// first request, and waits for every reply.
func (s *service) sendSegment(seg []*request, out []outcome, clientID func(*request) string) {
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now().Add(20 * time.Millisecond).Add(-seg[0].due)
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := seg[i]
				out[i] = s.send(r, clientID(r), t0.Add(r.due))
			}
		}()
	}
	for i, r := range seg {
		if d := time.Until(t0.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		next <- i
	}
	close(next)
	wg.Wait()
}

// window is one closed-loop capacity window: the requests that succeeded
// within the latency limit, the time from the window's start to its last
// reply, and the window's reference scale.
type window struct {
	count, seconds, scale float64
	traced                bool
}

func (w window) rate() float64 {
	if w.seconds <= 0 {
		return 0
	}
	return w.count / w.seconds
}

// closedLoop runs nproc connections back to back in windows of
// windowSeconds, each connection drawing the synchronous kinds from its
// own seeded generator. A connection sends no new request once its window
// has ended; when every reply is in, closedLoop calls pause, which
// returns the window's reference scale, before the next window. In a traced run every other window is traced.
func (s *service) closedLoop(g *cellGen, seed int64, seconds float64, traced bool, clientID func(*request, bool) string, pause func() float64) ([]outcome, []window) {
	n := runtime.NumCPU()
	rngs := make([]*rand.Rand, n)
	decks := make([]*deck, n)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
		decks[c] = newDeck(rngs[c], "hit-post", "hit-get", "cold")
	}
	windows := make([]window, int(seconds/windowSeconds))
	var out []outcome
	for k := range windows {
		w := &windows[k]
		w.traced = traced && k%2 == 0
		start := time.Now()
		end := start.Add(time.Duration(windowSeconds * float64(time.Second)))
		per := make([][]outcome, n)
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(end) {
					rs, err := g.build(decks[c].draw(), rngs[c])
					if err != nil {
						per[c] = append(per[c], outcome{err: err, closed: true})
						continue
					}
					o := s.send(rs[0], clientID(rs[0], w.traced), time.Now())
					o.closed = true
					per[c] = append(per[c], o)
				}
			}(c)
		}
		wg.Wait()
		last := start
		for _, conn := range per {
			for i := range conn {
				o := &conn[i]
				if o.done.After(last) {
					last = o.done
				}
				if o.req != nil && o.ok() && ms(o.latency()) <= latencyLimitMS {
					o.withinLimitAndOK = true
					w.count++
				}
				out = append(out, *o)
			}
		}
		w.seconds = last.Sub(start).Seconds()
		w.scale = pause()
	}
	return out, windows
}

// jobResponse is the part of dcaserve's job and result replies the
// benchmark checks.
type jobResponse struct {
	Key          string     `json:"key"`
	Result       *stats.Run `json:"result"`
	ResultDigest string     `json:"result_digest"`
}

// verifyResponses checks every successful reply: the key is the job's,
// and the digest recomputed from the result is the one served. It returns
// the served digest per key and sets each counted closed-loop request's
// simulated instructions.
func verifyResponses(rep *report, outs []outcome) map[string]string {
	served := make(map[string]string)
	for i := range outs {
		o := &outs[i]
		if o.req == nil {
			rep.failed++
			continue
		}
		if !o.ok() {
			rep.failed++
			continue
		}
		if o.req.kind == "enqueue" {
			var q struct {
				Jobs []struct {
					Key string `json:"key"`
				} `json:"jobs"`
			}
			if err := json.Unmarshal(o.body, &q); err != nil || len(q.Jobs) != 1 || q.Jobs[0].Key != o.req.key {
				rep.mismatch("enqueue %s: reply does not name the job's key", o.req.key[:12])
			}
			continue
		}
		var jr jobResponse
		if err := json.Unmarshal(o.body, &jr); err != nil || jr.Result == nil {
			rep.mismatch("%s %s: undecodable reply: %v", o.req.method, o.req.path, err)
			continue
		}
		if jr.Key != o.req.key {
			rep.mismatch("%s %s: reply key %s, want %s", o.req.method, o.req.path, jr.Key[:12], o.req.key[:12])
		}
		d := job.ResultDigest(jr.Result)
		if d != jr.ResultDigest {
			rep.mismatch("%s %s: served digest %s, recomputed %s", o.req.method, o.req.path, jr.ResultDigest[:12], d[:12])
		}
		if prev, ok := served[jr.Key]; ok && prev != d {
			rep.mismatch("job %s served with two digests", jr.Key[:12])
		}
		served[jr.Key] = d
		if o.req.kind == "cold" {
			o.instr = float64(o.req.spec.Warmup + jr.Result.Instructions)
		}
	}
	return served
}

// settleEnqueued fetches every enqueued key's result, which the worker
// must have uploaded, and verifies it like any served result.
func settleEnqueued(rep *report, svc *service, open []outcome, served map[string]string) {
	var got []outcome
	for i := range open {
		o := &open[i]
		if o.req.kind != "enqueue" || !o.ok() {
			continue
		}
		r := &request{kind: "settle", method: "GET", path: "/v1/results/" + o.req.key, key: o.req.key}
		deadline := time.Now().Add(30 * time.Second)
		for {
			g := svc.send(r, "perfbench-settle", time.Now())
			if g.ok() {
				got = append(got, g)
				break
			}
			if time.Now().After(deadline) {
				rep.mismatch("enqueued %s never settled: status %d, %v", short(o.req.key), g.status, g.err)
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for k, v := range verifyResponses(rep, got) {
		served[k] = v
	}
}

// directSpecs is what the in-process check re-simulates: the whole hit
// set and a seeded sample of the other distinct cells the run served.
func directSpecs(g *cellGen, outs []outcome, served map[string]string, seed int64) (hits, sample []job.Spec) {
	seen := map[string]bool{}
	for _, k := range g.hkeys {
		seen[k] = true
	}
	var pool []job.Spec
	for i := range outs {
		r := outs[i].req
		if r == nil || seen[r.key] {
			continue
		}
		if _, ok := served[r.key]; ok {
			seen[r.key] = true
			pool = append(pool, r.spec)
		}
	}
	rng := rand.New(rand.NewSource(seed + 7))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > directSample {
		pool = pool[:directSample]
	}
	return g.hits, pool
}

// directCheck re-simulates the hit set and a sample of the other cells on
// job.Direct and compares digests with what the service served.
func directCheck(rep *report, g *cellGen, outs []outcome, served map[string]string, seed int64) {
	hits, sample := directSpecs(g, outs, served, seed)
	for _, s := range append(hits, sample...) {
		j, err := s.Plan()
		if err != nil {
			rep.mismatch("plan %v: %v", s, err)
			continue
		}
		run, err := job.Direct{}.Run(context.Background(), j)
		if err != nil {
			rep.mismatch("direct %s/%s: %v", s.Scheme, s.Benchmark, err)
			continue
		}
		if got, want := job.ResultDigest(run), served[j.Key()]; got != want {
			rep.mismatch("served %s/%s/%d: digest %s, job.Direct %s", s.Scheme, s.Benchmark, s.Warmup, short(want), short(got))
		}
	}
}

// serveCore is the traced run's check: the same cells, run by calling
// core directly with spans, give the cold-cell core.* figures (sample)
// and the exact sim.* and attr.* figures (hit set, which no seed changes).
func serveCore(rep *report, g *cellGen, outs []outcome, served map[string]string, seed int64) error {
	hits, sample := directSpecs(g, outs, served, seed)
	cold := &inprocRun{tr: newTracer()}
	hot := &inprocRun{tr: newTracer()}
	for _, set := range []struct {
		r     *inprocRun
		specs []job.Spec
	}{{cold, sample}, {hot, hits}} {
		var res []coreResult
		for _, s := range set.specs {
			j, err := s.Plan()
			if err != nil {
				return err
			}
			set.r.jobs = append(set.r.jobs, j)
			res = append(res, set.r.coreCell(j))
		}
		set.r.ref = served
		set.r.checkCore(rep, res)
	}
	cold.core.fill(rep.metrics)
	m := map[string]float64{}
	hot.core.fill(m)
	for k, v := range m {
		if strings.HasPrefix(k, "sim.") || strings.HasPrefix(k, "attr.") {
			rep.metrics[k] = v
		}
	}
	return nil
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// logLine is one dcaserve access-log line.
type logLine struct {
	Pattern  string  `json:"pattern"`
	Status   int     `json:"status"`
	DurMS    float64 `json:"dur_ms"`
	ClientID string  `json:"client_id"`
}

// serverLedger reads dcaserve's access log: per-route server time, the
// transport share of client latency (traced runs join each request to its
// line by X-Client-ID), and the ledger check that the log's durations sum
// to the /metrics latency histograms' over the same requests.
func serverLedger(rep *report, svc *service, all []outcome, before, after map[string]float64, traced bool) error {
	raw, err := os.ReadFile(svc.server.log)
	if err != nil {
		return err
	}
	m := rep.metrics
	var (
		lines   []logLine
		inPhase bool
	)
	for _, text := range strings.Split(string(raw), "\n") {
		i := strings.IndexByte(text, '{')
		if i < 0 {
			continue
		}
		var l logLine
		if json.Unmarshal([]byte(text[i:]), &l) != nil || l.Pattern == "" {
			continue
		}
		switch l.ClientID {
		case "perfbench-scrape-1":
			inPhase = true
		case "perfbench-scrape-2":
			inPhase = false
			continue
		}
		if inPhase {
			lines = append(lines, l)
		}
	}
	byRoute := map[string][]float64{}
	byClient := map[string]float64{}
	logSum := 0.0
	for _, l := range lines {
		byRoute[l.Pattern] = append(byRoute[l.Pattern], l.DurMS)
		byClient[l.ClientID] = l.DurMS
		if l.Pattern != "POST /v1/leases" {
			logSum += l.DurMS
		}
	}
	m["server.jobs_ms"] = median(byRoute["POST /v1/jobs"])
	m["server.results_ms"] = median(byRoute["GET /v1/results/{key}"])
	m["server.queue_ms"] = median(byRoute["POST /v1/queue"])
	m["server.lease_ms"] = median(byRoute["POST /v1/leases"])
	m["server.complete_ms"] = median(byRoute["POST /v1/leases/{id}/complete"])

	metricSum := 0.0
	for series, v := range after {
		if strings.HasPrefix(series, "http_request_seconds_sum{") && !strings.Contains(series, `"POST /v1/leases"`) {
			metricSum += 1e3 * (v - before[series])
		}
	}
	if logSum > 0 {
		m["ledger.sum_err_pct"] = 100 * math.Abs(logSum-metricSum) / logSum
	}
	if traced {
		var transport []float64
		joined := 0
		for i := range all {
			o := &all[i]
			if o.req == nil || !o.ok() {
				continue
			}
			if d, ok := byClient[o.clientID]; ok && o.clientID != "perfbench" {
				transport = append(transport, ms(o.done.Sub(o.sent))-d)
				joined++
			}
		}
		m["http.transport_ms"] = median(transport)
		fmt.Printf("perfbench: joined %d of %d requests to their access-log lines; log %.3f ms, /metrics %.3f ms\n", joined, len(all), logSum, metricSum)
		if m["ledger.sum_err_pct"] > ledgerTolerancePct {
			rep.mismatch("serve-mix ledger: access-log durations sum to %.3f ms, /metrics histograms to %.3f ms", logSum, metricSum)
		}
	}
	return nil
}
