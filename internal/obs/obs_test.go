package obs

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// render returns the registry's exposition text.
func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCounterGaugeRender checks the basic sample lines, HELP/TYPE headers,
// and deterministic family ordering.
func TestCounterGaugeRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("zz_total", "the last family")
	g := reg.Gauge("aa_depth", "the first family")
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)

	out := render(t, reg)
	for _, want := range []string{
		"# HELP aa_depth the first family\n# TYPE aa_depth gauge\naa_depth 5\n",
		"# HELP zz_total the last family\n# TYPE zz_total counter\nzz_total 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, "aa_depth") > strings.Index(out, "zz_total") {
		t.Error("families not sorted by name")
	}
	// A counter cannot run backwards.
	c.Add(-10)
	if c.Value() != 4 {
		t.Errorf("counter accepted a negative delta: %v", c.Value())
	}
}

// TestLabeledSeries checks label rendering, escaping, and sorted series.
func TestLabeledSeries(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("req_total", "requests", "endpoint", "code")
	v.With("POST /v1/jobs", "200").Add(2)
	v.With("GET /healthz", "200").Inc()
	v.With(`quo"te`, "500").Inc()

	out := render(t, reg)
	for _, want := range []string{
		`req_total{endpoint="GET /healthz",code="200"} 1`,
		`req_total{endpoint="POST /v1/jobs",code="200"} 2`,
		`req_total{endpoint="quo\"te",code="500"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, "GET /healthz") > strings.Index(out, "POST /v1/jobs") {
		t.Error("series not sorted by label values")
	}
}

// TestHistogramRender checks cumulative buckets, +Inf, _sum and _count.
func TestHistogramRender(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := render(t, reg)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 56.05`,
		`lat_seconds_count 5`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

// TestFuncMetricsAndCollect checks func-backed families and the OnCollect
// hook ordering (hooks run before values render).
func TestFuncMetricsAndCollect(t *testing.T) {
	reg := NewRegistry()
	depth := 0
	reg.GaugeFunc("queue_depth", "from fn", func() float64 { return float64(depth) })
	hits := reg.Counter("hits_total", "mirrored")
	reg.OnCollect(func() { hits.Add(10) })
	depth = 42

	out := render(t, reg)
	if !strings.Contains(out, "queue_depth 42\n") {
		t.Errorf("func gauge stale:\n%s", out)
	}
	if !strings.Contains(out, "hits_total 10\n") {
		t.Errorf("OnCollect hook did not run before render:\n%s", out)
	}
}

// TestRegistrationPanics checks the programmer-error guards.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("ok_total", "")
	mustPanic("duplicate", func() { reg.Counter("ok_total", "") })
	mustPanic("bad name", func() { reg.Counter("1bad", "") })
	mustPanic("bad label", func() { reg.CounterVec("v_total", "", "bad-label") })
	mustPanic("arity", func() { reg.CounterVec("w_total", "", "a").With("x", "y") })
	mustPanic("buckets", func() { reg.Histogram("h_seconds", "", []float64{1, 1}) })
}

// TestConcurrentUpdates hammers one counter, gauge and histogram from many
// goroutines (run under -race) and checks the totals.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h_seconds", "", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 {
		t.Errorf("counter %v gauge %v, want 8000 each", c.Value(), g.Value())
	}
	if !strings.Contains(render(t, reg), `h_seconds_bucket{le="+Inf"} 8000`) {
		t.Error("histogram lost observations")
	}
}

// sampleLine matches one exposition sample (name, optional labels, value).
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+\-]+|\+Inf|NaN)$`)

// TestExpositionWellFormed validates every rendered line against the text
// format grammar — the contract a real Prometheus scraper relies on.
func TestExpositionWellFormed(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "with\nnewline").Inc()
	reg.GaugeVec("b", "", "x").With("v").Set(1.5)
	reg.HistogramVec("c_seconds", "", nil, "endpoint").With("GET /z").Observe(0.01)
	reg.GaugeFunc("d", "", func() float64 { return 3 })

	sc := bufio.NewScanner(strings.NewReader(render(t, reg)))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			if strings.Contains(line[7:], "\n") {
				t.Errorf("unescaped newline in %q", line)
			}
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestHTTPMetricsMiddleware drives an instrumented mux and checks the
// per-endpoint counters, histogram counts and in-flight gauge round-trip.
func TestHTTPMetricsMiddleware(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("GET /ok", m.Handler("GET /ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "hi")
	})))
	mux.Handle("GET /fail", m.Handler("GET /fail", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	})))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/ok")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/fail")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out := render(t, reg)
	for _, want := range []string{
		`http_requests_total{endpoint="GET /ok",code="200"} 3`,
		`http_requests_total{endpoint="GET /fail",code="418"} 1`,
		`http_request_seconds_count{endpoint="GET /ok"} 3`,
		`http_inflight_requests{endpoint="GET /ok"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestAccessLog checks one JSON line per request with the route pattern
// visible to the outermost middleware, and that Flush still reaches the
// underlying writer through the recorder.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	mux := http.NewServeMux()
	var flushed atomic.Bool
	mux.HandleFunc("GET /stream", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "data")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
			flushed.Store(true)
		}
		w.WriteHeader(http.StatusOK) // late, must not clobber recorded status
	})
	ts := httptest.NewServer(AccessLog(mux, logf))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stream", nil)
	req.Header.Set("X-Client-ID", "tester")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The client can hold a response before the server's handler — and the
	// access-log line written after it — has returned (the flushed
	// /stream body arrives before its handler ends). Close waits for every
	// in-flight handler, so the lines are complete after it.
	ts.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2: %q", len(lines), lines)
	}
	stream, missing := lines[0], lines[1]
	if !strings.Contains(stream, `"path":"/stream"`) {
		stream, missing = missing, stream
	}
	for _, want := range []string{`"path":"/stream"`, `"pattern":"GET /stream"`, `"status":200`, `"bytes":4`, `"client_id":"tester"`} {
		if !strings.Contains(stream, want) {
			t.Errorf("stream log line missing %s: %s", want, stream)
		}
	}
	if !strings.Contains(missing, `"status":404`) {
		t.Errorf("unmatched request not logged as 404: %s", missing)
	}
	if !flushed.Load() {
		t.Error("recorder did not expose Flush")
	}
}
