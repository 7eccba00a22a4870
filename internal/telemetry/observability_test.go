package telemetry

import (
	"context"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Snapshot / HistogramSnapshot merge edge cases ---

func TestSnapshotMergeEmptyBoth(t *testing.T) {
	m := (Snapshot{}).Merge(Snapshot{})
	if !m.Empty() {
		t.Fatalf("empty ∪ empty not empty: %+v", m)
	}
	// Merging a populated snapshot into an empty one (and vice versa) must
	// preserve it untouched.
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Histogram("h").Observe(time.Millisecond)
	s := r.Snapshot()
	for _, m := range []Snapshot{(Snapshot{}).Merge(s), s.Merge(Snapshot{})} {
		if m.Counters["c"] != 5 || m.Histograms["h"].Count != 1 {
			t.Fatalf("merge with empty lost data: %+v", m)
		}
	}
}

func TestSnapshotMergeDisjointNames(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("only1").Add(1)
	r1.Gauge("g1").Add(7)
	r1.Float("f1").Add(0.5)
	r1.Histogram("h1").Observe(time.Millisecond)
	r2.Counter("only2").Add(2)
	r2.Gauge("g2").Add(-3)
	r2.Float("f2").Add(1.5)
	r2.Histogram("h2").Observe(2 * time.Millisecond)

	m := r1.Snapshot().Merge(r2.Snapshot())
	if m.Counters["only1"] != 1 || m.Counters["only2"] != 2 {
		t.Fatalf("counters = %v", m.Counters)
	}
	if m.Gauges["g1"] != 7 || m.Gauges["g2"] != -3 {
		t.Fatalf("gauges = %v", m.Gauges)
	}
	if m.Floats["f1"] != 0.5 || m.Floats["f2"] != 1.5 {
		t.Fatalf("floats = %v", m.Floats)
	}
	if m.Histograms["h1"].Count != 1 || m.Histograms["h2"].Count != 1 {
		t.Fatalf("histograms = %v", m.Histograms)
	}
	// Disjoint-name merge must not cross-contaminate: h1 keeps its own
	// min/max.
	if m.Histograms["h1"].Max != time.Millisecond {
		t.Fatalf("h1 max = %v, want 1ms", m.Histograms["h1"].Max)
	}
}

func TestHistogramMergeQuantiles(t *testing.T) {
	// Two nodes observing disjoint latency bands: quantiles of the merge
	// must reflect the union, not either side.
	fast, slow := newHistogram(), newHistogram()
	for i := 0; i < 90; i++ {
		fast.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		slow.Observe(512 * time.Millisecond)
	}
	m := fast.Snapshot().Merge(slow.Snapshot())
	if m.Count != 100 {
		t.Fatalf("count = %d", m.Count)
	}
	if m.Min != time.Millisecond || m.Max != 512*time.Millisecond {
		t.Fatalf("min/max = %v/%v", m.Min, m.Max)
	}
	// P50 lands in the fast band, P99 in the slow band (exponential buckets
	// are within a factor of ~2).
	if m.P50 > 4*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms", m.P50)
	}
	if m.P99 < 256*time.Millisecond {
		t.Fatalf("p99 = %v, want ~512ms", m.P99)
	}
	// Quantile must be monotone in p and clamped to [Min, Max].
	prev := time.Duration(0)
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		q := m.Quantile(p)
		if q < prev {
			t.Fatalf("quantile(%v) = %v < quantile(prev) = %v", p, q, prev)
		}
		if q < m.Min || q > m.Max {
			t.Fatalf("quantile(%v) = %v outside [%v, %v]", p, q, m.Min, m.Max)
		}
		prev = q
	}
	// Merge order must not matter.
	rev := slow.Snapshot().Merge(fast.Snapshot())
	if rev.Count != m.Count || rev.P50 != m.P50 || rev.P99 != m.P99 {
		t.Fatalf("merge not commutative: %+v vs %+v", rev, m)
	}
}

// --- Tracer stress (run with -race) ---

func TestTracerRecordStress(t *testing.T) {
	// A deliberately tiny ring so concurrent record calls constantly wrap
	// while Spans() snapshots under way: the race detector checks the
	// locking, the assertions check nothing is lost or duplicated.
	const (
		capacity   = 8
		goroutines = 16
		perG       = 500
	)
	tr := NewTracer(capacity)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader while the ring churns
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range tr.Spans() {
				if s.Name == "" {
					t.Error("snapshot contains zero-value span")
					return
				}
			}
		}
	}()

	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				ctx, root := tr.Start(context.Background(), "stress")
				_, child := tr.Start(ctx, "stress.child")
				child.AddTiming("wait", time.Microsecond)
				child.End()
				root.SetAttr("k", "v")
				root.End()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	want := uint64(goroutines * perG * 2)
	if got := tr.Recorded(); got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
	if got := len(tr.Spans()); got != capacity {
		t.Fatalf("ring holds %d spans, want capacity %d", got, capacity)
	}
}

// --- Prometheus exposition ---

// parsePromFamilies is a minimal parser for the Prometheus text format
// (0.0.4): it checks line shapes and returns samples keyed by full series
// (name plus raw label string).
func parsePromFamilies(t *testing.T, text string) (types map[string]string, samples map[string]float64, order []string) {
	t.Helper()
	types = make(map[string]string)
	samples = make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "TYPE" {
				t.Fatalf("bad comment line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			base = name[:i]
		}
		for _, c := range base {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
				t.Fatalf("invalid metric name char %q in %q", c, base)
			}
		}
		samples[name] = v
		order = append(order, name)
	}
	return types, samples, order
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("faas.invocations").Add(42)
	r.Gauge("server.inflight").Add(3)
	r.Float("faas.billed_gb_seconds").Add(1.5)
	h := r.Histogram("client.rpc")
	h.Observe(100 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(3 * time.Millisecond)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	types, samples, _ := parsePromFamilies(t, b.String())

	if types["crucial_faas_invocations_total"] != "counter" {
		t.Fatalf("types = %v", types)
	}
	if samples["crucial_faas_invocations_total"] != 42 {
		t.Fatalf("counter sample = %v", samples["crucial_faas_invocations_total"])
	}
	if types["crucial_server_inflight"] != "gauge" || samples["crucial_server_inflight"] != 3 {
		t.Fatalf("gauge: type=%q value=%v",
			types["crucial_server_inflight"], samples["crucial_server_inflight"])
	}
	if samples["crucial_faas_billed_gb_seconds_total"] != 1.5 {
		t.Fatalf("float sample = %v", samples["crucial_faas_billed_gb_seconds_total"])
	}

	// Histogram invariants: cumulative buckets non-decreasing, +Inf bucket
	// equals _count, _sum in seconds.
	if types["crucial_client_rpc_seconds"] != "histogram" {
		t.Fatalf("histogram type = %q", types["crucial_client_rpc_seconds"])
	}
	var sawInf bool
	for name, v := range samples {
		if !strings.HasPrefix(name, "crucial_client_rpc_seconds_bucket{") {
			continue
		}
		if strings.Contains(name, `le="+Inf"`) {
			sawInf = true
			if v != samples["crucial_client_rpc_seconds_count"] {
				t.Fatalf("+Inf bucket %v != count %v",
					v, samples["crucial_client_rpc_seconds_count"])
			}
		}
		if v > samples["crucial_client_rpc_seconds_count"] {
			t.Fatalf("bucket %q = %v exceeds count", name, v)
		}
	}
	if !sawInf {
		t.Fatal("histogram missing +Inf bucket")
	}
	if samples["crucial_client_rpc_seconds_count"] != 3 {
		t.Fatalf("count = %v", samples["crucial_client_rpc_seconds_count"])
	}
	wantSum := (100*time.Microsecond + 6*time.Millisecond).Seconds()
	if got := samples["crucial_client_rpc_seconds_sum"]; got < wantSum*0.999 || got > wantSum*1.001 {
		t.Fatalf("sum = %v, want ~%v", got, wantSum)
	}

	// Cumulative ordering: walk the le buckets in emission order.
	var lastCum float64 = -1
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "crucial_client_rpc_seconds_bucket{") {
			continue
		}
		_, rest, _ := strings.Cut(line, "} ")
		v, _ := strconv.ParseFloat(rest, 64)
		if v < lastCum {
			t.Fatalf("cumulative bucket decreased: %q after %v", line, lastCum)
		}
		lastCum = v
	}
}

func TestPromNameSanitization(t *testing.T) {
	got := promName("client.call.AtomicLong-v2")
	want := "crucial_client_call_AtomicLong_v2"
	if got != want {
		t.Fatalf("promName = %q, want %q", got, want)
	}
}

// --- HTTP endpoint ---

func TestHTTPEndpoints(t *testing.T) {
	tel := New()
	tel.Metrics().Counter("server.invocations").Add(9)
	_, s := tel.Tracer().Start(context.Background(), "server.invoke")
	s.End()

	srv := httptest.NewServer(HTTPHandler("n1", tel))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	_ = res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	_, samples, _ := parsePromFamilies(t, string(body))
	if samples["crucial_server_invocations_total"] != 9 {
		t.Fatalf("scraped counter = %v", samples["crucial_server_invocations_total"])
	}
	// The wire-codec counters (process-wide atomics in internal/core) must
	// ride along on every scrape, even when their values are zero.
	for _, name := range []string{
		"crucial_codec_fast_encodes_total",
		"crucial_codec_fast_decodes_total",
		"crucial_codec_fallback_values_total",
		"crucial_codec_gob_streams_total",
	} {
		if !strings.Contains(string(body), "# TYPE "+name+" counter") {
			t.Fatalf("/metrics missing codec counter %s", name)
		}
	}

	tr, err := srv.Client().Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	tbody, err := io.ReadAll(tr.Body)
	_ = tr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := tr.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("traces content type = %q", ct)
	}
	if !strings.Contains(string(tbody), "server.invoke") {
		t.Fatalf("traces endpoint missing span: %s", tbody)
	}
}
