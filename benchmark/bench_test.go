package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/storage/s3sim"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileIsNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianQuartilesSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// steady drops the worst third (rounded down) by the metric's own
	// direction and averages the rest, whatever the order.
	six := []float64{40, 10, 30, 60, 20, 50}
	if got := steady(six, lower); got != 25 {
		t.Errorf("steady lower = %v, want the mean of 10..40", got)
	}
	if got := steady(six, higher); got != 45 {
		t.Errorf("steady higher = %v, want the mean of 30..60", got)
	}
	if got := steady([]float64{3, 1}, lower); got != 2 {
		t.Errorf("steady of two = %v, want their mean", got)
	}
	if got := steady(nil, lower); got != 0 {
		t.Errorf("steady of nothing = %v, want 0", got)
	}
	if six[0] != 40 {
		t.Error("steady reordered its argument")
	}
	// Values of Python's statistics.quantiles(data, n=4).
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3}); !near(q1, 1) || !near(q3, 3) {
		t.Errorf("quartiles(1,2,3) = %v, %v, want 1, 3", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread(ten); !near(got, 5.5/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := worseBy(higher, 100, 90); !near(got, 0.10) {
		t.Errorf("worseBy higher = %v", got)
	}
	if got := worseBy(lower, 100, 90); !near(got, -0.10) {
		t.Errorf("worseBy lower = %v", got)
	}
}

// TestSliceStats feeds a recorder known samples and checks the per-slice
// arithmetic and that the reported value is the steady mean over slices.
func TestSliceStats(t *testing.T) {
	rec := newRecorder(2)
	sec := int64(time.Second)
	bounds := []boundary{
		{at: 0, cpu: 0, mallocs: 0},
		{at: sec, cpu: 100 * time.Millisecond, mallocs: 1000},
		{at: 2 * sec, cpu: 400 * time.Millisecond, mallocs: 5000},
		{at: 3 * sec, cpu: 500 * time.Millisecond, mallocs: 5500},
	}
	put := func(lane int, end, latUs int64) {
		rec.lanes[lane].samples = append(rec.lanes[lane].samples, sample{end: end, lat: latUs * 1000})
	}
	for i := int64(0); i < 10; i++ { // slice 0: 10 ops of 1..10 us
		put(int(i%2), i*sec/10, i+1)
	}
	for i := int64(0); i < 20; i++ { // slice 1: 20 ops of 100 us
		put(int(i%2), sec+i*sec/20, 100)
	}
	for i := int64(0); i < 5; i++ { // slice 2: 5 ops of 50 us, one failure
		put(0, 2*sec+i*sec/5, 50)
	}
	rec.lanes[1].samples = append(rec.lanes[1].samples, sample{end: 2*sec + 1, lat: -1})
	put(0, 3*sec, 1) // on the closing edge: outside the window
	put(0, -5, 1)    // before it

	ws := sliceStats(rec, bounds)
	if ws.attempted != 36 || ws.failed != 1 || ws.samples != 35 {
		t.Fatalf("attempted=%d failed=%d samples=%d, want 36 1 35", ws.attempted, ws.failed, ws.samples)
	}
	want := map[string][]float64{
		"ops_per_s":     {10, 20, 5},
		"op_p50_us":     {5, 100, 50},
		"op_p99_us":     {10, 100, 50},
		"cpu_us_per_op": {10000, 15000, 20000},
		"allocs_per_op": {100, 200, 100},
	}
	for name, vs := range want {
		got := ws.perSlice[name]
		if len(got) != len(vs) {
			t.Fatalf("%s: %v, want %v", name, got, vs)
		}
		for i := range vs {
			if !near(got[i], vs[i]) {
				t.Errorf("%s slice %d = %v, want %v", name, i, got[i], vs[i])
			}
		}
	}
	res := newResult(workloadSpec{Name: "w", Callers: 1}, 1, 3, false)
	res.fill(measured{stats: ws})
	if got := res.Metrics["ops_per_s"].Value; got != 15 {
		t.Errorf("ops_per_s = %v, want 15, the mean of the two best slices", got)
	}
	if got := res.Metrics["op_p50_us"].Value; got != 27.5 {
		t.Errorf("op_p50_us = %v, want 27.5, the mean of the two best slices", got)
	}
	if got := res.Metrics[failRatio].Value; !near(got, 1.0/36) {
		t.Errorf("fail_ratio = %v, want 1/36", got)
	}
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, w := range []string{"kv_read_mostly", "kv_write_hot", "statefun_call"} {
		a, err := opsHash(w, 42, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := opsHash(w, 42, 10_000)
		c, _ := opsHash(w, 43, 10_000)
		if a != b {
			t.Errorf("%s: seed 42 gave two different sequences", w)
		}
		if a == c {
			t.Errorf("%s: seeds 42 and 43 gave the same sequence", w)
		}
	}
	// The read-mostly mix is what it says: about 5% writes, each to a
	// cell the issuing caller owns.
	g, err := newOpGen("kv_read_mostly", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for i := 0; i < 20_000; i++ {
		if o := g.next(); o.Kind == opPut {
			writes++
			if o.Key%callers != 3 || o.Key >= kvCells {
				t.Fatalf("caller 3 writes cell %d", o.Key)
			}
		}
	}
	if writes < 800 || writes > 1200 {
		t.Errorf("%d writes in 20000 operations, want about 1000", writes)
	}
}

func TestValueRoundTrip(t *testing.T) {
	buf := make([]byte, readValueLen)
	fillValue(buf, 4095, 1<<40)
	key, version, err := parseValue(buf)
	if err != nil || key != 4095 || version != 1<<40 {
		t.Fatalf("parseValue = %d, %d, %v", key, version, err)
	}
	buf[100] ^= 1
	if _, _, err := parseValue(buf); err == nil {
		t.Error("a flipped bit went unnoticed")
	}
	if _, _, err := parseValue(buf[:5]); err == nil {
		t.Error("a truncated value went unnoticed")
	}
}

// failingTransport refuses everything with a known error.
type failingTransport struct{ err error }

func (f failingTransport) Listen(string) (net.Listener, error) { return nil, f.err }
func (f failingTransport) Dial(string) (net.Conn, error)       { return nil, f.err }

func TestCountingTransportPassesBytesAndErrors(t *testing.T) {
	tr := newTracer()
	ct := countingTransport{inner: rpc.NewMemNetwork(), t: tr}
	l, err := ct.Listen("dso-01")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	dialed, err := ct.Dial("dso-01")
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	srv := <-accepted
	defer srv.Close()

	// Two frames, the second split across writes: one KindInvoke request
	// of 5 payload bytes and one KindPropose request of 3.
	frame := func(kind uint8, payload string) []byte {
		b := []byte{0, 0, 0, byte(len(payload)), 0, 0, 0, 0, 0, 0, 0, 1, kind, 0x01}
		return append(b, payload...)
	}
	stream := append(frame(server.KindInvoke, "hello"), frame(server.KindPropose, "abc")...)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(stream))
		n := 0
		for n < len(buf) {
			m, err := srv.Read(buf[n:])
			if err != nil {
				t.Error(err)
				break
			}
			n += m
		}
		got <- buf[:n]
	}()
	for _, part := range [][]byte{stream[:20], stream[20:25], stream[25:]} {
		if n, err := dialed.Write(part); err != nil || n != len(part) {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	if b := <-got; !bytes.Equal(b, stream) {
		t.Fatalf("bytes changed in transit: %x, want %x", b, stream)
	}
	links := tr.links()
	if c := links[linkClient]; c.frames != 2 || c.bytes != int64(len(stream)) || c.writes != 3 {
		t.Errorf("client link counted %+v, want 2 frames, %d bytes, 3 writes", c, len(stream))
	}
	if p := links[linkPeer]; p.frames != 0 {
		t.Errorf("the accepting side wrote nothing but counts %+v", p)
	}

	boom := errors.New("boom")
	bad := countingTransport{inner: failingTransport{boom}, t: tr}
	if _, err := bad.Dial("x"); err != boom {
		t.Errorf("Dial error = %v, want the inner error unchanged", err)
	}
	if _, err := bad.Listen("x"); err != boom {
		t.Errorf("Listen error = %v, want the inner error unchanged", err)
	}
	// A connection to a cache listener is classed by its address.
	if c := (&connStats{addr: "cache-client-01"}); c.class() != linkCache {
		t.Error("cache-client address not classed as a cache link")
	}
	if c := (&connStats{addr: "dso-02"}); c.class() != linkPeer {
		t.Error("a connection that never carried an invoke is a peer link")
	}
}

func TestCountingStorePassesDataAndErrors(t *testing.T) {
	tr := newTracer()
	inner := s3sim.New(s3sim.Options{ListLag: -1})
	store := tr.wrapStore(inner)
	ctx := context.Background()
	if err := store.Put(ctx, "wal/n/seg-1", []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if ok, err := store.PutIfAbsent(ctx, "snap/n/latest", []byte("xy")); err != nil || !ok {
		t.Fatalf("PutIfAbsent = %v, %v", ok, err)
	}
	if ok, err := store.PutIfAbsent(ctx, "snap/n/latest", []byte("zz")); err != nil || ok {
		t.Fatalf("second PutIfAbsent = %v, %v, want false", ok, err)
	}
	if data, err := store.Get(ctx, "wal/n/seg-1"); err != nil || string(data) != "abcdef" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	direct, _ := inner.Get(ctx, "snap/n/latest")
	if string(direct) != "xy" {
		t.Fatalf("inner store holds %q, want xy", direct)
	}
	keys, err := store.List(ctx, "wal/")
	if err != nil || len(keys) != 1 || keys[0] != "wal/n/seg-1" {
		t.Fatalf("List = %v, %v", keys, err)
	}
	if err := store.Delete(ctx, "wal/n/seg-1"); err != nil {
		t.Fatal(err)
	}
	_, wantErr := inner.Get(ctx, "wal/n/seg-1")
	if _, err := store.Get(ctx, "wal/n/seg-1"); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("Get of a deleted key = %v, want the inner error %v", err, wantErr)
	}
	tot := tr.storeTotals()
	if tot.puts != 3 || tot.walBytes != 6 || tot.snapPuts != 2 || tot.snapLen != 4 {
		t.Errorf("store counted %+v", tot)
	}
	if n := len(tr.durations("durability.put", 0, math.MaxInt64)); n != 1 {
		t.Errorf("%d durability.put spans, want 1", n)
	}
}

func TestJudge(t *testing.T) {
	m := metricSpec{Name: "op_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	steady := []float64{100, 101, 99}
	for _, c := range []struct {
		name string
		cur  []float64
		want string
	}{
		{"same", []float64{100, 102, 98}, verdictWithin},
		{"slower", []float64{130, 131, 129}, verdictWorse},
		{"faster", []float64{70, 71, 69}, verdictBetter},
		{"noisy", []float64{80, 105, 140}, verdictUnresolved},
	} {
		if got, _, _ := judge(m, steady, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	fr := metricSpec{Name: failRatio, Better: lower}
	if got, _, _ := judge(fr, []float64{0, 0, 0}, []float64{0, 0.01, 0.01}); got != verdictWorse {
		t.Errorf("a higher fail_ratio judged %q", got)
	}
	if got, _, _ := judge(fr, []float64{0, 0, 0}, []float64{0, 0, 0}); got != verdictWithin {
		t.Errorf("an equal fail_ratio judged %q", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code measures %d", doc.RunSeconds, defaultSeconds)
	}
	if strings.Join(doc.Command, " ") != "bash benchmark/run.sh" || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: JSON %q, code %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in JSON, %d in code", len(doc.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: JSON %+v, code %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in JSON, %d in code", len(doc.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: JSON %+v, code %+v", i, j, m)
		}
		if seen[m.Name] {
			t.Errorf("%s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmokeTraced runs one short traced run on a workload that has both
// wrappers in place and checks that every per-layer metric BENCHMARK.json
// names comes out, with frames and storage puts actually counted.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters and runs the probes")
	}
	w, _ := findWorkload("kv_write_hot")
	res, err := runTraced(w, 7, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("correctness: %s", res.CheckErr)
	}
	for _, jm := range readBenchmarkJSON(t).PerLayer {
		if _, ok := res.Metrics[jm.Name]; !ok {
			t.Errorf("per-layer metric %s named in BENCHMARK.json was not measured", jm.Name)
		}
	}
	if _, err := res.contractLine(perLayer); err != nil {
		t.Error(err)
	}
	for _, name := range []string{
		"rpc.client_frames_per_op", "rpc.peer_frames_per_op", "durability.puts_per_op",
		"server.invoke_rf2_full_us", "trace.overhead_ratio", "client.calls_per_op",
	} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive value on kv_write_hot", name, res.Metrics[name].Value)
		}
	}
	if len(res.Spans) == 0 {
		t.Error("no benchmark-owned spans kept")
	}
}

// TestSmokeEveryWorkload runs every workload for half a second with one
// set-up and checks that it yields every end-to-end metric BENCHMARK.json
// names, a passing correctness check and a well-formed contract line.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four clusters")
	}
	doc := readBenchmarkJSON(t)
	for _, jw := range doc.Workloads {
		w, ok := findWorkload(jw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, the code has none", jw.Name)
		}
		res, err := runGated(w, 7, 0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s: %s", w.Name, res.CheckErr)
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, res.Attempted, res.Failed)
		}
		for _, jm := range doc.EndToEnd {
			v, ok := res.Metrics[jm.Name]
			if !ok {
				t.Errorf("%s: metric %s named in BENCHMARK.json was not measured", w.Name, jm.Name)
			} else if v.Value <= 0 || v.Unit != jm.Unit {
				t.Errorf("%s: %s = %v %s, want a positive value in %s", w.Name, jm.Name, v.Value, v.Unit, jm.Unit)
			}
		}
		line, err := res.contractLine(endToEnd)
		if err != nil {
			t.Fatal(err)
		}
		var parsed map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &parsed); err != nil || len(parsed) != 4 {
			t.Errorf("%s: contract line %s", w.Name, line)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := parsed[key]; !ok {
				t.Errorf("%s: contract line lacks %q", w.Name, key)
			}
		}
	}
}
