package chaos

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"crucial/internal/rpc"
	"crucial/internal/telemetry"
)

const (
	flagRequest  = 0x01 // mirrors rpc's unexported frame flags
	flagResponse = 0x02
)

// makeFrame builds one wire frame: header (len, id, kind, flags) + payload.
func makeFrame(id uint64, kind, flags uint8, payload []byte) []byte {
	buf := make([]byte, rpc.FrameHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(buf[4:12], id)
	buf[12] = kind
	buf[13] = flags
	copy(buf[rpc.FrameHeaderSize:], payload)
	return buf
}

// A Write may carry any cut of the byte stream; the network hands the
// verdict whole frames regardless. Fed one byte at a time, a stream of
// three frames reaches the verdict as three frames, the one it drops
// vanishes, and the others arrive intact.
func TestVerdictSeesWholeFramesOfFragmentedWrites(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	dialer, remote := dialPair(t, e, "a", "b")
	e.AddRule(Rule{Kind: 7, Faults: LinkFaults{Drop: 1}})

	f1 := makeFrame(1, 8, flagRequest, []byte("hello"))
	f2 := makeFrame(2, 7, flagRequest, []byte("dropped"))
	f3 := makeFrame(3, 8, flagResponse, nil)
	stream := append(append(append([]byte{}, f1...), f2...), f3...)
	for _, b := range stream {
		if _, err := dialer.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if got := readFrame(t, remote, time.Second); !bytes.Equal(got, f1) {
		t.Fatalf("first frame %x, want %x", got, f1)
	}
	if got := readFrame(t, remote, time.Second); !bytes.Equal(got, f3) {
		t.Fatalf("second frame %x, want %x", got, f3)
	}
	if got := e.Counts().FramesDropped; got != 1 {
		t.Fatalf("frames dropped = %d, want 1", got)
	}
}

func TestMatchName(t *testing.T) {
	cases := []struct {
		pat, name string
		want      bool
	}{
		{"", "anything", true},
		{"*", "anything", true},
		{"dso-01", "dso-01", true},
		{"dso-01", "dso-02", false},
		{"client-*", "client-07", true},
		{"client-*", "dso-01", false},
	}
	for _, c := range cases {
		if got := matchName(c.pat, c.name); got != c.want {
			t.Errorf("matchName(%q, %q) = %v, want %v", c.pat, c.name, got, c.want)
		}
	}
}

// dialPair connects a chaos endpoint to a plain listener on a fresh
// in-memory network, returning the wrapped dialer conn and the raw
// accepted conn.
func dialPair(t *testing.T, e *Engine, local, addr string) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := e.inner.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer, err := e.Endpoint(local).Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialer.Close() })
	remote := <-accepted
	t.Cleanup(func() { remote.Close() })
	return dialer, remote
}

// write writes a stream of one or more whole frames. The network queues
// it for the reader, so the test reads it back on its own goroutine.
func write(t *testing.T, c net.Conn, stream []byte) {
	t.Helper()
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
}

// readFrame reads exactly one frame from a raw conn.
func readFrame(t *testing.T, c net.Conn, timeout time.Duration) []byte {
	t.Helper()
	type result struct {
		frame []byte
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		hdr := make([]byte, rpc.FrameHeaderSize)
		if _, err := io.ReadFull(c, hdr); err != nil {
			ch <- result{nil, err}
			return
		}
		meta := rpc.ParseFrameHeader(hdr)
		frame := make([]byte, rpc.FrameHeaderSize+meta.PayloadLen)
		copy(frame, hdr)
		if _, err := io.ReadFull(c, frame[rpc.FrameHeaderSize:]); err != nil {
			ch <- result{nil, err}
			return
		}
		ch <- result{frame, nil}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("read frame: %v", r.err)
		}
		return r.frame
	case <-time.After(timeout):
		t.Fatal("timed out waiting for a frame")
		return nil
	}
}

func TestPartitionRefusesDialAndHealRestores(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	ln, err := e.inner.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { // drain accepts: memnet dials rendezvous with Accept
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	e.Partition([]string{"a"}, []string{"b"})
	_, err = e.Endpoint("a").Dial("b")
	if err == nil {
		t.Fatal("dial across partition succeeded")
	}
	// The error must read as a connection failure so the DSO client's
	// retry classifier keeps retrying rather than giving up.
	if !strings.Contains(err.Error(), "connection") {
		t.Fatalf("partition error %q not classified retryable", err)
	}
	if e.Counts().DialsRefused == 0 {
		t.Fatal("refused dial not counted")
	}
	e.Heal()
	c, err := e.Endpoint("a").Dial("b")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c.Close()
}

func TestPartitionBlackholesEstablishedConn(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	dialer, remote := dialPair(t, e, "a", "b")

	// Healthy first: the frame crosses.
	write(t, dialer, makeFrame(1, 9, flagRequest, []byte("x")))
	readFrame(t, remote, time.Second)

	e.Partition([]string{"a"}, []string{"b"})
	// A blackholed frame is loss inside the network, not an error.
	write(t, dialer, makeFrame(2, 9, flagRequest, []byte("y")))
	e.Heal()
	write(t, dialer, makeFrame(3, 9, flagRequest, []byte("z")))
	frame := readFrame(t, remote, time.Second)
	if got := rpc.ParseFrameHeader(frame).ID; got != 3 {
		t.Fatalf("frame %d arrived, want the post-heal frame 3", got)
	}
	if e.Counts().PartitionDrops != 1 {
		t.Fatalf("partition drops = %d, want 1", e.Counts().PartitionDrops)
	}
}

func TestDropRuleWithMaxHitsRetires(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	dialer, remote := dialPair(t, e, "a", "b")

	// Drop exactly one request frame, then deliver normally.
	e.AddRule(Rule{From: "a", To: "b", Dir: Requests, Faults: LinkFaults{Drop: 1}, MaxHits: 1})
	stream := append(makeFrame(1, 9, flagRequest, nil), makeFrame(2, 9, flagRequest, nil)...)
	write(t, dialer, stream)
	frame := readFrame(t, remote, time.Second)
	if got := rpc.ParseFrameHeader(frame).ID; got != 2 {
		t.Fatalf("frame %d arrived, want 2 (frame 1 dropped)", got)
	}
	if got := e.Counts().FramesDropped; got != 1 {
		t.Fatalf("frames dropped = %d, want 1", got)
	}
}

func TestDuplicateRuleDeliversTwice(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	dialer, remote := dialPair(t, e, "a", "b")

	e.AddRule(Rule{Faults: LinkFaults{Duplicate: 1}, MaxHits: 1})
	write(t, dialer, makeFrame(5, 9, flagRequest, []byte("dup")))
	first := readFrame(t, remote, time.Second)
	second := readFrame(t, remote, time.Second)
	if string(first) != string(second) {
		t.Fatal("duplicate differs from original")
	}
	if got := rpc.ParseFrameHeader(first).ID; got != 5 {
		t.Fatalf("frame %d, want 5", got)
	}
	if e.Counts().FramesDuplicated != 1 {
		t.Fatal("duplicate not counted")
	}
}

func TestDelayRuleReordersResponses(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	dialer, remote := dialPair(t, e, "a", "b")

	// Delay exactly one response on the accepted end's flow (b -> a); the
	// next response overtakes it.
	e.AddRule(Rule{Dir: Responses, Faults: LinkFaults{Delay: 1, DelayBy: 30 * time.Millisecond}, MaxHits: 1})
	write(t, remote, makeFrame(1, 9, flagResponse, nil))
	write(t, remote, makeFrame(2, 9, flagResponse, nil))
	first := readFrame(t, dialer, time.Second)
	second := readFrame(t, dialer, time.Second)
	if a, b := rpc.ParseFrameHeader(first).ID, rpc.ParseFrameHeader(second).ID; a != 2 || b != 1 {
		t.Fatalf("arrival order (%d, %d), want delayed frame overtaken: (2, 1)", a, b)
	}
	if e.Counts().FramesDelayed != 1 {
		t.Fatal("delay not counted")
	}
}

func TestKindFilterLeavesOtherTrafficAlone(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	dialer, remote := dialPair(t, e, "a", "b")

	e.AddRule(Rule{Kind: 9, Faults: LinkFaults{Drop: 1}})
	// Frame 1 matches the kind and is dropped; frame 2 is untouched.
	stream := append(makeFrame(1, 9, flagRequest, nil), makeFrame(2, 3, flagRequest, nil)...)
	write(t, dialer, stream)
	frame := readFrame(t, remote, time.Second)
	if got := rpc.ParseFrameHeader(frame).ID; got != 2 {
		t.Fatalf("frame %d arrived, want 2", got)
	}
}

// A one-way partition blackholes one flow of an established connection
// and leaves the other alone: a's frames to b vanish while b's frames to
// a arrive.
func TestOneWayPartitionBlackholesOneFlow(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	dialer, remote := dialPair(t, e, "a", "b")

	e.PartitionOneWay([]string{"a"}, []string{"b"})
	write(t, dialer, makeFrame(1, 9, flagRequest, nil))
	write(t, remote, makeFrame(2, 9, flagResponse, nil))
	if got := rpc.ParseFrameHeader(readFrame(t, dialer, time.Second)).ID; got != 2 {
		t.Fatalf("a read frame %d, want b's frame 2", got)
	}
	e.Heal()
	write(t, dialer, makeFrame(3, 9, flagRequest, nil))
	if got := rpc.ParseFrameHeader(readFrame(t, remote, time.Second)).ID; got != 3 {
		t.Fatalf("b read frame %d, want the post-heal frame 3 (frame 1 lost)", got)
	}
	if got := e.Counts().PartitionDrops; got != 1 {
		t.Fatalf("partition drops = %d, want 1", got)
	}
}

// A connection dialed around the engine, through its inner network, has
// an unnamed end: catch-all rules leave its frames alone.
func TestUnnamedConnectionNeverFaulted(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	ln, err := e.Inner().Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	c, err := e.Inner().Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	remote := <-accepted
	t.Cleanup(func() { remote.Close() })

	e.AddRule(Rule{Faults: LinkFaults{Drop: 1}})
	write(t, c, makeFrame(1, 9, flagRequest, nil))
	if got := rpc.ParseFrameHeader(readFrame(t, remote, time.Second)).ID; got != 1 {
		t.Fatalf("frame %d, want 1", got)
	}
	if got := e.Counts().FramesDropped; got != 0 {
		t.Fatalf("frames dropped = %d on an unnamed connection", got)
	}
}

// The engine keeps nothing per connection: dialing through an endpoint
// starts no goroutine.
func TestEngineStartsNoGoroutinePerConnection(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	ln, err := e.Inner().Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	const conns = 50
	accepted := make(chan net.Conn, conns)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	before := runtime.NumGoroutine()
	for i := 0; i < conns; i++ {
		c, err := e.Endpoint("a").Dial("b")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		r := <-accepted
		t.Cleanup(func() { r.Close() })
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after %d connections, %d before", after, conns, before)
	}
}

func TestFaaSInjectorFaults(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	e.SetFaaSFaults("trainer", FaaSFaults{FailProb: 1, MaxFaults: 1})
	if err := e.InvocationFault("other"); err != nil {
		t.Fatalf("unconfigured function faulted: %v", err)
	}
	if err := e.InvocationFault("trainer"); err == nil {
		t.Fatal("configured function did not fault")
	}
	if err := e.InvocationFault("trainer"); err != nil {
		t.Fatalf("MaxFaults did not retire the entry: %v", err)
	}
	e.SetFaaSFaults("slow-*", FaaSFaults{SlowProb: 1, SlowBy: 5 * time.Millisecond})
	if d := e.ContainerDelay("slow-worker"); d < 5*time.Millisecond {
		t.Fatalf("glob-matched delay = %v, want >= 5ms", d)
	}
	if d := e.ContainerDelay("fast-worker"); d != 0 {
		t.Fatalf("unmatched function delayed by %v", d)
	}
	c := e.Counts()
	if c.FaaSFaults != 1 || c.FaaSDelays != 1 {
		t.Fatalf("faas counters = (%d, %d), want (1, 1)", c.FaaSFaults, c.FaaSDelays)
	}
}

func TestGeneratePlanDeterministic(t *testing.T) {
	cfg := PlanConfig{
		Nodes:         []string{"dso-00", "dso-01", "dso-02"},
		Steps:         12,
		Spacing:       40 * time.Millisecond,
		Partitions:    true,
		LinkFaults:    true,
		CrashRestart:  true,
		FaaS:          true,
		FaaSFunctions: []string{"f1", "f2"},
	}
	a, b := GeneratePlan(42, cfg), GeneratePlan(42, cfg)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different plans:\n%s\n----\n%s", a, b)
	}
	if c := GeneratePlan(43, cfg); a.String() == c.String() {
		t.Fatal("different seeds produced the same plan")
	}
	if len(a.Steps) == 0 {
		t.Fatal("empty plan")
	}
	// Every window reverts: final state is fully healed, and at most one
	// node is down at any point in the schedule.
	if last := a.Steps[len(a.Steps)-1]; last.Kind != ActReset {
		t.Fatalf("plan ends with %v, want reset", actionNames[last.Kind])
	}
	down := 0
	for _, s := range a.Steps {
		switch s.Kind {
		case ActCrash:
			down++
		case ActRestart:
			down--
		}
		if down > 1 {
			t.Fatal("plan crashes two nodes at once")
		}
	}
	if down != 0 {
		t.Fatalf("plan leaves %d node(s) down", down)
	}
}

func TestPlanRunAppliesSteps(t *testing.T) {
	e := New(rpc.NewMemNetwork(), Options{Seed: 1})
	var crashed, restarted []string
	plan := Plan{Steps: []Step{
		{At: 0, Kind: ActPartition, Groups: [][]string{{"a"}, {"b"}}},
		{At: 5 * time.Millisecond, Kind: ActCrash, Node: "dso-01"},
		{At: 10 * time.Millisecond, Kind: ActRestart, Node: "dso-01"},
		{At: 15 * time.Millisecond, Kind: ActReset},
	}}
	err := plan.Run(t.Context(), Target{
		Engine:  e,
		Crash:   func(n string) error { crashed = append(crashed, n); return nil },
		Restart: func(n string) error { restarted = append(restarted, n); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(crashed) != 1 || crashed[0] != "dso-01" || len(restarted) != 1 {
		t.Fatalf("lifecycle hooks: crashed %v restarted %v", crashed, restarted)
	}
	if e.linkBlocked("a", "b") {
		t.Fatal("reset did not heal the partition")
	}
	c := e.Counts()
	if c.Crashes != 1 || c.Restarts != 1 {
		t.Fatalf("lifecycle counters = (%d, %d), want (1, 1)", c.Crashes, c.Restarts)
	}
}

func TestChaosCountersExportAsPrometheus(t *testing.T) {
	tel := telemetry.New()
	e := New(rpc.NewMemNetwork(), Options{Seed: 1, Telemetry: tel})
	e.Partition([]string{"a"}, []string{"b"})
	if _, err := e.Endpoint("a").Dial("b"); err == nil {
		t.Fatal("dial across partition succeeded")
	}
	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "crucial_chaos_dials_refused_total 1") {
		t.Fatalf("chaos counter missing from exposition:\n%s", sb.String())
	}
	// And the fault left a marker span for trace dumps.
	found := false
	for _, sp := range tel.Tracer().Spans() {
		if sp.Name == telemetry.SpanChaosFault {
			found = true
		}
	}
	if !found {
		t.Fatal("no chaos.fault marker span recorded")
	}
}
