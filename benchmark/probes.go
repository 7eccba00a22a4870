package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"crucial"
	"crucial/internal/cluster"
	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/faas"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/storage/s3sim"
	"crucial/internal/totalorder"
)

// probes.go calls each layer's public functions alone, sequentially, with
// the workloads' payloads, and reports the median call. A probe has no
// contention and no queueing: it is the floor a layer contributes to a
// call, the "sequential" column the budget line is drawn from.

const (
	probeCalls = 2000
	// The statefun probes take milliseconds per call (a dispatch tick), so
	// they run fewer.
	probeCallsSlow = 200
)

// medianCallUs runs f n times after a tenth of n unmeasured calls and
// returns the median duration in microseconds.
func medianCallUs(n int, f func() error) (float64, error) {
	for i := 0; i < n/10; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	took := make([]float64, n)
	for i := range took {
		begin := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		took[i] = float64(time.Since(begin)) / 1e3
	}
	return median(took), nil
}

// runProbes runs every probe and returns its metrics by name.
func runProbes() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range []func(map[string]float64) error{
		probeCodec, probeEcho, probePlace, probeInvoke, probeMulticast,
		probeAppend, probeFaaS, probeStatefun,
	} {
		if err := p(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeCodec times encode+decode of a 256 B KV.Put invocation and of its
// response, and counts the allocations of the four calls.
func probeCodec(out map[string]float64) error {
	value := make([]byte, readValueLen)
	fillValue(value, 7, 7)
	inv := core.Invocation{
		Ref: cellRef(7), Method: "Put", Args: []any{value}, Persist: true,
		ClientID: 1, Seq: 1,
	}
	buf := make([]byte, 0, 1024)
	once := func() error {
		b, err := core.AppendInvocation(buf[:0], inv)
		if err != nil {
			return err
		}
		if _, err := core.DecodeInvocation(b); err != nil {
			return err
		}
		if b, err = core.AppendResponse(buf[:0], core.Response{}); err != nil {
			return err
		}
		_, err = core.DecodeResponse(b)
		return err
	}
	us, err := medianCallUs(probeCalls, once)
	if err != nil {
		return fmt.Errorf("core.codec: %w", err)
	}
	out["core.codec_us"] = us
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < probeCalls; i++ {
		if err := once(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	out["core.codec_allocs"] = float64(after.Mallocs-before.Mallocs) / probeCalls
	return nil
}

// probeEcho times a 256 B rpc.Client.Call against an echoing rpc.Server
// over MemNetwork.
func probeEcho(out map[string]float64) error {
	net := rpc.NewMemNetwork()
	l, err := net.Listen("echo")
	if err != nil {
		return err
	}
	srv := rpc.NewServer(func(_ context.Context, _ uint8, payload []byte) ([]byte, error) {
		return payload, nil
	})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l) // returns when the server closes
	}()
	defer func() {
		_ = srv.Close()
		<-served
	}()
	conn, err := net.Dial("echo")
	if err != nil {
		return err
	}
	cli := rpc.NewClient(conn)
	defer func() { _ = cli.Close() }()
	payload := make([]byte, readValueLen)
	ctx := context.Background()
	us, err := medianCallUs(probeCalls, func() error {
		resp, err := cli.Call(ctx, 1, payload)
		rpc.PutBuffer(resp)
		return err
	})
	if err != nil {
		return fmt.Errorf("rpc.echo: %w", err)
	}
	out["rpc.echo_us"] = us
	return nil
}

// probePlace times Directives.Place at RF 2 on a three-node ring.
func probePlace(out map[string]float64) error {
	r := ring.New([]ring.NodeID{"dso-01", "dso-02", "dso-03"}, 0)
	var d ring.Directives
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = cellRef(uint32(i)).String()
	}
	// One call is tens of nanoseconds, below the clock's grain: time
	// batches of 256 placements.
	us, err := medianCallUs(probeCalls, func() error {
		for _, k := range keys {
			if len(d.Place(r, k, 2)) != 2 {
				return fmt.Errorf("ring.place: key %s not placed on two nodes", k)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["ring.place_ns"] = us * 1e3 / float64(len(keys))
	return nil
}

// probeInvoke times a sequential IncrementAndGet through a client on
// three clusters: one node RF 1 ephemeral (the single-node baseline),
// three nodes RF 2 persistent on default options (classic), and the same
// on the full stack. rf2 − rf1 is the price of replication.
func probeInvoke(out map[string]float64) error {
	full := fullStackOptions(s3sim.New(s3sim.Options{}))
	for _, c := range []struct {
		metric  string
		opts    cluster.Options
		persist bool
	}{
		{"server.invoke_rf1_us", cluster.Options{Nodes: 1, RF: 1}, false},
		{"server.invoke_rf2_us", cluster.Options{Nodes: 3, RF: 2}, true},
		{"server.invoke_rf2_full_us", full, true},
	} {
		us, err := invokeOn(c.opts, c.persist)
		if err != nil {
			return fmt.Errorf("%s: %w", c.metric, err)
		}
		out[c.metric] = us
	}
	return nil
}

func invokeOn(opts cluster.Options, persist bool) (float64, error) {
	clu, err := cluster.StartLocal(opts)
	if err != nil {
		return 0, err
	}
	defer func() { _ = clu.Close() }()
	cli, err := clu.NewClient()
	if err != nil {
		return 0, err
	}
	defer func() { _ = cli.Close() }()
	ctx := context.Background()
	inv := core.Invocation{
		Ref:     core.Ref{Type: objects.TypeAtomicLong, Key: "bench/probe"},
		Method:  "IncrementAndGet",
		Persist: persist,
	}
	return medianCallUs(probeCalls, func() error {
		_, err := cli.InvokeObject(ctx, inv)
		return err
	})
}

// directOrder delivers Skeen's protocol messages by function call.
type directOrder map[string]*totalorder.Node

func (d directOrder) Propose(_ context.Context, target string, id totalorder.MsgID, payload []byte) (uint64, error) {
	return d[target].HandlePropose(id, payload), nil
}

func (d directOrder) Final(_ context.Context, target string, id totalorder.MsgID, ts uint64) error {
	d[target].HandleFinal(id, ts)
	return nil
}

func (d directOrder) Abort(_ context.Context, target string, id totalorder.MsgID) error {
	d[target].Drop(id)
	return nil
}

// probeMulticast times totalorder.Multicast to two Nodes over a direct
// in-memory transport.
func probeMulticast(out map[string]float64) error {
	var delivered atomic.Int64
	deliver := func(totalorder.MsgID, []byte) bool {
		delivered.Add(1)
		return true
	}
	nodes := directOrder{"a": totalorder.NewNode("a", deliver), "b": totalorder.NewNode("b", deliver)}
	defer nodes["a"].Close()
	defer nodes["b"].Close()
	group := []string{"a", "b"}
	payload := make([]byte, readValueLen)
	ctx := context.Background()
	var seq uint64
	us, err := medianCallUs(probeCalls, func() error {
		seq++
		return totalorder.Multicast(ctx, nodes, group, totalorder.MsgID{Origin: "a", Seq: seq}, payload)
	})
	if err != nil {
		return fmt.Errorf("totalorder.multicast: %w", err)
	}
	if want := int64(2 * seq); delivered.Load() != want {
		return fmt.Errorf("totalorder.multicast: %d deliveries, want %d", delivered.Load(), want)
	}
	out["totalorder.multicast_us"] = us
	return nil
}

// probeAppend times Log.Append(rec).Wait under the default policy over a
// zero-latency store: one record, one group fsync.
func probeAppend(out map[string]float64) error {
	policy := core.DefaultDurabilityPolicy().Normalized()
	log := durability.OpenLog(durability.LogOptions{
		Store: s3sim.New(s3sim.Options{}), Node: "probe",
		SyncEvery: policy.SyncEvery, SegmentBytes: policy.SegmentBytes,
	})
	defer log.Close()
	payload := make([]byte, readValueLen)
	ctx := context.Background()
	var seq uint64
	us, err := medianCallUs(probeCalls, func() error {
		seq++
		return log.Append(durability.Record{Origin: "probe", Seq: seq, Version: seq, Payload: payload}).Wait(ctx)
	})
	if err != nil {
		return fmt.Errorf("durability.append_wait: %w", err)
	}
	out["durability.append_wait_us"] = us
	return nil
}

// probeFaaS times a warm Platform.Invoke of a function that does nothing.
func probeFaaS(out map[string]float64) error {
	p := faas.NewPlatform(faas.Options{})
	noop := func(context.Context, []byte) ([]byte, error) { return nil, nil }
	if err := p.Deploy("noop", noop, faas.FunctionConfig{}); err != nil {
		return err
	}
	if err := p.Prewarm("noop", 1); err != nil {
		return err
	}
	ctx := context.Background()
	us, err := medianCallUs(probeCalls, func() error {
		_, err := p.Invoke(ctx, "noop", nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("faas.invoke: %w", err)
	}
	out["faas.invoke_us"] = us
	return nil
}

// probeStatefun times, on statefun_call's options with one instance and
// one caller, Send alone (the instance drained before the next) and Call
// alone — the dispatch-latency floor.
func probeStatefun(out map[string]float64) error {
	rt, err := crucial.NewLocalRuntime(crucial.Options{DSONodes: 3, RF: 2, Durability: crucial.DefaultDurabilityPolicy()})
	if err != nil {
		return err
	}
	defer func() { _ = rt.Close() }()
	var handled atomic.Int64
	fn, err := rt.DeployStatefulFunction("probe", func(c *crucial.FnCtx, m crucial.FnMsg) error {
		handled.Add(1)
		if m.ReplyKey() == "" {
			return nil
		}
		return c.Reply(int64(1))
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var sent int64
	var sendUs []float64
	for i := 0; i < probeCallsSlow; i++ {
		begin := time.Now()
		if err := fn.Send(ctx, "one", "ping", nil); err != nil {
			return fmt.Errorf("statefun.send: %w", err)
		}
		sendUs = append(sendUs, float64(time.Since(begin))/1e3)
		sent++
		for handled.Load() < sent {
			if ctx.Err() != nil {
				return fmt.Errorf("statefun.send: message %d was never handled", sent)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	out["statefun.send_us"] = median(sendUs)
	var reply int64
	us, err := medianCallUs(probeCallsSlow, func() error {
		return fn.Call(ctx, "one", "ping", nil, &reply)
	})
	if err != nil {
		return fmt.Errorf("statefun.call_idle: %w", err)
	}
	out["statefun.call_idle_us"] = us
	return nil
}
