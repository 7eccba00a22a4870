// Package collector implements cluster-wide trace collection: it drains
// the span rings of every process in a deployment — DSO server nodes over
// the KindTraceDump RPC, plus in-process sources like the DSO client and
// the FaaS simulator — aligns each dump onto the collector's clock
// (NTP-style midpoint estimation, so spans recorded on machines with
// skewed clocks still nest correctly), and merges everything by trace ID.
// dso-cli trace exports the merged result as Chrome/Perfetto trace-event
// JSON; internal/telemetry/analysis consumes it for critical-path reports.
package collector

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// Collector accumulates aligned spans from any number of sources. The zero
// value is ready to use; methods are safe for concurrent fetches.
type Collector struct {
	mu      sync.Mutex
	spans   []telemetry.NodeSpan
	nodes   []string
	objects telemetry.ObjectsSnapshot
}

// AddLocal merges spans recorded in the collector's own process (its DSO
// client, the FaaS simulator): same clock, no alignment needed.
func (c *Collector) AddLocal(node string, spans []telemetry.SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes = append(c.nodes, node)
	for _, s := range spans {
		c.spans = append(c.spans, telemetry.NodeSpan{Node: node, Span: s})
	}
}

// AddDump merges a dump fetched out of band, aligning it with the given
// request bracket (collector-clock instants just before and after the dump
// was taken).
func (c *Collector) AddDump(d telemetry.Dump, reqStart, reqEnd time.Time) {
	aligned := telemetry.AlignDump(d, reqStart, reqEnd)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes = append(c.nodes, d.Node)
	c.spans = append(c.spans, aligned...)
}

// clockProbes is how many KindClock round trips estimate a node's offset;
// the probe with the smallest RTT wins (its midpoint assumption has the
// tightest error bound).
const clockProbes = 3

// clockOffset estimates the remote clock minus the local clock from a few
// symmetric (empty-payload) round trips, NTP-style: each probe assumes its
// remote sample sits at the midpoint of its bracket, and the minimum-RTT
// probe is trusted. Error is bounded by half that probe's RTT.
func clockOffset(ctx context.Context, rc *rpc.Client) (time.Duration, error) {
	var best time.Duration
	bestRTT := time.Duration(-1)
	for i := 0; i < clockProbes; i++ {
		reqStart := time.Now()
		raw, err := rc.Call(ctx, server.KindClock, nil)
		rtt := time.Since(reqStart)
		if err != nil {
			return 0, err
		}
		var remote time.Time
		err = core.DecodeValue(raw, &remote)
		rpc.PutBuffer(raw)
		if err != nil {
			return 0, err
		}
		if bestRTT < 0 || rtt < bestRTT {
			bestRTT = rtt
			best = remote.Sub(reqStart.Add(rtt / 2))
		}
	}
	return best, nil
}

// FetchNode dials one DSO node, estimates its clock offset with a few
// cheap probes, drains its span ring via KindTraceDump, and merges the
// aligned result. The dedicated probe keeps the offset estimate free of
// the dump's asymmetric payload (the response carries every span, the
// request nothing, so the dump's own round trip midpoint would be biased).
func (c *Collector) FetchNode(ctx context.Context, transport rpc.Transport, addr string) error {
	conn, err := transport.Dial(addr)
	if err != nil {
		return fmt.Errorf("collector: dial %s: %w", addr, err)
	}
	rc := rpc.NewClient(conn)
	defer func() { _ = rc.Close() }()

	offset, err := clockOffset(ctx, rc)
	if err != nil {
		return fmt.Errorf("collector: clock probe %s: %w", addr, err)
	}
	raw, err := rc.Call(ctx, server.KindTraceDump, nil)
	if err != nil {
		return fmt.Errorf("collector: trace dump from %s: %w", addr, err)
	}
	var dump telemetry.Dump
	err = core.DecodeValue(raw, &dump)
	rpc.PutBuffer(raw)
	if err != nil {
		return fmt.Errorf("collector: decode dump from %s: %w", addr, err)
	}
	aligned := telemetry.AlignSpans(dump.Node, dump.Spans, offset)
	c.mu.Lock()
	c.nodes = append(c.nodes, dump.Node)
	c.spans = append(c.spans, aligned...)
	c.mu.Unlock()
	return nil
}

// AddObjects merges one per-object load snapshot (from a node's
// KindObjectStats reply or an in-process tracker) into the cluster-wide
// accumulator. Object stats are interval counts, not timestamps, so no
// clock alignment is needed — merge semantics are those of
// telemetry.ObjectsSnapshot.Merge (counts add, histograms merge, error
// bounds add).
func (c *Collector) AddObjects(snap telemetry.ObjectsSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if snap.Node != "" {
		c.nodes = append(c.nodes, snap.Node)
	}
	c.objects = c.objects.Merge(snap)
}

// FetchNodeObjects dials one DSO node, drains its per-object heavy-hitter
// snapshot via KindObjectStats, and merges it. Returns the node's own
// snapshot so callers can also report per-node views.
func (c *Collector) FetchNodeObjects(ctx context.Context, transport rpc.Transport, addr string) (telemetry.ObjectsSnapshot, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return telemetry.ObjectsSnapshot{}, fmt.Errorf("collector: dial %s: %w", addr, err)
	}
	rc := rpc.NewClient(conn)
	defer func() { _ = rc.Close() }()

	raw, err := rc.Call(ctx, server.KindObjectStats, nil)
	if err != nil {
		return telemetry.ObjectsSnapshot{}, fmt.Errorf("collector: object stats from %s: %w", addr, err)
	}
	var snap telemetry.ObjectsSnapshot
	err = core.DecodeValue(raw, &snap)
	rpc.PutBuffer(raw)
	if err != nil {
		return telemetry.ObjectsSnapshot{}, fmt.Errorf("collector: decode object stats from %s: %w", addr, err)
	}
	c.AddObjects(snap)
	return snap, nil
}

// Objects returns the cluster-wide merged per-object load snapshot.
func (c *Collector) Objects() telemetry.ObjectsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.objects
}

// Nodes lists every source merged so far, in merge order.
func (c *Collector) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// Spans returns every collected span, aligned and sorted by start time.
func (c *Collector) Spans() []telemetry.NodeSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]telemetry.NodeSpan, len(c.spans))
	copy(out, c.spans)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Span.Start.Before(out[j].Span.Start)
	})
	return out
}

// Traces groups the collected spans by trace ID (spans sorted by start
// within each trace).
func (c *Collector) Traces() map[uint64][]telemetry.NodeSpan {
	out := make(map[uint64][]telemetry.NodeSpan)
	for _, ns := range c.Spans() {
		out[ns.Span.TraceID] = append(out[ns.Span.TraceID], ns)
	}
	return out
}
