// Command dso-server runs one DSO storage node over TCP with static
// membership: every node is started with the full member list (id=addr
// pairs) and serves shared objects for its share of the consistent-hashing
// ring. This is the fixed-deployment analog of the paper's explicitly
// managed storage layer (Section 5: "the deployment of the storage layer
// is explicitly managed, like AWS ElastiCache").
//
// Usage (3-node cluster on one host):
//
//	dso-server -id n1 -members n1=:7001,n2=:7002,n3=:7003 -rf 2 &
//	dso-server -id n2 -members n1=:7001,n2=:7002,n3=:7003 -rf 2 &
//	dso-server -id n3 -members n1=:7001,n2=:7002,n3=:7003 -rf 2 &
//
// Dynamic membership (crash detection, elastic scaling, Fig. 8) is
// exercised by the in-process cluster harness; the TCP mode keeps
// membership static.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/statefun"
	"crucial/internal/storage/s3sim"
	"crucial/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id       = flag.String("id", "", "this node's id (must appear in -members)")
		members  = flag.String("members", "", "comma-separated id=addr pairs for the whole cluster")
		rf       = flag.Int("rf", 1, "replication factor for persistent objects")
		telem    = flag.Bool("telemetry", false, "record spans and latency histograms (served via `dso-cli stats`)")
		chaosOn  = flag.Bool("chaos", false, "accept `dso-cli chaos crash/restart` commands: a supervisor bounces this node in-process")
		crashFor = flag.Duration("chaos-restart-after", 3*time.Second, "downtime before the supervisor revives a chaos-crashed node (restart is immediate)")
		httpAddr = flag.String("http", "", "serve /metrics (Prometheus), /traces (trace-event JSON) and /debug/pprof on this address, e.g. :8080")
		leaseTTL = flag.Duration("lease-ttl", 0, "enable the lease-based read path with this lease duration (e.g. 500ms); 0 disables leases")
		rebal    = flag.Bool("rebalance", false, "enable the elastic resharding loop: the coordinator live-migrates sustained heavy hitters (requires -telemetry for a load signal)")
		rebalHot = flag.Float64("rebalance-hot-rate", 0, "rebalancer hot threshold in ops/s (default 200)")
		rebalInt = flag.Duration("rebalance-interval", 0, "rebalancer scan period (default 2s)")
		walOn    = flag.Bool("wal", false, "enable the durability tier: WAL + snapshots in an in-process simulated cold store; chaos restarts recover state from it")
		walSync  = flag.Int("wal-sync-every", 0, "group-fsync the WAL every N appends (default 64, 1 = sync every op, negative = snapshot-only durability)")
		walSnap  = flag.Duration("wal-snapshot-interval", 0, "background checkpoint cadence (default 2s, negative disables snapshots)")
		walSeg   = flag.Int("wal-segment-bytes", 0, "WAL segment roll threshold in bytes (default 64KiB)")
		logSpec  = flag.String("log", "info", "log level spec: one level for all components (debug|info|warn|error) or component=level pairs")
	)
	flag.Parse()

	if err := telemetry.ConfigureLogging(*logSpec); err != nil {
		fmt.Fprintln(os.Stderr, "dso-server:", err)
		return 1
	}
	logger := telemetry.Logger(telemetry.CompServer)

	addrs, err := parseMembers(*members)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-server:", err)
		return 1
	}
	addr, ok := addrs[ring.NodeID(*id)]
	if !ok {
		fmt.Fprintf(os.Stderr, "dso-server: id %q not in member list\n", *id)
		return 1
	}

	// Static membership: seed a local directory with every member in
	// deterministic order so all nodes compute the same placement.
	dir := membership.NewDirectory(time.Hour)
	ids := make([]ring.NodeID, 0, len(addrs))
	for n := range addrs {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, n := range ids {
		dir.Join(n, addrs[n])
	}

	var tel *telemetry.Telemetry
	if *telem {
		tel = telemetry.New()
	}
	if *httpAddr != "" {
		if tel == nil {
			logger.Warn("serving -http without -telemetry: /metrics and /traces will be empty, pprof still works")
		}
		srv := &http.Server{Addr: *httpAddr, Handler: telemetry.HTTPHandler(*id, tel)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("http endpoint failed", "addr", *httpAddr, "err", err)
			}
		}()
		defer func() { _ = srv.Close() }()
		logger.Info("observability endpoint up", "addr", *httpAddr,
			"paths", "/metrics /traces /debug/pprof")
	}
	// TCP nodes serve stateful-function mailboxes too (DESIGN.md §5i).
	registry := objects.BuiltinRegistry()
	statefun.RegisterTypes(registry)
	cfg := server.Config{
		ID:        ring.NodeID(*id),
		Addr:      addr,
		Transport: rpc.TCP{},
		Registry:  registry,
		Directory: dir,
		RF:        *rf,
		LeaseTTL:  *leaseTTL,
		Telemetry: tel,
	}
	if *rebal {
		// The flags round-trip core.RebalancePolicy; unset knobs fall back
		// to the library defaults via Normalized.
		cfg.Rebalance = core.RebalancePolicy{
			Enabled:  true,
			HotRate:  *rebalHot,
			Interval: *rebalInt,
		}.Normalized()
		if tel == nil {
			logger.Warn("-rebalance without -telemetry: no load signal, the rebalancer will never migrate")
		}
	}
	if *walOn {
		// The -wal-* flags round-trip core.DurabilityPolicy. The cold store
		// is a per-process s3sim instance: it outlives chaos crashes, so a
		// chaos-bounced node genuinely recovers its state from the WAL and
		// checkpoints rather than restarting empty.
		cfg.Durability = core.DurabilityPolicy{
			Enabled:          true,
			SyncEvery:        *walSync,
			SnapshotInterval: *walSnap,
			SegmentBytes:     *walSeg,
		}.Normalized()
		var metrics *telemetry.Registry
		if tel != nil {
			metrics = tel.Metrics()
		}
		cfg.ColdStore = s3sim.New(s3sim.Options{Metrics: metrics})
		logger.Info("durability tier enabled",
			"sync_every", cfg.Durability.SyncEvery,
			"snapshot_interval", cfg.Durability.SnapshotInterval,
			"segment_bytes", cfg.Durability.SegmentBytes)
	}
	// The supervisor channel decouples the KindChaos RPC handler from the
	// node teardown it triggers: the handler just enqueues the op and the
	// main loop below does the bouncing.
	lifecycle := make(chan string, 4)
	if *chaosOn {
		cfg.OnChaosLifecycle = func(op string) error {
			select {
			case lifecycle <- op:
				return nil
			default:
				return fmt.Errorf("chaos lifecycle command %q dropped: supervisor busy", op)
			}
		}
	}
	node, err := server.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-server:", err)
		return 1
	}
	logger.Info("node serving",
		"node", *id, "addr", addr, "cluster_size", len(addrs), "rf", *rf, "chaos", *chaosOn)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case <-sig:
			logger.Info("shutting down")
			if err := node.Crash(); err != nil {
				logger.Error("shutdown failed", "err", err)
				return 1
			}
			return 0
		case op := <-lifecycle:
			// "restart" bounces immediately; "crash" leaves the node down
			// for -chaos-restart-after so peers and clients feel the
			// outage. Static membership means peers keep this node in
			// their views throughout — the revived node re-serves its ring
			// share as soon as it is back up.
			logger.Warn("chaos lifecycle", "op", op)
			if err := node.Crash(); err != nil {
				logger.Error("chaos crash failed", "err", err)
				return 1
			}
			if op == "crash" {
				time.Sleep(*crashFor)
			}
			node, err = server.Start(cfg)
			if err != nil {
				logger.Error("chaos restart failed", "err", err)
				return 1
			}
			logger.Info("node revived", "node", *id, "addr", addr)
		}
	}
}

// parseMembers decodes "id=addr,id=addr".
func parseMembers(s string) (map[ring.NodeID]string, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -members")
	}
	out := make(map[ring.NodeID]string)
	for _, pair := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad member %q, want id=addr", pair)
		}
		out[ring.NodeID(id)] = addr
	}
	return out, nil
}
