package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"crucial/internal/core"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/server"
)

// runRebalance implements `dso-cli rebalance status`: one
// KindRebalanceStatus RPC per member, printing each node's view of the
// resharding plane — installed directive table, active migration fences,
// migration/scan counters, and the coordinator's hot-streak table.
//
//	dso-cli rebalance status -members n1=:7001,n2=:7002
//	dso-cli rebalance status -members ... -json
func runRebalance(argv []string) int {
	if len(argv) == 0 || argv[0] != "status" {
		fmt.Fprintln(os.Stderr, "dso-cli rebalance: missing op (status)")
		return 1
	}
	fs := flag.NewFlagSet("rebalance status", flag.ExitOnError)
	var (
		members = fs.String("members", "", "comma-separated id=addr pairs of the cluster")
		timeout = fs.Duration("timeout", 10*time.Second, "per-node RPC timeout")
		asJSON  = fs.Bool("json", false, "emit per-node statuses as JSON")
	)
	_ = fs.Parse(argv[1:])

	view, err := staticView(*members)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}
	var statuses []server.RebalanceStatus
	for _, id := range view.Members {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		st, err := fetchRebalanceStatus(ctx, view.Addrs[id])
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dso-cli: warning: node %s unreachable, skipping: %v\n", id, err)
			continue
		}
		statuses = append(statuses, st)
	}
	if len(statuses) == 0 {
		fmt.Fprintln(os.Stderr, "dso-cli: no node answered")
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(statuses); err != nil {
			fmt.Fprintln(os.Stderr, "dso-cli:", err)
			return 1
		}
		return 0
	}
	for _, st := range statuses {
		role := "follower"
		switch {
		case st.Coordinator:
			role = "coordinator"
		case !st.Enabled:
			role = "rebalancer off"
		}
		fmt.Printf("node %s (%s): view=%d directives=v%d migrations=%d failed=%d scans=%d\n",
			st.Node, role, st.ViewID, st.DirectiveVersion,
			st.Migrations, st.MigrationsFailed, st.Scans)
		keys := make([]string, 0, len(st.Directives))
		for k := range st.Directives {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  pinned %-32s -> %s\n", k, strings.Join(st.Directives[k], ","))
		}
		for _, f := range st.Fenced {
			fmt.Printf("  fenced %s (migration in flight)\n", f)
		}
		streaks := make([]string, 0, len(st.Streaks))
		for k := range st.Streaks {
			streaks = append(streaks, k)
		}
		sort.Strings(streaks)
		for _, k := range streaks {
			fmt.Printf("  heating %-31s %d consecutive hot scans\n", k, st.Streaks[k])
		}
	}
	return 0
}

// runMigrate implements `dso-cli migrate`: a manual live migration (or
// un-pin) of one object, sent to its primary via KindMigrate.
//
//	dso-cli migrate -members ... -type AtomicLong -key hot -targets n2,n3
//	dso-cli migrate -members ... -type AtomicLong -key hot -unpin
func runMigrate(argv []string) int {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	var (
		members = fs.String("members", "", "comma-separated id=addr pairs of the cluster")
		typ     = fs.String("type", "AtomicLong", "shared object type name")
		key     = fs.String("key", "", "shared object key")
		targets = fs.String("targets", "", "comma-separated target nodes (new replica set, primary first)")
		unpin   = fs.Bool("unpin", false, "remove the object's placement directive instead")
		timeout = fs.Duration("timeout", 60*time.Second, "call timeout")
	)
	_ = fs.Parse(argv)

	if *key == "" {
		fmt.Fprintln(os.Stderr, "dso-cli migrate: -key is required")
		return 1
	}
	if !*unpin && *targets == "" {
		fmt.Fprintln(os.Stderr, "dso-cli migrate: need -targets or -unpin")
		return 1
	}
	view, err := staticView(*members)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}
	cmd := server.MigrateCmd{Ref: core.Ref{Type: *typ, Key: *key}, Unpin: *unpin}
	for _, t := range splitGroup(*targets) {
		cmd.Targets = append(cmd.Targets, ring.NodeID(t))
	}
	body, err := core.EncodeValue(cmd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dso-cli:", err)
		return 1
	}

	// The primary under the installed directives is unknown to a static
	// member list, so try every member: the primary accepts, the rest
	// answer ErrWrongNode.
	var lastErr error
	for _, id := range view.Members {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		err := sendMigrate(ctx, view.Addrs[id], body)
		cancel()
		if err == nil {
			if *unpin {
				fmt.Printf("%s[%s] un-pinned (hash placement) via %s\n", *typ, *key, id)
			} else {
				fmt.Printf("%s[%s] migrated to %s via %s\n", *typ, *key, *targets, id)
			}
			return 0
		}
		lastErr = err
	}
	fmt.Fprintln(os.Stderr, "dso-cli: migration failed:", lastErr)
	return 1
}

// sendMigrate performs one KindMigrate round-trip against a node.
func sendMigrate(ctx context.Context, addr string, body []byte) error {
	conn, err := rpc.TCP{}.Dial(addr)
	if err != nil {
		return err
	}
	rc := rpc.NewClient(conn)
	defer func() { _ = rc.Close() }()
	out, err := rc.Call(ctx, server.KindMigrate, body)
	rpc.PutBuffer(out)
	return err
}

// fetchRebalanceStatus performs one KindRebalanceStatus round-trip.
func fetchRebalanceStatus(ctx context.Context, addr string) (server.RebalanceStatus, error) {
	conn, err := rpc.TCP{}.Dial(addr)
	if err != nil {
		return server.RebalanceStatus{}, err
	}
	rc := rpc.NewClient(conn)
	defer func() { _ = rc.Close() }()
	raw, err := rc.Call(ctx, server.KindRebalanceStatus, nil)
	if err != nil {
		return server.RebalanceStatus{}, err
	}
	var st server.RebalanceStatus
	err = core.DecodeValue(raw, &st)
	rpc.PutBuffer(raw)
	if err != nil {
		return server.RebalanceStatus{}, err
	}
	return st, nil
}
